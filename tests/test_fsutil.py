"""The shared atomic-write primitive under both checkpoint stores."""

import os

import pytest

from repro.fsutil import atomic_write_text


def test_writes_and_replaces(tmp_path):
    path = tmp_path / "store.json"
    atomic_write_text(path, "first\n")
    atomic_write_text(path, "second\n")
    assert path.read_text() == "second\n"
    assert [p.name for p in tmp_path.iterdir()] == ["store.json"]


def test_leftover_temp_file_is_overwritten(tmp_path):
    path = tmp_path / "store.json"
    # An earlier crash left a half-written temp file behind.
    (tmp_path / "store.json.tmp").write_text("torn garbage that is longer")
    atomic_write_text(path, "fresh")
    assert path.read_text() == "fresh"
    assert not (tmp_path / "store.json.tmp").exists()


def test_failure_mid_write_keeps_the_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "store.json"
    atomic_write_text(path, "previous")

    def failing_fsync(fd):
        raise OSError("disk failure")

    monkeypatch.setattr(os, "fsync", failing_fsync)
    with pytest.raises(OSError, match="disk failure"):
        atomic_write_text(path, "replacement")
    assert path.read_text() == "previous"
