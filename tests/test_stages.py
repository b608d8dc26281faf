"""Stage checkpointing: codec, store, chain, and kill/resume bit-identity.

The contract under test is ISSUE 8's tentpole: a study killed after any
stage and resumed from ``--checkpoint-dir`` reproduces the uninterrupted
run's ``StudyResult.digest()`` bit-for-bit, without re-executing the
stages that already completed.
"""

import hashlib
import json
import re
from collections import Counter

import pytest

from repro.core.borders import SegmentRecord
from repro.core.config import StudyConfig
from repro.core.pipeline import AmazonPeeringStudy
from repro.core.stages import (
    STAGE_ORDER,
    StageChain,
    StageStore,
    decode,
    encode,
    payload_digest,
    study_fingerprint,
)
from repro.errors import DataError, StudyInterrupted
from repro.measure.campaign import CampaignStats
from repro.measure.supervise import StudySupervisor


def _config(**overrides):
    # adaptive=True enables every stage in STAGE_ORDER (including
    # "recovery") so the kill/resume matrix covers the whole graph; on
    # a clean plan the control plane is digest-inert (tests/
    # test_adaptive.py pins that), so the bit-identity contract is
    # unchanged.
    base = dict(seed=3, expansion_stride=8, crossval_folds=2, adaptive=True)
    base.update(overrides)
    return StudyConfig(**base)


@pytest.fixture(scope="module")
def clean_checkpoint_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("clean-checkpoints")


@pytest.fixture(scope="module")
def clean_result(tiny_world, clean_checkpoint_dir):
    # The uninterrupted reference run also checkpoints, so the bytes both
    # stores write are pinned below at no extra cost.
    config = _config(checkpoint_dir=str(clean_checkpoint_dir))
    return AmazonPeeringStudy(tiny_world, config=config).run()


@pytest.fixture(scope="module")
def clean_digest(clean_result):
    return clean_result.digest()


# --- codec -------------------------------------------------------------


class TestCodec:
    def test_scalars_round_trip(self):
        for value in (None, True, False, 0, -3, 1.5, "abi", ""):
            assert decode(encode(value)) == value

    def test_containers_round_trip(self):
        value = {
            "list": [1, 2, 3],
            "tuple": (1, "a", (2, 3)),
            "set": {3, 1, 2},
            "frozenset": frozenset({"b", "a"}),
            "counter": Counter({"x": 2, "y": 1}),
            "tuple_keyed": {(167772161, 167772162): 0.5},
        }
        assert decode(encode(value)) == value

    def test_set_encoding_is_sorted(self):
        encoded = encode({3, 1, 2})
        assert encoded == {"__s__": [1, 2, 3]}

    def test_dict_and_counter_keep_insertion_order(self):
        # The pipeline's dict order is itself deterministic; the codec
        # must preserve it so resumed iteration matches the live run.
        d = {"b": 1, "a": 2}
        assert list(decode(encode(d))) == ["b", "a"]
        c = Counter()
        c["z"] = 1
        c["a"] = 2
        assert list(decode(encode(c))) == ["z", "a"]

    def test_registered_dataclasses_round_trip(self):
        stats = CampaignStats(probes=7, completed=5, by_region={"use1": 7})
        segment = SegmentRecord(
            abi=167772161,
            cbi=167772162,
            count=3,
            regions={"use1"},
            prev_ips=Counter({167772160: 3}),
            dst_slash24s={1},
            dst_sample={167772200},
        )
        payload = {"stats": stats, "segments": {(1, 2): segment}}
        assert decode(encode(payload)) == payload

    def test_unregistered_type_is_a_data_error(self):
        class NotRegistered:
            pass

        with pytest.raises(DataError):
            encode({"x": NotRegistered()})

    def test_unknown_tag_is_a_data_error(self):
        with pytest.raises(DataError):
            decode({"__nope__": []})

    def test_unknown_dataclass_is_a_data_error(self):
        with pytest.raises(DataError):
            decode({"__dc__": "Forged", "fields": {}})

    def test_stale_dataclass_record_is_a_data_error(self):
        with pytest.raises(DataError):
            decode({"__dc__": "CampaignStats", "fields": {"renamed": 1}})

    def test_payload_digest_is_stable(self):
        encoded = encode({"a": {2, 1}, "b": (1, 2)})
        assert payload_digest(encoded) == payload_digest(encode({"a": {1, 2}, "b": (1, 2)}))
        assert payload_digest(encoded) != payload_digest(encode({"a": {1, 3}, "b": (1, 2)}))


# --- chain -------------------------------------------------------------


class TestStageChain:
    def test_upstream_digest_invalidates_downstream(self):
        a = StageChain("base")
        b = StageChain("base")
        assert a.fingerprint("round1") == b.fingerprint("round1")
        a.advance("round1", "digest-1")
        b.advance("round1", "digest-2")
        assert a.fingerprint("round2") != b.fingerprint("round2")

    def test_execution_knobs_do_not_change_the_fingerprint(self, tiny_world):
        base = _config()
        resumable = base.replace(
            workers=4,
            checkpoint_dir="/tmp/somewhere",
            resume=True,
            shard_timeout=1.0,
            max_retries=5,
            deadline_s=60.0,
            retry_budget=3,
            hung_shard_after_s=10.0,
            trace=True,
        )
        scale = tiny_world.config.scale
        seed = tiny_world.config.seed
        assert study_fingerprint(scale, seed, base) == study_fingerprint(
            scale, seed, resumable
        )

    def test_content_knobs_change_the_fingerprint(self, tiny_world):
        scale = tiny_world.config.scale
        seed = tiny_world.config.seed
        base = study_fingerprint(scale, seed, _config())
        assert base != study_fingerprint(scale, seed, _config(seed=4))
        assert base != study_fingerprint(scale, seed, _config(expansion_stride=4))
        assert base != study_fingerprint(scale, seed, _config(run_vpi=False))


# --- store -------------------------------------------------------------


class TestStageStore:
    def test_round_trip(self, tmp_path):
        store = StageStore(tmp_path)
        digest = store.save("alias", "fp", {"n": 3, "ips": {2, 1}})
        loaded = store.load("alias", "fp")
        assert loaded == ({"n": 3, "ips": {1, 2}}, digest)

    def test_fingerprint_mismatch_recomputes(self, tmp_path):
        store = StageStore(tmp_path)
        store.save("alias", "fp", {"n": 3})
        assert store.load("alias", "other-fp") is None

    def test_torn_write_recomputes(self, tmp_path):
        store = StageStore(tmp_path)
        store.save("alias", "fp", {"n": 3})
        path = tmp_path / "stage_alias.json"
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        assert store.load("alias", "fp") is None

    def test_tampered_payload_recomputes(self, tmp_path):
        store = StageStore(tmp_path)
        store.save("alias", "fp", {"n": 3})
        path = tmp_path / "stage_alias.json"
        doc = json.loads(path.read_text())
        doc["payload"] = encode({"n": 4})
        path.write_text(json.dumps(doc))
        assert store.load("alias", "fp") is None

    def test_fresh_run_clears_stale_checkpoints(self, tmp_path):
        StageStore(tmp_path).save("alias", "fp", {"n": 3})
        store = StageStore(tmp_path, resume=False)
        assert store.load("alias", "fp") is None

    def test_resume_keeps_checkpoints_and_leaves_no_temp_files(self, tmp_path):
        StageStore(tmp_path).save("alias", "fp", {"n": 3})
        store = StageStore(tmp_path, resume=True)
        assert store.load("alias", "fp") is not None
        assert not list(tmp_path.glob("*.tmp"))


# --- on-disk bytes ------------------------------------------------------

#: sha256 of every file the clean run leaves in its checkpoint directory.
#: Each journal line's packed shard carries the shard's wall-clock seconds
#: as its third element; that one field is zeroed before hashing, every
#: other byte of both stores is pinned.
STORE_SHA256 = {
    "round1.jsonl": "832724aa13a7f28abfccbee5fcbab03b23f43b678e58bf24784b63b987b331f4",
    "round2.jsonl": "898c1a52e3cf6ec09798c6be5ab12af836e6be51f0668ffc7135612afa979fc6",
    "stage_alias.json": "5c9854f26fb57c1c2e48f334498017a48e98f50a1834c20a362d000cf1e4de0d",
    "stage_crossval.json": "dc827f6bc0838f4608bc36e43da8e59b3de67f5c4d8e94f29708779dc71a77f1",
    "stage_grouping.json": "05a09c61c99c67447ffd429b3a3c69e8656a039de0bc85e5b0f74fe45a4f9215",
    "stage_heuristics.json": "07d711e72a2107c61db500a88cd98b1427a590468c9af62a817668561709ac93",
    "stage_icg.json": "36fb73fe68bd3d0ad7f4c43f4d02348a6a590dba3c233b6580feb9c320fc27a9",
    "stage_pinning.json": "d1aeef7eec083a2df25249575b90da5773887514aa718a265418c25587f49c8d",
    "stage_quality.json": "7f06bbd0dcdcc30d988b86ae3bbb9b98ff36de92a7eaf047720273d3b40b1bfc",
    "stage_recovery.json": "76c37a90ef538ae29a99215660161dbd42456ead44a1fa7bcd0236f8dde57ced",
    "stage_round1.json": "51fced66c6e95c6fe17a70e5ca2215f46e0aebed7eb1b93d6c971be5b499600d",
    "stage_round2.json": "2885b395ce8c5a7ebbf63eeabe89187b42ff3fae9d5fd1add17eab7ace610e08",
    "stage_validate.json": "f94035a741326735bd9d73683ad7e9193d11500190ead06cad854c4447f87fe7",
    "stage_vpi.json": "cc0a19d65e18b24b92fcb7d35116273c429a19d38d97c8e5862a87e30e1ec9e1",
    "vpi_google.jsonl": "87dbff29d35dc6e5a638e570203dfe7b3b3f9ab14e44cc93f4740fb59530a65e",
    "vpi_ibm.jsonl": "d4c757c6774c1d3c622b9d18eddb4f226ee1b208267a58a6dcad56db65af0782",
    "vpi_microsoft.jsonl": "0b1d0613d983743889a0321bf604c1d417188e7b1be718385c4c11bcdd58d5d9",
    "vpi_oracle.jsonl": "579b1ccd7c7e2b30973ef823684c778da2a3682cef842e5ad462dd1e725600bf",
}

_SHARD_SECONDS = re.compile(
    rb'^(\{"shard": \d+, "packed": \[\d+, "[^"]*", )[^,]+,', re.MULTILINE
)


def test_checkpoint_store_bytes_are_pinned(clean_result, clean_checkpoint_dir):
    hashes = {}
    for path in sorted(clean_checkpoint_dir.iterdir()):
        data = path.read_bytes()
        if path.suffix == ".jsonl":
            data, shards = _SHARD_SECONDS.subn(rb"\g<1>0.0,", data)
            # Every line after the header is a shard record.
            assert shards == data.count(b"\n") - 1
        hashes[path.name] = hashlib.sha256(data).hexdigest()
    assert hashes == STORE_SHA256


# --- kill/resume bit-identity ------------------------------------------


def _install_compute_spies(monkeypatch):
    """Count ``_compute_<stage>`` calls without changing behaviour."""
    calls = {}
    for stage in STAGE_ORDER:
        name = f"_compute_{stage}"
        original = getattr(AmazonPeeringStudy, name)

        def spy(self, ctx, _original=original, _stage=stage):
            calls[_stage] = calls.get(_stage, 0) + 1
            return _original(self, ctx)

        monkeypatch.setattr(AmazonPeeringStudy, name, spy)
    return calls


@pytest.mark.parametrize("stage", STAGE_ORDER)
def test_killed_after_any_stage_resumes_bit_identically(
    tiny_world, tmp_path, monkeypatch, clean_digest, stage
):
    config = _config(checkpoint_dir=str(tmp_path))
    supervisor = StudySupervisor(abort_after_stage=stage)
    with pytest.raises(StudyInterrupted):
        AmazonPeeringStudy(tiny_world, config=config, supervisor=supervisor).run()
    completed = supervisor.stages_completed
    assert completed and completed[-1] == stage

    calls = _install_compute_spies(monkeypatch)
    resumed = AmazonPeeringStudy(tiny_world, config=config.replace(resume=True)).run()
    assert resumed.digest() == clean_digest
    for done in completed:
        assert calls.get(done, 0) == 0, f"stage {done!r} recomputed on resume"
    for pending in [s for s in STAGE_ORDER if s not in completed]:
        assert calls.get(pending) == 1, f"stage {pending!r} did not run"


def test_recovery_stage_skipped_when_not_adaptive(
    tiny_world, tmp_path, monkeypatch, clean_digest
):
    calls = _install_compute_spies(monkeypatch)
    result = AmazonPeeringStudy(
        tiny_world, config=_config(adaptive=False)
    ).run()
    assert "recovery" not in calls
    assert calls["round1"] == 1
    assert result.resilience is None
    # ...and the adaptive-but-clean fixture digest is the same content.
    assert result.digest() == clean_digest


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_resume_digest_is_worker_count_invariant(
    tiny_world, tmp_path, clean_digest, workers
):
    """Killed under workers=2, resumed under workers in {1, 2, 4}."""
    config = _config(checkpoint_dir=str(tmp_path), workers=2)
    supervisor = StudySupervisor(abort_after_stage="round2")
    with pytest.raises(StudyInterrupted):
        AmazonPeeringStudy(tiny_world, config=config, supervisor=supervisor).run()
    resumed = AmazonPeeringStudy(
        tiny_world, config=config.replace(resume=True, workers=workers)
    ).run()
    assert resumed.digest() == clean_digest


def test_resumed_stages_are_marked_in_the_trace(tiny_world, tmp_path, clean_digest):
    config = _config(checkpoint_dir=str(tmp_path))
    supervisor = StudySupervisor(abort_after_stage="alias")
    with pytest.raises(StudyInterrupted):
        AmazonPeeringStudy(tiny_world, config=config, supervisor=supervisor).run()
    resumed_study = AmazonPeeringStudy(tiny_world, config=config.replace(resume=True))
    result = resumed_study.run()
    assert result.digest() == clean_digest
    resumed_spans = {
        r.name
        for r in result.metrics.tracer.records
        if r.category == "stage" and r.counter("resumed")
    }
    assert resumed_spans == {
        "validate", "round1", "round2", "recovery", "heuristics", "alias",
    }


def test_torn_stage_checkpoint_recomputes_and_still_matches(
    tiny_world, tmp_path, clean_digest
):
    """A half-written stage file is recomputed, never trusted."""
    config = _config(checkpoint_dir=str(tmp_path))
    supervisor = StudySupervisor(abort_after_stage="alias")
    with pytest.raises(StudyInterrupted):
        AmazonPeeringStudy(tiny_world, config=config, supervisor=supervisor).run()
    torn = tmp_path / "stage_alias.json"
    torn.write_text(torn.read_text()[:40])
    resumed = AmazonPeeringStudy(tiny_world, config=config.replace(resume=True)).run()
    assert resumed.digest() == clean_digest


def test_interrupt_before_any_stage_then_resume(tiny_world, tmp_path, clean_digest):
    """A cancel requested up front stops at the first safe point."""
    config = _config(checkpoint_dir=str(tmp_path))
    supervisor = StudySupervisor()
    supervisor.request_cancel("received SIGINT")
    with pytest.raises(StudyInterrupted, match="SIGINT"):
        AmazonPeeringStudy(tiny_world, config=config, supervisor=supervisor).run()
    assert supervisor.stages_completed == []
    resumed = AmazonPeeringStudy(tiny_world, config=config.replace(resume=True)).run()
    assert resumed.digest() == clean_digest


def test_interrupt_emits_study_interrupted_span(tiny_world, tmp_path):
    trace_path = tmp_path / "trace.jsonl"
    config = _config(
        checkpoint_dir=str(tmp_path / "ckpt"), trace_out=str(trace_path)
    )
    supervisor = StudySupervisor(abort_after_stage="round1")
    study = AmazonPeeringStudy(tiny_world, config=config, supervisor=supervisor)
    with pytest.raises(StudyInterrupted):
        study.run()
    assert supervisor.stages_completed == ["validate", "round1"]
    # The trace is written on the way out (finally), so the interrupt
    # span -- with its completed-stage counter -- is inspectable even
    # though run() raised.
    lines = [json.loads(line) for line in trace_path.read_text().splitlines()]
    interrupted = [r for r in lines if r.get("name") == "study-interrupted"]
    assert len(interrupted) == 1
    assert interrupted[0]["counters"]["stages_completed"] == 2


# --- salvage -----------------------------------------------------------


class TestSalvage:
    def test_salvage_recovers_the_completed_prefix(self, tiny_world, tmp_path):
        config = _config(checkpoint_dir=str(tmp_path))
        supervisor = StudySupervisor(abort_after_stage="pinning")
        with pytest.raises(StudyInterrupted):
            AmazonPeeringStudy(
                tiny_world, config=config, supervisor=supervisor
            ).run()
        salvage_config = config.replace(resume=True)
        result, recovered = AmazonPeeringStudy(
            tiny_world, config=salvage_config
        ).salvage()
        assert recovered == [
            "validate", "round1", "round2", "recovery",
            "heuristics", "alias", "pinning",
        ]
        assert result.pinning is not None
        assert result.round1_stats is not None
        assert len(result.table1) == 4
        assert result.vpi is None and result.grouping is None

    def test_salvage_without_checkpoints_recovers_nothing(
        self, tiny_world, tmp_path
    ):
        config = _config(checkpoint_dir=str(tmp_path), resume=True)
        result, recovered = AmazonPeeringStudy(tiny_world, config=config).salvage()
        assert recovered == []
        assert result.round1_stats is None

    def test_salvage_requires_a_checkpoint_dir(self, tiny_world):
        with pytest.raises(DataError):
            AmazonPeeringStudy(tiny_world, config=_config()).salvage()


# --- config guard rails -------------------------------------------------


def test_resume_without_checkpoint_dir_is_rejected():
    with pytest.raises(ValueError, match="checkpoint_dir"):
        _config(resume=True)


def test_cli_resume_without_checkpoint_dir_is_an_argparse_error(capsys):
    from repro.cli import main

    with pytest.raises(SystemExit) as excinfo:
        main(["study", "--resume"])
    assert excinfo.value.code == 2
    assert "--checkpoint-dir" in capsys.readouterr().err


def test_cli_salvage_without_checkpoint_dir_is_an_argparse_error(capsys):
    from repro.cli import main

    with pytest.raises(SystemExit) as excinfo:
        main(["study", "--salvage"])
    assert excinfo.value.code == 2
    assert "--checkpoint-dir" in capsys.readouterr().err
