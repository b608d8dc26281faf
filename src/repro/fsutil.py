"""Filesystem durability and naming helpers shared across layers.

Both checkpoint stores -- the campaign shard journal
(:mod:`repro.measure.checkpoint`) and the stage store
(:mod:`repro.core.stages`) -- persist through :func:`atomic_write_text`:
write a temp file, flush, fsync, atomic rename, fsync the directory.  It
lives here, at the bottom of the layer stack next to
:mod:`repro.errors`, so the one durability routine is shared instead of
copied into each store.
"""

from __future__ import annotations

import os
import re
from pathlib import Path
from typing import Union

__all__ = ["atomic_write_text", "fsync_dir", "safe_name"]


def atomic_write_text(path: Union[str, Path], text: str) -> None:
    """Replace ``path`` with ``text`` so a hard kill never tears it.

    After this returns the new content is durable; if the process dies
    midway, ``path`` still holds its previous content (a stale
    ``<name>.tmp`` may be left behind and is overwritten next time).
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    fsync_dir(path.parent)


def fsync_dir(path: Union[str, Path]) -> None:
    """fsync a directory so a rename within it is durable (best effort)."""
    try:
        fd = os.open(str(path), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def safe_name(label: str, fallback: str) -> str:
    """``vpi:google`` -> ``vpi_google`` (filesystem-safe, collision-poor)."""
    return re.sub(r"[^A-Za-z0-9_.-]", "_", label) or fallback
