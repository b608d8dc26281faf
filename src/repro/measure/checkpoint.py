"""Crash-resilient campaign checkpoints.

A weeks-long sweep (§3) must survive the driver being killed.  The
executor appends every completed shard -- in its compact wire format --
to a JSON-lines journal as soon as it merges; a restarted run replays
finished shards from disk and re-probes only the rest.  Because a shard's
traces are a pure function of ``(engine seed, cloud, region, dst)`` plus
the observation-fault plan, the replayed stream is bit-identical to what
a clean uninterrupted run would have produced.

Layout: one ``<label>.jsonl`` file per campaign under the checkpoint
directory.  The first line is a header carrying a *fingerprint* of the
campaign identity (cloud, seed, regions, targets, shard size, and the
observation-fault signature); every following line is one completed
shard.  A journal whose fingerprint does not match the new run -- e.g.
round-2 targets changed because round 1 found different CBIs -- is
discarded rather than trusted.  A torn final line (the process died
mid-write) is silently dropped.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.fsutil import atomic_write_text, safe_name

_FORMAT_VERSION = 1


class CampaignCheckpoint:
    """The shard journal of one campaign.

    ``get``/``put`` speak the executor's packed wire format (see
    ``executor._pack_result``); the journal never holds live objects.
    Each shard is kept in memory only as its encoded journal line --
    ``get`` decodes it on demand -- so a campaign's journal costs one
    string per shard rather than a tree of lists.  Tracing span rows
    never enter the journal either: the executor re-packs the bare
    4-element result before calling ``put``, so a resumed run can never
    replay another run's stale wall-clock.
    """

    def __init__(self, path: Union[str, Path], fingerprint: str, resume: bool = True) -> None:
        self.path = Path(path)
        self.fingerprint = fingerprint
        #: shard index -> its journal line (JSON, no trailing newline).
        self._lines: Dict[int, str] = {}
        self.stale = False  # an existing journal was discarded
        if resume:
            self._load()
        elif self.path.exists():
            self.path.unlink()
        if not self._has_header():
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.write_text(self._header() + "\n")

    # ------------------------------------------------------------------

    def _has_header(self) -> bool:
        return self.path.exists() and self.path.stat().st_size > 0

    def _header(self) -> str:
        return json.dumps(
            {"version": _FORMAT_VERSION, "fingerprint": self.fingerprint}
        )

    def _load(self) -> None:
        if not self.path.exists():
            return
        try:
            lines = self.path.read_text().splitlines()
        except OSError:
            return
        if not lines:
            return
        try:
            header = json.loads(lines[0])
        except ValueError:
            header = None
        if (
            not isinstance(header, dict)
            or header.get("version") != _FORMAT_VERSION
            or header.get("fingerprint") != self.fingerprint
        ):
            # A different campaign (or format) wrote this journal: the
            # stored shards would not match this run's plan.  Start over.
            self.stale = True
            self.path.unlink()
            return
        for line in lines[1:]:
            try:
                row = json.loads(line)
            except ValueError:
                break  # torn final write; everything before it is good
            if isinstance(row, dict) and "shard" in row and "packed" in row:
                self._lines[int(row["shard"])] = line

    # ------------------------------------------------------------------

    @property
    def completed_shards(self) -> int:
        return len(self._lines)

    def has(self, shard_index: int) -> bool:
        return shard_index in self._lines

    def get(self, shard_index: int) -> Optional[Sequence[Any]]:
        line = self._lines.get(shard_index)
        return None if line is None else json.loads(line)["packed"]

    def put(self, shard_index: int, packed: Sequence[Any]) -> None:
        """Journal one completed shard (append + flush, torn-write safe)."""
        if shard_index in self._lines:
            return
        line = json.dumps({"shard": shard_index, "packed": packed})
        with open(self.path, "a") as fh:
            fh.write(line + "\n")
            fh.flush()
        self._lines[shard_index] = line

    def finalize(self) -> None:
        """Compact the journal into one atomically-replaced, fsynced file.

        The append path above is fast but a hard kill can still tear its
        final line; the reader tolerates that, but once a campaign (or an
        interrupted study) reaches a quiescent point we rewrite the whole
        journal through :func:`~repro.fsutil.atomic_write_text` so the
        on-disk state is durable and untorn.  Idempotent; shard order is
        sorted so the finalized bytes are deterministic.
        """
        if not self.path.parent.exists():
            return
        lines = [self._header()]
        lines.extend(self._lines[index] for index in sorted(self._lines))
        atomic_write_text(self.path, "\n".join(lines) + "\n")


class CheckpointStore:
    """A directory of per-campaign journals for one study run.

    The store tracks every journal it opened so an interrupt handler can
    :meth:`finalize_all` -- flush and atomically rewrite each journal --
    before the process exits.
    """

    def __init__(self, root: Union[str, Path], resume: bool = False) -> None:
        self.root = Path(root)
        self.resume = resume
        self.root.mkdir(parents=True, exist_ok=True)
        self._open: List[CampaignCheckpoint] = []

    def campaign(self, label: str, fingerprint: str) -> CampaignCheckpoint:
        path = self.root / (safe_name(label, "campaign") + ".jsonl")
        checkpoint = CampaignCheckpoint(path, fingerprint, resume=self.resume)
        self._open.append(checkpoint)
        return checkpoint

    def finalize_all(self) -> None:
        """Finalize every journal opened through this store (idempotent)."""
        for checkpoint in self._open:
            checkpoint.finalize()
