"""The benchmark's workloads and one measured cycle of each.

Every workload runs the study with the bench parameters' expansion
stride 8, VPI on and cross-validation off, over one fixed world at scale
0.006, world seed 7.  The benchmark seed is the study seed: it keys the
probe noise and the dataset coverage gaps.  The world and the fault plan
stay fixed so that every seed probes the same fabric (about 33,500
traceroutes) under the same faults, and the spread between seeds is the
spread of the measurement, not of the world's size.  The world is
smaller than the bench parameters' scale 0.02 so that one run times
several studies; 0.006 is about the smallest scale whose studies still
detect a VPI.

A *cycle* is one set-up (``build_world`` plus ``AmazonPeeringStudy``
construction) followed by the workload's ``.run()`` calls: one for most
workloads, a write run and a resumed run for ``study-checkpointed``.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List

from repro import AmazonPeeringStudy, StudyConfig, WorldConfig, build_world
from repro.core.results import StudyResult
from repro.measure.faults import FaultPlan
from repro.world.model import World

SCALE = 0.006
WORLD_SEED = 7
EXPANSION_STRIDE = 8

#: ``study-ratelimited``'s fault plan: the CI chaos plan.
RATE_LIMIT_PLAN = "rate-limit=0.3w3,seed=7"


@dataclass(frozen=True)
class Workload:
    name: str
    checkpointed: bool = False
    rate_limited: bool = False

    @property
    def runs_per_cycle(self) -> int:
        return 2 if self.checkpointed else 1

    @property
    def clean(self) -> bool:
        """Clean workloads must reproduce the serial study's digest."""
        return not self.rate_limited

    def config(self, seed: int) -> StudyConfig:
        config = StudyConfig(
            scale=SCALE,
            seed=seed,
            expansion_stride=EXPANSION_STRIDE,
            run_vpi=True,
            run_crossval=False,
            workers=1,
            retry_backoff_s=0.0,
        )
        if self.rate_limited:
            config = config.replace(
                fault_plan=FaultPlan.parse(RATE_LIMIT_PLAN),
                adaptive=True,
                breaker_threshold=2,
                recovery_rounds=2,
            )
        return config


#: The clean serial study whose digest every clean workload must match.
SERIAL = Workload("study-serial")

#: What each workload is for lives in BENCHMARK.json and README.md.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("study-checkpointed", checkpointed=True),
        Workload("study-ratelimited", rate_limited=True),
    )
}


@dataclass
class Run:
    """One ``.run()`` call: its wall time and result."""

    seconds: float
    result: StudyResult
    label: str


@dataclass
class Cycle:
    """One set-up plus the workload's runs."""

    world: World
    study: AmazonPeeringStudy
    world_s: float
    datasets_s: float
    runs: List[Run] = field(default_factory=list)
    #: file sizes of the checkpoint directory after the write run.
    journal_bytes: int = 0
    store_bytes: int = 0

    @property
    def setup_s(self) -> float:
        return self.world_s + self.datasets_s

    @property
    def study_s(self) -> float:
        return sum(run.seconds for run in self.runs)

    @property
    def result(self) -> StudyResult:
        """The first run's result (the write run when checkpointed)."""
        return self.runs[0].result


def set_up(workload: Workload, seed: int, **config_changes: Any) -> Cycle:
    t0 = time.perf_counter()
    world = build_world(WorldConfig(scale=SCALE, seed=WORLD_SEED))
    t1 = time.perf_counter()
    config = workload.config(seed)
    if config_changes:
        config = config.replace(**config_changes)
    study = AmazonPeeringStudy(world, config)
    t2 = time.perf_counter()
    return Cycle(
        world=world,
        study=study,
        world_s=t1 - t0,
        datasets_s=t2 - t1,
    )


def _timed_run(study: AmazonPeeringStudy, label: str) -> Run:
    t0 = time.perf_counter()
    result = study.run()
    return Run(time.perf_counter() - t0, result, label)


def _bytes(directory: Path, pattern: str) -> int:
    return sum(p.stat().st_size for p in directory.glob(pattern))


def run_cycle(workload: Workload, seed: int, scratch: Path) -> Cycle:
    """Set up once and run the workload; checkpoints live under ``scratch``."""
    if not workload.checkpointed:
        cycle = set_up(workload, seed)
        cycle.runs.append(_timed_run(cycle.study, "study"))
        return cycle
    scratch.mkdir(parents=True, exist_ok=True)
    directory = Path(tempfile.mkdtemp(prefix="ckpt-", dir=scratch))
    try:
        cycle = set_up(workload, seed, checkpoint_dir=str(directory))
        cycle.runs.append(_timed_run(cycle.study, "write"))
        cycle.journal_bytes = _bytes(directory, "*.jsonl")
        cycle.store_bytes = _bytes(directory, "stage_*.json")
        resumed = AmazonPeeringStudy(
            cycle.world, cycle.study.config.replace(resume=True)
        )
        cycle.runs.append(_timed_run(resumed, "resume"))
        return cycle
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def quarantined(cycle: Cycle) -> int:
    return sum(run.result.metrics.total_quarantined for run in cycle.runs)


def reference_digest(seed: int) -> str:
    """The digest of the clean serial study every clean workload must match."""
    cycle = set_up(SERIAL, seed)
    return cycle.study.run().digest()
