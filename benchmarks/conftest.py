"""Benchmark fixtures: one full study per session, shared by every bench.

The heavy lifting (the probing campaigns) happens once in a session-scoped
fixture; each benchmark then times the *analysis* that regenerates its
table or figure, asserts the paper's shape, and prints the side-by-side
numbers.

Environment knobs:

* ``REPRO_BENCH_SCALE``  -- world scale (default 0.1, the paper's 1/10)
* ``REPRO_BENCH_SEED``   -- seed (default 7)
* ``REPRO_BENCH_STRIDE`` -- expansion probing stride (default 4; 1 is the
  paper-exact exhaustive /24 expansion, ~4x slower)
"""

from __future__ import annotations

import os

import pytest

from repro.bdrmap import BdrmapEngine
from repro.core.config import StudyConfig
from repro.core.pipeline import AmazonPeeringStudy
from repro.world.build import WorldConfig, build_world

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.1"))
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "7"))
BENCH_STRIDE = int(os.environ.get("REPRO_BENCH_STRIDE", "4"))


@pytest.fixture(scope="session")
def bench_world():
    return build_world(WorldConfig(scale=BENCH_SCALE, seed=BENCH_SEED))


@pytest.fixture(scope="session")
def bench_study(bench_world):
    """(study runner, result) for the full pipeline at benchmark scale."""
    runner = AmazonPeeringStudy(
        bench_world,
        StudyConfig(
            seed=BENCH_SEED,
            expansion_stride=BENCH_STRIDE,
            crossval_folds=10,
        ),
    )
    result = runner.run()
    return runner, result


@pytest.fixture(scope="session")
def bench_bdrmap(bench_study):
    runner, _result = bench_study
    engine = BdrmapEngine(
        runner.world, runner.bgp_r2, runner.relationships, runner.engine
    )
    return engine.run_all()


def show(title: str, lines) -> None:
    """Uniform paper-vs-measured output for bench logs.

    Written to the real stdout so the comparison survives pytest's
    capture and lands in ``bench_output.txt``.
    """
    import sys

    out = sys.__stdout__
    out.write(f"\n--- {title} " + "-" * max(0, 60 - len(title)) + "\n")
    for line in lines:
        out.write(f"{line}\n")
    out.flush()
