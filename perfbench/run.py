"""Study benchmark: checkpointed and rate-limited studies.

Usage, from the repository root::

    python3 perfbench/run.py --workload study-checkpointed --seed 7 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` repeats set-up-and-study cycles while another one is
expected to end within ``--seconds`` (at least one), and reports the
end-to-end metrics: the set-up median, the study median in units of the
kernel of ``reference`` timed just before and after each study, peak
RSS, and the ground-truth accuracy of the result.  ``--trace 1`` runs
one untraced cycle and one cycle with the layer wrappers of
``layertrace`` installed, and reports the per-layer metrics.  Metric names and units come from
``BENCHMARK.json``.

Correctness: a study fails if it raises, quarantines a shard, or its
digest differs from the reference.  Clean workloads must reproduce the
clean serial study's digest; ``study-ratelimited`` must reproduce its
own first digest at the seed; a traced study must match the untraced
one.  Reference digests are cached under ``perfbench/.cache`` keyed by
a hash of ``src/``, the workload definitions and the seed, and computed
(outside the measured window) when missing.

The last line of standard output is the JSON result; a readable table
goes to standard error.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, NoReturn, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE = HERE / ".cache"
SCRATCH = HERE / ".work"

#: Extra set-ups before and again after the measured cycles, so
#: ``setup_s`` is a median of many samples spread over the run.  One
#: set-up takes about 0.03 s, short enough that a single sample reflects
#: whether the host CPU was fast or slow in that instant.
SETUP_REPS = 10

#: Set-ups timed for ``world.build_s`` and ``datasets.build_s``.
LAYER_SETUP_REPS = 3

#: Stop retrying a workload after this many failed cycles.
MAX_FAILED_CYCLES = 2


def _fail(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


if not (SRC / "repro" / "__init__.py").is_file():
    _fail(f"no program source under {SRC.name}/repro; run from a checkout")
sys.path.insert(0, str(SRC))

from layertrace import ROOT as ROOT_LAYER, LayerTracer  # noqa: E402
from repro.core.evaluation import evaluate_study  # noqa: E402
from reference import reference_seconds  # noqa: E402
from workloads import (  # noqa: E402
    Cycle,
    WORKLOADS,
    Workload,
    quarantined,
    reference_digest,
    run_cycle,
    set_up,
)


def _declared() -> Dict[str, Any]:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        _fail(f"{path.name} not found next to the benchmark")
    return json.loads(path.read_text())


def _source_hash() -> str:
    """Identity of the program and of the workload definitions."""
    h = hashlib.sha256()
    paths = sorted((SRC / "repro").rglob("*.py")) + [HERE / "workloads.py"]
    for path in paths:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


class DigestCache:
    """Reference digests keyed by (source hash, kind, seed), one file each."""

    def __init__(self, source_hash: str) -> None:
        self.source_hash = source_hash

    def _path(self, kind: str, seed: int) -> Path:
        return CACHE / f"{self.source_hash}-{kind}-{seed}.digest"

    def get(self, kind: str, seed: int) -> Optional[str]:
        path = self._path(kind, seed)
        return path.read_text().strip() if path.is_file() else None

    def put(self, kind: str, seed: int, digest: str) -> None:
        CACHE.mkdir(parents=True, exist_ok=True)
        path = self._path(kind, seed)
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        tmp.write_text(digest + "\n")
        os.replace(tmp, path)


class Checker:
    """Counts attempted and failed studies and holds the digest rules."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        #: (label, digest) of every study that ran to completion.
        self.digests: List[Tuple[str, str]] = []

    def fail(self, runs: int, why: str) -> None:
        self.failed += runs
        self.errors.append(why)

    def note_cycle(self, cycle: Cycle) -> None:

        lost = quarantined(cycle)
        if lost:
            self.fail(len(cycle.runs), f"{lost} shard(s) quarantined")
            return
        for run in cycle.runs:
            self.digests.append((run.label, run.result.digest()))

    def finish(self) -> None:
        """Compare every digest against the seed's reference."""

        if not self.digests:
            return
        cache = DigestCache(_source_hash())
        if self.workload.clean:
            kind = "clean"
            reference = cache.get(kind, self.seed) or reference_digest(self.seed)
        else:
            kind = "ratelimited"
            reference = cache.get(kind, self.seed) or self.digests[0][1]
        mismatched = [d for d in self.digests if d[1] != reference]
        if mismatched:
            label, digest = mismatched[0]
            self.fail(
                len(mismatched),
                f"{len(mismatched)} digest(s) differ from the reference "
                f"{reference[:12]} (first: {label} {digest[:12]})",
            )
        elif cache.get(kind, self.seed) is None:
            cache.put(kind, self.seed, reference)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0


def _attempt(
    checker: Checker, workload: Workload, make: Callable[[], Cycle]
) -> Optional[Cycle]:
    checker.attempted += workload.runs_per_cycle
    try:
        cycle = make()
    except Exception as exc:  # a study that raises is a failed run
        checker.fail(workload.runs_per_cycle, f"{type(exc).__name__}: {exc}")
        return None
    checker.note_cycle(cycle)
    return cycle


def _evaluation_metrics(cycle: Cycle) -> Dict[str, float]:

    ev = evaluate_study(cycle.world, cycle.result)
    return {
        "abi_precision": ev.borders.abi_precision,
        "abi_recall": ev.borders.abi_recall,
        "cbi_precision": ev.borders.cbi_precision,
        "cbi_recall": ev.borders.cbi_recall,
        "vpi_tightness": ev.vpi.lower_bound_tightness,
    }


def _peak_rss_mb() -> float:
    # ru_maxrss is KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cycle(checker: Checker, workload: Workload, seed: int) -> Optional[Cycle]:
    return _attempt(checker, workload, lambda: run_cycle(workload, seed, SCRATCH))


def _setup_samples(workload: Workload, seed: int, reps: int) -> List[float]:

    samples = []
    for _ in range(reps):
        samples.append(set_up(workload, seed).setup_s)
        gc.collect()
    return samples


def measure_end_to_end(
    workload: Workload, seed: int, seconds: float
) -> Tuple[Checker, Dict[str, float]]:

    start = time.perf_counter()
    checker = Checker(workload, seed)
    setups = _setup_samples(workload, seed, SETUP_REPS)
    studies: List[float] = []
    relative: List[float] = []
    accuracy: Dict[str, float] = {}
    failed_cycles = 0
    before = reference_seconds()
    while True:
        began = time.perf_counter()
        cycle = _cycle(checker, workload, seed)
        if cycle is None:
            failed_cycles += 1
            if failed_cycles >= MAX_FAILED_CYCLES:
                break
            before = reference_seconds()
            continue
        if not accuracy:
            # Evaluation is outside every timed window.
            accuracy = _evaluation_metrics(cycle)
        setups.append(cycle.setup_s)
        study_s = cycle.study_s
        del cycle
        gc.collect()
        after = reference_seconds()
        studies.append(study_s)
        relative.append(study_s / ((before + after) / 2))
        before = after
        # Start another cycle only if it should end within ``seconds``,
        # so a run never overshoots by most of a cycle.
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            break
    peak = _peak_rss_mb()
    setups.extend(_setup_samples(workload, seed, SETUP_REPS))
    checker.finish()
    if not studies:
        return checker, {}
    metrics = {
        "setup_s": statistics.median(setups),
        "study_rel": statistics.median(relative),
        "peak_rss_mb": peak,
    }
    metrics.update(accuracy)
    print(
        f"perfbench: {workload.name} seed={seed}: {len(studies)} cycle(s), "
        f"study_s median {statistics.median(studies):.3f} s "
        f"(min {min(studies):.3f}, max {max(studies):.3f})",
        file=sys.stderr,
    )
    return checker, metrics


def _span_totals(cycle: Cycle) -> Tuple[int, float]:
    """Shard spans and summed ``worker_seconds`` over the cycle's runs."""
    shards = 0
    busy = 0.0
    for run in cycle.runs:
        for record in run.result.metrics.tracer.records:
            if record.category == "shard":
                shards += 1
                busy += record.counter("worker_seconds")
    return shards, busy


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(
    tracer: LayerTracer,
    traced: Cycle,
    untraced: Cycle,
    setups: List[Tuple[float, float]],
) -> Dict[str, float]:

    metrics: Dict[str, float] = {}
    for name, stat in tracer.stats.items():
        if name == ROOT_LAYER:
            continue
        metrics[f"{name}.calls"] = stat.calls
        metrics[f"{name}.self_s"] = stat.self_s
    metrics["traceroute.hops"] = tracer.stats["traceroute.trace"].items
    metrics["world.build_s"] = statistics.median(w for w, _ in setups)
    metrics["datasets.build_s"] = statistics.median(d for _, d in setups)

    shards, busy = _span_totals(untraced)
    metrics["executor.shards"] = shards
    metrics["executor.worker_busy_s"] = busy

    study = traced.study
    annotators = [study.annotator_r1, study.annotator_r2]
    annotators.extend(study.cloud_annotators.values())
    hits = sum(a.cache_hits for a in annotators)
    misses = sum(a.cache_misses for a in annotators)
    metrics["annotate.cache_misses"] = misses
    metrics["annotate.miss_rate"] = _ratio(misses, hits + misses)
    metrics["datasets.lpm.lookups"] = (
        study.bgp_r1.lookup_count + study.bgp_r2.lookup_count
    )
    metrics["datasets.lpm.probes"] = study.bgp_r1.probe_count + study.bgp_r2.probe_count

    metrics["checkpoint.journal_bytes"] = traced.journal_bytes
    metrics["stages.store_bytes"] = traced.store_bytes
    metrics["checkpoint.resume_s"] = sum(
        run.seconds for run in untraced.runs if run.label == "resume"
    )

    result = traced.result
    report = result.resilience
    deferred = report.deferred if report is not None else 0
    queued = deferred + (report.quarantine_lost if report is not None else 0)
    recovered = report.recovered if report is not None else 0
    metrics["adapt.deferred"] = deferred
    metrics["adapt.recovered"] = recovered
    metrics["adapt.recovered_ratio"] = _ratio(recovered, queued)
    metrics["health.breaker_transitions"] = (
        len(report.breaker_events) if report is not None else 0
    )

    campaigns = {"round1": [result.round1_stats], "round2": [result.round2_stats]}
    campaigns["vpi"] = list(result.vpi.stats.values()) if result.vpi else []
    for label, stats in campaigns.items():
        present = [s for s in stats if s is not None]
        metrics[f"campaign.probes.{label}"] = sum(s.probes for s in present)
        metrics[f"campaign.completed.{label}"] = sum(s.completed for s in present)

    metrics["pinning.accuracy"] = evaluate_study(traced.world, result).pinning.accuracy

    metrics["obs.study_s"] = traced.study_s
    metrics["obs.trace_overhead_s"] = traced.study_s - untraced.study_s
    metrics["obs.unattributed_s"] = tracer.stats[ROOT_LAYER].self_s
    return metrics


def measure_layers(workload: Workload, seed: int) -> Tuple[Checker, Dict[str, float]]:

    checker = Checker(workload, seed)
    setups = []
    for _ in range(LAYER_SETUP_REPS):
        cycle = set_up(workload, seed)
        setups.append((cycle.world_s, cycle.datasets_s))
        del cycle
        gc.collect()
    untraced = _cycle(checker, workload, seed)
    tracer = LayerTracer()
    with tracer:
        traced = _cycle(checker, workload, seed)
    checker.finish()
    if untraced is None or traced is None:
        return checker, {}
    metrics = layer_metrics(tracer, traced, untraced, setups)
    _print_ledger(workload, seed, tracer, metrics)
    return checker, metrics


def _print_ledger(
    workload: Workload, seed: int, tracer: LayerTracer, metrics: Dict[str, float]
) -> None:

    total = metrics["obs.study_s"]
    print(
        f"perfbench: {workload.name} seed={seed}: traced study "
        f"{total:.3f} s, overhead {metrics['obs.trace_overhead_s']:.3f} s",
        file=sys.stderr,
    )
    rows = sorted(tracer.stats.items(), key=lambda kv: -kv[1].self_s)
    for name, stat in rows:
        if stat.calls == 0:
            continue
        label = "(unattributed)" if name == ROOT_LAYER else name
        print(
            f"  {label:<24} {stat.self_s:9.3f} s {100 * _ratio(stat.self_s, total):6.1f} %"
            f" {stat.calls:>10} calls",
            file=sys.stderr,
        )


def _emit(
    declared: List[Dict[str, Any]], checker: Checker, values: Dict[str, float]
) -> int:
    names = [m["name"] for m in declared]
    missing = [n for n in names if n not in values]
    if values and missing:
        _fail(f"benchmark computed no value for {', '.join(missing)}")
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in declared
        if m["name"] in values
    }
    for name, entry in metrics.items():
        print(f"  {name:<32} {entry['value']:>16.6g} {entry['unit']}", file=sys.stderr)
    for error in checker.errors:
        print(f"perfbench: FAILED: {error}", file=sys.stderr)
    correct = checker.correct and bool(metrics)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": checker.attempted,
                "failed": checker.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


def _run_all(args: argparse.Namespace) -> int:
    """Run every workload in its own process and merge the results."""
    merged: Dict[str, Any] = {}
    correct = True
    attempted = failed = 0
    for name in _declared_workloads():
        cmd = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if not lines:
            _fail(f"{name} printed no result (exit {proc.returncode})")
        result = json.loads(lines[-1])
        correct = correct and result["correct"] and proc.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, entry in result["metrics"].items():
            merged[f"{name}/{metric}"] = entry
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed,
             "metrics": merged}
        )
    )
    return 0 if correct else 1


def _declared_workloads() -> List[str]:
    return [w["name"] for w in _declared()["workloads"]]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    declared = _declared()
    if args.workload == "all":
        return _run_all(args)
    workload = WORKLOADS.get(args.workload)
    if workload is None or args.workload not in _declared_workloads():
        _fail(f"unknown workload {args.workload!r}")
    if args.trace:
        checker, values = measure_layers(workload, args.seed)
        return _emit(declared["per_layer"], checker, values)
    checker, values = measure_end_to_end(workload, args.seed, args.seconds)
    return _emit(declared["end_to_end"], checker, values)


if __name__ == "__main__":
    sys.exit(main())
