"""Per-layer self time for a study, measured from outside the program.

The traced run of the benchmark wraps the public functions and methods of
each layer at runtime -- nothing under ``src/`` is edited and no switch is
added to the program.  Every wrapper pushes a frame on one shared call
stack, so a layer's *self time* is its wall time minus the wall time of the
wrapped layers it called.  The root frame is ``AmazonPeeringStudy.run``:
its self time is the part of the study no named layer covers (the
``obs.unattributed_s`` of the ledger).

Installing and removing the wrappers restores every patched attribute
exactly: class attributes are restored from the raw ``__dict__`` entry (so
static and class methods keep their descriptor), and a module-level
function is also patched, and restored, in every already imported module
of the same package that bound it with ``from ... import``.

The stack is a plain list: the study's parent-side layers run on one
thread.  Pool workers forked while the wrappers are installed inherit a
copy of them; what they record stays in the worker, so the parent's table
covers the parent's work only (the ``executor.run`` self time is then the
parent waiting for the pool).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Layer:
    """One wrapped callable: ``qualname`` inside ``module``.

    ``count``, when set, maps each return value to a number of work
    items that is summed into the layer's ``items`` (hops per trace).
    """

    name: str
    module: str
    qualname: str
    count: Optional[Callable[[Any], int]] = None


def _hops(trace: Any) -> int:
    return len(trace.hops)


#: The root frame: self time here is time no named layer covers.
ROOT = "study"

#: Every layer the traced run names, parent-side call order roughly
#: top-down.  Metric names are ``<name>.calls`` / ``<name>.self_s``.
LAYERS: Tuple[Layer, ...] = (
    Layer(ROOT, "repro.core.pipeline", "AmazonPeeringStudy.run"),
    Layer("world.resolve_path", "repro.world.model", "World.resolve_path"),
    Layer(
        "traceroute.trace",
        "repro.measure.traceroute",
        "TracerouteEngine.trace",
        count=_hops,
    ),
    Layer(
        "traceroute.realize", "repro.measure.traceroute", "TracerouteEngine._realize"
    ),
    Layer(
        "traceroute.probe_rng",
        "repro.measure.traceroute",
        "TracerouteEngine.probe_rng",
    ),
    Layer("executor.run", "repro.measure.executor", "ShardedExecutor.run"),
    Layer("executor.trace_shard", "repro.measure.executor", "trace_shard"),
    Layer("borders.ingest", "repro.core.borders", "BorderObservatory.ingest"),
    Layer("annotate", "repro.core.annotate", "HopAnnotator.annotate"),
    Layer("checkpoint.put", "repro.measure.checkpoint", "CampaignCheckpoint.put"),
    Layer(
        "checkpoint.finalize",
        "repro.measure.checkpoint",
        "CampaignCheckpoint.finalize",
    ),
    Layer("stages.save", "repro.core.stages", "StageStore.save"),
    Layer("stages.load", "repro.core.stages", "StageStore.load"),
    Layer("adapt.recovery", "repro.measure.adapt", "run_recovery"),
    Layer("adapt.admit", "repro.measure.adapt", "ProbeGovernor.admit"),
    Layer("heuristics.verify", "repro.core.heuristics", "SegmentVerifier.verify"),
    Layer("alias.resolve", "repro.measure.alias", "AliasResolver.resolve"),
    Layer("aliasverify.verify", "repro.core.aliasverify", "AliasVerifier.verify"),
    Layer("anchors.build", "repro.core.anchors", "AnchorBuilder.build"),
    Layer("pinning.run", "repro.core.pinning", "IterativePinner.run"),
    Layer("vpi.detect", "repro.core.vpi", "VPIDetector.detect"),
    Layer("grouping.group", "repro.core.grouping", "PeeringGrouper.group"),
    Layer(
        "graph.summarize", "repro.core.graph", "InterfaceConnectivityGraph.summarize"
    ),
)


@dataclass
class LayerStat:
    calls: int = 0
    self_s: float = 0.0
    items: int = 0


def _timed(
    fn: Callable[..., Any],
    stat: LayerStat,
    stack: List[float],
    count: Optional[Callable[[Any], int]],
) -> Callable[..., Any]:
    clock = time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        stack.append(0.0)
        t0 = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = clock() - t0
            stat.calls += 1
            stat.self_s += elapsed - stack.pop()
            if stack:
                stack[-1] += elapsed
        if count is not None:
            stat.items += count(result)
        return result

    return wrapper


def _rewrap(raw: Any, wrap: Callable[[Callable[..., Any]], Callable[..., Any]]) -> Any:
    """Wrap a raw ``__dict__`` entry, keeping its descriptor type."""
    if isinstance(raw, staticmethod):
        return staticmethod(wrap(raw.__func__))
    if isinstance(raw, classmethod):
        return classmethod(wrap(raw.__func__))
    return wrap(raw)


class LayerTracer:
    """Installs timing wrappers on ``layers``; a context manager.

    ``stats`` maps each layer name to its accumulated calls, self time,
    and counted items.  Only one tracer may be installed at a time.
    """

    def __init__(self, layers: Sequence[Layer] = LAYERS) -> None:
        self.layers = tuple(layers)
        self.stats: Dict[str, LayerStat] = {
            layer.name: LayerStat() for layer in self.layers
        }
        self._stack: List[float] = []
        #: (owner, attribute, raw original) per patch, in install order.
        self._patches: List[Tuple[Any, str, Any]] = []

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def install(self) -> "LayerTracer":
        if self._patches:
            raise RuntimeError("layer wrappers are already installed")
        try:
            for layer in self.layers:
                self._install_one(layer)
        except BaseException:
            self.remove()
            raise
        return self

    def remove(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)
        self._stack.clear()

    def __enter__(self) -> "LayerTracer":
        return self.install()

    def __exit__(self, *exc: Any) -> None:
        self.remove()

    def _install_one(self, layer: Layer) -> None:
        module = importlib.import_module(layer.module)
        *owner_path, attr = layer.qualname.split(".")
        owner: Any = module
        for part in owner_path:
            owner = getattr(owner, part)
        raw = vars(owner)[attr]
        stat = self.stats[layer.name]
        wrapped = _rewrap(
            raw, lambda fn: _timed(fn, stat, self._stack, layer.count)
        )
        self._patch(owner, attr, raw, wrapped)
        if owner is module:
            # ``from module import fn`` bound the same object elsewhere in
            # the package; calls through those names must be timed too.
            package = layer.module.split(".")[0] + "."
            for name, other in sorted(sys.modules.items()):
                if other is module or not name.startswith(package):
                    continue
                for alias, value in sorted(vars(other).items()):
                    if value is raw:
                        self._patch(other, alias, raw, wrapped)

    def _patch(self, owner: Any, attr: str, raw: Any, wrapped: Any) -> None:
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, wrapped)
