"""Tests for the benchmark's layer wrappers and workload definitions.

Run from the repository root with ``python -m pytest perfbench``.
"""

import importlib
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from layertrace import LAYERS, ROOT, Layer, LayerTracer  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


TOY_SOURCE = '''
def inner(n):
    CLOCK.now += 2.0
    return list(range(n))

def outer():
    CLOCK.now += 1.0
    inner(2)
    CLOCK.now += 0.5
    inner(3)
    return "done"

def boom():
    CLOCK.now += 0.25
    raise ValueError("boom")

class Toy:
    @staticmethod
    def still():
        CLOCK.now += 3.0

    @classmethod
    def klass(cls):
        CLOCK.now += 4.0
        return cls
'''


@pytest.fixture
def toy(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(time, "perf_counter", clock)
    module = types.ModuleType("ptoy")
    module.CLOCK = clock
    exec(TOY_SOURCE, vars(module))
    alias = types.ModuleType("ptoy.alias")
    alias.inner = module.inner
    monkeypatch.setitem(sys.modules, "ptoy", module)
    monkeypatch.setitem(sys.modules, "ptoy.alias", alias)
    return module, alias


TOY_LAYERS = (
    Layer("outer", "ptoy", "outer"),
    Layer("inner", "ptoy", "inner", count=len),
    Layer("boom", "ptoy", "boom"),
    Layer("still", "ptoy", "Toy.still"),
    Layer("klass", "ptoy", "Toy.klass"),
)


def test_self_time_subtracts_wrapped_children(toy):
    module, _ = toy
    with LayerTracer(TOY_LAYERS) as tracer:
        assert module.outer() == "done"
    outer, inner = tracer.stats["outer"], tracer.stats["inner"]
    assert (outer.calls, outer.self_s) == (1, 1.5)
    assert (inner.calls, inner.self_s, inner.items) == (2, 4.0, 5)


def test_exception_is_timed_and_unwinds_the_stack(toy):
    module, _ = toy
    tracer = LayerTracer(TOY_LAYERS).install()
    try:
        with pytest.raises(ValueError):
            module.boom()
        assert tracer._stack == []
        assert module.outer() == "done"
    finally:
        tracer.remove()
    assert tracer.stats["boom"].calls == 1
    assert tracer.stats["boom"].self_s == 0.25
    assert tracer.stats["outer"].self_s == 1.5


def test_descriptors_keep_their_type_and_are_restored(toy):
    module, _ = toy
    still_raw = vars(module.Toy)["still"]
    klass_raw = vars(module.Toy)["klass"]
    with LayerTracer(TOY_LAYERS) as tracer:
        assert isinstance(vars(module.Toy)["still"], staticmethod)
        assert isinstance(vars(module.Toy)["klass"], classmethod)
        assert vars(module.Toy)["still"] is not still_raw
        module.Toy.still()
        assert module.Toy().klass() is module.Toy
    assert vars(module.Toy)["still"] is still_raw
    assert vars(module.Toy)["klass"] is klass_raw
    assert tracer.stats["still"].self_s == 3.0
    assert tracer.stats["klass"].self_s == 4.0


def test_from_imported_aliases_are_patched_and_restored(toy):
    module, alias = toy
    original = module.inner
    with LayerTracer(TOY_LAYERS) as tracer:
        assert alias.inner is module.inner
        assert alias.inner is not original
        alias.inner(4)
    assert alias.inner is original and module.inner is original
    assert tracer.stats["inner"].items == 4


def test_double_install_and_failed_install(toy):
    module, _ = toy
    original = module.outer
    tracer = LayerTracer(TOY_LAYERS).install()
    try:
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.remove()
    broken = TOY_LAYERS + (Layer("missing", "ptoy", "nope"),)
    with pytest.raises(KeyError):
        LayerTracer(broken).install()
    assert module.outer is original


def _namespaces():
    """Every namespace the real layers may patch: repro modules and classes."""
    spaces = {}
    for name, module in sys.modules.items():
        if name == "repro" or name.startswith("repro."):
            spaces[name] = module
    for layer in LAYERS:
        owner = importlib.import_module(layer.module)
        for part in layer.qualname.split(".")[:-1]:
            owner = getattr(owner, part)
        spaces[f"{layer.module}:{layer.qualname}"] = owner
    return spaces


def test_real_layers_restore_every_attribute_exactly():
    for layer in LAYERS:
        importlib.import_module(layer.module)
    importlib.import_module("repro.core.pipeline")
    spaces = _namespaces()
    before = {key: dict(vars(ns)) for key, ns in spaces.items()}
    tracer = LayerTracer().install()
    try:
        pipeline = sys.modules["repro.core.pipeline"]
        adapt = sys.modules["repro.measure.adapt"]
        assert pipeline.run_recovery is adapt.run_recovery
        assert hasattr(adapt.run_recovery, "__wrapped__")
        changed = sum(
            1
            for key, ns in spaces.items()
            for attr, value in vars(ns).items()
            if value is not before[key].get(attr)
        )
        assert changed >= len(LAYERS)
    finally:
        tracer.remove()
    for key, ns in spaces.items():
        after = dict(vars(ns))
        assert after.keys() == before[key].keys(), key
        for attr, value in before[key].items():
            assert after[attr] is value, f"{key}.{attr}"


def test_layer_names_are_unique_and_root_is_the_study():
    names = [layer.name for layer in LAYERS]
    assert len(names) == len(set(names))
    assert LAYERS[0].name == ROOT
    assert LAYERS[0].qualname == "AmazonPeeringStudy.run"


def test_workload_configs():
    from workloads import SCALE, SERIAL, WORKLOADS

    assert list(WORKLOADS) == ["study-checkpointed", "study-ratelimited"]
    serial = SERIAL.config(7)
    assert (serial.scale, serial.seed, serial.expansion_stride) == (SCALE, 7, 8)
    assert serial.run_vpi and not serial.run_crossval and serial.workers == 1
    checkpointed = WORKLOADS["study-checkpointed"]
    assert checkpointed.clean and checkpointed.runs_per_cycle == 2
    assert checkpointed.config(7).workers == 1
    limited = WORKLOADS["study-ratelimited"].config(11)
    assert limited.adaptive and limited.workers == 1
    assert (limited.breaker_threshold, limited.recovery_rounds) == (2, 2)
    assert limited.retry_backoff_s == 0.0
    assert limited.seed == 11 and limited.fault_plan.seed == 7


def test_reference_kernel_is_fixed_work():
    from reference import kernel, reference_seconds

    assert kernel() == kernel()
    assert reference_seconds(reps=1) > 0
