"""Tests of the benchmark harness itself (not of the program).

Run from the root of a checkout::

    python3 -m pytest gdobench/tests
"""

import json
import os
import time

import pytest

import layers
import run
import yardstick
from outputs import Check, check_output

from repro.circuits.alu import priority_controller
from repro.library import mcnc_like
from repro.netlist import gatefunc
from repro.netlist.edit import insert_inverter
from repro.timing.sta import Sta

BENCHMARK_JSON = os.path.join(run.ROOT, "BENCHMARK.json")


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_time_arithmetic_on_a_toy_call_tree():
    clock = FakeClock()
    tracer = layers.Tracer(clock=clock)

    def leaf():
        clock.advance(2)

    def mid():
        clock.advance(1)
        traced_leaf()
        clock.advance(3)
        traced_leaf()

    def top():
        traced_mid()
        clock.advance(5)

    traced_leaf = tracer.wrap(leaf, "leaf")
    traced_mid = tracer.wrap(mid, "mid")
    tracer.wrap(top, "top")()

    spans = tracer.spans
    assert (spans["top"].calls, spans["top"].incl,
            spans["top"].self_time) == (1, 13, 5)
    assert (spans["mid"].calls, spans["mid"].incl,
            spans["mid"].self_time) == (1, 8, 4)
    assert (spans["leaf"].calls, spans["leaf"].incl,
            spans["leaf"].self_time) == (2, 4, 4)
    # Self times partition the wall time of the root.
    assert sum(s.self_time for s in spans.values()) == spans["top"].incl


def test_recursive_span_counts_inclusive_time_once():
    clock = FakeClock()
    tracer = layers.Tracer(clock=clock)

    def walk(depth):
        clock.advance(1)
        if depth:
            traced(depth - 1)

    traced = tracer.wrap(walk, "walk")
    traced(2)
    walk_stats = tracer.spans["walk"]
    assert walk_stats.calls == 3
    assert walk_stats.incl == 3
    assert walk_stats.self_time == 3


def _bindings():
    """Every (owner, attribute) the targets resolve to, with its value."""
    import sys

    found = {}
    for target in layers.TARGETS:
        owner, attr = layers._resolve(target.where)
        original = getattr(owner, attr)
        found[(id(owner), attr)] = (owner, attr, original)
        if isinstance(owner, type):
            continue
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro"):
                for key, value in vars(module).items():
                    if value is original:
                        found[(id(module), key)] = (module, key, value)
    return found


def _is_wrapper(value) -> bool:
    return getattr(value, "__qualname__", "") == \
        "Tracer.wrap.<locals>.traced"


def test_wrappers_are_removed_after_a_traced_section():
    import workloads  # noqa: F401 - binds every layer name

    before = _bindings()
    tracer = layers.Tracer()
    with run.traced(tracer):
        from repro.opt import gdo
        from repro.proof import obligation

        assert hasattr(gdo.extract_cone, "__wrapped__")
        assert hasattr(obligation.extract_cone, "__wrapped__")
        assert gdo.extract_cone is obligation.extract_cone
        net = priority_controller(4, name="tiny")
        library = mcnc_like()
        library.rebind(net)
        gdo.gdo_optimize(net, library)
    assert tracer.spans["opt"].calls == 1
    for owner, attr, value in before.values():
        assert getattr(owner, attr) is value, (owner, attr)
    # No wrapper survives anywhere, also not in a module first imported
    # while the wrappers were in place.
    for module in layers._modules("repro"):
        for key, value in vars(module).items():
            assert not _is_wrapper(value), (module, key)
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    assert not _is_wrapper(member), (value, attr)

    # Untraced calls are not counted any more.
    calls = tracer.spans["opt"].calls
    gdo.gdo_optimize(net, library)
    assert tracer.spans["opt"].calls == calls


def test_wrappers_are_removed_when_the_section_raises():
    from repro.opt import gdo

    original = gdo.gdo_optimize
    with pytest.raises(RuntimeError):
        with run.traced(layers.Tracer()):
            raise RuntimeError("boom")
    assert gdo.gdo_optimize is original


@pytest.fixture
def mapped():
    library = mcnc_like()
    net = priority_controller(6, name="small")
    library.rebind(net)
    return net, library


_COMPLEMENT = {"AND": "NAND", "NAND": "AND", "OR": "NOR", "NOR": "OR",
               "XOR": "XNOR", "XNOR": "XOR", "BUF": "INV", "INV": "BUF"}


def test_check_accepts_an_identical_netlist(mapped):
    net, library = mapped
    delay = Sta(net, library).delay
    check = check_output(net, net.copy(), library, seed=7,
                         reported_delay=delay)
    assert check.ok, check.reason


def test_check_rejects_one_flipped_gate_function(mapped):
    net, library = mapped
    flipped = net.copy()
    po = next(p for p in flipped.pos
              if p in flipped.gates
              and flipped.gates[p].func.name in _COMPLEMENT)
    gate = flipped.gates[po]
    gate.func = getattr(gatefunc, _COMPLEMENT[gate.func.name])
    library.rebind(flipped)
    check = check_output(net, flipped, library, seed=7)
    assert not check.ok
    assert "differs" in check.reason


def test_check_rejects_a_delay_that_rose(mapped):
    net, library = mapped
    sta = Sta(net, library)
    slow = net.copy()
    k, po = max(enumerate(slow.pos), key=lambda kp: sta.arrival[kp[1]])
    slow.pos[k] = insert_inverter(slow, insert_inverter(slow, po))
    slow.invalidate()
    library.rebind(slow)
    check = check_output(net, slow, library, seed=7)
    assert not check.ok
    assert "delay rose" in check.reason


def test_check_rejects_a_misreported_delay(mapped):
    net, library = mapped
    delay = Sta(net, library).delay
    check = check_output(net, net.copy(), library, seed=7,
                         reported_delay=delay - 1.0)
    assert not check.ok
    assert "reported delay" in check.reason


def test_tail_has_ten_samples_beyond_it():
    values = [float(v) for v in range(30)]
    value, pct = run.tail(values)
    assert sum(v > value for v in values) == 10
    assert pct == pytest.approx(100 * 20 / 30)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_determinism_gate_flags_a_changed_record(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "QUALITY_FILE", str(tmp_path / "q.json"))
    record = {"delay_ratio": 0.9, "digests": ["a"]}
    assert run.same_as_before("w:1:x", record)
    assert run.same_as_before("w:1:x", dict(record))
    assert not run.same_as_before("w:1:x", {**record, "delay_ratio": 0.8})
    assert run.same_as_before("w:2:x", {**record, "delay_ratio": 0.8})


def test_benchmark_json_names_every_reported_metric():
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        spec = json.load(fh)
    import workloads

    assert [w["name"] for w in spec["workloads"]] == \
        list(workloads.WORKLOADS)

    op = workloads.Op(index=0, seconds=1.0,
                      check=Check(
                          "", 1.0, 1.0, 1.0, 1.0),
                      equivalent=True, digest="d", commits=1,
                      delay_ratio=1.0, area_ratio=1.0)
    passes = [workloads.Pass(1.0, [op], cpu=0.9, scaled=0.3, ref=0.3)]
    e2e = run.end_to_end([0.1], 0.3, passes, {"delay_ratio": 1.0,
                                               "area_ratio": 1.0}, 50.0)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {name: unit for name, (_, unit) in e2e.items()}
    layer = run.per_layer(layers.Tracer(), passes, passes)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: unit for name, (_, unit) in layer.items()}


def test_sampler_window_is_widened_back_for_short_operations():
    sampler = yardstick.Sampler()  # thread not started
    sampler.samples = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
    assert sampler.since(0) == pytest.approx(4.0)
    assert sampler.since(2) == pytest.approx(5.0)
    # one sample since the mark: the last MIN_SAMPLES are used instead
    assert sampler.since(6) == pytest.approx(5.0)
    assert yardstick.scale(2.0, 2 * yardstick.NOMINAL_S) == \
        pytest.approx(1.0)


def test_sampler_thread_samples_and_is_joined():
    with yardstick.Sampler() as sampler:
        deadline = time.monotonic() + 5.0
        while len(sampler.samples) < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
    assert len(sampler.samples) >= 2
    assert all(t > 0 for t in sampler.samples)
    assert not sampler._thread.is_alive()
