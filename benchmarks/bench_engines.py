"""Substrate engine throughput benchmarks.

Not a paper table — these keep the performance-critical kernels honest:
bit-parallel simulation (the BPFS engine), word-parallel observability,
the CDCL miter, BDD construction, STA, technology mapping, and the
gain of GDO's incremental trial timing over from-scratch STA.
"""

import time
from pathlib import Path

import pytest

from conftest import register_report

from repro.bdd import BddManager, build_signal_bdds
from repro.obs import append_bench, bench_entry, git_sha
from repro.circuits.registry import SMALL_SUITE, build
from repro.opt import EngineContext, GdoConfig, gdo_optimize, make_sta
from repro.opt.report import format_result
from repro.sat import miter_equivalent
from repro.sim import BitSimulator, ObservabilityEngine
from repro.synth import map_netlist, script_rugged
from repro.timing import Sta


@pytest.fixture(scope="module")
def mapped(lib):
    return script_rugged(SMALL_SUITE["C880"](), lib)


def test_bitsim_throughput(benchmark, mapped):
    """Simulate 4096 vectors (64 words) through the mapped netlist."""
    sim = BitSimulator(mapped)

    def run():
        return sim.simulate_random(n_words=64, seed=1)

    state = benchmark(run)
    assert state.n_words == 64


def test_observability_throughput(benchmark, mapped):
    sim = BitSimulator(mapped)
    state = sim.simulate_random(n_words=16, seed=2)
    targets = mapped.topo_order()[-24:]

    def run():
        eng = ObservabilityEngine(sim, state)
        return [eng.stem_observability(t) for t in targets]

    words = benchmark(run)
    assert len(words) == len(targets)


def test_sta_throughput(benchmark, mapped, lib):
    def run():
        sta = Sta(mapped, lib)
        sta.ncp(mapped.topo_order()[-1])
        return sta

    sta = benchmark(run)
    assert sta.delay > 0


def test_miter_throughput(benchmark, mapped):
    twin = mapped.copy()

    def run():
        return miter_equivalent(mapped, twin)

    assert benchmark(run) is True


def test_bdd_build_throughput(benchmark, mapped):
    def run():
        mgr = BddManager(max_nodes=500_000)
        return build_signal_bdds(mapped, mgr, targets=list(mapped.pos))

    bdds = benchmark(run)
    assert all(po in bdds for po in mapped.pos)


def test_mapping_throughput(benchmark, lib):
    source = SMALL_SUITE["C432"]()

    def run():
        return map_netlist(source, lib, mode="area", tree=True)

    mapped = benchmark(run)
    assert mapped.num_gates > 0


# The trial-timing comparison: every trial edit GDO evaluates is timed
# twice on the same edited netlist — by the maintained IncrementalSta's
# undoable dirty-cone refresh (begin_trial, then reject_trial's undo)
# and by a fresh Sta, the from-scratch rebuild it replaces.  Arrivals
# and delay must agree exactly.  SAT proofs are disabled: they do not
# touch the timing layer and only lengthen the run.
_TRIAL_BENCH = [
    # (circuit, required trial-timing speedup; None = parity check only)
    ("C1355", None),
    ("C5315", 2.0),  # largest benchmarked circuit
]


def _timed_trials(monkeypatch, clock):
    begin, reject = EngineContext.begin_trial, EngineContext.reject_trial

    def timed_begin(ctx, dirty, removed):
        t0 = time.perf_counter()
        sta = begin(ctx, dirty, removed)
        t1 = time.perf_counter()
        ref = make_sta(ctx.net, ctx.library, ctx.cfg)
        t2 = time.perf_counter()
        assert sta.delay == ref.delay and sta.arrival == ref.arrival
        clock["incremental"] += t1 - t0
        clock["scratch"] += t2 - t1
        clock["trials"] += 1
        return sta

    def timed_reject(ctx):
        t0 = time.perf_counter()
        reject(ctx)
        clock["incremental"] += time.perf_counter() - t0

    monkeypatch.setattr(EngineContext, "begin_trial", timed_begin)
    monkeypatch.setattr(EngineContext, "reject_trial", timed_reject)


def test_gdo_incremental_speedup(lib, monkeypatch):
    """On the trial edits of one GDO run, refresh+undo of the maintained
    timing must be >=2x faster than building a fresh Sta of each edited
    netlist on the largest circuit, with identical arrivals."""
    rows = ["circuit   gates   trials   scratch[s]   incremental[s]   speedup"]
    flagship = None
    for name, required in _TRIAL_BENCH:
        net = build(name)
        clock = {"scratch": 0.0, "incremental": 0.0, "trials": 0}
        _timed_trials(monkeypatch, clock)
        cfg = GdoConfig(n_words=16, max_rounds=2, proof="none",
                        verify_final=False)
        result = gdo_optimize(net.copy(), lib, cfg)
        monkeypatch.undo()
        assert clock["trials"] > 0
        assert result.stats.engine.sta_incremental > 0
        t_scratch, t_inc = clock["scratch"], clock["incremental"]
        speedup = t_scratch / t_inc
        rows.append(
            f"{name:8} {net.num_gates:6d} {clock['trials']:8d} "
            f"{t_scratch:11.2f} {t_inc:15.2f} {speedup:8.2f}x"
        )
        append_bench(
            str(Path(__file__).resolve().parent.parent
                / "BENCH_engines.json"),
            bench_entry(
                key=git_sha(), circuit=name, gates=net.num_gates,
                trials=clock["trials"],
                trial_scratch_sta_seconds=round(t_scratch, 4),
                trial_incremental_sta_seconds=round(t_inc, 4),
                speedup=round(speedup, 3),
            ),
            key_fields=("key", "circuit"),
        )
        if required is not None:
            assert speedup >= required, (
                f"{name}: incremental trial timing only {speedup:.2f}x "
                f"faster than a fresh Sta (needs >= {required}x)"
            )
            flagship = result
    report = "\n".join(rows)
    if flagship is not None:
        report += "\n\n" + format_result(flagship, lib)
    register_report("GDO trial timing: incremental vs fresh Sta", report)
