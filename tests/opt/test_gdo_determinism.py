"""GDO engine state and determinism on registry circuits.

The engine keeps timing and simulation state current with dirty-cone
refreshes; every refresh re-runs the exact float/bit expressions of a
rebuild.  The oracle test pins that down directly: after every committed
modification the maintained :class:`IncrementalSta` must equal a fresh
:class:`Sta`, and every simulation state the engine hands out must equal
a fresh :class:`BitSimulator` run on the same words.  The other tests
pin worker-count determinism and the engine report.
"""

import numpy as np
import pytest

from repro.circuits.registry import build
from repro.library import mcnc_like
from repro.opt import EngineContext, GdoConfig, gdo_optimize
from repro.sim import BitSimulator
from repro.timing import Sta


@pytest.fixture(scope="module")
def lib():
    return mcnc_like()


def _cfg():
    return GdoConfig(
        n_words=8,
        verify_final=False,
        max_rounds=2,
        max_passes_per_phase=6,
        max_trials_per_pass=48,
        max_proofs_per_pass=32,
    )


def _fingerprint(result):
    return (
        [(m.phase, m.kind, m.description, m.delay_after, m.area_after)
         for m in result.stats.history],
        result.stats.delay_after,
        result.stats.area_after,
        result.stats.gates_after,
        result.stats.literals_after,
        sorted(result.net.gates),
    )


def run_with_oracle(net, lib, cfg, monkeypatch):
    """``gdo_optimize`` with the engine's maintained state checked
    against the reference engines after every commit and checkout.

    Returns ``(result, commits checked, carried-over sims checked)``.
    """
    seen = {"commits": 0, "carries": 0}
    commit, checkout = EngineContext.commit_trial, EngineContext.checkout

    def checked_commit(ctx, dirty, removed):
        commit(ctx, dirty, removed)
        sta = ctx.timing()
        ref = Sta(ctx.net, ctx.library)
        assert sta.delay == ref.delay
        assert sta.arrival == ref.arrival
        assert sta.load == ref.load
        assert sta.required == ref.required
        seen["commits"] += 1

    def checked_checkout(ctx):
        carry = ctx._engine is not None and bool(
            ctx._pending or ctx._pending_removed)
        out = checkout(ctx)
        state = ctx._state
        words = {pi: state.word(pi) for pi in ctx.net.pis}
        ref = BitSimulator(ctx.net).simulate(words)
        for sig in ctx.net.signals():
            assert np.array_equal(state.word(sig), ref.word(sig)), sig
        seen["carries"] += carry
        return out

    monkeypatch.setattr(EngineContext, "commit_trial", checked_commit)
    monkeypatch.setattr(EngineContext, "checkout", checked_checkout)
    result = gdo_optimize(net, lib, cfg)
    monkeypatch.undo()
    return result, seen["commits"], seen["carries"]


@pytest.mark.parametrize("name", ["Z5xp1", "9sym", "term1", "C880"])
def test_incremental_matches_scratch(lib, name, monkeypatch):
    net = build(name, small=True)
    lib.rebind(net)
    res, commits, carries = run_with_oracle(net, lib, _cfg(), monkeypatch)
    # The reference builds must not have perturbed the run itself.
    plain = build(name, small=True)
    lib.rebind(plain)
    assert _fingerprint(res) == _fingerprint(gdo_optimize(plain, lib, _cfg()))
    # The run must actually have exercised the incremental paths.
    assert res.stats.history, "run made no modifications; test is vacuous"
    assert commits == len(res.stats.history)
    assert carries > 0
    assert res.stats.engine.sta_incremental > 0
    assert res.stats.engine.sim_incremental > 0


@pytest.mark.parametrize("name", ["Z5xp1", "9sym"])
def test_parallel_proving_matches_serial(lib, name):
    """proof_workers only changes *when* verdicts are computed.

    Workers=1 proves on demand; workers=4 batch-prefetches obligations
    over a process pool.  Both must commit the bitwise-identical
    modification sequence and final netlist (gate names included).
    """
    def run(workers):
        net = build(name, small=True)
        lib.rebind(net)
        cfg = _cfg()
        cfg.proof_workers = workers
        return gdo_optimize(net, lib, cfg)

    serial = run(1)
    parallel = run(4)
    assert _fingerprint(serial) == _fingerprint(parallel)
    assert serial.stats.history, "run made no modifications; test is vacuous"
    assert serial.stats.proofs_attempted > 0
    # The parallel run must actually have exercised the batch path.
    assert parallel.stats.proof.parallel_batches > 0
    assert serial.stats.proof.parallel_batches == 0


def test_engine_counters_and_phase_times_populated(lib):
    net = build("Z5xp1", small=True)
    lib.rebind(net)
    res = gdo_optimize(net, lib, _cfg())
    e = res.stats.engine
    assert e.sta_incremental > 0 and e.sta_signals_touched > 0
    assert e.sim_scratch > 0  # phase-begin rebuilds and refutation bases
    assert e.obs_rows_computed > 0
    assert "delay" in res.stats.phase_seconds
    assert all(v >= 0.0 for v in res.stats.phase_seconds.values())


def test_report_shows_engine_lines(lib):
    from repro.opt import format_result

    net = build("Z5xp1", small=True)
    lib.rebind(net)
    res = gdo_optimize(net, lib, _cfg())
    text = format_result(res, lib)
    assert "engine:" in text
    assert "observability rows:" in text
    assert "phase wall time:" in text
    assert "proof broker:" in text
    assert "proof backends:" in text
