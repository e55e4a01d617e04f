"""The flat-kernel GDO engine: worker-count identity and reporting.

Acceptance tests for the flat-kernel wiring: workers 1≡4 commit the
identical modification sequence with byte-identical journals and equal
engine counters, a netlist the flat view cannot express fails loudly
instead of degrading, and the PI-fanout-root trial trigger (previously a
silent event) is counted and journaled at a pinned rate.  Bitwise
agreement with the reference engines is pinned per commit by
``tests/opt/test_gdo_determinism.py::test_incremental_matches_scratch``.
"""

import pytest

from repro.circuits.registry import build
from repro.flat.view import FlatView, FlatViewError
from repro.library import mcnc_like
from repro.netlist.edit import structural_signature
from repro.obs import ObsConfig
from repro.obs.journal import strip_volatile
from repro.opt import GdoConfig, gdo_optimize
from repro.opt.report import format_result


@pytest.fixture(scope="module")
def lib():
    return mcnc_like()


def _cfg(workers=1, journal=True):
    return GdoConfig(
        n_words=8,
        proof_workers=workers,
        verify_final=False,
        max_rounds=2,
        max_passes_per_phase=6,
        max_trials_per_pass=48,
        max_proofs_per_pass=32,
        obs=ObsConfig(journal=journal, metrics=True),
    )


def _run(name, cfg, lib):
    net = build(name, small=True)
    lib.rebind(net)
    return gdo_optimize(net, lib, cfg)


def _fingerprint(result):
    return (
        [(m.phase, m.kind, m.description, m.delay_after, m.area_after)
         for m in result.stats.history],
        result.stats.delay_after,
        result.stats.area_after,
        structural_signature(result.net),
    )


def _journal(result):
    return strip_volatile(result.stats.obs.journal_records)


@pytest.fixture(scope="module")
def c880_runs(lib):
    return {
        "w1": _run("C880", _cfg(), lib),
        "w4": _run("C880", _cfg(workers=4), lib),
    }


def test_flat_counters_populated_and_comparable(c880_runs):
    w1, w4 = c880_runs["w1"], c880_runs["w4"]
    # The proof pool must not change *what* the engine computes.
    e1, e4 = w1.stats.engine, w4.stats.engine
    assert e1.obs_rows_computed > 0 and e1.sim_incremental > 0
    assert e1.obs_rows_computed == e4.obs_rows_computed
    assert e1.sta_scratch == e4.sta_scratch
    assert e1.sta_pi_root == e4.sta_pi_root


def test_flat_workers_journal_identity(c880_runs):
    w1, w4 = c880_runs["w1"], c880_runs["w4"]
    assert w1.stats.history, "no modifications; identity is vacuous"
    assert _fingerprint(w1) == _fingerprint(w4)
    assert _journal(w1) == _journal(w4)
    assert w4.stats.proofs_attempted > 0


def test_report_and_export_show_engine_section(c880_runs, lib):
    from repro.obs.export import gdo_entry, validate_gdo_entry

    w1 = c880_runs["w1"]
    text = format_result(w1, lib)
    assert f"{w1.stats.engine.sta_pi_root} PI-root trials" in text
    assert "flat kernels:" not in text
    entry = gdo_entry(w1, key="test")
    validate_gdo_entry(entry)
    assert "flat" not in entry


def test_flat_fallback_path_is_exercised(lib, monkeypatch):
    """A netlist the flat view cannot express must fail loudly — there
    is no second engine to degrade to."""
    def boom(cls, net, library=None):
        raise FlatViewError("forced by test")

    monkeypatch.setattr(FlatView, "build", classmethod(boom))
    with pytest.raises(FlatViewError, match="forced by test"):
        _run("C880", _cfg(), lib)


# Pinned on C432-small under _cfg: the count is a pure function of the
# trial sequence.
_C432_PI_ROOT_TRIALS = 215


def test_pi_root_trigger_pinned_on_c432(lib):
    result = _run("C432", _cfg(), lib)
    assert result.stats.engine.sta_pi_root == _C432_PI_ROOT_TRIALS
    records = [r for r in result.stats.obs.journal_records
               if r.get("type") == "sta_pi_root"]
    assert len(records) == _C432_PI_ROOT_TRIALS
    assert all(r["dirty"] > 0 for r in records)
    # PI-root trials stay on the dirty-cone path: they are counted, not
    # silently recomputed from scratch.
    assert result.stats.engine.sta_incremental >= _C432_PI_ROOT_TRIALS
