"""The swept final equivalence check (``check_equivalence``, SAT path).

* soundness — every decided swept verdict agrees with an unbudgeted
  monolithic miter, over random netlists and mutated copies;
* no merge without a proof — with no pair budget nothing is merged and
  the verdict is still right or undecided;
* decidedness — a GDO result whose monolithic miter is undecided at a
  small budget is proven by the sweep at the same budget;
* the partitioned C5315 benchmark run ends verified.
"""

import random
import sys
from pathlib import Path

import pytest

import repro.sat.miter as miter_module
from repro.circuits import random_control
from repro.circuits.registry import build
from repro.library import mcnc_like
from repro.opt import GdoConfig, gdo_optimize
from repro.opt.report import format_result
from repro.sat import miter_equivalent, miter_verdict
from repro.verify import check_equivalence

from tests.proof.test_sim_rung import _mutants

GDOBENCH = Path(__file__).resolve().parents[2] / "gdobench"


def _bench_configs():
    """``CONFIG`` and ``PARTITION`` of ``gdobench/workloads.py``."""
    sys.path.insert(0, str(GDOBENCH))
    try:
        from workloads import CONFIG, PARTITION
    finally:
        sys.path.pop(0)
    return dict(CONFIG), dict(PARTITION)


def _pairs(seed, n_nets=8, per_net=10):
    rnd = random.Random(seed)
    for _ in range(n_nets):
        net = random_control(rnd.randint(6, 14), rnd.randint(30, 80),
                             rnd.randint(2, 6), seed=rnd.randrange(10**6),
                             locality=rnd.randint(6, 16))
        for right, _gate in _mutants(net, rnd, per_net):
            yield net, right


@pytest.mark.parametrize("n_words", [1, 32])
def test_swept_verdict_agrees_with_monolithic_miter(n_words):
    # One simulation word lets many inequivalent mutants and false pair
    # proposals through to SAT; 32 words exercise the merge path.
    seen = {"merged": 0, "refuted": 0, True: 0, False: 0}
    for left, right in _pairs(seed=n_words):
        tally = {}
        verdict = check_equivalence(left, right, n_words=n_words,
                                    max_conflicts=None, tally=tally)
        assert verdict is not None
        assert verdict == miter_equivalent(left, right)
        seen[verdict] += 1
        seen["merged"] += tally.get("merged", 0)
        seen["refuted"] += tally.get("refuted", 0)
    assert seen[True] and seen[False] and seen["merged"], seen
    if n_words == 1:
        assert seen["refuted"], seen


def test_no_merge_without_a_proof(monkeypatch):
    monkeypatch.setattr(miter_module, "SWEEP_PAIR_CONFLICTS", 0)
    decided = 0
    for left, right in _pairs(seed=5, n_nets=4):
        tally = {}
        verdict = check_equivalence(left, right, n_words=1,
                                    max_conflicts=200, tally=tally)
        if tally:
            assert tally["merged"] == tally["refuted"] == 0
        if verdict is not None:
            decided += 1
            assert verdict == miter_equivalent(left, right)
    assert decided


def test_sweep_budget_caps_pair_conflicts(monkeypatch):
    # A total budget of 0 leaves every proposed pair undecided.
    calls = []
    monkeypatch.setattr(miter_module, "_prove_pair",
                        lambda *a: calls.append(a) or (None, 0))
    left, right = next(_pairs(seed=3, n_nets=1))
    tally = {}
    check_equivalence(left, right, n_words=32, max_conflicts=0, tally=tally)
    assert tally["merged"] == 0
    assert tally["undecided"] == len(calls)


@pytest.fixture(scope="module")
def c6288_result():
    config, _ = _bench_configs()
    net = build("C6288", small=True)
    lib = mcnc_like()
    cfg = GdoConfig(**{**config, "verify_final": False})
    return net, gdo_optimize(net, lib, cfg), lib


def test_sweep_decides_what_the_monolithic_miter_cannot(c6288_result):
    net, result, _ = c6288_result
    assert result.stats.history, "the pinned run must commit mods"
    budget = 300
    assert miter_verdict(net, result.net, max_conflicts=budget) is None
    tally = {}
    assert check_equivalence(net, result.net, n_words=16,
                             max_conflicts=budget, tally=tally) is True
    assert tally["merged"] > 0 and tally["undecided"] == 0


def test_partitioned_c5315_benchmark_run_is_verified():
    config, partition = _bench_configs()
    lib = mcnc_like()
    result = gdo_optimize(build("C5315"), lib,
                          GdoConfig(**{**config, **partition}))
    s = result.stats
    assert s.partition_regions > 0 and s.history
    assert s.equivalent is True
    assert s.verify_sweep["undecided"] == 0
    line = (f"equivalence verified: True (sweep: {s.verify_sweep['merged']}"
            f" merged, 0 refuted, 0 undecided pairs; "
            f"{s.verify_sweep['outputs_left']} outputs to the miter)")
    assert line in format_result(result, lib)


def test_report_without_a_sweep_has_no_sweep_text(c6288_result):
    _, result, lib = c6288_result
    assert result.stats.verify_sweep == {}
    text = format_result(result, lib)
    assert "equivalence verified: None" in text
    assert "sweep:" not in text
