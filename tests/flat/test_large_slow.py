"""Slow large-circuit regression for the flat kernels.

The registry suite tops out near 2k gates; this generates a >10k-gate
control netlist — a size class the default test run never touches — and
asserts the flat path (a) stays bitwise-differential against the dict
engines on sim + STA, and (b) keeps the GDO engine state equal to the
reference engines after every commit of a truncated GDO budget.

Gated behind ``-m slow`` (excluded by the default addopts); run with::

    PYTHONPATH=src python -m pytest tests/flat/test_large_slow.py \
        -m slow --override-ini "addopts=-q"
"""

import numpy as np
import pytest

from repro.circuits.registry import random_control
from repro.flat.batchsim import flat_simulate
from repro.flat.flatsta import FlatTiming
from repro.flat.view import FlatView
from repro.library import mcnc_like
from repro.sim import BitSimulator
from repro.sim.vectors import random_words
from repro.timing import Sta

pytestmark = pytest.mark.slow

N_GATES = 10_500


@pytest.fixture(scope="module")
def big():
    net = random_control(n_pi=96, n_gates=N_GATES, n_po=48, seed=13,
                         locality=64, name="big13")
    lib = mcnc_like()
    lib.rebind(net)
    assert net.num_gates > 10_000
    return net, lib


def test_flat_kernels_differential_at_scale(big):
    net, lib = big
    sim = BitSimulator(net)
    words = random_words(net.pis, 8, 77)
    state = sim.simulate(dict(words))
    view = FlatView.build(net, library=lib)
    values = flat_simulate(view, words)
    for sig, idx in view.index_of.items():
        assert np.array_equal(values[idx], state.word(sig)), sig
    sta = Sta(net, lib)
    ft = FlatTiming(view)
    assert ft.delay == sta.delay
    assert ft.arrival_dict() == sta.arrival
    assert ft.required_dict() == sta.required


def test_flat_gdo_matches_reference_on_truncated_budget(big, monkeypatch):
    from repro.opt import GdoConfig
    from tests.opt.test_gdo_determinism import run_with_oracle

    net, lib = big
    # Default per-pass caps: tighter ones commit nothing on this net.
    cfg = GdoConfig(
        n_words=8, proof="none", verify_final=False,
        max_rounds=1, max_passes_per_phase=2,
    )
    res, commits, _ = run_with_oracle(net.copy(), lib, cfg, monkeypatch)
    assert res.stats.history, "no modifications; the check is vacuous"
    assert commits == len(res.stats.history)
