"""Differential harness: flat kernels ≡ dict engine, bitwise.

The flat kernels replace the numerically hottest code in the repo, so
this suite is the load-bearing safety net: for seeded random netlists
and registry circuits — including after every step of a random edit
script (apply → check → undo → check) — the flat simulator's word
matrix, the flat STA's arrival/required/slack/load annotation, and the
batched observability rows must equal the dict engine's output *bit for
bit* (``==`` on floats, ``array_equal`` on words; no tolerances).
"""

import random

import numpy as np
import pytest

from repro.circuits.registry import build, random_control
from repro.clauses.pvcc import Candidate
from repro.flat.batchsim import (
    FlatObservabilityEngine, batch_observability, flat_simulate,
)
from repro.flat.flatsta import FlatTiming
from repro.flat.view import FlatView, FlatViewError
from repro.library import mcnc_like
from repro.netlist.edit import prune_dangling, structural_signature
from repro.netlist.netlist import Branch
from repro.sim import BitSimulator, ObservabilityEngine
from repro.sim.vectors import random_words
from repro.timing import Sta
from repro.transform.substitution import (
    TransformError, apply_candidate_inplace,
)

N_WORDS = 8


@pytest.fixture(scope="module")
def lib():
    return mcnc_like()


def _pick_refs(net, rnd, n_stems=12, n_branches=8):
    """Deterministic mixed stem/branch/PI fault sites."""
    stems = sorted(net.gates)
    refs = [rnd.choice(stems) for _ in range(min(n_stems, len(stems)))]
    refs.extend(rnd.sample(list(net.pis), min(3, len(net.pis))))
    fan = net.fanout_map()
    multi = sorted(s for s, br in fan.items() if len(br) >= 2)
    for _ in range(n_branches):
        if not multi:
            break
        stem = rnd.choice(multi)
        refs.append(rnd.choice(fan[stem]))
    return refs


def assert_flat_matches_dict(net, lib, seed):
    """The one differential check: sim words, STA annotation, and
    observability rows of the flat kernels vs. the dict engine."""
    rnd = random.Random(seed)
    sim = BitSimulator(net)
    words = random_words(net.pis, N_WORDS, seed)
    state = sim.simulate(dict(words))
    view = FlatView.build(net, library=lib)
    assert view.names == list(sim.index_of)

    # --- simulation ---
    values = flat_simulate(view, words)
    assert values.shape == (view.n_signals, N_WORDS)
    for sig, idx in view.index_of.items():
        assert np.array_equal(values[idx], state.word(sig)), sig

    # --- timing ---
    sta = Sta(net, lib)
    ft = FlatTiming(view)
    assert ft.delay == sta.delay
    assert ft.load_dict() == sta.load
    assert ft.arrival_dict() == sta.arrival
    assert ft.required_dict() == sta.required
    assert ft.slack_dict() == sta.slack

    # --- observability ---
    eng = ObservabilityEngine(sim, state)
    refs = _pick_refs(net, rnd)
    rows = batch_observability(view, values, refs)
    assert len(rows) == len(refs)
    for ref, row in zip(refs, rows):
        expect = eng.observability(ref)
        assert np.array_equal(row, expect), ref


def _edit_script(net, rnd, limit=60):
    """Structurally plausible OS2/IS2 candidates (legality is decided by
    the transform; illegal ones are skipped like the optimizer does)."""
    sigs = sorted(net.gates)
    fan = net.fanout_map()
    multi = sorted(s for s, br in fan.items() if len(br) >= 2)
    cands = []
    for _ in range(limit):
        if multi and rnd.random() < 0.3:
            stem = rnd.choice(multi)
            cands.append(Candidate(target=rnd.choice(fan[stem]),
                                   kind="IS2",
                                   sources=(rnd.choice(sigs),)))
        else:
            tgt, src = rnd.choice(sigs), rnd.choice(sigs)
            if tgt == src:
                continue
            cands.append(Candidate(target=tgt, kind="OS2", sources=(src,),
                                   inverted=rnd.random() < 0.5))
    return cands


@pytest.mark.parametrize("name,seed", [
    ("C432", 101), ("C880", 202), ("9sym", 303),
])
def test_differential_through_registry_edit_scripts(lib, name, seed):
    net = build(name, small=True)
    prune_dangling(net)
    lib.rebind(net)
    baseline = structural_signature(net)
    assert_flat_matches_dict(net, lib, seed)

    rnd = random.Random(seed)
    applied = 0
    for cand in _edit_script(net, rnd):
        try:
            edit = apply_candidate_inplace(net, cand, lib)
        except TransformError:
            continue
        applied += 1
        # After the edit: the flat kernels see the mutated structure.
        assert_flat_matches_dict(net, lib, seed + applied)
        edit.undo(net)
        assert structural_signature(net) == baseline
        # After the undo: and the restored one.
        assert_flat_matches_dict(net, lib, seed)
        if applied >= 8:
            break
    assert applied >= 5, "edit script too short; differential is vacuous"


def test_differential_covers_every_gate_function(lib):
    """A netlist instantiating every singleton function (n-ary ones at
    arities 2..4) pins every ``_eval_group`` kernel branch against the
    dict engine — registry circuits don't reach AOI/MUX/MAJ/consts."""
    from repro.netlist.gatefunc import FUNC_BY_NAME
    from repro.netlist.netlist import Netlist

    net = Netlist("allfuncs")
    pis = [net.add_pi(p) for p in ("a", "b", "c", "d")]
    for name, func in sorted(FUNC_BY_NAME.items()):
        if func.arity is None:
            for n in (2, 3, 4):
                net.add_gate(f"g_{name}_{n}", name, pis[:n])
        else:
            net.add_gate(f"g_{name}", name, pis[:func.arity])
    # Second rank so faults on the first have somewhere to propagate.
    first = sorted(net.gates)
    for i in range(0, len(first) - 1, 2):
        net.add_gate(f"m_{i}", "XOR", [first[i], first[i + 1]])
    net.set_pos(sorted(net.gates))
    net.invalidate()
    lib.rebind(net)
    assert_flat_matches_dict(net, lib, 42)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_differential_on_random_netlists(lib, seed):
    net = random_control(n_pi=20, n_gates=140, n_po=8, seed=seed)
    lib.rebind(net)
    assert_flat_matches_dict(net, lib, 1000 + seed)


def test_differential_survives_committed_edits(lib):
    """Edits left applied (no undo) — the rebuilt view must track the
    evolving structure version by version."""
    net = build("C880", small=True)
    prune_dangling(net)
    lib.rebind(net)
    rnd = random.Random(7)
    committed = 0
    for cand in _edit_script(net, rnd):
        try:
            apply_candidate_inplace(net, cand, lib)
        except TransformError:
            continue
        committed += 1
        assert_flat_matches_dict(net, lib, 2000 + committed)
        if committed >= 4:
            break
    assert committed >= 3


def test_update_input_arrivals_matches_fresh_compute(lib):
    net = build("C432", small=True)
    lib.rebind(net)
    view = FlatView.build(net, library=lib)
    ft = FlatTiming(view)
    changes = {net.pis[0]: 2.5, net.pis[3]: 0.75, net.pis[5]: 0.0}
    touched = ft.update_input_arrivals(changes)
    fresh = FlatTiming(view, input_arrival=changes)
    assert touched > 0
    assert ft.delay == fresh.delay
    assert np.array_equal(ft.arrival, fresh.arrival)
    assert np.array_equal(ft.required, fresh.required)
    assert np.array_equal(ft.slack, fresh.slack)
    # And against the dict engine under the same boundary conditions.
    sta = Sta(net, lib, input_arrival=changes)
    assert ft.arrival_dict() == sta.arrival
    assert ft.delay == sta.delay


def test_flat_observability_engine_prefetch_matches_lazy(lib):
    net = build("C880", small=True)
    lib.rebind(net)
    sim = BitSimulator(net)
    state = sim.simulate_random(n_words=N_WORDS, seed=5)
    refs = _pick_refs(net, random.Random(5))
    flat_eng = FlatObservabilityEngine(sim, state)
    flat_eng.prefetch(refs)
    assert flat_eng.computed == len(set(
        (r.gate, r.pin) if isinstance(r, Branch) else r for r in refs))
    lazy_eng = ObservabilityEngine(sim, state)
    for ref in refs:
        assert np.array_equal(flat_eng.observability(ref),
                              lazy_eng.observability(ref)), ref
    # Prefetched rows count as computed: counters comparable with lazy.
    assert flat_eng.computed == lazy_eng.computed


def test_flat_observability_engine_falls_back_on_stale_sim(lib):
    """A sim snapshot predating a structural edit cannot be served by a
    fresh view; prefetch must raise rather than serve misaligned rows."""
    net = build("C432", small=True)
    lib.rebind(net)
    sim = BitSimulator(net)
    state = sim.simulate_random(n_words=N_WORDS, seed=9)
    eng = FlatObservabilityEngine(sim, state)
    net.add_gate(net.fresh_name("extra"), "INV", [net.pis[0]])
    net.invalidate()
    targets = sorted(sim.net.gates)[:4]
    with pytest.raises(FlatViewError, match="stale"):
        eng.prefetch(targets)
    assert eng.computed == 0
