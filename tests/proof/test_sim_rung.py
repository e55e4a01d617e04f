"""Rung 0 of the proving ladder: key-seeded simulation before SAT/BDD.

* soundness — every obligation the rung refutes is INVALID under an
  unbudgeted SAT miter, and no obligation with equivalent cones is ever
  refuted;
* purity — the verdict and tally are functions of the obligation key
  alone, so in-process and pool proving agree;
* accounting — on a real GDO run the rung's refutations plus the
  ladder's invalid verdicts are exactly the journal's fresh invalid
  verdicts, and the report/export surface the rung.
"""

import random

import pytest

from repro.circuits import random_control
from repro.circuits.registry import build
from repro.clauses.pvcc import Candidate
from repro.library import mcnc_like
from repro.netlist import (
    Branch, align_interfaces, extract_cone, func_from_name,
)
from repro.netlist.edit import insert_inverter, replace_input
from repro.obs import ObsConfig
from repro.obs.export import gdo_entry
from repro.opt import GdoConfig, gdo_optimize
from repro.opt.report import format_result
from repro.proof import (
    INVALID, VALID, LadderSpec, ProofBroker, build_obligation,
    prove_serialized, sat_verdict,
)

_NARY = ("AND", "NAND", "OR", "NOR")


def _mutants(net, rnd, count):
    """``(right, gate)`` pairs: copies of ``net`` with one edit at
    ``gate``.  Edits that preserve the function (double inversion of a
    pin) are mixed with ones that usually change it (function swap,
    rewiring a pin to an earlier signal)."""
    order = net.topo_order()
    out = []
    while len(out) < count:
        idx = rnd.randrange(len(order))
        g = order[idx]
        gate = net.gates[g]
        right = net.copy(name="right")
        kind = rnd.choice(("swap", "rewire", "double_inv"))
        pin = rnd.randrange(len(gate.inputs))
        if kind == "swap":
            if gate.func.name not in _NARY:
                continue
            right.gates[g].func = func_from_name(rnd.choice(
                [f for f in _NARY if f != gate.func.name]))
            right.invalidate()
        elif kind == "rewire":
            earlier = list(net.pis) + order[:idx]
            new = rnd.choice(earlier)
            if new in gate.inputs:
                continue
            replace_input(right, Branch(g, pin), new)
        else:
            src = gate.inputs[pin]
            inv2 = insert_inverter(right, insert_inverter(right, src))
            replace_input(right, Branch(g, pin), inv2)
        out.append((right, g))
    return out


def _obligation(left, right, gate):
    tfo = left.transitive_fanout(gate, include_self=True)
    pos = [po for po in left.pos if po in tfo]
    if not pos:
        return None
    l_cone = extract_cone(left, pos, "left")
    r_cone = extract_cone(right, pos, "right")
    align_interfaces(l_cone, r_cone, left.pis)
    return build_obligation(
        l_cone, r_cone, Candidate(target=gate, kind="OS2", sources=("s",)))


def _obligations(seed, n_nets=6, per_net=12):
    rnd = random.Random(seed)
    obs = []
    for _ in range(n_nets):
        net = random_control(rnd.randint(6, 14), rnd.randint(30, 70),
                             rnd.randint(2, 6), seed=rnd.randrange(10**6),
                             locality=rnd.randint(6, 16))
        for right, gate in _mutants(net, rnd, per_net):
            ob = _obligation(net, right, gate)
            if ob is not None:
                obs.append(ob)
    return obs


def test_sim_rung_is_sound_against_sat():
    spec = LadderSpec(mode="sat")
    refuted = valid = 0
    for ob in _obligations(seed=7):
        _, verdict, tally, _ = prove_serialized(
            (ob.key, ob.left, ob.right, spec))
        left, right = ob.netlists()
        truth = sat_verdict(left, right, None)
        if tally.get("sim_invalid"):
            refuted += 1
            assert verdict == INVALID
            assert truth == INVALID, ob.key
            # A refuted obligation never reaches the formal ladder.
            assert set(tally) == {"sim_invalid"}
        if truth == VALID:
            valid += 1
            assert verdict == VALID and "sim_invalid" not in tally
        else:
            assert verdict == INVALID
    assert refuted > 0 and valid > 0, (refuted, valid)


def test_sim_rung_verdicts_match_in_process_and_pool():
    obs = _obligations(seed=11, n_nets=3, per_net=8)
    serial = ProofBroker(mode="sat", workers=1)
    pooled = ProofBroker(mode="sat", workers=2)
    try:
        v_serial = serial.prove_batch(obs)
        v_pooled = pooled.prove_batch(obs)
        assert pooled.counters.parallel_batches == 1
    finally:
        serial.close()
        pooled.close()
    assert v_serial == v_pooled
    a, b = serial.counters, pooled.counters
    assert a.sim_invalid > 0
    for name in ("sim_invalid", "sat_valid", "sat_invalid", "sat_unknown",
                 "bdd_valid", "bdd_invalid", "bdd_unknown", "dispatched"):
        assert getattr(a, name) == getattr(b, name), name


@pytest.fixture(scope="module")
def c432_run():
    lib = mcnc_like()
    net = build("C432", small=True)
    lib.rebind(net)
    cfg = GdoConfig(n_words=8, verify_final=False, max_rounds=2,
                    max_passes_per_phase=6, max_trials_per_pass=48,
                    max_proofs_per_pass=32, proof_workers=1,
                    obs=ObsConfig.full())
    return gdo_optimize(net, lib, cfg), lib


def test_c432_invalid_verdicts_add_up(c432_run):
    result, _ = c432_run
    p = result.stats.proof
    assert p.sim_invalid > 0
    fresh_invalid = [
        rec for rec in result.stats.obs.journal_records
        if rec["type"] == "verdict" and rec["verdict"] == INVALID
        and not rec["cache_hit"]
    ]
    assert p.sim_invalid + p.sat_invalid + p.bdd_invalid == \
        len(fresh_invalid)
    counters = result.stats.obs.metrics["counters"]
    assert counters["proof_attempts{backend=sim,verdict=invalid}"] == \
        p.sim_invalid


def test_report_and_export_surface_sim_rung(c432_run):
    result, lib = c432_run
    p = result.stats.proof
    text = format_result(result, lib)
    assert f"proof backends: sim {p.sim_invalid} refuted, sat " in text
    entry = gdo_entry(result, key="test")
    assert entry["broker"]["sim_invalid"] == p.sim_invalid
