"""Combinational equivalence checking (the safety net).

Strategy: simulate both netlists once on random words and refute on
any PO word that differs; then prove.  The SAT proof is a swept miter
(:func:`repro.sat.miter.swept_verdict`): the same simulation words
propose internal right/left signal pairs, small assumption solves prove
them, proven pairs are merged, and only the outputs still apart reach
the output miter.  ``method="bdd"`` compares BDDs instead.  Used after
every GDO run and heavily in the test suite.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..bdd.bdd import BddBudgetExceeded
from ..bdd.circuit_bdd import bdd_equivalent
from ..netlist.netlist import Netlist
from ..sat.miter import miter_counterexample, swept_verdict
from ..sim.bitsim import BitSimulator, SimState
from ..sim.vectors import random_words


def _simulate_pair(
    left: Netlist, right: Netlist, n_words: int, seed: int
) -> Optional[Tuple[SimState, SimState]]:
    """Both netlists simulated on the same random words, or ``None`` when
    their interfaces or some PO word already tell them apart."""
    if set(left.pis) != set(right.pis) or len(left.pos) != len(right.pos):
        return None
    words = random_words(left.pis, n_words, seed)
    l_state = BitSimulator(left).simulate(words)
    r_state = BitSimulator(right).simulate(words)
    for l_po, r_po in zip(left.pos, right.pos):
        if np.any(l_state.word(l_po) ^ r_state.word(r_po)):
            return None
    return l_state, r_state


def _signatures(state: SimState) -> Dict[str, bytes]:
    return {sig: state.values[idx].tobytes()
            for sig, idx in state.sim.index_of.items()}


def random_sim_refutes(
    left: Netlist, right: Netlist, n_words: int = 32, seed: int = 0
) -> bool:
    """True if random vectors already distinguish the two netlists."""
    return _simulate_pair(left, right, n_words, seed) is None


def check_equivalence(
    left: Netlist,
    right: Netlist,
    n_words: int = 32,
    seed: int = 0,
    method: str = "sat",
    max_conflicts: Optional[int] = 500_000,
    bdd_max_nodes: int = 1_000_000,
    tally: Optional[Dict[str, int]] = None,
) -> Optional[bool]:
    """Full equivalence check: simulate to refute, then prove.

    ``method`` is ``"sat"``, ``"bdd"``, or ``"auto"`` (BDD with SAT
    fallback on budget exhaustion).  Returns ``None`` — undecided —
    when refutation failed but the formal proof exhausted its budget;
    budget overflows never escape as exceptions.  The SAT proof spends
    at most ``max_conflicts`` conflicts on sweep pairs plus
    ``max_conflicts`` on the output miter; ``tally``, if given,
    receives its ``merged``/``refuted``/``undecided`` pair counts and
    ``outputs_left``.
    """
    states = _simulate_pair(left, right, n_words, seed)
    if states is None:
        return False
    if method in ("bdd", "auto"):
        try:
            return bdd_equivalent(left, right, max_nodes=bdd_max_nodes)
        except BddBudgetExceeded:
            if method == "bdd":
                return None
    l_state, r_state = states
    return swept_verdict(left, right, _signatures(l_state),
                         _signatures(r_state), max_conflicts=max_conflicts,
                         tally=tally)


def find_counterexample(
    left: Netlist, right: Netlist, max_conflicts: Optional[int] = 500_000
):
    """Distinguishing input assignment, or None if equivalent."""
    return miter_counterexample(left, right, max_conflicts=max_conflicts)
