"""Miter construction and SAT equivalence checking.

A miter of two netlists with matching PI/PO interfaces is SAT iff some
input vector distinguishes them.  The paper proves PVCC validity either
this way ("ATPG", since the miter query *is* a test-generation query for
the difference) or with BDDs; :mod:`repro.verify.equiv` exposes both.

Two forms:

* :func:`build_miter_cnf` / :func:`miter_equivalent` — one monolithic
  miter, both sides strashed into one CNF and one solve.  The proof
  ladder and the substitution checks use it.
* :func:`swept_verdict` — SAT sweeping for the final check of a whole
  optimized netlist.  The right side is encoded gate by gate into an
  incremental solver; each right gate whose simulation signature equals
  a left signal's is proven equal to it with two small assumption
  solves and, when proven, merged onto the left variable, so the
  logic downstream strashes onto the left encoding again.  Only the
  outputs still apart after the sweep reach the output miter.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from ..cnf.formula import (
    CNF, Clause, VarPool, encode_gate, encode_netlist, strash_key,
)
from ..netlist.netlist import Netlist
from .solver import Solver, SolverBudgetExceeded


class InterfaceMismatch(Exception):
    """The two netlists do not share a PI/PO interface."""


def build_miter_cnf(
    left: Netlist,
    right: Netlist,
    po_indices: Optional[Sequence[int]] = None,
) -> Tuple[CNF, Dict[str, int]]:
    """CNF satisfiable iff some input makes selected POs differ.

    POs are compared positionally; ``po_indices`` restricts the
    comparison (used to check only the outputs affected by a local
    netlist modification).  Returns the CNF and the shared PI varmap.
    """
    _check_interfaces(left, right)
    cnf = CNF()
    # Shared structural hashing collapses all logic common to the two
    # netlists; for a local modification the miter shrinks to the
    # changed cone, which is what keeps thousands of PVCC proofs cheap.
    strash: Dict[Tuple, int] = {}
    _, varmap_l = encode_netlist(left, cnf, tag="L", share_pis=True,
                                 strash=strash)
    _, varmap_r = encode_netlist(right, cnf, tag="R", share_pis=True,
                                 strash=strash)
    indices = range(len(left.pos)) if po_indices is None else po_indices
    cnf.extend(_difference_clauses(cnf.pool, [
        (varmap_l[left.pos[idx]], varmap_r[right.pos[idx]])
        for idx in indices]))
    pi_vars = {pi: varmap_l[pi] for pi in left.pis}
    return cnf, pi_vars


def _check_interfaces(left: Netlist, right: Netlist) -> None:
    if set(left.pis) != set(right.pis):
        raise InterfaceMismatch("primary input sets differ")
    if len(left.pos) != len(right.pos):
        raise InterfaceMismatch("primary output counts differ")


def _difference_clauses(
    pool: VarPool, pairs: Sequence[Tuple[int, int]]
) -> List[Clause]:
    """Clauses satisfiable iff some ``(lv, rv)`` pair differs.

    Pairs with ``lv == rv`` are structurally identical and skipped; with
    none left the clauses are a contradiction.
    """
    clauses: List[Clause] = []
    diff_lits: List[int] = []
    for lv, rv in pairs:
        if lv == rv:
            continue  # structurally identical output
        d = pool.fresh()
        # d <-> (lv XOR rv)
        clauses += [(-d, lv, rv), (-d, -lv, -rv), (d, -lv, rv), (d, lv, -rv)]
        diff_lits.append(d)
    if not diff_lits:
        # Outputs are literally the same variables: force UNSAT.
        fresh = pool.fresh()
        clauses += [(fresh,), (-fresh,)]
    else:
        clauses.append(tuple(diff_lits))
    return clauses


def miter_equivalent(
    left: Netlist,
    right: Netlist,
    po_indices: Optional[Sequence[int]] = None,
    max_conflicts: Optional[int] = None,
) -> bool:
    """True iff the selected POs are functionally equivalent.

    Raises :class:`SolverBudgetExceeded` when the budget runs out —
    callers that want an explicit undecided verdict instead of an
    exception use :func:`miter_verdict`.
    """
    cnf, _ = build_miter_cnf(left, right, po_indices=po_indices)
    solver = Solver()
    solver.add_cnf(cnf)
    return not solver.solve(max_conflicts=max_conflicts).sat


#: Budget overflows observed by :func:`miter_verdict` since import —
#: the explicit tally that replaces silently-propagating exceptions.
budget_overflows = 0


def miter_verdict(
    left: Netlist,
    right: Netlist,
    po_indices: Optional[Sequence[int]] = None,
    max_conflicts: Optional[int] = None,
) -> Optional[bool]:
    """Exception-free equivalence verdict.

    ``True`` = equivalent, ``False`` = a distinguishing vector exists,
    ``None`` = undecided within ``max_conflicts`` (counted in
    :data:`budget_overflows`).
    """
    global budget_overflows
    try:
        return miter_equivalent(
            left, right, po_indices=po_indices,
            max_conflicts=max_conflicts,
        )
    except SolverBudgetExceeded:
        budget_overflows += 1
        return None


def miter_counterexample(
    left: Netlist,
    right: Netlist,
    po_indices: Optional[Sequence[int]] = None,
    max_conflicts: Optional[int] = None,
) -> Optional[Dict[str, int]]:
    """A distinguishing input vector, or ``None`` if equivalent."""
    cnf, pi_vars = build_miter_cnf(left, right, po_indices=po_indices)
    solver = Solver()
    solver.add_cnf(cnf)
    result = solver.solve(max_conflicts=max_conflicts)
    if not result.sat:
        return None
    return {pi: int(result.value(var)) for pi, var in pi_vars.items()}


#: Conflict budget of one sweep pair query (each of its two solves
#: draws from it).  Pairs are near-identical logic, so a proof needs
#: little search; a pair that needs more is left unmerged.
SWEEP_PAIR_CONFLICTS = 100


def swept_verdict(
    left: Netlist,
    right: Netlist,
    left_sigs: Mapping[str, Hashable],
    right_sigs: Mapping[str, Hashable],
    max_conflicts: Optional[int] = None,
    tally: Optional[Dict[str, int]] = None,
) -> Optional[bool]:
    """Equivalence of all POs by SAT sweeping; ``None`` if undecided.

    ``left_sigs``/``right_sigs`` give every signal's simulation
    signature under one shared set of input vectors (equal signatures
    propose a pair, never prove one).  The pair proofs together spend
    at most ``max_conflicts`` conflicts, each at most
    :data:`SWEEP_PAIR_CONFLICTS`; the output miter over the outputs
    still apart gets another ``max_conflicts``.  ``tally`` receives the
    ``merged``/``refuted``/``undecided`` pair counts and
    ``outputs_left``.
    """
    _check_interfaces(left, right)
    counts = {} if tally is None else tally
    counts.update(merged=0, refuted=0, undecided=0, outputs_left=0)
    cnf = CNF()
    strash: Dict[Tuple, int] = {}
    _, varmap_l = encode_netlist(left, cnf, tag="L", share_pis=True,
                                 strash=strash)
    solver = Solver()
    solver.add_cnf(cnf)
    # First left signal (PIs, then topological order) of each signature.
    by_sig: Dict[Hashable, int] = {}
    for sig in chain(left.pis, left.topo_order()):
        by_sig.setdefault(left_sigs[sig], varmap_l[sig])
    pool = cnf.pool
    varmap_r = {pi: varmap_l[pi] for pi in right.pis}
    spent = 0
    for out in right.topo_order():
        gate = right.gates[out]
        in_vars = [varmap_r[s] for s in gate.inputs]
        var, fresh = encode_gate(pool, solver.add_clause, gate.func,
                                 in_vars, ("R", out), strash)
        varmap_r[out] = var
        lvar = by_sig.get(right_sigs[out]) if fresh else None
        if lvar is None:
            continue
        verdict, used = _prove_pair(solver, var, lvar, spent, max_conflicts)
        spent += used
        if verdict:
            varmap_r[out] = lvar
            strash[strash_key(gate.func, in_vars)] = lvar
            counts["merged"] += 1
        else:
            counts["refuted" if verdict is False else "undecided"] += 1
    pairs = [(varmap_l[lpo], varmap_r[rpo])
             for lpo, rpo in zip(left.pos, right.pos)]
    counts["outputs_left"] = sum(lv != rv for lv, rv in pairs)
    if not counts["outputs_left"]:
        return True
    for clause in _difference_clauses(pool, pairs):
        solver.add_clause(clause)
    try:
        return not solver.solve(max_conflicts=max_conflicts).sat
    except SolverBudgetExceeded:
        return None


def _prove_pair(
    solver: Solver, rv: int, lv: int, spent: int,
    max_conflicts: Optional[int],
) -> Tuple[Optional[bool], int]:
    """``(rv ≡ lv, conflicts used)``: ``None`` when the pair budget —
    :data:`SWEEP_PAIR_CONFLICTS`, capped by what is left of
    ``max_conflicts`` after ``spent`` — ran out."""
    budget = SWEEP_PAIR_CONFLICTS
    if max_conflicts is not None:
        budget = min(budget, max_conflicts - spent)
    used = 0
    for assumptions in ((rv, -lv), (-rv, lv)):
        if used >= budget:
            return None, used
        try:
            result = solver.solve(assumptions, max_conflicts=budget - used)
        except SolverBudgetExceeded as exc:
            return None, used + exc.args[0]
        used += result.conflicts
        if result.sat:
            return False, used
    return True, used
