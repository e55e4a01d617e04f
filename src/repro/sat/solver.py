"""A CDCL SAT solver (two-watched literals, 1UIP learning, VSIDS,
Luby restarts, phase saving).

This is the reproduction's stand-in for the "techniques which originated
in the test area": Larrabee's SAT-based test generation [9] is the
engine the paper uses to prove potentially valid clause combinations.
The solver supports assumptions, so ATPG-style queries (is this fault
testable? is this miter satisfiable?) are single calls.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

TRUE, FALSE, UNASSIGNED = 1, 0, -1


class SatResult:
    """Outcome of a solve: ``sat`` flag and, if SAT, a model."""

    def __init__(self, sat: bool, model: Optional[Dict[int, bool]] = None,
                 conflicts: int = 0, decisions: int = 0):
        self.sat = sat
        self.model = model or {}
        self.conflicts = conflicts
        self.decisions = decisions

    def __bool__(self) -> bool:
        return self.sat

    def value(self, var: int) -> bool:
        return self.model.get(var, False)


class Solver:
    """CDCL solver over DIMACS-style integer literals."""

    def __init__(self, n_vars: int = 0):
        self.n_vars = 0
        self.clauses: List[List[int]] = []
        self.watches: Dict[int, List[int]] = {}
        self.assign: List[int] = [UNASSIGNED]
        self.level: List[int] = [0]
        self.reason: List[Optional[int]] = [None]
        self.activity: List[float] = [0.0]
        self.phase: List[bool] = [False]
        self.trail: List[int] = []
        self.trail_lim: List[int] = []
        self.prop_head = 0
        self.var_inc = 1.0
        self.var_decay = 0.95
        self.ok = True
        self.conflicts = 0
        self.decisions = 0
        self._order_heap: List[Tuple[float, int]] = []
        self.ensure_vars(n_vars)

    # ------------------------------------------------------------------
    def ensure_vars(self, n_vars: int) -> None:
        while self.n_vars < n_vars:
            self.n_vars += 1
            self.assign.append(UNASSIGNED)
            self.level.append(0)
            self.reason.append(None)
            self.activity.append(0.0)
            self.phase.append(False)
            heapq.heappush(self._order_heap, (0.0, self.n_vars))

    def add_clause(self, lits: Iterable[int]) -> None:
        clause = sorted(set(lits), key=abs)
        if not clause:
            self.ok = False
            return
        for lit in clause:
            self.ensure_vars(abs(lit))
        # Tautology?
        seen = set(clause)
        if any(-l in seen for l in clause):
            return
        if self.prop_head > 0:
            # Incremental use: level-0 units are already propagated, so
            # a clause whose watched literals are false there would
            # never wake up.  Simplify it against level 0 instead.  A
            # solver that has not propagated yet keeps its clauses as
            # given, so one-shot searches are unaffected.
            self._backtrack(0)
            if any(self._lit_value(l) == TRUE for l in clause):
                return
            clause = [l for l in clause if self._lit_value(l) != FALSE]
            if not clause:
                self.ok = False
                return
        if len(clause) == 1:
            if not self._enqueue(clause[0], None):
                self.ok = False
            return
        idx = len(self.clauses)
        self.clauses.append(clause)
        self.watches.setdefault(clause[0], []).append(idx)
        self.watches.setdefault(clause[1], []).append(idx)

    def add_cnf(self, cnf) -> None:
        """Add all clauses of a :class:`repro.cnf.CNF`."""
        self.ensure_vars(cnf.n_vars)
        for clause in cnf.clauses:
            self.add_clause(clause)

    # ------------------------------------------------------------------
    def _lit_value(self, lit: int) -> int:
        val = self.assign[abs(lit)]
        if val == UNASSIGNED:
            return UNASSIGNED
        return val if lit > 0 else 1 - val

    def _enqueue(self, lit: int, reason: Optional[int]) -> bool:
        val = self._lit_value(lit)
        if val == FALSE:
            return False
        if val == TRUE:
            return True
        var = abs(lit)
        self.assign[var] = TRUE if lit > 0 else FALSE
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.trail.append(lit)
        return True

    def _propagate(self) -> Optional[int]:
        """Unit propagation; returns a conflicting clause index or None."""
        while self.prop_head < len(self.trail):
            lit = self.trail[self.prop_head]
            self.prop_head += 1
            falsified = -lit
            watch_list = self.watches.get(falsified, [])
            keep: List[int] = []
            w = 0
            while w < len(watch_list):
                cidx = watch_list[w]
                w += 1
                clause = self.clauses[cidx]
                # Ensure falsified literal is at position 1.
                if clause[0] == falsified:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                if self._lit_value(first) == TRUE:
                    keep.append(cidx)
                    continue
                # Search replacement watch.
                moved = False
                for k in range(2, len(clause)):
                    if self._lit_value(clause[k]) != FALSE:
                        clause[1], clause[k] = clause[k], clause[1]
                        self.watches.setdefault(clause[1], []).append(cidx)
                        moved = True
                        break
                if moved:
                    continue
                keep.append(cidx)
                if not self._enqueue(first, cidx):
                    keep.extend(watch_list[w:])
                    self.watches[falsified] = keep
                    return cidx
            self.watches[falsified] = keep
        return None

    # ------------------------------------------------------------------
    def _analyze(self, conflict: int) -> Tuple[List[int], int]:
        """1UIP conflict analysis; returns (learnt clause, backtrack level)."""
        learnt: List[int] = [0]  # placeholder for the asserting literal
        seen = [False] * (self.n_vars + 1)
        counter = 0
        lit = None
        cidx: Optional[int] = conflict
        index = len(self.trail) - 1
        cur_level = len(self.trail_lim)
        while True:
            clause = self.clauses[cidx]
            for q in clause:
                if lit is not None and q == lit:
                    continue
                var = abs(q)
                if not seen[var] and self.level[var] > 0:
                    seen[var] = True
                    self._bump(var)
                    if self.level[var] >= cur_level:
                        counter += 1
                    else:
                        learnt.append(q)
            # Find next literal to resolve on.
            while not seen[abs(self.trail[index])]:
                index -= 1
            lit = self.trail[index]
            var = abs(lit)
            seen[var] = False
            counter -= 1
            index -= 1
            if counter == 0:
                learnt[0] = -lit
                break
            cidx = self.reason[var]
        if len(learnt) == 1:
            return learnt, 0
        # Backtrack to the second-highest level in the clause.
        levels = sorted((self.level[abs(l)] for l in learnt[1:]), reverse=True)
        back = levels[0]
        # Move a literal of that level to position 1 (watch invariant).
        for k in range(1, len(learnt)):
            if self.level[abs(learnt[k])] == back:
                learnt[1], learnt[k] = learnt[k], learnt[1]
                break
        return learnt, back

    def _bump(self, var: int) -> None:
        self.activity[var] += self.var_inc
        if self.activity[var] > 1e100:
            for v in range(1, self.n_vars + 1):
                self.activity[v] *= 1e-100
            self.var_inc *= 1e-100
            self._order_heap = [
                (-self.activity[v], v) for v in range(1, self.n_vars + 1)
                if self.assign[v] == UNASSIGNED
            ]
            heapq.heapify(self._order_heap)
            return
        heapq.heappush(self._order_heap, (-self.activity[var], var))

    def _decay(self) -> None:
        self.var_inc /= self.var_decay

    def _backtrack(self, back_level: int) -> None:
        while len(self.trail_lim) > back_level:
            mark = self.trail_lim.pop()
            for lit in reversed(self.trail[mark:]):
                var = abs(lit)
                self.phase[var] = self.assign[var] == TRUE
                self.assign[var] = UNASSIGNED
                self.reason[var] = None
                heapq.heappush(self._order_heap,
                               (-self.activity[var], var))
            del self.trail[mark:]
        self.prop_head = min(self.prop_head, len(self.trail))

    def _decide(self) -> Optional[int]:
        # Lazy VSIDS heap: entries may be stale; skip assigned vars.
        while self._order_heap:
            _act, var = heapq.heappop(self._order_heap)
            if self.assign[var] == UNASSIGNED:
                return var if self.phase[var] else -var
        for var in range(1, self.n_vars + 1):  # safety net
            if self.assign[var] == UNASSIGNED:
                return var if self.phase[var] else -var
        return None

    # ------------------------------------------------------------------
    def solve(
        self,
        assumptions: Sequence[int] = (),
        max_conflicts: Optional[int] = None,
    ) -> SatResult:
        """Solve under ``assumptions``.

        Raises :class:`SolverBudgetExceeded` when ``max_conflicts`` is
        hit — the caller must treat the query as undecided.
        """
        if not self.ok:
            return SatResult(False)
        self._backtrack(0)
        if self._propagate() is not None:
            self.ok = False
            return SatResult(False)
        self.conflicts = 0
        self.decisions = 0
        luby_idx = 1
        restart_limit = 64 * _luby(luby_idx)
        conflicts_at_restart = 0
        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.conflicts += 1
                conflicts_at_restart += 1
                if len(self.trail_lim) == 0:
                    if not assumptions:
                        self.ok = False
                    return SatResult(False, conflicts=self.conflicts,
                                     decisions=self.decisions)
                learnt, back = self._analyze(conflict)
                self._backtrack(back)
                self._learn(learnt)
                self._decay()
                if max_conflicts is not None and self.conflicts >= max_conflicts:
                    raise SolverBudgetExceeded(self.conflicts)
                continue
            if conflicts_at_restart >= restart_limit:
                luby_idx += 1
                restart_limit = 64 * _luby(luby_idx)
                conflicts_at_restart = 0
                self._backtrack(0)
                continue
            # Re-place any pending assumption as the next decision.
            if len(self.trail_lim) < len(assumptions):
                lit = assumptions[len(self.trail_lim)]
                val = self._lit_value(lit)
                if val == FALSE:
                    # The assumptions themselves are contradictory with
                    # the formula under the current implications.
                    return SatResult(False, conflicts=self.conflicts,
                                     decisions=self.decisions)
                # Open a decision level even when already TRUE so the
                # level <-> assumption-index correspondence holds.
                self.trail_lim.append(len(self.trail))
                if val == UNASSIGNED:
                    self._enqueue(lit, None)
                continue
            lit = self._decide()
            if lit is None:
                model = {
                    v: self.assign[v] == TRUE
                    for v in range(1, self.n_vars + 1)
                }
                result = SatResult(True, model, self.conflicts, self.decisions)
                self._backtrack(0)
                return result
            self.decisions += 1
            self.trail_lim.append(len(self.trail))
            self._enqueue(lit, None)

    def _learn(self, learnt: List[int]) -> None:
        if len(learnt) == 1:
            if not self._enqueue(learnt[0], None):
                self.ok = False
            return
        idx = len(self.clauses)
        self.clauses.append(learnt)
        self.watches.setdefault(learnt[0], []).append(idx)
        self.watches.setdefault(learnt[1], []).append(idx)
        self._enqueue(learnt[0], idx)


class SolverBudgetExceeded(Exception):
    """The conflict budget was exhausted before a verdict."""


def _luby(i: int) -> int:
    """The Luby restart sequence 1,1,2,1,1,2,4,... (1-indexed)."""
    k = 1
    while (1 << k) - 1 < i:
        k += 1
    while (1 << k) - 1 != i:
        # i lies inside the repeated prefix of block k: recurse on it.
        i -= (1 << (k - 1)) - 1
        k = 1
        while (1 << k) - 1 < i:
            k += 1
    return 1 << (k - 1)


def solve_cnf(cnf, assumptions: Sequence[int] = (),
              max_conflicts: Optional[int] = None) -> SatResult:
    """One-shot convenience: build a solver for ``cnf`` and solve."""
    solver = Solver()
    solver.add_cnf(cnf)
    return solver.solve(assumptions, max_conflicts=max_conflicts)
