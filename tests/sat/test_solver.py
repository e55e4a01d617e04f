"""Tests for the CDCL SAT solver."""

import itertools
import random

import pytest

from repro.cnf import CNF, from_dimacs, to_dimacs
from repro.sat import Solver, SolverBudgetExceeded, solve_cnf
from repro.sat.solver import _luby


def brute_force_sat(clauses, n_vars):
    for bits in itertools.product((False, True), repeat=n_vars):
        if all(any((l > 0) == bits[abs(l) - 1] for l in cl) for cl in clauses):
            return True
    return False


def test_trivial():
    s = Solver()
    s.add_clause([1])
    assert s.solve().sat
    assert s.solve().value(1) is True


def test_unit_conflict():
    s = Solver()
    s.add_clause([1])
    s.add_clause([-1])
    assert not s.solve().sat


def test_empty_clause_unsat():
    s = Solver()
    s.add_clause([])
    assert not s.solve().sat


def test_tautology_ignored():
    s = Solver()
    s.add_clause([1, -1])
    assert s.solve().sat


def test_random_3sat_vs_brute_force():
    rnd = random.Random(11)
    for trial in range(120):
        n = rnd.randint(3, 8)
        m = rnd.randint(2, 34)
        clauses = [
            tuple(rnd.choice((1, -1)) * rnd.randint(1, n)
                  for _ in range(rnd.randint(1, 3)))
            for _ in range(m)
        ]
        s = Solver()
        for cl in clauses:
            s.add_clause(cl)
        result = s.solve()
        assert result.sat == brute_force_sat(clauses, n), (trial, clauses)
        if result.sat:
            for cl in clauses:
                assert any((l > 0) == result.value(abs(l)) for l in cl)


def test_pigeonhole_unsat():
    def php(n_pigeons, n_holes):
        s = Solver()

        def var(p, h):
            return p * n_holes + h + 1
        for p in range(n_pigeons):
            s.add_clause([var(p, h) for h in range(n_holes)])
        for h in range(n_holes):
            for p1 in range(n_pigeons):
                for p2 in range(p1 + 1, n_pigeons):
                    s.add_clause([-var(p1, h), -var(p2, h)])
        return s.solve()

    assert not php(4, 3).sat
    assert not php(6, 5).sat
    assert php(3, 3).sat


def test_assumptions():
    s = Solver()
    s.add_clause([1, 2])
    s.add_clause([-1, 3])
    assert s.solve(assumptions=[-2]).sat        # forces 1, 3
    assert not s.solve(assumptions=[-2, -3]).sat
    assert s.solve(assumptions=[2]).sat
    # solver remains reusable after assumption UNSAT
    assert s.solve().sat


def test_assumption_order_independent():
    s = Solver()
    s.add_clause([1, 2, 3])
    s.add_clause([-1, -2])
    for perm in itertools.permutations([-3, 1]):
        assert s.solve(assumptions=list(perm)).sat


def test_budget_exceeded():
    # A hard UNSAT instance with a 1-conflict budget must raise.
    s = Solver()

    def var(p, h):
        return p * 5 + h + 1
    for p in range(6):
        s.add_clause([var(p, h) for h in range(5)])
    for h in range(5):
        for p1 in range(6):
            for p2 in range(p1 + 1, 6):
                s.add_clause([-var(p1, h), -var(p2, h)])
    with pytest.raises(SolverBudgetExceeded):
        s.solve(max_conflicts=1)


def test_luby_sequence():
    assert [_luby(i) for i in range(1, 16)] == \
        [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]


def test_solve_cnf_and_dimacs_roundtrip():
    cnf = CNF()
    v1, v2 = cnf.pool.var("a"), cnf.pool.var("b")
    cnf.add((v1, v2))
    cnf.add((-v1, v2))
    assert solve_cnf(cnf).sat
    text = to_dimacs(cnf, comment="two clauses")
    again = from_dimacs(text)
    assert len(again) == 2
    assert again.n_vars == 2
    assert solve_cnf(again).sat


def test_cnf_evaluate():
    cnf = CNF()
    a, b = cnf.pool.var("a"), cnf.pool.var("b")
    cnf.add((a, -b))
    assert cnf.evaluate({a: True, b: True})
    assert not cnf.evaluate({a: False, b: True})


def test_incremental_reuse():
    s = Solver()
    s.add_clause([1, 2])
    assert s.solve().sat
    s.add_clause([-1])
    assert s.solve().sat
    s.add_clause([-2])
    assert not s.solve().sat


def test_clause_added_after_level0_propagation():
    # Both watched literals of the late clause are already false at
    # level 0; it must still propagate 3 and then conflict with -3.
    s = Solver()
    s.add_clause([1])
    s.add_clause([2])
    assert s.solve().sat
    s.add_clause([-1, -2, 3])
    s.add_clause([-3])
    assert not s.solve().sat


def test_clause_added_after_unsat_under_assumptions():
    # An UNSAT-under-assumptions return leaves the trail above level 0;
    # a clause added then must not be simplified against the assumption.
    s = Solver()
    s.add_clause([1, 2])
    s.add_clause([-1, 2])
    assert not s.solve(assumptions=[-2]).sat
    s.add_clause([2, 3])
    result = s.solve()
    assert result.sat and result.value(2)
    assert s.solve(assumptions=[-3]).sat


def _satisfied_by(model, clauses):
    return all(any(model.value(abs(l)) == (l > 0) for l in cl)
               for cl in clauses)


def test_incremental_interleaving_vs_fresh_and_brute_force():
    """Interleave solves (with and without assumptions) and clause
    additions; every answer must match a fresh solver on the clauses so
    far and brute force, and every model must satisfy them."""
    rnd = random.Random(2024)
    for trial in range(150):
        n = rnd.randint(2, 7)
        s = Solver(n)
        clauses = []
        for _step in range(rnd.randint(4, 24)):
            if clauses and rnd.random() < 0.35:
                assumptions = rnd.sample(
                    [v * rnd.choice((1, -1)) for v in range(1, n + 1)],
                    rnd.randint(0, min(3, n)))
                fresh = Solver(n)
                for cl in clauses:
                    fresh.add_clause(cl)
                got = s.solve(assumptions=assumptions)
                want = fresh.solve(assumptions=assumptions).sat
                with_units = clauses + [(a,) for a in assumptions]
                assert got.sat == want == brute_force_sat(with_units, n), (
                    trial, clauses, assumptions)
                if got.sat:
                    assert _satisfied_by(got, with_units)
            else:
                clause = tuple(rnd.choice((1, -1)) * rnd.randint(1, n)
                               for _ in range(rnd.randint(1, 3)))
                clauses.append(clause)
                s.add_clause(clause)
