"""CNF formulas and the characteristic function of a netlist.

Following Sec. 2 of the paper (after Larrabee): each gate contributes a
formula in conjunctive normal form that is true iff the values assigned
to its terminal variables are consistent with the gate's truth table;
the conjunction over all gates is the circuit's characteristic function.

Literals use the DIMACS convention: variables are positive integers,
negation is arithmetic negation.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..netlist.netlist import Netlist

Clause = Tuple[int, ...]


class VarPool:
    """Allocates CNF variables for named objects."""

    def __init__(self) -> None:
        self._by_name: Dict[object, int] = {}
        self.n_vars = 0

    def var(self, name: object) -> int:
        """Variable for ``name`` (created on first use)."""
        found = self._by_name.get(name)
        if found is not None:
            return found
        self.n_vars += 1
        self._by_name[name] = self.n_vars
        return self.n_vars

    def fresh(self) -> int:
        self.n_vars += 1
        return self.n_vars

    def lookup(self, name: object) -> Optional[int]:
        return self._by_name.get(name)

    def __contains__(self, name: object) -> bool:
        return name in self._by_name


class CNF:
    """A CNF formula: a list of clauses over a shared variable pool."""

    def __init__(self, pool: Optional[VarPool] = None):
        self.pool = pool if pool is not None else VarPool()
        self.clauses: List[Clause] = []

    @property
    def n_vars(self) -> int:
        return self.pool.n_vars

    def add(self, clause: Iterable[int]) -> None:
        lits = tuple(clause)
        if not lits:
            raise ValueError("empty clause added to CNF")
        self.clauses.append(lits)

    def extend(self, clauses: Iterable[Iterable[int]]) -> None:
        for clause in clauses:
            self.add(clause)

    def evaluate(self, assignment: Dict[int, bool]) -> bool:
        """True iff every clause is satisfied by a complete assignment."""
        for clause in self.clauses:
            if not any(
                assignment[abs(l)] == (l > 0) for l in clause
            ):
                return False
        return True

    def __len__(self) -> int:
        return len(self.clauses)


def encode_netlist(
    net: Netlist,
    cnf: Optional[CNF] = None,
    tag: object = None,
    share_pis: bool = True,
    strash: Optional[Dict[Tuple, int]] = None,
) -> Tuple[CNF, Dict[str, int]]:
    """Encode the characteristic function of ``net``.

    Returns the CNF and the signal -> variable map.  ``tag`` namespaces
    the gate-output variables so two netlists can coexist in one formula
    (a miter): PI variables are keyed by bare signal name when
    ``share_pis`` so both sides read identical inputs.

    ``strash`` enables structural hashing at the CNF level: gates whose
    (function, operand variables) match a previously encoded gate reuse
    its output variable and contribute no clauses.  Passing the same
    dict to two ``encode_netlist`` calls makes all logic the netlists
    share collapse to a single encoding — essential for fast miters of
    a circuit against a locally modified copy.
    """
    if cnf is None:
        cnf = CNF()
    varmap: Dict[str, int] = {}
    for pi in net.pis:
        key = pi if share_pis else (tag, pi)
        varmap[pi] = cnf.pool.var(key)
    for out in net.topo_order():
        gate = net.gates[out]
        in_vars = [varmap[s] for s in gate.inputs]
        varmap[out], _ = encode_gate(cnf.pool, cnf.add, gate.func, in_vars,
                                     (tag, out), strash)
    return cnf, varmap


def encode_gate(
    pool: VarPool,
    add: Callable[[Clause], None],
    func,
    in_vars: List[int],
    name: object,
    strash: Optional[Dict[Tuple, int]] = None,
) -> Tuple[int, bool]:
    """Encode one gate ``func(in_vars)``; returns ``(var, fresh)``.

    A ``strash`` hit returns the earlier gate's variable with ``fresh``
    False and adds nothing.  Otherwise the output gets the variable of
    ``name`` and its clauses go to ``add`` (``CNF.add``, or
    ``Solver.add_clause`` for an incremental encoding).
    """
    if strash is not None:
        key = strash_key(func, in_vars)
        hit = strash.get(key)
        if hit is not None:
            return hit, False
        var = pool.var(name)
        strash[key] = var
    else:
        var = pool.var(name)
    for clause in func.cnf(var, in_vars):
        add(clause)
    return var, True


_COMMUTATIVE = {"AND", "NAND", "OR", "NOR", "XOR", "XNOR"}


def strash_key(func, in_vars) -> Tuple:
    """Structural-hash key of a gate: function and operand variables."""
    if func.name in _COMMUTATIVE:
        return (func.name, tuple(sorted(in_vars)))
    return (func.name, tuple(in_vars))


def to_dimacs(cnf: CNF, comment: str = "") -> str:
    """Serialize to DIMACS CNF text."""
    lines = []
    if comment:
        for part in comment.splitlines():
            lines.append(f"c {part}")
    lines.append(f"p cnf {cnf.n_vars} {len(cnf.clauses)}")
    for clause in cnf.clauses:
        lines.append(" ".join(str(l) for l in clause) + " 0")
    return "\n".join(lines) + "\n"


def from_dimacs(text: str) -> CNF:
    """Parse DIMACS CNF text."""
    cnf = CNF()
    declared = 0
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            declared = int(parts[2])
            continue
        lits = [int(tok) for tok in line.split()]
        if lits and lits[-1] == 0:
            lits = lits[:-1]
        if lits:
            cnf.add(lits)
    while cnf.pool.n_vars < declared:
        cnf.pool.fresh()
    for clause in cnf.clauses:
        for lit in clause:
            while cnf.pool.n_vars < abs(lit):
                cnf.pool.fresh()
    return cnf
