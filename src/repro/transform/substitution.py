"""Applying and proving OS2/IS2/OS3/IS3 substitutions.

The simulation filter (:mod:`repro.clauses.candidates`) only shows that
no sampled vector refutes a PVCC; permissibility (Definition 2) must be
*proven*.  Per Sec. 4 this is done either by "ATPG" — here, a SAT query
on the miter of original vs. modified circuit (satisfiable iff some test
vector distinguishes them, exactly Larrabee's formulation) — or by
BDD-based verification of the two circuits.  Both operate on the cones
of the primary outputs reachable from the substitution point, which is
what keeps global optimization of large circuits feasible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

from ..bdd.bdd import BddBudgetExceeded
from ..bdd.circuit_bdd import bdd_equivalent
from ..library.cells import TechLibrary
from ..netlist.edit import (
    find_inverted, insert_gate, prune_dangling, replace_input,
    substitute_stem, would_create_cycle,
)
from ..netlist.gatefunc import INV
from ..netlist.netlist import Branch, Gate, Netlist, NetlistError
from ..sat.miter import miter_equivalent
from ..sat.solver import SolverBudgetExceeded
from ..clauses.pvcc import Candidate
from .realize import realize_form


class TransformError(Exception):
    """A substitution could not be applied to the netlist."""


@dataclass
class AppliedSubstitution:
    """Record of one executed substitution."""

    candidate: Candidate
    replacement: str
    added_gates: List[str] = field(default_factory=list)
    removed_gates: List[Gate] = field(default_factory=list)

    def area_delta(self, library: TechLibrary, net: Netlist) -> float:
        """Area change (negative = area saved)."""
        added = sum(
            library.gate_area(net.gates[g])
            for g in self.added_gates if g in net.gates
        )
        removed = sum(library.gate_area(g) for g in self.removed_gates)
        return added - removed


# ----------------------------------------------------------------------
# application
# ----------------------------------------------------------------------
def apply_candidate(
    net: Netlist,
    cand: Candidate,
    library: Optional[TechLibrary] = None,
    prune: bool = True,
) -> AppliedSubstitution:
    """Execute the substitution on ``net`` (mutating it).

    Performs structural sanity checks (sources exist, no cycle) but NOT
    the permissibility proof — call :func:`prove_candidate` first.
    """
    added: List[str] = []
    replacement = _build_replacement(net, cand, library, added)

    def bail(reason: str) -> None:
        for sig in reversed(added):
            if sig in net.gates and net.fanout_count(sig) == 0:
                del net.gates[sig]
        net.invalidate()
        raise TransformError(reason)

    if isinstance(cand.target, Branch):
        if cand.target.gate not in net.gates or \
                cand.target.pin >= net.gates[cand.target.gate].nin:
            bail(f"branch {cand.target} no longer exists")
        if would_create_cycle(net, cand.target.gate, replacement):
            bail(f"{cand.describe()} would create a cycle")
        old = replace_input(net, cand.target, replacement)
        roots = [old]
    else:
        if not net.has_signal(cand.target):
            bail(f"stem {cand.target!r} no longer exists")
        if cand.target in net.transitive_fanin(replacement):
            bail(f"{cand.describe()} would create a cycle")
        substitute_stem(net, cand.target, replacement)
        roots = [cand.target]
    removed = prune_dangling(net, roots=roots) if prune else []
    if library is not None:
        for sig in added:
            gate = net.gates[sig]
            cell = library.cell_for(gate.func, gate.nin)
            gate.cell = cell.name if cell is not None else None
    return AppliedSubstitution(
        candidate=cand, replacement=replacement,
        added_gates=added, removed_gates=removed,
    )


def _build_replacement(
    net: Netlist,
    cand: Candidate,
    library: Optional[TechLibrary],
    added: List[str],
) -> str:
    for src in cand.sources:
        if not net.has_signal(src):
            raise TransformError(f"source {src!r} no longer exists")
    if cand.kind in ("OS2", "IS2"):
        sig = cand.sources[0]
        if not cand.inverted:
            return sig
        existing = find_inverted(net, sig)
        if existing is not None:
            return existing
        inv_cell = library.cell_for(INV, 1) if library is not None else None
        try:
            name = insert_gate(net, INV, [sig],
                               cell=inv_cell.name if inv_cell else None,
                               hint="gdo_inv")
        except NetlistError as exc:
            # add_gate now validates arity/self-loops eagerly; surface
            # the rejection in the transform layer's own vocabulary.
            raise TransformError(str(exc)) from None
        added.append(name)
        return name
    func, swap = realize_form(cand.form)
    b, c = cand.sources
    if swap:
        b, c = c, b
    cell = library.cell_for(func, 2) if library is not None else None
    try:
        name = insert_gate(net, func, [b, c],
                           cell=cell.name if cell else None, hint="gdo")
    except NetlistError as exc:
        raise TransformError(str(exc)) from None
    added.append(name)
    return name


# ----------------------------------------------------------------------
# in-place application with undo (GDO's trial evaluation)
# ----------------------------------------------------------------------
class InplaceSubstitution:
    """One substitution applied directly to the live netlist, plus the
    edit log needed to take it back.

    GDO evaluates hundreds of trial candidates per adoption; copying the
    whole netlist for each makes every trial O(net).  Applying in place
    and undoing on rejection makes a trial O(cone): the record holds the
    rewired pins' previous signals, the pruned gate objects, and the
    pre-edit PO list, and :meth:`undo` replays them in reverse.

    ``dirty``/``removed`` describe the edit in the incremental engines'
    contract (see :func:`repro.netlist.edit.dirty_between`) without a
    netlist diff, and ``area_delta`` is the exact area change.
    """

    def __init__(self, net: Netlist, candidate: Candidate,
                 replacement: str):
        self._net = net
        self.candidate = candidate
        self.replacement = replacement
        self.added_gates: List[str] = []
        self.removed_gates: List[Gate] = []
        self.rewired: List[Tuple[Branch, str]] = []
        self.old_pos: Optional[List[str]] = None
        self.dirty: Set[str] = set()
        self.removed: Set[str] = set()
        self.area_delta = 0.0
        self.fan_patched = False
        # Pre-edit derived-structure caches; structurally valid again
        # after undo, so restoring them saves a rebuild per trial.
        self._saved_caches = (net._fanouts, net._topo)

    @property
    def old_branch_signal(self) -> str:
        """Pre-edit signal of the target pin (branch substitutions)."""
        return self.rewired[0][1]

    def undo(self, net: Netlist) -> None:
        """Take the substitution back.  ``net`` is the edited netlist —
        usually the live one, but a copy of it works too (gate names
        match), which is how the prover reconstructs the original."""
        for gate in reversed(self.removed_gates):
            net.gates[gate.output] = gate
        for branch, old in reversed(self.rewired):
            net.gates[branch.gate].inputs[branch.pin] = old
        if self.old_pos is not None:
            net.pos = list(self.old_pos)
        if net is self._net and self.fan_patched:
            # Reverse the fanout-map patch of apply_candidate_inplace
            # while the added gates are still present.
            fan = self._saved_caches[0]
            for gate in self.removed_gates:
                fan.setdefault(gate.output, [])
            for gate in self.removed_gates:
                for pin, s in enumerate(gate.inputs):
                    fan.setdefault(s, []).append(Branch(gate.output, pin))
            for branch, old in reversed(self.rewired):
                fan[self.replacement].remove(branch)
                fan.setdefault(old, []).append(branch)
            for sig in reversed(self.added_gates):
                gate = net.gates[sig]
                for pin, s in enumerate(gate.inputs):
                    fan[s].remove(Branch(sig, pin))
                fan.pop(sig, None)
        for sig in reversed(self.added_gates):
            net.gates.pop(sig, None)
        if net is self._net:
            net._fanouts, net._topo = self._saved_caches
            # The cache restore skips invalidate(); flat views key their
            # staleness off the structure version, so bump it by hand.
            net._struct_version += 1
        else:
            net.invalidate()


def apply_candidate_inplace(
    net: Netlist,
    cand: Candidate,
    library: Optional[TechLibrary] = None,
) -> InplaceSubstitution:
    """Execute the substitution on ``net`` itself, returning an undo
    record.  Same structural checks as :func:`apply_candidate`; raises
    :class:`TransformError` (with ``net`` untouched) when they fail.
    """
    fan = net.fanout_map()  # pre-edit reader map; patched to post-edit below
    record = InplaceSubstitution(net, cand, "")
    added = record.added_gates
    replacement = _build_replacement(net, cand, library, added)
    record.replacement = replacement

    def bail(reason: str) -> None:
        # No rewiring has happened yet, so an added gate can only be read
        # by a later-added gate: reversed deletion is always safe.
        for sig in reversed(added):
            net.gates.pop(sig, None)
        net._fanouts, net._topo = record._saved_caches
        raise TransformError(reason)

    if isinstance(cand.target, Branch):
        sink = net.gates.get(cand.target.gate)
        if sink is None or cand.target.pin >= sink.nin:
            bail(f"branch {cand.target} no longer exists")
        if would_create_cycle(net, cand.target.gate, replacement):
            bail(f"{cand.describe()} would create a cycle")
        old = replace_input(net, cand.target, replacement)
        record.rewired.append((cand.target, old))
        roots = [old]
    else:
        if not net.has_signal(cand.target):
            bail(f"stem {cand.target!r} no longer exists")
        if cand.target in net.transitive_fanin(replacement):
            bail(f"{cand.describe()} would create a cycle")
        record.old_pos = list(net.pos)
        # Rewire off the pre-edit reader map: net.fanouts() would force
        # an O(net) map rebuild after the insertions above invalidated it.
        for branch in list(fan.get(cand.target, ())):
            record.rewired.append((branch, cand.target))
            net.gates[branch.gate].inputs[branch.pin] = replacement
        for idx, po in enumerate(net.pos):
            if po == cand.target:
                net.pos[idx] = replacement
        net.invalidate()
        roots = [cand.target]
    # Reader-count adjustments of this edit, so pruning can reuse the
    # pre-edit fanout map instead of rebuilding one for the mutated net.
    delta: dict = {}
    for branch, old in record.rewired:
        delta[old] = delta.get(old, 0) - 1
        delta[replacement] = delta.get(replacement, 0) + 1
    for sig in added:
        for s in net.gates[sig].inputs:
            delta[s] = delta.get(s, 0) + 1
    record.removed_gates = prune_dangling(
        net, roots=roots, fanout_basis=(fan, delta))
    # Patch the pre-edit fanout map to the post-edit structure and keep
    # it installed: the timing refresh and any later structural queries
    # of this trial stay O(cone) instead of forcing an O(net) rebuild.
    # undo() reverses the patch entry by entry.
    for sig in added:
        gate = net.gates[sig]
        for pin, s in enumerate(gate.inputs):
            fan.setdefault(s, []).append(Branch(sig, pin))
    for branch, old in record.rewired:
        fan[old].remove(branch)
        fan.setdefault(replacement, []).append(branch)
    for gate in record.removed_gates:
        for pin, s in enumerate(gate.inputs):
            fan[s].remove(Branch(gate.output, pin))
    for gate in record.removed_gates:
        fan.pop(gate.output, None)
    net._fanouts = fan
    net._topo = None
    record.fan_patched = True
    if library is not None:
        for sig in added:
            gate = net.gates[sig]
            cell = library.cell_for(gate.func, gate.nin)
            gate.cell = cell.name if cell is not None else None
        record.area_delta = sum(
            library.gate_area(net.gates[g]) for g in added
        ) - sum(library.gate_area(g) for g in record.removed_gates)
    dirty, removed = record.dirty, record.removed
    dirty.add(replacement)
    for sig in added:
        dirty.add(sig)
        dirty.update(net.gates[sig].inputs)
    for branch, old in record.rewired:
        dirty.add(branch.gate)
        dirty.add(old)
    for gate in record.removed_gates:
        removed.add(gate.output)
        dirty.update(gate.inputs)
    record.dirty = {s for s in dirty if net.has_signal(s)}
    return record


# ----------------------------------------------------------------------
# proof backends
# ----------------------------------------------------------------------
def affected_outputs(net: Netlist, cand: Candidate) -> List[int]:
    """Indices of POs whose function a substitution could change."""
    root = cand.target.gate if isinstance(cand.target, Branch) else cand.target
    tfo = net.transitive_fanout(root, include_self=True)
    tfo.add(root)
    return [i for i, po in enumerate(net.pos) if po in tfo]


def prove_candidate(
    net: Netlist,
    cand: Candidate,
    library: Optional[TechLibrary] = None,
    proof: str = "sat",
    max_conflicts: Optional[int] = 200_000,
    bdd_max_nodes: int = 500_000,
) -> bool:
    """Prove permissibility of ``cand`` against ``net``.

    ``proof`` is ``"sat"``, ``"bdd"``, ``"auto"`` (BDD first, SAT on
    budget exhaustion — the paper's observation that BDDs win on small
    and medium cones, ATPG scales further), or ``"none"`` (trust the
    simulation filter; only sound under exhaustive simulation).
    """
    if proof == "none":
        return True
    modified = net.copy(name=net.name + "_mod")
    try:
        apply_candidate(modified, cand, library=library, prune=True)
    except TransformError:
        return False
    return prove_modified(net, modified, cand, proof=proof,
                          max_conflicts=max_conflicts,
                          bdd_max_nodes=bdd_max_nodes)


def prove_modified(
    original: Netlist,
    modified: Netlist,
    cand: Candidate,
    proof: str = "sat",
    max_conflicts: Optional[int] = 200_000,
    bdd_max_nodes: int = 500_000,
) -> bool:
    """Prove ``modified`` (the already-applied substitution ``cand``)
    equivalent to ``original`` on the affected POs.

    This is the proof step for in-place trial evaluation, where the live
    netlist *is* the modified circuit and the original is reconstructed
    via :meth:`InplaceSubstitution.undo` on a copy.
    """
    if proof == "none":
        return True
    po_idx = affected_outputs(original, cand)
    if not po_idx:
        return True
    # The SAT miter hashes shared structure away; the BDD backend builds
    # only the affected-PO cones in one shared manager.  Neither needs
    # explicit cone extraction.
    if proof == "bdd":
        return bdd_equivalent(original, modified, po_indices=po_idx,
                              max_nodes=bdd_max_nodes)
    if proof == "sat":
        try:
            return miter_equivalent(original, modified, po_indices=po_idx,
                                    max_conflicts=max_conflicts)
        except SolverBudgetExceeded:
            return False  # undecided within budget: reject the PVCC
    if proof == "auto":
        try:
            return bdd_equivalent(original, modified, po_indices=po_idx,
                                  max_nodes=bdd_max_nodes)
        except BddBudgetExceeded:
            try:
                return miter_equivalent(original, modified,
                                        po_indices=po_idx,
                                        max_conflicts=max_conflicts)
            except SolverBudgetExceeded:
                return False
    raise ValueError(f"unknown proof backend {proof!r}")
