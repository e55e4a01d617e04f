"""Cone-oriented netlist traversals.

Helpers shared by the candidate filters (Sec. 4) and the gain
computations of the transformations (Sec. 5).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Set

from .netlist import Netlist


def mffc(net: Netlist, signal: str) -> Set[str]:
    """Maximum fanout-free cone of ``signal``.

    The set of gate outputs (including ``signal`` itself) that become
    dangling if every reader of ``signal`` disappears — i.e. the logic
    reclaimed by an output substitution OS2/OS3 (Fig. 3b).  POs other
    than ``signal`` pin their drivers in place.
    """
    if net.is_pi(signal) or signal not in net.gates:
        return set()
    po_set = set(net.pos)
    cone: Set[str] = {signal}
    work = [s for s in net.gates[signal].inputs if s in net.gates]
    while work:
        sig = work.pop()
        if sig in cone or sig in po_set:
            continue
        branches = net.fanouts(sig)
        if all(b.gate in cone for b in branches):
            cone.add(sig)
            work.extend(s for s in net.gates[sig].inputs if s in net.gates)
    return cone


def cone_area(net: Netlist, cone: Set[str], area_of) -> float:
    """Total area of the gates in ``cone``; ``area_of(gate)`` supplies
    per-gate areas (see :meth:`repro.library.cells.TechLibrary.gate_area`)."""
    return sum(area_of(net.gates[s]) for s in cone if s in net.gates)


def extract_cone(
    net: Netlist, outputs: Sequence[str], name: str = "cone"
) -> Netlist:
    """Standalone netlist computing ``outputs`` from the PIs they depend on.

    One walk from all outputs at once, sharing a single visited set, so
    logic common to several outputs is visited once.  PIs keep their
    order in ``net.pis`` and gates their order in ``net.topo_order()``.
    """
    gates = net.gates
    keep: Set[str] = set()
    stack = list(outputs)
    while stack:
        sig = stack.pop()
        if sig in keep:
            continue
        keep.add(sig)
        gate = gates.get(sig)
        if gate is not None:
            stack.extend(s for s in gate.inputs if s not in keep)
    sub = Netlist(name)
    for pi in net.pis:
        if pi in keep:
            sub.add_pi(pi)
    for out in net.topo_order():
        if out in keep:
            gate = gates[out]
            sub.add_gate(out, gate.func, list(gate.inputs), cell=gate.cell)
    sub.set_pos(list(outputs))
    return sub


def align_interfaces(
    l_cone: Netlist, r_cone: Netlist, pi_order: Sequence[str]
) -> None:
    """Give both cones the identical PI list (union, in ``pi_order``)."""
    union = set(l_cone.pis) | set(r_cone.pis)
    all_pis = [pi for pi in pi_order if pi in union]
    for cone in (l_cone, r_cone):
        have = set(cone.pis)
        for pi in all_pis:
            if pi not in have:
                cone.add_pi(pi)
        cone.pis = list(all_pis)
        cone.invalidate()


def structural_distance_ok(
    levels: Dict[str, int],
    a: str,
    b: str,
    max_skew: Optional[int],
) -> bool:
    """Structural filter of Sec. 4: candidate b/c-signals must be
    level-compatible with the a-signal (|level difference| bounded)."""
    if max_skew is None:
        return True
    return abs(levels.get(a, 0) - levels.get(b, 0)) <= max_skew


def gates_between(net: Netlist, src: str, dst: str) -> Set[str]:
    """Gate outputs lying on some path from ``src`` to ``dst``."""
    tfo = net.transitive_fanout(src, include_self=True)
    tfi = net.transitive_fanin(dst, include_self=True)
    return tfo & tfi
