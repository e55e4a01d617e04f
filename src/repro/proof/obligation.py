"""Canonical proof obligations for PVCC validity.

One :class:`ProofObligation` captures everything a prover needs to
decide one substitution candidate: the affected-PO cones of the circuit
before and after the edit, rebased onto a name-independent canonical
signal numbering.  Two properties follow from the canonical form:

* the obligation is self-contained and cheap to pickle — a worker
  process reconstructs both cone netlists from the serialized tuples
  and never sees (or locks) the full netlist;
* the structural hash over the canonical form is a *sound* cache key:
  equal hashes mean equal canonical forms, and the backends prove the
  netlists rebuilt *from that form*, so the verdict — including budget
  exhaustion — is a pure function of the key.  Netlist edits invalidate
  cached verdicts implicitly: an edit that changes a cone changes its
  hash, so a stale entry can only stop being referenced, never be
  wrong.

The hash folds in the candidate's clause-combination signature (kind,
phase, form, mapped literals) on top of the two cones, per the paper's
framing that a PVCC — not just a circuit pair — is what gets proven.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..clauses.pvcc import Candidate
from ..netlist.netlist import Branch, Netlist
from ..netlist.traverse import align_interfaces, extract_cone
from ..transform.substitution import affected_outputs

# (pi tokens, po tokens, ((gate token, func name, input tokens), ...))
SerializedCone = Tuple[
    Tuple[str, ...],
    Tuple[str, ...],
    Tuple[Tuple[str, str, Tuple[str, ...]], ...],
]


@dataclass(frozen=True)
class ProofObligation:
    """One deduplicable, picklable unit of proving work.

    ``key`` is the structural hash; ``left``/``right`` are the canonical
    pre-/post-edit cones; ``description`` is for humans only and is not
    part of the hash.
    """

    key: str
    left: SerializedCone
    right: SerializedCone
    description: str = ""

    def netlists(self) -> Tuple[Netlist, Netlist]:
        """Rebuild the two cone netlists from the canonical form."""
        return _build(self.left, "left"), _build(self.right, "right")


def _build(side: SerializedCone, name: str) -> Netlist:
    pis, pos, gates = side
    net = Netlist(name)
    for pi in pis:
        net.add_pi(pi)
    for out, func, ins in gates:
        net.add_gate(out, func, list(ins))
    net.set_pos(list(pos))
    return net


def _canonical_side(
    cone: Netlist, pi_map: Dict[str, str]
) -> Tuple[SerializedCone, Dict[str, str]]:
    """Serialize one cone under a canonical renaming.

    Gate ids are assigned in deterministic DFS post-order from the POs
    (children before parents, input pins left to right); PI ids are
    assigned on first encounter and *shared* across the two sides via
    ``pi_map`` so the miter interface survives the renaming.
    """
    gate_map: Dict[str, str] = {}
    order: List[str] = []

    def pi_token(sig: str) -> str:
        if sig not in pi_map:
            pi_map[sig] = f"i{len(pi_map)}"
        return pi_map[sig]

    for po in cone.pos:
        stack: List[Tuple[str, bool]] = [(po, False)]
        while stack:
            sig, expanded = stack.pop()
            if cone.is_pi(sig):
                pi_token(sig)
                continue
            if expanded:
                if sig not in gate_map:
                    gate_map[sig] = f"g{len(gate_map)}"
                    order.append(sig)
                continue
            if sig in gate_map or sig not in cone.gates:
                continue
            stack.append((sig, True))
            for s in reversed(cone.gates[sig].inputs):
                stack.append((s, False))

    def token(sig: str) -> str:
        if cone.is_pi(sig):
            return pi_token(sig)
        return gate_map[sig]

    serialized: SerializedCone = (
        tuple(pi_token(pi) for pi in cone.pis),
        tuple(token(po) for po in cone.pos),
        tuple(
            (gate_map[out], cone.gates[out].func.name,
             tuple(token(s) for s in cone.gates[out].inputs))
            for out in order
        ),
    )
    return serialized, gate_map


def _clause_signature(
    cand: Candidate,
    pi_map: Dict[str, str],
    l_map: Dict[str, str],
    r_map: Dict[str, str],
) -> Tuple:
    """The candidate's clause-combination literals under the renaming."""

    def mapped(sig: str) -> str:
        return pi_map.get(sig) or r_map.get(sig) or l_map.get(sig) or sig

    if isinstance(cand.target, Branch):
        target = ("branch", mapped(cand.target.gate), cand.target.pin)
    else:
        target = ("stem", mapped(cand.target))
    return (
        cand.kind,
        cand.inverted,
        cand.form.name if cand.form is not None else "",
        target,
        tuple(mapped(s) for s in cand.sources),
    )


def build_obligation(
    l_cone: Netlist, r_cone: Netlist, cand: Candidate
) -> ProofObligation:
    """Obligation from two already-extracted, interface-aligned cones."""
    pi_map: Dict[str, str] = {}
    left, l_map = _canonical_side(l_cone, pi_map)
    right, r_map = _canonical_side(r_cone, pi_map)
    sig = _clause_signature(cand, pi_map, l_map, r_map)
    key = hashlib.sha256(repr((left, right, sig)).encode()).hexdigest()
    return ProofObligation(
        key=key, left=left, right=right, description=cand.describe(),
    )


def obligation_from_nets(
    original: Netlist, modified: Netlist, cand: Candidate
) -> Optional[ProofObligation]:
    """Obligation for proving ``modified`` (candidate already applied)
    equivalent to ``original`` on the affected POs.

    Returns ``None`` when no PO is affected — the edit is trivially
    permissible and needs no proof.
    """
    po_idx = affected_outputs(original, cand)
    if not po_idx:
        return None
    l_cone = extract_cone(
        original, [original.pos[i] for i in po_idx], "left")
    r_cone = extract_cone(
        modified, [modified.pos[i] for i in po_idx], "right")
    align_interfaces(l_cone, r_cone, original.pis)
    return build_obligation(l_cone, r_cone, cand)
