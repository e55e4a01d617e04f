"""Batched bit-parallel simulation over a :class:`FlatView`.

Two kernels replace the clause-at-a-time python loops of the BPFS
stage:

* :func:`flat_simulate` — full-netlist simulation, one numpy call per
  ``(level, code, arity)`` group instead of one python iteration per
  gate;
* :func:`batch_observability` — stem/branch fault observability for a
  whole batch of fault sites at once: the base value matrix is
  broadcast per fault, each fault's site is flipped, and the level
  schedule is swept once over the 3-D ``(fault, signal, word)`` block.

Both produce bitwise-identical words to
:class:`~repro.sim.bitsim.BitSimulator` /
:class:`~repro.sim.observability.ObservabilityEngine` — bit operations
are exact, so any grouping/order is equivalent; the differential
harness in ``tests/flat/test_differential.py`` pins this.

:class:`FlatObservabilityEngine` plugs the batch kernel into the GDO
engine: it *prefetches* the observability rows of a pass's target list
in one batch and serves them from the standard row caches; refs that
were not prefetched are derived by the inherited per-cone path.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..netlist.netlist import Branch
from ..sim.bitsim import BitSimulator, SimState
from ..sim.observability import ObservabilityEngine
from .view import CODE_NAMES, FUNC_CODES, FlatView, FlatViewError

SignalRef = Union[str, Branch]

_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)

_CODE_CONST0 = FUNC_CODES["CONST0"]
_CODE_CONST1 = FUNC_CODES["CONST1"]

#: memory budget for one observability chunk (bytes of uint64 values)
_CHUNK_BYTES = 256 << 20
#: hard cap on faults per chunk
_CHUNK_CAP = 64


def _eval_group(code: int, ins: np.ndarray) -> np.ndarray:
    """Evaluate one ``(code, arity)`` group.

    ``ins`` has shape ``(..., R, a, W)`` — the gathered fanin words of
    ``R`` same-function gates; the result drops the arity axis.  Each
    branch reproduces the corresponding ``GateFunc.eval_words`` with
    the input axis vectorized.
    """
    name = CODE_NAMES[code]
    if name == "BUF":
        return ins[..., 0, :].copy()
    if name == "INV":
        return ~ins[..., 0, :]
    if name == "AND":
        return np.bitwise_and.reduce(ins, axis=-2)
    if name == "NAND":
        return ~np.bitwise_and.reduce(ins, axis=-2)
    if name == "OR":
        return np.bitwise_or.reduce(ins, axis=-2)
    if name == "NOR":
        return ~np.bitwise_or.reduce(ins, axis=-2)
    if name == "XOR":
        return ins[..., 0, :] ^ ins[..., 1, :]
    if name == "XNOR":
        return ~(ins[..., 0, :] ^ ins[..., 1, :])
    a = ins[..., 0, :]
    if name == "AOI21":
        return ~((a & ins[..., 1, :]) | ins[..., 2, :])
    if name == "OAI21":
        return ~((a | ins[..., 1, :]) & ins[..., 2, :])
    if name == "AOI22":
        return ~((a & ins[..., 1, :]) | (ins[..., 2, :] & ins[..., 3, :]))
    if name == "OAI22":
        return ~((a | ins[..., 1, :]) & (ins[..., 2, :] | ins[..., 3, :]))
    if name == "MUX21":
        s = ins[..., 2, :]
        return (a & ~s) | (ins[..., 1, :] & s)
    if name == "MAJ3":
        b, c = ins[..., 1, :], ins[..., 2, :]
        return (a & b) | (a & c) | (b & c)
    if name == "ANDN":
        return a & ~ins[..., 1, :]
    if name == "ORN":
        return a | ~ins[..., 1, :]
    raise FlatViewError(f"no flat kernel for function {name!r}")


def _sweep_level(view: FlatView, values: np.ndarray, lvl: int) -> None:
    """Re-evaluate every gate of one level in ``values`` (last two axes
    are ``(signal, word)``; leading axes broadcast)."""
    n_pis = view.n_pis
    for code, a, rows in view.schedule[lvl]:
        out = rows + n_pis
        if code == _CODE_CONST0:
            values[..., out, :] = 0
        elif code == _CODE_CONST1:
            values[..., out, :] = _ALL_ONES
        else:
            ins = values[..., view.fanin[rows, :a], :]
            values[..., out, :] = _eval_group(code, ins)


def flat_simulate(view: FlatView,
                  pi_words: Dict[str, np.ndarray]) -> np.ndarray:
    """Full simulation; returns the ``(n_signals, n_words)`` uint64
    value matrix in the view's (= ``BitSimulator``'s) index order."""
    n_words = len(next(iter(pi_words.values()))) if pi_words else 1
    values = np.zeros((view.n_signals, n_words), dtype=np.uint64)
    for i in range(view.n_pis):
        values[i] = pi_words[view.names[i]]
    for lvl in range(1, view.n_levels + 1):
        _sweep_level(view, values, lvl)
    return values


def _seed_for(view: FlatView, base: np.ndarray,
              ref: SignalRef) -> Optional[Tuple[int, np.ndarray]]:
    """Fault seed ``(signal index, seeded word row)`` for one ref.

    Stem faults flip the signal's row; branch faults evaluate the sink
    gate with the one pin flipped (via the gate's own ``eval_words``,
    exactly the dict engine's arithmetic) and seed the sink output —
    or return ``None`` when the flip does not change the sink (the
    dict engine's empty-override case: observability is all-zero).
    """
    if isinstance(ref, Branch):
        net = view.net
        gate = net.gates[ref.gate]
        src = view.index_of[gate.inputs[ref.pin]]
        inputs = [
            ~base[src] if (pin == ref.pin) else base[view.index_of[s]]
            for pin, s in enumerate(gate.inputs)
        ]
        out_idx = view.index_of[ref.gate]
        new_out = gate.func.eval_words(inputs)
        if np.array_equal(new_out, base[out_idx]):
            return None
        return out_idx, new_out
    idx = view.index_of[ref]
    return idx, ~base[idx]


def batch_observability(
    view: FlatView,
    base: np.ndarray,
    refs: Sequence[SignalRef],
    chunk_bytes: int = _CHUNK_BYTES,
) -> List[np.ndarray]:
    """Observability word rows for ``refs``, all faults batched.

    ``base`` is the fault-free value matrix (``flat_simulate`` output
    or ``SimState.values`` — same layout).  Faults are sorted by seed
    level before chunking, so every chunk's sweep starts at its *own*
    minimum level — chunks of deep seeds skip the whole lower netlist
    instead of re-evaluating it unchanged (faults are independent, so
    regrouping cannot change a single word).  Per chunk the base matrix
    is broadcast per fault, fault sites are flipped, and levels above
    the chunk's lowest seed are re-swept for all faults at once; a seed
    whose own driver lives on a swept level is re-applied after that
    level so the re-evaluation cannot wash it out.  Returns one
    ``(n_words,)`` row per ref, in input order.
    """
    n_words = base.shape[1]
    per_fault = view.n_signals * n_words * 8
    chunk = max(1, min(_CHUNK_CAP, chunk_bytes // max(per_fault, 1)))
    po_rows = view.po_rows
    rows: List[Optional[np.ndarray]] = [None] * len(refs)
    # (seed level, input position, fault site row, seeded word row)
    seeded: List[Tuple[int, int, int, np.ndarray]] = []
    for pos, ref in enumerate(refs):
        seed = _seed_for(view, base, ref)
        if seed is None:
            # The flip does not change the sink gate: the dict engine's
            # empty-override case, observability identically zero.
            rows[pos] = np.zeros(n_words, dtype=np.uint64)
            continue
        idx, word = seed
        seeded.append((int(view.level[idx]), pos, idx, word))
    seeded.sort(key=lambda t: (t[0], t[1]))
    for lo in range(0, len(seeded), chunk):
        batch = seeded[lo:lo + chunk]
        f = len(batch)
        values3 = np.repeat(base[np.newaxis, :, :], f, axis=0)
        by_level: Dict[int, List[Tuple[int, int, np.ndarray]]] = {}
        for i, (lvl, _, idx, word) in enumerate(batch):
            values3[i, idx] = word
            by_level.setdefault(lvl, []).append((i, idx, word))
        start = batch[0][0]
        for lvl in range(max(start, 1), view.n_levels + 1):
            _sweep_level(view, values3, lvl)
            for i, idx, word in by_level.get(lvl, ()):
                values3[i, idx] = word
        if len(po_rows):
            diff = np.bitwise_or.reduce(
                values3[:, po_rows, :] ^ base[po_rows], axis=1)
        else:
            diff = np.zeros((f, n_words), dtype=np.uint64)
        for i, (_, pos, _, _) in enumerate(batch):
            rows[pos] = diff[i]
    return rows


class FlatObservabilityEngine(ObservabilityEngine):
    """Drop-in :class:`ObservabilityEngine` backed by the batch kernel.

    :meth:`prefetch` computes the rows of a pass's target refs in one
    3-D sweep and installs them in the inherited stem/branch caches;
    subsequent ``observability(ref)`` calls are cache hits.  Refs that
    were not prefetched are derived lazily by the inherited per-cone
    resimulation — every word is identical either way.  A sim snapshot
    that no longer matches the netlist structure raises
    :class:`FlatViewError`.
    """

    def __init__(self, sim: BitSimulator, state: SimState,
                 view: Optional[FlatView] = None):
        super().__init__(sim, state)
        self._view = view

    def _current_view(self) -> FlatView:
        view = self._view
        net = self.sim.net
        if view is None or not view.is_current(net):
            view = FlatView.build(net)
            if view.names != list(self.sim.index_of):
                # The sim snapshot predates a structural edit; its word
                # matrix no longer lines up with the live structure.
                raise FlatViewError("sim snapshot is stale vs. netlist")
            self._view = view
        return view

    def prefetch(self, refs: Iterable[SignalRef]) -> None:
        """Batch-compute the rows for ``refs`` into the caches."""
        todo: List[SignalRef] = []
        seen = set()
        for ref in refs:
            key = (ref.gate, ref.pin) if isinstance(ref, Branch) else ref
            if key in seen:
                continue
            cache = (self._branch_cache if isinstance(ref, Branch)
                     else self._stem_cache)
            if key not in cache:
                seen.add(key)
                todo.append(ref)
        if not todo:
            return
        rows = batch_observability(self._current_view(), self.state.values,
                                   todo)
        for ref, row in zip(todo, rows):
            if isinstance(ref, Branch):
                self._branch_cache[(ref.gate, ref.pin)] = row
            else:
                self._stem_cache[ref] = row
        # The lazy path would have derived exactly these rows one cone
        # at a time, so count them in ``computed`` as well.
        self.computed += len(todo)
