"""Levelized flat-array view of a netlist.

A :class:`FlatView` freezes one structure version of a
:class:`~repro.netlist.netlist.Netlist` into int-indexed numpy arrays:
signals are numbered PIs-first then gates in topological order (the
exact convention of :class:`~repro.sim.bitsim.BitSimulator`, so word
matrices are interchangeable between the two), gates carry function
code / arity / fanin columns, and evaluation is scheduled per
topological level in ``(code, arity)`` groups so a whole group is one
numpy call.

Staleness is keyed off ``Netlist._struct_version``: every mutator in
:mod:`repro.netlist.edit` runs through ``Netlist.invalidate()`` which
bumps the version, and the in-place trial machinery in
:mod:`repro.transform.substitution` bumps it explicitly on its
cache-patching undo path.  A view whose version no longer matches must
be rebuilt (:meth:`FlatView.is_current`); views are never patched
incrementally — rebuilding is one O(net) pass and edits between passes
are batched.

Structures the array form cannot express (non-singleton gate
functions, dangling inputs, undriven POs) raise :class:`FlatViewError`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..library.cells import TechLibrary
from ..netlist.netlist import Netlist
from ..netlist.gatefunc import ALL_FUNCS, FUNC_BY_NAME

#: dense function codes, indexed into by the evaluation kernels
FUNC_CODES: Dict[str, int] = {f.name: i for i, f in enumerate(ALL_FUNCS)}

#: inverse of :data:`FUNC_CODES`
CODE_NAMES: Tuple[str, ...] = tuple(f.name for f in ALL_FUNCS)


class FlatViewError(Exception):
    """The netlist cannot be represented as flat arrays."""


class FlatView:
    """Immutable flat-array snapshot of one netlist structure version.

    Attributes (``S`` = signals, ``G`` = gates, ``A`` = max arity):

    * ``names`` — signal name per index (PIs first, then topo order);
      ``index_of`` is the inverse map.  ``gate_names`` is
      ``names[n_pis:]`` and equals ``net.topo_order()``.
    * ``code``/``arity`` — ``(G,)`` int32 function code and input count
      per gate (gate ``k`` drives signal ``n_pis + k``).
    * ``fanin`` — ``(G, A)`` int64 signal indices, zero-padded past
      ``arity`` (padding is never read: evaluation slices ``[:, :a]``
      within same-arity groups).
    * ``level`` — ``(S,)`` int32 topological level (PIs are 0).
    * ``schedule`` — per level ``1..n_levels`` a list of
      ``(code, arity, rows)`` groups, ``rows`` being ascending gate
      (topo) positions.
    * CSR fanout: ``fo_ptr``/``fo_gate``/``fo_pin`` — reading gate pins
      per source signal.  Within one source the entries keep
      ``Netlist.fanout_map()`` construction order, so sequential float
      accumulation over them reproduces the dict engine's load sums
      bitwise (see :mod:`repro.flat.flatsta`).
    * ``po_rows`` — PO signal indices with multiplicity;
      ``po_count`` — per-signal PO multiplicity.
    * With a library: ``pin_block``/``pin_drive``/``pin_load`` —
      ``(G, A)`` float64 per-pin genlib constants, zero-padded.
    """

    def __init__(self) -> None:  # populated by build()
        self.net: Optional[Netlist] = None
        self.version = -1
        self.names: List[str] = []
        self.index_of: Dict[str, int] = {}
        self.n_pis = 0
        self.n_signals = 0
        self.n_gates = 0
        self.max_arity = 0
        self.n_levels = 0

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, net: Netlist,
              library: Optional[TechLibrary] = None) -> "FlatView":
        view = cls()
        view.net = net
        view.version = net._struct_version
        index_of: Dict[str, int] = {}
        for pi in net.pis:
            index_of[pi] = len(index_of)
        order = net.topo_order()
        for sig in order:
            index_of[sig] = len(index_of)
        view.index_of = index_of
        view.names = list(net.pis) + order
        view.n_pis = len(net.pis)
        view.n_signals = len(index_of)
        view.n_gates = len(order)
        n_gates = view.n_gates

        max_arity = 0
        for sig in order:
            nin = net.gates[sig].nin
            if nin > max_arity:
                max_arity = nin
        view.max_arity = max_arity

        code = np.zeros(n_gates, dtype=np.int32)
        arity = np.zeros(n_gates, dtype=np.int32)
        fanin = np.zeros((n_gates, max(max_arity, 1)), dtype=np.int64)
        cells: List[Optional[str]] = []
        level = np.zeros(view.n_signals, dtype=np.int32)
        for k, sig in enumerate(order):
            gate = net.gates[sig]
            func = gate.func
            if FUNC_BY_NAME.get(func.name) is not func:
                raise FlatViewError(
                    f"gate {sig!r}: non-singleton function {func!r}")
            code[k] = FUNC_CODES[func.name]
            arity[k] = gate.nin
            lvl = 0
            for pin, s in enumerate(gate.inputs):
                idx = index_of.get(s)
                if idx is None:
                    raise FlatViewError(
                        f"gate {sig!r} reads undriven signal {s!r}")
                fanin[k, pin] = idx
                if level[idx] > lvl:
                    lvl = level[idx]
            level[view.n_pis + k] = lvl + 1
            cells.append(gate.cell)
        view.code = code
        view.arity = arity
        view.fanin = fanin
        view.cells = cells
        view.level = level
        view.n_levels = int(level.max()) if view.n_signals else 0

        # Per-level (code, arity) evaluation groups, rows ascending.
        schedule: List[List[Tuple[int, int, np.ndarray]]] = [
            [] for _ in range(view.n_levels + 1)
        ]
        groups: Dict[Tuple[int, int, int], List[int]] = {}
        for k in range(n_gates):
            key = (int(level[view.n_pis + k]), int(code[k]), int(arity[k]))
            groups.setdefault(key, []).append(k)
        for (lvl, c, a), rows in sorted(groups.items()):
            schedule[lvl].append((c, a, np.asarray(rows, dtype=np.int64)))
        view.schedule = schedule

        # CSR fanout in fanout_map construction order (stable sort keeps
        # each source's entries in gate-dict/pin order).
        src_l: List[int] = []
        gate_l: List[int] = []
        pin_l: List[int] = []
        for gate in net.gates.values():
            out_idx = index_of[gate.output]
            for pin, s in enumerate(gate.inputs):
                src_l.append(index_of[s])
                gate_l.append(out_idx)
                pin_l.append(pin)
        fo_src = np.asarray(src_l, dtype=np.int64)
        perm = np.argsort(fo_src, kind="stable")
        view.fo_src = fo_src[perm]
        view.fo_gate = np.asarray(gate_l, dtype=np.int64)[perm]
        view.fo_pin = np.asarray(pin_l, dtype=np.int64)[perm]
        counts = np.bincount(view.fo_src, minlength=view.n_signals)
        view.fo_ptr = np.concatenate(
            ([0], np.cumsum(counts))).astype(np.int64)

        po_rows_l = []
        for po in net.pos:
            idx = index_of.get(po)
            if idx is None:
                raise FlatViewError(f"primary output {po!r} is undriven")
            po_rows_l.append(idx)
        view.po_rows = np.asarray(po_rows_l, dtype=np.int64)
        view.po_count = np.bincount(
            view.po_rows, minlength=view.n_signals).astype(np.float64)

        if library is not None:
            pin_block = np.zeros((n_gates, max(max_arity, 1)))
            pin_drive = np.zeros((n_gates, max(max_arity, 1)))
            pin_load = np.zeros((n_gates, max(max_arity, 1)))
            for k, sig in enumerate(order):
                gate = net.gates[sig]
                for pin in range(gate.nin):
                    t = library.gate_pin_timing(gate, pin)
                    pin_block[k, pin] = t.block
                    pin_drive[k, pin] = t.drive
                    pin_load[k, pin] = library.gate_input_load(gate, pin)
            view.pin_block = pin_block
            view.pin_drive = pin_drive
            view.pin_load = pin_load
        else:
            view.pin_block = view.pin_drive = view.pin_load = None
        return view

    # ------------------------------------------------------------------
    def is_current(self, net: Optional[Netlist] = None) -> bool:
        """True if the view still describes ``net`` (default: the net it
        was built from) at its current structure version."""
        target = net if net is not None else self.net
        return target is self.net and self.version == target._struct_version

    def gate_row(self, signal: str) -> int:
        """Gate (topo) position of a gate-output signal."""
        return self.index_of[signal] - self.n_pis

    @property
    def gate_names(self) -> List[str]:
        return self.names[self.n_pis:]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FlatView(signals={self.n_signals}, gates={self.n_gates}, "
            f"levels={self.n_levels}, version={self.version})"
        )
