"""Incremental static timing analysis.

GDO's inner loop (Sec. 5 of the paper) re-anchors slacks "after every
accepted modification".  Rebuilding a :class:`~repro.timing.sta.Sta`
from scratch for that walks the whole netlist, although a substitution
only perturbs timing in the transitive fanout of the edited signals
(arrival times) and the fanin side of the perturbed region (required
times).  :class:`IncrementalSta` keeps the annotation of one netlist
consistent across such edits by recomputing exactly those cones.

Invariants (see DESIGN.md, "Incremental engine"):

* ``dirty`` passed to :meth:`IncrementalSta.refresh` must contain every
  signal whose driving gate changed (function or inputs), every newly
  created signal, and every signal whose fanout set changed (gate pins
  reading it, or PO multiplicity).  :func:`repro.netlist.edit.dirty_between`
  derives such a set from a before/after netlist pair.
* All float updates re-run the same expressions :class:`Sta` uses on the
  same operands, and ``min``/``max`` are exact, so a refreshed
  annotation is bitwise identical to a from-scratch one — equality (not
  epsilon) comparisons drive the propagation cut-off.
* The propagation sweeps order their worklist by the topological
  positions of the last full computation.  Edits can put a few signals
  out of that order; the sweeps stay exact regardless because a signal
  whose value changes always re-queues its readers — stale positions
  cost at most a handful of re-evaluations, never correctness.
* The from-scratch fallback triggers when ``dirty`` is ``None`` (unknown
  edit) or covers more than ``scratch_fraction`` of the gates, and when
  the critical delay changed (required times then shift globally; they
  are rebuilt from the cached per-pin delays, which stays cheap).
* Trial edits whose dirty set touches a PI fanout cone root used to be
  invisible: the sweep re-anchors dirty PIs from ``input_arrival`` (and
  their loads feed no edge delay), which is exact but indistinguishable
  from a silent scratch fallback in the counters.
  :meth:`IncrementalSta.trial_event` is now the single classification
  point — ``"pi_root"`` trials stay on the dirty-cone path but are
  counted here and journaled by the GDO engine (``sta_pi_root``
  records); ``"dirty_fraction"`` trials take the from-scratch path and
  are journaled as ``sta_scratch``.
* From-scratch recomputes run the vectorized level sweep of
  :mod:`repro.flat.flatsta` and convert the arrays back into the
  annotation dicts; the arrays are bitwise-identical to the dict
  recurrences of :class:`Sta`, so everything downstream is unchanged.
  A netlist the flat view cannot express raises
  :class:`~repro.flat.view.FlatViewError`.
* Required times and slacks are *lazy*: a refresh invalidates them and
  the first access recomputes them from the cached per-pin delays.  GDO
  trial evaluation reads only arrival/delay, so rejected trials never
  pay for a backward pass.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..flat.flatsta import FlatTiming
from ..flat.view import FlatView
from ..library.cells import TechLibrary
from ..netlist.netlist import Branch, Netlist
from ..obs.metrics import NULL_REGISTRY
from .sta import Sta

INF = float("inf")

#: histogram buckets for dirty-set sizes (signals)
_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096)

#: sentinel recorded by trial refreshes for keys that did not exist
_MISSING = object()

#: heap position for signals created after the last full computation;
#: they sort last, and change-driven re-queuing keeps the sweep exact
_LATE = float("inf")


class StaTrialUndo:
    """Undo token for one :meth:`IncrementalSta.refresh_trial`.

    Records the annotation entries the trial refresh overwrote (or, on a
    from-scratch fallback, the replaced dict references) so
    :meth:`apply` can restore the pre-trial annotation in O(touched).
    """

    def __init__(self, sta: "IncrementalSta"):
        self.sta = sta
        self.entries: List[Tuple[dict, str, object]] = []
        self.dict_refs: Optional[tuple] = None
        self.delay = sta.delay
        self.required_ref = sta._required
        self.slack_ref = sta._slack
        self.ncp_refs = (
            sta._ncp, getattr(sta, "_fwd", None), getattr(sta, "_bwd", None)
        )

    def record(self, d: dict, key: str) -> None:
        self.entries.append((d, key, d.get(key, _MISSING)))

    def apply(self) -> None:
        sta = self.sta
        if self.dict_refs is not None:
            (sta.load, sta.arrival, sta._pin_delays,
             sta._topo_pos) = self.dict_refs
        else:
            for d, key, old in reversed(self.entries):
                if old is _MISSING:
                    d.pop(key, None)
                else:
                    d[key] = old
        sta.delay = self.delay
        sta._required = self.required_ref
        sta._slack = self.slack_ref
        sta._ncp, sta._fwd, sta._bwd = self.ncp_refs


class IncrementalSta(Sta):
    """A :class:`Sta` that survives netlist edits via dirty-set refresh.

    Construction performs one full timing pass; afterwards
    :meth:`refresh` re-anchors the annotation after an in-place edit,
    :meth:`refresh_trial` does the same *undoably* (GDO's in-place trial
    evaluation), and :meth:`fork` derives the annotation of an edited
    *copy* of the netlist without a full recompute.

    The instance counts its own work in ``scratch_updates``,
    ``incremental_updates`` and ``signals_touched`` so callers can report
    scratch-vs-incremental ratios.
    """

    #: dirty fraction of the netlist above which a full rebuild is cheaper
    scratch_fraction = 0.5

    #: observability hook (re-pointed per run by the GDO engine); the
    #: shared null registry keeps standalone use silent and free
    metrics = NULL_REGISTRY

    def __init__(
        self,
        net: Netlist,
        library: TechLibrary,
        po_load: float = 1.0,
        input_arrival: Optional[Dict[str, float]] = None,
        eps: float = 1e-6,
    ):
        self.scratch_updates = 0
        self.incremental_updates = 0
        self.signals_touched = 0
        super().__init__(net, library, po_load=po_load,
                         input_arrival=input_arrival, eps=eps)

    # ------------------------------------------------------------------
    # lazy required/slack
    # ------------------------------------------------------------------
    @property
    def required(self) -> Dict[str, float]:
        if self._required is None:
            self._required_full()
        return self._required

    @required.setter
    def required(self, value: Dict[str, float]) -> None:
        self._required = value

    @property
    def slack(self) -> Dict[str, float]:
        if self._slack is None:
            self._required_full()
        return self._slack

    @slack.setter
    def slack(self, value: Dict[str, float]) -> None:
        self._slack = value

    # ------------------------------------------------------------------
    # full computation (overrides Sta._compute to cache per-pin delays)
    # ------------------------------------------------------------------
    def _compute(self) -> None:
        """Vectorized full recompute via :mod:`repro.flat.flatsta`; the
        converted dicts are bitwise what :meth:`Sta._compute` derives."""
        view = FlatView.build(self.net, library=self.library)
        ft = FlatTiming(view, po_load=self.po_load,
                        input_arrival=self.input_arrival)
        self.scratch_updates += 1
        self.load = ft.load_dict()
        self.arrival = ft.arrival_dict()
        self._pin_delays = ft.pin_delay_lists()
        self._topo_pos = {s: k for k, s in enumerate(view.gate_names)}
        self.delay = ft.delay
        self._required = ft.required_dict()
        self._slack = ft.slack_dict()
        self._ncp = None

    def _required_full(self) -> None:
        """Rebuild required/slack from cached pin delays (no library calls)."""
        net = self.net
        required: Dict[str, float] = {s: INF for s in net.signals()}
        for po in net.pos:
            if self.delay < required[po]:
                required[po] = self.delay
        pin_delays = self._pin_delays
        gates = net.gates
        for out in reversed(net.topo_order()):
            req_out = required[out]
            pd = pin_delays[out]
            for pin, sig in enumerate(gates[out].inputs):
                v = req_out - pd[pin]
                if v < required[sig]:
                    required[sig] = v
        arrival = self.arrival
        self._required = required
        self._slack = {
            s: (r - arrival[s]) if r != INF else INF
            for s, r in required.items()
        }

    # ------------------------------------------------------------------
    def edge_delay(self, branch: Branch) -> float:
        pd = self._pin_delays.get(branch.gate)
        if pd is not None and branch.pin < len(pd):
            return pd[branch.pin]
        return super().edge_delay(branch)

    # ------------------------------------------------------------------
    # incremental refresh
    # ------------------------------------------------------------------
    @classmethod
    def trial_event(cls, net: Netlist,
                    dirty: Set[str]) -> Optional[str]:
        """Classify a trial refresh of ``dirty`` (pre-filtered to live
        signals): ``"dirty_fraction"`` when the cone covers too much of
        the net (forces a from-scratch rebuild), ``"pi_root"`` when the
        edit touches a primary-input fanout cone root (handled in-cone
        — PI arrivals re-anchor from ``input_arrival`` inside the sweep
        — but counted and journaled), ``None`` for a plain cone
        refresh.

        Pure function of ``(net, dirty)``, so the GDO engine journals
        the trigger identically under every worker count (see
        ``EngineContext.begin_trial``).
        """
        if len(dirty) > cls.scratch_fraction * (len(net.gates) or 1):
            return "dirty_fraction"
        for s in dirty:
            if net.is_pi(s):
                return "pi_root"
        return None

    def refresh(
        self,
        dirty: Optional[Iterable[str]] = None,
        removed: Iterable[str] = (),
    ) -> None:
        """Re-anchor the annotation after an edit of ``self.net``.

        ``dirty``/``removed`` follow the contract in the module
        docstring; ``dirty=None`` forces a from-scratch rebuild.
        """
        net = self.net
        if dirty is None:
            self.metrics.counter("sta_scratch_trigger",
                                 cause="unknown_edit").inc()
            self._compute()
            return
        dirty = {s for s in dirty if net.has_signal(s)}
        removed = [s for s in removed if not net.has_signal(s)]
        if not dirty and not removed:
            return
        self.metrics.histogram("sta_dirty_set",
                               buckets=_SIZE_BUCKETS).observe(len(dirty))
        if len(dirty) > self.scratch_fraction * (len(net.gates) or 1):
            self.metrics.counter("sta_scratch_trigger",
                                 cause="dirty_fraction").inc()
            self._compute()
            return
        self.incremental_updates += 1
        self._ncp = None
        stale = self._required is None
        load, arrival = self.load, self.arrival
        pin_delays = self._pin_delays
        for s in removed:
            load.pop(s, None)
            arrival.pop(s, None)
            pin_delays.pop(s, None)
            if not stale:
                self._required.pop(s, None)
                self._slack.pop(s, None)
        self._update_loads(dirty, None)
        changed_arr = self._forward(dirty, None)
        new_delay = max((arrival[po] for po in net.pos), default=0.0)
        if stale or new_delay != self.delay:
            # Required times shift globally with the critical delay; the
            # cached pin delays keep the full backward pass cheap.
            self.metrics.counter("sta_required_rebuild",
                                 cause="stale" if stale
                                 else "delay_shift").inc()
            self.delay = new_delay
            self._required_full()
            return
        changed_req = self._backward(dirty)
        required, slack = self._required, self._slack
        for s in changed_arr | changed_req:
            r = required.get(s, INF)
            slack[s] = (r - arrival[s]) if r != INF else INF

    def refresh_trial(
        self,
        dirty: Iterable[str],
        removed: Iterable[str] = (),
    ) -> StaTrialUndo:
        """Undoable refresh for an in-place *trial* edit of ``self.net``.

        Runs the forward (arrival) sweep only and invalidates
        required/slack — GDO's accept check reads arrival and delay, so
        most trials never pay for a backward pass (the first
        required/slack access after adoption recomputes them).  Returns
        an undo token restoring the pre-trial annotation exactly.
        """
        net = self.net
        dirty = {s for s in dirty if net.has_signal(s)}
        removed = [s for s in removed if not net.has_signal(s)]
        undo = StaTrialUndo(self)
        self._ncp = None
        self._required = None
        self._slack = None
        self.metrics.histogram("sta_dirty_set",
                               buckets=_SIZE_BUCKETS).observe(len(dirty))
        event = self.trial_event(net, dirty)
        if event == "dirty_fraction":
            self.metrics.counter("sta_scratch_trigger", cause=event).inc()
            undo.dict_refs = (
                self.load, self.arrival, self._pin_delays, self._topo_pos
            )
            self._compute()
            return undo
        if event == "pi_root":
            self.metrics.counter("sta_pi_root_trials").inc()
        self.incremental_updates += 1
        load, arrival, pin_delays = self.load, self.arrival, self._pin_delays
        for s in removed:
            if s in load:
                undo.entries.append((load, s, load.pop(s)))
            if s in arrival:
                undo.entries.append((arrival, s, arrival.pop(s)))
            if s in pin_delays:
                undo.entries.append((pin_delays, s, pin_delays.pop(s)))
        self._update_loads(dirty, undo)
        self._forward(dirty, undo)
        self.delay = max((arrival[po] for po in net.pos), default=0.0)
        return undo

    def _update_loads(self, dirty: Set[str],
                      undo: Optional[StaTrialUndo]) -> None:
        net, lib, load = self.net, self.library, self.load
        for s in dirty:
            total = self.po_load * net.pos.count(s)
            for branch in net.fanouts(s):
                total += lib.gate_input_load(net.gates[branch.gate], branch.pin)
            if undo is not None:
                undo.record(load, s)
            load[s] = total

    def _forward(self, dirty: Set[str],
                 undo: Optional[StaTrialUndo]) -> Set[str]:
        """Arrival sweep over the transitive fanout of ``dirty``."""
        net, lib = self.net, self.library
        load, arrival = self.load, self.arrival
        pin_delays = self._pin_delays
        pos = self._topo_pos
        heap = [(pos.get(s, _LATE), s) for s in dirty]
        heapq.heapify(heap)
        queued = set(dirty)
        changed: Set[str] = set()
        touched = 0
        while heap:
            _, s = heapq.heappop(heap)
            queued.discard(s)
            touched += 1
            gate = net.gates.get(s)
            if gate is None:  # primary input
                new = self.input_arrival.get(s, 0.0)
            else:
                out_load = load[s]
                pd = [
                    lib.gate_pin_timing(gate, pin).delay(out_load)
                    for pin in range(gate.nin)
                ]
                if undo is not None:
                    undo.record(pin_delays, s)
                pin_delays[s] = pd
                new = 0.0
                for pin, sig in enumerate(gate.inputs):
                    t = arrival.get(sig, 0.0) + pd[pin]
                    if t > new:
                        new = t
            if new != arrival.get(s):
                if undo is not None:
                    undo.record(arrival, s)
                arrival[s] = new
                changed.add(s)
                for branch in net.fanouts(s):
                    nxt = branch.gate
                    if nxt not in queued:
                        queued.add(nxt)
                        heapq.heappush(heap, (pos.get(nxt, _LATE), nxt))
        self.signals_touched += touched
        return changed

    def _backward(self, dirty: Set[str]) -> Set[str]:
        """Required sweep over the fanin side of the perturbed region.

        Only called when the critical delay is unchanged; seeds are the
        dirty signals (fanout edges changed) and the inputs of dirty
        gates (their edge delays changed with the output load).
        """
        net = self.net
        required = self._required
        pin_delays = self._pin_delays
        pos = self._topo_pos
        po_set = set(net.pos)
        seeds = set(dirty)
        for s in dirty:
            gate = net.gates.get(s)
            if gate is not None:
                seeds.update(gate.inputs)
        heap = [(-pos.get(s, _LATE), s) for s in seeds if net.has_signal(s)]
        heapq.heapify(heap)
        queued = set(seeds)
        changed: Set[str] = set()
        touched = 0
        while heap:
            _, s = heapq.heappop(heap)
            queued.discard(s)
            touched += 1
            new = INF
            for branch in net.fanouts(s):
                v = required.get(branch.gate, INF)
                if v != INF:
                    v -= pin_delays[branch.gate][branch.pin]
                if v < new:
                    new = v
            if s in po_set and self.delay < new:
                new = self.delay
            if new != required.get(s):
                required[s] = new
                changed.add(s)
                gate = net.gates.get(s)
                if gate is not None:
                    for sig in gate.inputs:
                        if sig not in queued:
                            queued.add(sig)
                            heapq.heappush(
                                heap, (-pos.get(sig, _LATE), sig))
        self.signals_touched += touched
        return changed

    # ------------------------------------------------------------------
    # derivation for trial copies
    # ------------------------------------------------------------------
    def fork(
        self,
        net: Netlist,
        dirty: Iterable[str],
        removed: Iterable[str] = (),
    ) -> "IncrementalSta":
        """Annotation of an edited copy ``net``, derived incrementally.

        The fork shares no mutable timing state with ``self`` (dicts are
        copied; cached pin-delay lists are replaced, never mutated), so
        either view can keep refreshing independently.
        """
        dup = IncrementalSta.__new__(IncrementalSta)
        dup.net = net
        dup.library = self.library
        dup.po_load = self.po_load
        dup.eps = self.eps
        dup.input_arrival = self.input_arrival
        dup.load = dict(self.load)
        dup.arrival = dict(self.arrival)
        dup._required = dict(self._required) if self._required is not None \
            else None
        dup._slack = dict(self._slack) if self._slack is not None else None
        dup._pin_delays = dict(self._pin_delays)
        dup._topo_pos = self._topo_pos
        dup.delay = self.delay
        dup._ncp = None
        dup.scratch_updates = 0
        dup.incremental_updates = 0
        dup.signals_touched = 0
        dup.metrics = self.metrics
        dup.refresh(dirty, removed)
        return dup

    def rebind(self, net: Netlist) -> None:
        """Re-point at ``net`` after it adopted this annotation's netlist
        contents wholesale (same gates/PIs/POs objects)."""
        self.net = net
