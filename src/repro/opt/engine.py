"""Engine plumbing for GDO: incremental timing and simulation state.

The paper's inner loop re-anchors timing and simulation "after every
accepted modification" (Sec. 5).  :class:`EngineContext` centralizes
that re-anchoring: one :class:`~repro.timing.incremental.IncrementalSta`
is maintained across modifications (in-place trial edits refresh it
undoably), trial refutation resimulates only the substitution cone of
the epoch's base sim, the checkout simulator state is carried over with
dirty-cone re-evaluation, and cached observability rows survive
refreshes when their cone is untouched.  Full simulations run on the
flat-array kernels (:mod:`repro.flat`).

Every refresh re-runs the exact float/bit expressions of a rebuild, so
the maintained state equals a fresh ``Sta``/``BitSimulator`` after each
commit — checked by
``tests/opt/test_gdo_determinism.py::test_incremental_matches_scratch``.
"""

from __future__ import annotations

from typing import Iterable, Optional, Set, Tuple

import numpy as np

from ..analysis.invariants import InvariantViolation, check_netlist
from ..analysis.static_refuter import UNKNOWN, StaticRefuter
from ..clauses.candidates import CandidateEnumerator
from ..clauses.pvcc import Candidate
from ..flat.batchsim import FlatObservabilityEngine, flat_simulate
from ..flat.view import FlatView
from ..library.cells import TechLibrary
from ..netlist.netlist import Branch, Netlist
from ..obs import Observability
from ..proof.broker import ProofBroker
from ..sim.bitsim import BitSimulator, SimState
from ..sim.observability import ObservabilityEngine, SignalRef
from ..sim.vectors import random_words
from ..timing.incremental import IncrementalSta, StaTrialUndo
from ..timing.sta import Sta
from ..transform.realize import realize_form
from ..transform.substitution import InplaceSubstitution
from .config import GdoConfig, GdoStats


def make_sta(net: Netlist, library: TechLibrary, cfg: GdoConfig) -> Sta:
    """The single construction point for GDO timing snapshots — keeps
    the po_load/eps conventions from drifting between call sites."""
    return Sta(net, library, po_load=cfg.po_load, eps=cfg.eps)


class EngineContext:
    """Owns the timing and simulation state of one GDO run over ``net``.

    The runner asks for snapshots (:meth:`timing`, :meth:`checkout`),
    evaluates in-place trial edits (:meth:`begin_trial`, :meth:`refutes`),
    and resolves them (:meth:`reject_trial` / :meth:`commit_trial`); the context
    decides whether each answer is rebuilt or refreshed and counts both
    in ``stats.engine``.
    """

    def __init__(self, net: Netlist, library: TechLibrary,
                 cfg: GdoConfig, stats: GdoStats,
                 broker: Optional[ProofBroker] = None):
        if cfg.partition_workers:
            raise ValueError(
                "EngineContext drives the serial trial loop; a config "
                "with partition_workers > 0 must enter through "
                "gdo_optimize, which routes it to repro.partition "
                "(region runs use cfg.region_config())")
        self.net = net
        self.library = library
        self.cfg = cfg
        self.stats = stats
        # Per-run observability (tracer/metrics/journal per cfg.obs);
        # threaded through every engine layer and detached in finish().
        self.obs = Observability.from_config(cfg.obs)
        # The proof broker may be caller-owned and outlive this run
        # (warm verdict cache across gdo_optimize invocations); its
        # counters are per-run, so reset them here and drain them into
        # this run's stats in finish().
        self._owns_broker = broker is None
        self.broker = broker if broker is not None else cfg.make_broker()
        if self.broker is not None:
            self.broker.begin_run()
            self.broker.attach_obs(self.obs.metrics, self.obs.tracer,
                                   self.obs.journal)
        self.seed_counter = cfg.seed
        self._phase_seed = cfg.seed
        self._sim: Optional[BitSimulator] = None
        self._state = None
        self._engine: Optional[ObservabilityEngine] = None
        self._enum: Optional[CandidateEnumerator] = None
        self._pending: Set[str] = set()
        self._pending_removed: Set[str] = set()
        self._refute_base: Optional[Tuple[BitSimulator, object]] = None
        # Seed drawn for the current refutation epoch; set at the first
        # prepare_refutation of the epoch even when the base simulation
        # itself is skipped (journal replay), so the seed stream is
        # identical with and without resume.
        self._refute_seed: Optional[int] = None
        self._trial_undo: Optional[StaTrialUndo] = None
        # Static funnel stage (repro.analysis): rebuilt lazily per
        # netlist state, discarded on commit.  Inactive with
        # proof="none" — there is no broker work to discharge.
        self._static: Optional[StaticRefuter] = None
        self._static_enabled = cfg.static_funnel and cfg.proof != "none"
        self._check_counter = 0
        self._sta = IncrementalSta(net, library,
                                   po_load=cfg.po_load, eps=cfg.eps)
        self._sta.metrics = self.obs.metrics
        self._drain_sta(self._sta)

    # ------------------------------------------------------------------
    # timing
    # ------------------------------------------------------------------
    def timing(self) -> Sta:
        """The maintained timing annotation of the current net."""
        return self._sta

    def begin_trial(self, dirty: Set[str], removed: Set[str]) -> Sta:
        """Timing of the net after an in-place trial edit.

        Refreshes the maintained annotation undoably (forward sweep over
        the dirty cone, required times deferred).  The caller must
        follow up with :meth:`reject_trial` (undo) or
        :meth:`commit_trial` (keep) before the next trial.

        Noteworthy trial edits are journaled here: dirty sets covering
        too much of the net force a from-scratch timing recompute
        (``sta_scratch`` records), and dirty sets touching a PI fanout
        cone root — handled in-cone, previously indistinguishable from
        a silent scratch fallback — are counted and journaled as
        ``sta_pi_root`` records.  Both classifications are pure
        functions of the edit, so the record sequence is identical
        under any worker count.
        """
        live = {s for s in dirty if self.net.has_signal(s)}
        event = IncrementalSta.trial_event(self.net, live)
        if event == "dirty_fraction":
            self.obs.journal.record("sta_scratch", cause=event,
                                    dirty=len(live))
        elif event == "pi_root":
            self.obs.journal.record("sta_pi_root", dirty=len(live))
            self.stats.engine.sta_pi_root += 1
        assert self._trial_undo is None, "unfinished trial"
        self._trial_undo = self._sta.refresh_trial(dirty, removed)
        self._drain_sta(self._sta)
        return self._sta

    def reject_trial(self) -> None:
        """Restore the pre-trial timing annotation."""
        if self._trial_undo is not None:
            self._trial_undo.apply()
            self._trial_undo = None

    def _drain_sta(self, sta: IncrementalSta) -> None:
        e = self.stats.engine
        e.sta_scratch += sta.scratch_updates
        e.sta_incremental += sta.incremental_updates
        e.sta_signals_touched += sta.signals_touched
        sta.scratch_updates = sta.incremental_updates = 0
        sta.signals_touched = 0

    # ------------------------------------------------------------------
    # simulation / observability
    # ------------------------------------------------------------------
    def begin_phase(self) -> None:
        """Fresh BPFS vectors for one delay/area phase invocation."""
        self.seed_counter += 1
        self._phase_seed = self.seed_counter
        self._retire_engine()
        self._sim = self._state = None
        self._pending.clear()
        self._pending_removed.clear()

    def checkout(self) -> Tuple[Sta, ObservabilityEngine, CandidateEnumerator]:
        """Per-pass snapshot ``(sta, engine, enumerator)`` synchronized
        to the current net and the current phase's vectors."""
        cfg = self.cfg
        counters = self.stats.engine
        if self._engine is not None:
            if self._pending or self._pending_removed:
                dirty = set(self._pending)
                sim, state, changed = BitSimulator.incremental(
                    self.net, self._sim, self._state, dirty,
                    metrics=self.obs.metrics)
                affected = dirty | changed | self._pending_removed
                engine = self._engine.refreshed(sim, state, affected)
                self._retire_engine()
                self._sim, self._state, self._engine = sim, state, engine
                counters.sim_incremental += 1
                counters.sim_signals_changed += len(changed)
                self._pending.clear()
                self._pending_removed.clear()
        else:
            self._retire_engine()
            with self.obs.span("sim.scratch"):
                sim = BitSimulator(self.net)
                state = self._scratch_state(sim, self._phase_seed)
            self._sim, self._state = sim, state
            self._engine = FlatObservabilityEngine(sim, state)
            counters.sim_scratch += 1
            self.obs.metrics.counter("sim_scratch_rebuilds",
                                     site="checkout").inc()
            self._pending.clear()
            self._pending_removed.clear()
        sta = self.timing()
        if self._enum is None:
            self._enum = CandidateEnumerator(
                self.net, sta, self._engine, self.library,
                include_xor=cfg.include_xor,
                use_c2_reduction=cfg.use_c2_reduction,
                allow_inverted=cfg.allow_inverted,
                max_pool=cfg.max_pool,
                level_skew=cfg.level_skew,
            )
        else:
            self._enum.rebind(sta, self._engine)
        return sta, self._engine, self._enum

    def _retire_engine(self) -> None:
        if self._engine is not None:
            self.stats.engine.obs_rows_computed += self._engine.computed
            self.stats.engine.obs_rows_reused += self._engine.reused
            self._engine = None

    def _scratch_state(self, sim: BitSimulator, seed: int) -> SimState:
        """Full simulation of the current net on the seed's word batch:
        one vectorized level sweep (bitwise what ``sim.simulate`` would
        compute on the same words)."""
        words = random_words(self.net.pis, self.cfg.n_words, seed)
        return SimState(sim, flat_simulate(FlatView.build(self.net), words))

    def prefetch_observability(self, refs: Iterable[SignalRef]) -> None:
        """Batch-compute the observability rows of a pass's target refs.
        Rows are bitwise what the lazy per-cone path would derive, so
        enumeration decisions — and journals — are unchanged; only the
        loop shape differs.
        """
        if self._engine is not None:
            with self.obs.span("sim.obs_prefetch"):
                self._engine.prefetch(refs)

    # ------------------------------------------------------------------
    # refutation (the pre-proof random-word filter)
    # ------------------------------------------------------------------
    def prepare_refutation(self, simulate: bool = True) -> None:
        """Simulate the base netlist for this adoption epoch, if not done.

        Must run *before* the trial edit mutates the net — the base sim
        is the reference trials are compared against.

        ``simulate=False`` (journal replay: the refutation outcome will
        come from the records) draws the epoch's seed without building
        the base.  If a later candidate of the same epoch runs out of
        journal and needs a live refutation, the base is materialized
        then, from the same (unchanged, pre-edit) netlist with the same
        seed — bitwise what an uninterrupted run computed up front.
        """
        if self._refute_base is not None:
            return
        if self._refute_seed is None:
            self.seed_counter += 1
            self._refute_seed = self.seed_counter
        if not simulate:
            return
        with self.obs.span("sim.refute_base"):
            sim = BitSimulator(self.net)
            state = self._scratch_state(sim, self._refute_seed)
        self._refute_base = (sim, state)
        self.stats.engine.sim_scratch += 1
        self.obs.metrics.counter("sim_scratch_rebuilds",
                                 site="refute_base").inc()

    def refutes(self, cand: Candidate, edit: InplaceSubstitution) -> bool:
        """True if the epoch's random vectors distinguish the applied
        trial edit from the base netlist.

        Resimulates only the substitution's fanout cone of the *base*
        sim with the replacement's word value overriding the target —
        the edited net is never compiled, yet the trial's exact PO words
        are computed.
        """
        sim, state = self._refute_base
        counters = self.stats.engine
        word = self._replacement_word(state, cand)
        if isinstance(cand.target, Branch):
            sink = (sim.index_of[cand.target.gate], cand.target.pin)
            overrides = sim.resimulate_cone(
                state, edit.old_branch_signal, word, sink_filter=sink)
        else:
            overrides = sim.resimulate_cone(state, cand.target, word)
        counters.sim_incremental += 1
        counters.sim_signals_changed += len(overrides)
        return bool(np.any(sim.po_difference(state, overrides)))

    @staticmethod
    def _replacement_word(state, cand: Candidate) -> np.ndarray:
        """Base-sim word of the replacement signal, mirroring the exact
        bit operations of the gate :func:`apply_candidate` builds."""
        if cand.kind in ("OS2", "IS2"):
            w = state.word(cand.sources[0])
            return ~w if cand.inverted else w
        func, swap = realize_form(cand.form)
        b, c = cand.sources
        if swap:
            b, c = c, b
        return func.eval_words([state.word(b), state.word(c)])

    # ------------------------------------------------------------------
    # adoption
    # ------------------------------------------------------------------
    def commit_trial(self, dirty: Set[str], removed: Set[str]) -> None:
        """Keep the current trial edit: the maintained annotation already
        reflects it; queue the dirty sets for the next sim checkout."""
        self._trial_undo = None
        self._pending |= dirty
        self._pending_removed |= removed
        self._refute_base = None
        self._refute_seed = None
        self._static = None  # verdicts were against the pre-commit net

    # ------------------------------------------------------------------
    # static analysis (repro.analysis; DESIGN.md §8)
    # ------------------------------------------------------------------
    def static_classify(self, cand: Candidate) -> str:
        """Static funnel verdict for ``cand`` against the current net:
        ``proved`` / ``refuted`` / ``unknown`` (memoized per net state;
        always ``unknown`` when the stage is disabled).

        Pure — no journal or metrics side effects, so it is safe to call
        from the prefetch path without perturbing serial == parallel
        journal determinism.
        """
        if not self._static_enabled:
            return UNKNOWN
        if self._static is None:
            with self.obs.span("gdo.static_build"):
                self._static = StaticRefuter(self.net)
        return self._static.classify(cand)

    def check_invariants(self, event: str,
                         scope: Optional[Set[str]] = None) -> None:
        """Dirty-region invariant check hook (``GdoConfig.check``).

        ``event`` is ``"trial"``, ``"undo"`` or ``"commit"``; the mode
        decides which events check, ``check_sample`` thins them.  Any
        error-severity diagnostic raises :class:`InvariantViolation` —
        a corrupted netlist must stop the run, not optimize garbage.
        """
        mode = self.cfg.check
        if mode == "off":
            return
        if mode == "commits" and event != "commit":
            return
        self._check_counter += 1
        sample = self.cfg.check_sample
        if sample > 1 and self._check_counter % sample:
            return
        live_scope = None
        if scope is not None:
            live_scope = {s for s in scope if self.net.has_signal(s)}
        with self.obs.span("gdo.check", event=event):
            report = check_netlist(self.net, self.library,
                                   scope=live_scope)
        self.stats.checks_run += 1
        self.obs.metrics.counter("gdo_checks", event=event).inc()
        if not report.ok():
            raise InvariantViolation(report.errors, context=event)

    def finish(self) -> None:
        """Flush per-object counters into ``stats``; release the broker.

        The observability bundle stays open — ``gdo_optimize`` journals
        the final verification and ``run_end`` after this, then
        snapshots it onto ``stats.obs``.
        """
        self._retire_engine()
        self._drain_sta(self._sta)
        if self.broker is not None:
            self.stats.proof.merge(self.broker.take_counters())
            # Detach this run's observability — the broker may be
            # caller-owned and must not journal into a closed run.
            self.broker.attach_obs()
            if self._owns_broker:
                self.broker.close()
            else:
                self.broker.flush()
