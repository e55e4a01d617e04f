"""GDO — Global Delay Optimization (Sec. 5 of the paper).

Two alternating phases over a mapped netlist:

* **delay reduction phase** — only critical gates are a-signals.  C2
  substitutions (OS2/IS2) are tried first, C3 substitutions (OS3/IS3)
  when C2 runs dry.  Surviving PVCCs are ranked by NCP (number of
  critical paths through the a-signal), ties broken by LDS (local delay
  save), proven with the configured backend, and applied; slacks are
  recomputed after every accepted modification.
* **area optimization phase** — substitutions of non-critical gates that
  reduce area without creating new critical paths.  After a few area
  modifications the optimizer returns to the delay phase (area moves can
  re-enable delay moves); it terminates when neither phase finds a
  permissible improving substitution.

Every accepted modification is individually proven permissible, so the
optimized netlist is equivalent to the input by construction; a final
random-simulation + SAT-miter verification is run as a safety net.
"""

from __future__ import annotations

import time
from typing import List, Optional, Set, Tuple

from ..analysis.static_refuter import PROVED, REFUTED, UNKNOWN
from ..clauses.pvcc import Candidate
from ..library.cells import TechLibrary
from ..netlist.netlist import Branch, Netlist
from ..netlist.traverse import align_interfaces, extract_cone
from ..proof.backends import VALID
from ..proof.broker import ProofBroker
from ..proof.obligation import build_obligation
from ..timing.sta import Sta
from ..transform.substitution import (
    InplaceSubstitution, TransformError, affected_outputs,
    apply_candidate_inplace,
)
from .config import GdoConfig, GdoStats, ModRecord
from .engine import EngineContext
from .replay import ReplayCursor


class GdoResult:
    """Optimized netlist plus run statistics."""

    def __init__(self, net: Netlist, stats: GdoStats):
        self.net = net
        self.stats = stats

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.stats
        return (
            f"GdoResult(delay {s.delay_before:.2f}->{s.delay_after:.2f}, "
            f"literals {s.literals_before}->{s.literals_after}, "
            f"mods2={s.mods2}, mods3={s.mods3})"
        )


def gdo_optimize(
    net: Netlist,
    library: TechLibrary,
    config: Optional[GdoConfig] = None,
    broker: Optional[ProofBroker] = None,
    resume: Optional[List[dict]] = None,
) -> GdoResult:
    """Run GDO on a mapped netlist; the input is not modified.

    ``broker`` optionally supplies a caller-owned
    :class:`~repro.proof.broker.ProofBroker`, letting its verdict cache
    (and worker pool) survive across runs; by default the run builds
    and tears down its own per ``config``.

    ``resume`` optionally supplies the journal prefix of an interrupted
    run over the same (netlist, config): refutation outcomes and proof
    verdicts up to the last committed substitution are replayed from
    the records instead of recomputed (see :mod:`repro.opt.replay`),
    after which the run continues live.  The journal is re-emitted from
    seq 0 and the final netlist is identical to an uninterrupted run —
    the crash-recovery contract of :mod:`repro.service`.
    """
    cfg = config or GdoConfig()
    if cfg.partition_workers:
        # Region-parallel execution plane (repro.partition): cut the
        # netlist into dominator-cone regions, optimize them in fork
        # workers, merge in canonical order.  Region runs recurse into
        # this function with partition_workers=0.
        from ..partition.runner import run_partitioned

        return run_partitioned(net, library, cfg, broker=broker,
                               resume=resume)
    work = net.copy(name=net.name)
    library.rebind(work)
    stats = GdoStats()
    start = time.perf_counter()
    ctx = EngineContext(work, library, cfg, stats, broker=broker)
    obs = ctx.obs
    sta = ctx.timing()
    stats.gates_before = work.num_gates
    stats.literals_before = work.num_literals
    stats.area_before = library.netlist_area(work)
    stats.delay_before = sta.delay
    obs.journal.record(
        "run_begin", circuit=work.name, gates=stats.gates_before,
        seed=cfg.seed, n_words=cfg.n_words,
    )

    runner = _GdoRunner(work, library, cfg, stats, ctx, resume=resume)
    with obs.span("gdo.optimize"):
        runner.run()

    sta = ctx.timing()
    stats.gates_after = work.num_gates
    stats.literals_after = work.num_literals
    stats.area_after = library.netlist_area(work)
    stats.delay_after = sta.delay
    ctx.finish()
    stats.cpu_seconds = time.perf_counter() - start
    if cfg.verify_final:
        from ..verify.equiv import check_equivalence

        t0 = time.perf_counter()
        # None when refutation already failed on verify_words * 64
        # random vectors and the formal proof ran out of budget.
        with obs.span("gdo.verify"):
            stats.equivalent = check_equivalence(
                net, work, n_words=cfg.verify_words, seed=cfg.seed,
                max_conflicts=cfg.max_conflicts,
            )
        stats.phase_seconds["verify"] = time.perf_counter() - t0
    obs.journal.record(
        "run_end", delay_after=stats.delay_after,
        area_after=stats.area_after, mods=len(stats.history),
        rounds=stats.rounds,
    )
    stats.obs = obs.snapshot()
    obs.close()
    return GdoResult(work, stats)


class _GdoRunner:
    """Holds the mutable optimization state for one run."""

    def __init__(self, net: Netlist, library: TechLibrary,
                 cfg: GdoConfig, stats: GdoStats, ctx: EngineContext,
                 resume: Optional[List[dict]] = None):
        self.net = net
        self.library = library
        self.cfg = cfg
        self.stats = stats
        self.ctx = ctx
        self.obs = ctx.obs
        self.replay = ReplayCursor(resume) if resume else None
        stats.resumed = self.replay is not None
        self._round = 0
        # Candidates that failed trial/refutation/proof since the last
        # adoption: nothing they depend on has changed, so re-evaluating
        # them in a later pass of the same epoch must fail identically.
        self._rejected: Set[Tuple[str, bool, str]] = set()
        self.deadline = (
            time.perf_counter() + cfg.max_seconds
            if cfg.max_seconds is not None else None
        )

    def _out_of_time(self) -> bool:
        return self.deadline is not None and \
            time.perf_counter() > self.deadline

    # ------------------------------------------------------------------
    def run(self) -> None:
        cfg = self.cfg
        rounds = 0
        previous = self._progress_metric()
        while rounds < cfg.max_rounds and not self._out_of_time():
            rounds += 1
            self._round = rounds
            made_delay = self._delay_phase()
            made_area = self._area_phase() if cfg.area_phase else False
            if not made_delay and not made_area:
                break
            current = self._progress_metric()
            if current >= previous:
                # The round only shuffled ties (e.g. delay moves adding
                # the area the area phase just reclaimed): stop.
                break
            previous = current
        self.stats.rounds = rounds

    def _progress_metric(self):
        cfg = self.cfg
        sta = self.ctx.timing()
        arrival_sum = sum(sta.arrival.get(po, 0.0) for po in self.net.pos)
        grain = max(cfg.secondary_gain, cfg.eps)
        return (
            round(sta.delay / grain),
            round(arrival_sum / grain),
            round(self.library.netlist_area(self.net) / grain),
        )

    # ------------------------------------------------------------------
    # delay reduction phase
    # ------------------------------------------------------------------
    def _delay_phase(self) -> bool:
        """Repeated delay passes; C2 first, then C3 (Sec. 5)."""
        t0 = time.perf_counter()
        self.obs.journal.record("phase_begin", phase="delay",
                                round=self._round)
        self.ctx.begin_phase()
        self._rejected.clear()
        made_any = False
        with self.obs.span("gdo.delay_phase"):
            for _ in range(self.cfg.max_passes_per_phase):
                if self._out_of_time():
                    break
                if self._delay_pass(with_three=False):
                    made_any = True
                    continue
                if self._delay_pass(with_three=True):
                    made_any = True
                    continue
                break
        self.stats.phase_seconds["delay"] = (
            self.stats.phase_seconds.get("delay", 0.0)
            + time.perf_counter() - t0
        )
        return made_any

    def _delay_pass(self, with_three: bool) -> bool:
        cfg = self.cfg
        sta, _engine, enum = self.ctx.checkout()
        candidates: List[Candidate] = []
        with self.obs.span("gdo.enumerate", phase="delay"):
            targets = enum.delay_targets()[: cfg.max_targets_per_pass]
            # One batched BPFS sweep over every target's fault site
            # (flat engine only); the per-target lookups below then hit
            # the row cache instead of resimulating cone by cone.
            self.ctx.prefetch_observability(targets)
            for ref in targets:
                limit = enum.point_arrival(ref) - cfg.eps
                if with_three:
                    found = enum.three_subs(ref, limit)
                else:
                    found = enum.two_subs(ref, limit)
                found.sort(key=lambda c: -c.lds)
                candidates.extend(found[: cfg.max_candidates_per_target])
        candidates.sort(key=lambda c: (-c.ncp, -c.lds))
        self.obs.metrics.counter("gdo_candidates_generated",
                                 phase="delay").inc(len(candidates))
        return self._apply_best(candidates, sta, phase="delay") > 0

    # ------------------------------------------------------------------
    # area optimization phase
    # ------------------------------------------------------------------
    def _area_phase(self) -> bool:
        t0 = time.perf_counter()
        self.obs.journal.record("phase_begin", phase="area",
                                round=self._round)
        self.ctx.begin_phase()
        self._rejected.clear()
        made_any = False
        mods = 0
        with self.obs.span("gdo.area_phase"):
            while mods < self.cfg.area_mods_before_retry and \
                    not self._out_of_time():
                got = self._area_pass(with_three=False)
                if not got:
                    got = self._area_pass(with_three=True)
                if not got:
                    break
                mods += got
                made_any = True
        self.stats.phase_seconds["area"] = (
            self.stats.phase_seconds.get("area", 0.0)
            + time.perf_counter() - t0
        )
        return made_any

    def _area_pass(self, with_three: bool) -> int:
        cfg = self.cfg
        sta, _engine, enum = self.ctx.checkout()
        # Non-critical stems ranked by reclaimable logic (Fig. 3b gain).
        targets = [
            out for out in self.net.topo_order()
            if not sta.is_critical(out)
        ]
        from ..netlist.traverse import mffc

        targets.sort(
            key=lambda s: -len(mffc(self.net, s))
        )
        candidates: List[Candidate] = []
        with self.obs.span("gdo.enumerate", phase="area"):
            self.ctx.prefetch_observability(
                targets[: cfg.max_targets_per_pass])
            for out in targets[: cfg.max_targets_per_pass]:
                limit = sta.required.get(out, float("inf"))
                if limit == float("inf"):
                    limit = sta.delay
                if with_three:
                    found = enum.three_subs(out, limit)
                else:
                    found = enum.two_subs(out, limit)
                found.sort(key=lambda c: -c.lds)
                candidates.extend(found[: cfg.max_candidates_per_target])
        candidates.sort(key=lambda c: -c.lds)
        self.obs.metrics.counter("gdo_candidates_generated",
                                 phase="area").inc(len(candidates))
        return self._apply_best(candidates, sta, phase="area")

    # ------------------------------------------------------------------
    def _apply_best(self, candidates: List[Candidate], sta: Sta,
                    phase: str) -> int:
        """Prove and apply the ranked candidates; returns #applied.

        Each candidate is applied to the live netlist *in place* and
        validated there: LDS is only an upper bound on the gain (other
        paths may become critical, fanout loads shift), so the overall
        delay/area is re-measured and the edit undone if it regressed,
        was refuted, or failed its proof.  This keeps a trial O(cone)
        instead of O(netlist) — no trial copy, no netlist diff.
        """
        cfg = self.cfg
        applied = 0
        proofs = 0
        trials = 0
        self._prefetch_proofs(candidates)
        delay_now = sta.delay
        arrival_sum_now = sum(sta.arrival.get(po, 0.0) for po in self.net.pos)
        area_now = self.library.netlist_area(self.net)
        # Critical-path breadth at pass begin: the tie-break baseline for
        # equal-delay moves (captured now — trial edits mutate the net).
        crit_now = len(sta.critical_gates()) if phase == "delay" else 0
        touched: set = set()
        for cand in candidates:
            if applied >= cfg.max_mods_per_pass:
                break
            if proofs >= cfg.max_proofs_per_pass:
                break
            if trials >= cfg.max_trials_per_pass:
                break
            if self._out_of_time():
                break
            point = (
                cand.target if not isinstance(cand.target, Branch)
                else cand.target.gate
            )
            if point in touched or any(s in touched for s in cand.sources):
                continue  # stale bookkeeping after earlier mods this pass
            key = (cand.kind, cand.inverted, cand.describe())
            if key in self._rejected:
                continue  # deterministic re-failure: net unchanged
            desc = cand.describe()
            # Static funnel stage (repro.analysis): refuted candidates
            # skip the trial entirely, proved ones will skip BPFS and
            # the broker below.  Pure — identical under any worker
            # count, so the journal stays deterministic.
            verdict = self.ctx.static_classify(cand)
            if self.replay is not None and verdict != UNKNOWN:
                # Early divergence check: static verdicts are pure, so
                # a mismatch means the journal is not this run's.
                self.replay.static_check(
                    desc, "refuted" if verdict == REFUTED else "proved")
            if verdict == REFUTED:
                self._rejected.add(key)
                self.stats.static_refuted += 1
                self.obs.journal.record("static", desc=desc,
                                        verdict="refuted")
                self.obs.metrics.counter("gdo_static_refuted",
                                         phase=phase).inc()
                continue
            if verdict == PROVED:
                self.obs.journal.record("static", desc=desc,
                                        verdict="proved")
            trials += 1
            self.obs.journal.record("trial", phase=phase,
                                    kind=cand.kind, desc=desc)
            self.obs.metrics.counter("gdo_trials", phase=phase).inc()
            if verdict != PROVED:
                # During replay the refutation outcome comes from the
                # journal, so the epoch-base simulation is skipped (the
                # seed stream still advances — see prepare_refutation).
                self.ctx.prepare_refutation(
                    simulate=self.replay is None
                    or not self.replay.has_refute())
            try:
                edit = apply_candidate_inplace(
                    self.net, cand, library=self.library
                )
            except TransformError:
                self._rejected.add(key)
                self.obs.journal.record("reject", desc=desc,
                                        reason="transform")
                continue
            self.ctx.check_invariants("trial", edit.dirty | edit.removed)
            trial_sta = self.ctx.begin_trial(edit.dirty, edit.removed)
            trial_area = area_now + edit.area_delta
            trial_arrival_sum = sum(
                trial_sta.arrival.get(po, 0.0) for po in self.net.pos
            )
            if phase == "delay":
                # LDS is local (Sec. 5): a permissible modification that
                # shortens its own paths is worth applying even when
                # parallel critical paths keep the overall delay pinned —
                # the gains compound across modifications.  Total PO
                # arrival is the monotone progress measure.
                secondary = max(cfg.eps, cfg.secondary_gain)
                ok = trial_sta.delay < delay_now - cfg.eps or (
                    trial_sta.delay <= delay_now + cfg.eps
                    and (trial_arrival_sum < arrival_sum_now - secondary
                         or len(trial_sta.critical_gates()) < crit_now)
                )
            else:
                ok = (trial_area < area_now - cfg.eps
                      and trial_sta.delay <= delay_now + cfg.eps)
            if not ok:
                self._revert(edit, key, desc, reason="timing")
                continue
            if verdict == PROVED:
                # Statically proved: no falsifying vector exists, so
                # BPFS cannot refute it and the broker would answer
                # VALID — discharge both.
                self.stats.static_proved += 1
                self.obs.metrics.counter("gdo_static_proved",
                                         phase=phase).inc()
                self.obs.metrics.counter("gdo_bpfs_survived",
                                         phase=phase).inc()
                if self.ctx.broker is not None:
                    self.ctx.broker.count_static_skip()
            else:
                # Cheap refutation on fresh random vectors before the
                # formal proof: the BPFS filter used one vector batch;
                # most false positives die on a second, different batch.
                self.obs.metrics.counter("gdo_to_bpfs",
                                         phase=phase).inc()
                replayed = (self.replay.refute(desc)
                            if self.replay is not None else None)
                if replayed is None:
                    with self.obs.span("gdo.refute"):
                        refuted = self.ctx.refutes(cand, edit)
                else:
                    refuted = replayed
                self.obs.journal.record("refute", desc=desc,
                                        refuted=refuted)
                if refuted:
                    self._revert(edit, key, desc, reason="refuted")
                    continue
                self.obs.metrics.counter("gdo_bpfs_survived",
                                         phase=phase).inc()
                proofs += 1
                self.stats.proofs_attempted += 1
                with self.obs.span("gdo.prove"):
                    proven = self._prove(cand, edit)
                if not proven:
                    self._revert(edit, key, desc, reason="proof")
                    continue
                self.stats.proofs_passed += 1
            self.obs.metrics.counter("gdo_proved", phase=phase).inc()
            # Adopt: the edit stays in; flush the dirty sets downstream.
            self.ctx.commit_trial(edit.dirty, edit.removed)
            self.ctx.check_invariants("commit", edit.dirty | edit.removed)
            self.obs.metrics.counter("gdo_committed", phase=phase).inc()
            self.obs.journal.record(
                "commit", phase=phase, kind=cand.kind, desc=desc,
                delay_after=trial_sta.delay, area_after=trial_area,
            )
            self._rejected.clear()
            touched.add(point)
            touched.update(cand.sources)
            if cand.kind in ("OS2", "IS2"):
                self.stats.mods2 += 1
            else:
                self.stats.mods3 += 1
            self.stats.history.append(ModRecord(
                phase=phase, description=cand.describe(), kind=cand.kind,
                delay_before=delay_now, delay_after=trial_sta.delay,
                area_before=area_now, area_after=trial_area,
            ))
            delay_now = trial_sta.delay
            arrival_sum_now = trial_arrival_sum
            area_now = trial_area
            applied += 1
        return applied

    def _revert(self, edit: InplaceSubstitution, key, desc: str,
                reason: str) -> None:
        """Undo a rejected in-place trial (netlist and timing)."""
        self.ctx.reject_trial()
        edit.undo(self.net)
        self.ctx.check_invariants("undo", edit.dirty | edit.removed)
        self._rejected.add(key)
        self.obs.journal.record("reject", desc=desc, reason=reason)
        self.obs.metrics.counter("gdo_rejected", reason=reason).inc()

    # ------------------------------------------------------------------
    # proving (through the broker)
    # ------------------------------------------------------------------
    def _prove(self, cand: Candidate, edit: InplaceSubstitution) -> bool:
        """Prove the applied trial edit permissible.

        The live netlist *is* the modified circuit; the original is
        reconstructed by undoing the edit on a copy — one O(net) copy
        per proof, not per trial.  The broker answers from its verdict
        cache when the obligation was prefetched (or proven in an
        earlier pass and the cone is unchanged); UNKNOWN drops the
        candidate, it never raises.
        """
        if self.cfg.proof == "none":
            return True
        if self.replay is not None:
            rec = self.replay.verdict()
            if rec is not None:
                # The journal is the proof certificate: this verdict was
                # computed (and, if a commit followed, acted on) before
                # the crash.  Re-emit it so the resumed journal matches
                # the uninterrupted one; skip the O(net) undo-copy and
                # the broker entirely.
                self.obs.journal.record(
                    "verdict", obligation=rec.get("obligation", ""),
                    verdict=rec["verdict"], cache_hit=True, wall_ms=0.0)
                self.stats.replayed_verdicts += 1
                return rec["verdict"] == VALID
        original = self.net.copy()
        edit.undo(original)
        broker = self.ctx.broker
        return broker.prove(original, self.net, cand) == VALID

    def _prefetch_proofs(self, candidates: List[Candidate]) -> None:
        """Batch-prove the top-ranked candidates' obligations up front.

        Runs against the pass-begin netlist, before any trial edit, so
        each obligation is extracted O(cone) by applying the candidate
        in place and undoing it.  Only warms the broker's cache —
        verdicts are pure functions of the obligation, so the trial
        loop commits the same modifications with or without prefetch
        (and with any worker count); a batch merely computes them in
        parallel.  Obligations whose cone is later invalidated by an
        earlier adoption in the same pass miss the cache and are
        re-proven on demand.
        """
        broker = self.ctx.broker
        if broker is None or broker.workers <= 1 or \
                self.cfg.proof == "none":
            return
        if self.replay is not None and self.replay.active:
            # Replayed verdicts never reach the broker; warming the
            # cache for them would burn the obligation extractions the
            # resume exists to skip.  Prefetch resumes with live play.
            return
        with self.obs.span("gdo.prefetch"):
            obligations = []
            budget = self.cfg.prefetch_limit
            # Trial-applies below consume fresh names and undo() moves
            # rewired readers to the end of their reader lists; restore
            # both so prefetch leaves the net bit-identical to a run
            # without it (workers=1 skips prefetch entirely and must
            # stay in lockstep — load sums follow reader order).
            name_counter = self.net._name_counter
            readers = {s: list(r)
                       for s, r in self.net.fanout_map().items()}
            try:
                for cand in candidates:
                    if len(obligations) >= budget:
                        break
                    if (cand.kind, cand.inverted,
                            cand.describe()) in self._rejected:
                        continue
                    # Statically discharged candidates never reach the
                    # broker — don't burn prefetch slots on them (the
                    # verdict is memoized for the trial loop).
                    if self.ctx.static_classify(cand) != UNKNOWN:
                        continue
                    po_idx = affected_outputs(self.net, cand)
                    if not po_idx:
                        continue
                    try:
                        edit = apply_candidate_inplace(
                            self.net, cand, library=self.library
                        )
                    except TransformError:
                        continue
                    try:
                        r_cone = extract_cone(
                            self.net,
                            [self.net.pos[i] for i in po_idx], "right")
                    finally:
                        edit.undo(self.net)
                    l_cone = extract_cone(
                        self.net, [self.net.pos[i] for i in po_idx],
                        "left")
                    align_interfaces(l_cone, r_cone, self.net.pis)
                    obligations.append(
                        build_obligation(l_cone, r_cone, cand))
            finally:
                self.net._name_counter = name_counter
                fan = self.net.fanout_map()
                fan.clear()
                fan.update(readers)
            broker.prove_batch(obligations)
