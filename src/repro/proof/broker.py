"""The proof broker: batched, deduplicated, parallel, cached proving.

GDO's wall-clock is dominated by PVCC validity proofs (the simulation
and timing engines are incremental since PR 1).  The broker turns that
serial prove-on-demand bottleneck into scheduled work:

* **dedupe** — obligations are keyed by the structural hash of their
  canonical cones; re-enumerated candidates and repeated passes never
  prove the same obligation twice;
* **cache** — verdicts live in an LRU (plus, with ``proof_store_path``,
  the sharded store persisting definitive verdicts), so warm reruns
  skip proving entirely;
* **batch + fan out** — a pass's top-ranked obligations are dispatched
  in one batch over a ``multiprocessing`` fork pool (``proof_workers``);
* **graceful degradation** — every attempt maps budget overflow to
  ``UNKNOWN`` and walks a deterministic fallback ladder (see
  :class:`~repro.proof.backends.LadderSpec`); an undecidable obligation
  drops its candidate, it never raises.

Verdicts are pure functions of the obligation key (the backends prove
netlists rebuilt from the canonical form, and budgets are part of the
broker's spec), so runs with ``workers=1`` and ``workers=N`` commit
identical modification sequences — the batch only changes *when* a
verdict is computed, never *what* it is.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, fields
from typing import Dict, Iterable, List, Optional

from ..clauses.pvcc import Candidate
from ..faults import fault, register_point
from ..netlist.netlist import Netlist
from ..obs import NULL_JOURNAL, NULL_REGISTRY, NULL_TRACER
from .backends import LadderSpec, VALID, prove_serialized
from .cache import ProofCache
from .obligation import ProofObligation, obligation_from_nets

#: fault point: the worker pool breaks mid-dispatch, exercising the
#: broker's degrade-to-serial path without a real pool failure
FP_POOL_BREAK = register_point(
    "proof.pool.break",
    "proof worker pool breaks mid-dispatch (degrades to in-process "
    "serial proving)")


@dataclass
class ProofCounters:
    """Per-run accounting of the broker (surfaced by ``opt.report``)."""

    obligations: int = 0       # prove/prove_batch requests seen
    deduped: int = 0           # batch entries collapsed onto another key
    cache_hits: int = 0
    cache_misses: int = 0
    dispatched: int = 0        # obligations actually sent to a ladder
    parallel_batches: int = 0  # pool dispatches
    sim_invalid: int = 0       # refuted by key-seeded simulation (rung 0)
    sat_valid: int = 0
    sat_invalid: int = 0
    sat_unknown: int = 0
    bdd_valid: int = 0
    bdd_invalid: int = 0
    bdd_unknown: int = 0
    retries: int = 0           # same-backend escalated-budget attempts
    fallbacks: int = 0         # cross-backend ladder steps
    timeouts: int = 0          # wall-clock expiries (if enabled)
    flaky: int = 0             # injected verdict amnesia (fault plane)
    unknown_final: int = 0     # obligations the whole ladder left open
    static_skips: int = 0      # obligations discharged by the static
    #                            refuter before ever reaching the broker

    @property
    def hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def merge(self, other: "ProofCounters") -> None:
        for f in fields(self):
            setattr(self, f.name,
                    getattr(self, f.name) + getattr(other, f.name))

    def absorb_tally(self, tally: Dict[str, int]) -> None:
        for name, count in tally.items():
            setattr(self, name, getattr(self, name) + count)


class ProofBroker:
    """Schedules PVCC proofs over cache, pool, and fallback ladder.

    A broker may outlive one optimizer run (that is how warm-cache
    reruns work); counters are therefore per-run: :meth:`begin_run`
    resets them and :meth:`take_counters` drains them into the run's
    stats.
    """

    def __init__(
        self,
        mode: str = "sat",
        workers: Optional[int] = None,
        max_conflicts: int = 30_000,
        bdd_max_nodes: int = 200_000,
        retry_factor: int = 4,
        timeout: Optional[float] = None,
        retry_delay: float = 0.0,
        retry_jitter: float = 0.5,
        cache_size: int = 4096,
        cache=None,
    ):
        if mode not in ("sat", "bdd", "auto", "none"):
            raise ValueError(f"unknown proof mode {mode!r}")
        self.mode = mode
        self.workers = workers if workers else (os.cpu_count() or 1)
        self.spec = LadderSpec(
            mode=mode if mode != "none" else "sat",
            max_conflicts=max_conflicts, bdd_max_nodes=bdd_max_nodes,
            retry_factor=retry_factor, timeout=timeout,
            retry_delay=retry_delay, retry_jitter=retry_jitter,
        )
        # ``cache`` injects a caller-owned verdict cache — the service
        # hands every worker a ShardedProofCache over one shared store;
        # by default the broker owns a private ProofCache.
        self.cache = cache if cache is not None else \
            ProofCache(max_entries=cache_size)
        self.counters = ProofCounters()
        self._pool = None
        self._pool_broken = False
        #: lifetime count of pool breakages (degradations to serial) —
        #: not per-run: a broken pool stays broken, and the service
        #: surfaces this as the broker's degradation state
        self.pool_breaks = 0
        # Per-run observability, attached by EngineContext; defaults
        # are the shared no-op singletons so a bare broker stays silent.
        self._metrics = NULL_REGISTRY
        self._tracer = NULL_TRACER
        self._journal = NULL_JOURNAL

    def attach_obs(self, metrics=NULL_REGISTRY, tracer=NULL_TRACER,
                   journal=NULL_JOURNAL) -> None:
        """Point the broker at a run's observability (detach by calling
        with no arguments).  Only on-demand :meth:`prove` verdicts are
        journaled — the trial loop consumes them in deterministic
        candidate order in every worker configuration, whereas batch
        prefetches are a parallel-mode-only cache warmer."""
        self._metrics = metrics
        self._tracer = tracer
        self._journal = journal

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def begin_run(self) -> None:
        """Reset per-run counters (the cache survives across runs)."""
        self.counters = ProofCounters()

    def take_counters(self) -> ProofCounters:
        """Drain the per-run counters into the caller's stats."""
        counters = self.counters
        self.counters = ProofCounters()
        return counters

    def count_static_skip(self) -> None:
        """Record an obligation the static refuter discharged — the
        skip path: the broker never sees it, but its absence from
        ``obligations`` should be auditable, not silent."""
        self.counters.static_skips += 1

    def flush(self) -> None:
        self.cache.flush()

    def close(self) -> None:
        """Shut the worker pool down and persist the cache."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
        self.flush()

    def __del__(self):  # pragma: no cover - interpreter-shutdown guard
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # proving
    # ------------------------------------------------------------------
    def prove(self, original: Netlist, modified: Netlist,
              cand: Candidate) -> str:
        """Verdict for one candidate against the current netlists.

        Cache hit or in-process ladder — never raises; an undecided
        obligation comes back ``UNKNOWN`` and the caller drops it.
        """
        self.counters.obligations += 1
        if self.mode == "none":
            return VALID
        t0 = time.perf_counter()
        with self._tracer.span("proof.prove"):
            obligation = obligation_from_nets(original, modified, cand)
            if obligation is None:
                self._journal.record(
                    "verdict", obligation="", verdict=VALID,
                    cache_hit=False, wall_ms=0.0)
                return VALID
            cached = self.cache.get(obligation.key)
            if cached is not None:
                self.counters.cache_hits += 1
                self._metrics.counter("proof_verdicts",
                                      verdict=cached).inc()
                self._journal.record(
                    "verdict", obligation=obligation.key,
                    verdict=cached, cache_hit=True,
                    wall_ms=1e3 * (time.perf_counter() - t0))
                return cached
            self.counters.cache_misses += 1
            verdict = self._prove_miss(obligation)
        self._metrics.counter("proof_verdicts", verdict=verdict).inc()
        self._journal.record(
            "verdict", obligation=obligation.key, verdict=verdict,
            cache_hit=False, wall_ms=1e3 * (time.perf_counter() - t0))
        return verdict

    def prove_batch(
        self, obligations: Iterable[Optional[ProofObligation]]
    ) -> Dict[str, str]:
        """Prove a batch: dedupe by key, fan misses out, fill the cache.

        Returns the verdicts by key.  Order-insensitive by design — the
        caller consumes verdicts in its own deterministic candidate
        order via :meth:`prove` / the cache.
        """
        verdicts: Dict[str, str] = {}
        if self.mode == "none":
            return verdicts
        misses: List[ProofObligation] = []
        seen = set()
        for ob in obligations:
            if ob is None:
                continue
            self.counters.obligations += 1
            if ob.key in seen:
                self.counters.deduped += 1
                continue
            seen.add(ob.key)
            cached = self.cache.get(ob.key)
            if cached is not None:
                self.counters.cache_hits += 1
                verdicts[ob.key] = cached
                continue
            self.counters.cache_misses += 1
            misses.append(ob)
        if not misses:
            return verdicts
        self._metrics.histogram(
            "proof_batch_size", buckets=(1, 2, 4, 8, 16, 32, 64, 128),
        ).observe(len(misses))
        t0 = time.perf_counter()
        with self._tracer.span("proof.batch", size=len(misses)):
            results = self._dispatch(misses)
        # Queue wait ≈ batch wall over obligations: how long an average
        # obligation sat in the dispatch before its verdict landed.
        wall = time.perf_counter() - t0
        self._metrics.histogram("proof_queue_wait_seconds") \
            .observe(wall / max(1, len(misses)))
        for key, verdict, tally, worker_metrics in results:
            self.counters.dispatched += 1
            self.counters.absorb_tally(tally)
            self._metrics.merge_snapshot(worker_metrics)
            self.cache.put(key, verdict)
            verdicts[key] = verdict
        return verdicts

    # ------------------------------------------------------------------
    def _prove_miss(self, obligation: ProofObligation) -> str:
        key, verdict, tally, worker_metrics = prove_serialized(
            self._job(obligation))
        self.counters.dispatched += 1
        self.counters.absorb_tally(tally)
        self._metrics.merge_snapshot(worker_metrics)
        self.cache.put(key, verdict)
        return verdict

    def _job(self, ob: ProofObligation):
        return (ob.key, ob.left, ob.right, self.spec)

    def _dispatch(self, misses: List[ProofObligation]):
        jobs = [self._job(ob) for ob in misses]
        pool = self._ensure_pool() if len(jobs) > 1 else None
        if pool is None:
            return [prove_serialized(job) for job in jobs]
        try:
            if fault(FP_POOL_BREAK):
                raise RuntimeError("injected proof pool break")
            chunk = max(1, len(jobs) // (self.workers * 4))
            results = pool.map(prove_serialized, jobs, chunksize=chunk)
            self.counters.parallel_batches += 1
            return results
        except Exception:
            # A broken pool (pickling, interpreter teardown, resource
            # limits) degrades to in-process proving, never to a crash.
            self._pool_broken = True
            self.pool_breaks += 1
            self._metrics.counter("proof_pool_breaks").inc()
            try:
                pool.terminate()
                pool.join()
            except Exception:
                pass
            self._pool = None
            return [prove_serialized(job) for job in jobs]

    def _ensure_pool(self):
        if self.workers <= 1 or self._pool_broken:
            return None
        if self._pool is None:
            try:
                import multiprocessing

                ctx = multiprocessing.get_context("fork")
                self._pool = ctx.Pool(processes=self.workers)
            except (ImportError, OSError, ValueError):
                self._pool_broken = True
                return None
        return self._pool
