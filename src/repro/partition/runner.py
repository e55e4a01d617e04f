"""Region-parallel GDO: fork workers, canonical merge, conflict re-queue.

The execution plane behind ``GdoConfig.partition_workers``
(DESIGN.md §12).  One master netlist is cut into low-coupling regions
(:mod:`.partitioner`), each region is optimized as a standalone netlist
by the ordinary serial optimizer in a forked worker process, and a
merge coordinator splices the results back **in canonical region-index
order** with conflict detection on overlapping fanout cones:

* a region's commits are merged only if its halo is disjoint from the
  exports modified by regions merged *earlier in the same round* —
  otherwise the region optimized against timing that is now stale, its
  commits are rejected, and the region is re-queued for the next round
  with a freshly recomputed boundary (the cross-partition
  move/re-queue rule of cgra_pnr's parallel annealer);
* worker processes only decide *when* region results become available,
  never which are merged or in what order, so any worker count —
  including 1 — produces the identical netlist and journal.

Correctness does not ride on the conflict rule: every region commit is
individually proven over the region miter, halos are read-only, and
any subset of proven region results composes (each replaces an export
cone with a proven-equivalent one).  Conflict detection is purely a
*timing-staleness* policy; the master's ``verify_final`` miter remains
the end-to-end safety net.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_mod
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..library.cells import TechLibrary
from ..netlist.netlist import Netlist, NetlistError
from ..obs import Observability
from ..opt.config import GdoConfig, GdoStats, ModRecord
from ..opt.engine import make_sta
from .partitioner import Region, make_region, partition_netlist, signal_rank
from .region import cone_signature, extract_region, splice_region


@dataclass
class RegionResult:
    """What one region-local GDO run sends back to the coordinator.

    Crosses the fork boundary over a multiprocessing queue, so every
    field pickles: the optimized region netlist travels as a real
    :class:`Netlist` (``GateFunc.__reduce__`` restores the function
    singletons on the parent side), ``modified`` lists the master
    export names whose driving cone changed — the conflict-detection
    currency — and the counters fold into the master ``GdoStats``.
    """

    index: int
    net: Netlist
    commits: int
    modified: List[str]
    delay_after: float
    mods2: int = 0
    mods3: int = 0
    proofs_attempted: int = 0
    proofs_passed: int = 0
    history: List[tuple] = field(default_factory=list)


RegionOptimizer = Callable[[Netlist, TechLibrary, GdoConfig, Region],
                           RegionResult]


def optimize_region(master: Netlist, library: TechLibrary,
                    cfg: GdoConfig, region: Region) -> RegionResult:
    """One region-local GDO run (the default region optimizer).

    Extracts the region into a standalone netlist (halo → PIs,
    exports → POs), runs the serial optimizer on it under
    ``cfg.region_config()`` — its own ``EngineContext``, its own broker
    against the shared verdict store — and fingerprints every export
    cone before/after to report which master signals changed.
    """
    from ..opt.gdo import gdo_optimize

    sub = extract_region(master, region)
    before = [cone_signature(sub, po) for po in sub.pos]
    result = gdo_optimize(sub, library, cfg.region_config())
    opt = result.net
    modified = [
        region.exports[i]
        for i, po in enumerate(opt.pos)
        if cone_signature(opt, po) != before[i]
    ]
    s = result.stats
    return RegionResult(
        index=region.index,
        net=opt,
        commits=len(s.history),
        modified=modified,
        delay_after=s.delay_after,
        mods2=s.mods2,
        mods3=s.mods3,
        proofs_attempted=s.proofs_attempted,
        proofs_passed=s.proofs_passed,
        history=[
            (m.phase, m.description, m.kind, m.delay_before,
             m.delay_after, m.area_before, m.area_after)
            for m in s.history
        ],
    )


def _region_worker(master: Netlist, library: TechLibrary,
                   cfg: GdoConfig, regions: Sequence[Region],
                   optimizer: RegionOptimizer, out) -> None:
    """Fork-worker body: optimize a chunk of regions, ship results."""
    for region in regions:
        out.put((region.index, optimizer(master, library, cfg, region)))
    out.close()
    out.join_thread()


def _optimize_all(master: Netlist, library: TechLibrary, cfg: GdoConfig,
                  regions: List[Region], workers: int,
                  optimizer: RegionOptimizer) -> Dict[int, RegionResult]:
    """Optimize ``regions``; returns ``{region index: result}``.

    Forked workers inherit the master read-only (no argument pickling)
    and return results over a queue; results are keyed by region index,
    so scheduling cannot reorder anything downstream.  Regions whose
    worker died before reporting (crash, OOM-kill) are re-run serially
    in the parent — slower, never wrong.  ``workers <= 1`` (or a single
    region, or a platform without fork) skips the processes entirely;
    both paths call the same optimizer on the same inputs.
    """
    results: Dict[int, RegionResult] = {}
    n = min(workers, len(regions))
    ctx = None
    if n > 1:
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX
            ctx = None
    if ctx is not None:
        out = ctx.Queue()
        procs = []
        for w in range(n):
            chunk = regions[w::n]
            proc = ctx.Process(
                target=_region_worker,
                args=(master, library, cfg, chunk, optimizer, out),
                daemon=True,
            )
            proc.start()
            procs.append(proc)
        while len(results) < len(regions):
            try:
                index, res = out.get(timeout=0.2)
                results[index] = res
            except queue_mod.Empty:
                if any(proc.is_alive() for proc in procs):
                    continue
                # All workers exited; drain what their feeder threads
                # flushed, then fall through to the serial fallback.
                try:
                    while True:
                        index, res = out.get(timeout=0.2)
                        results[index] = res
                except queue_mod.Empty:
                    break
        for proc in procs:
            proc.join(5.0)
        out.close()
    for region in regions:
        if region.index not in results:
            results[region.index] = optimizer(master, library, cfg,
                                              region)
    return results


def run_partitioned(
    net: Netlist,
    library: TechLibrary,
    config: GdoConfig,
    broker=None,
    resume: Optional[List[dict]] = None,
    region_optimizer: Optional[RegionOptimizer] = None,
):
    """Region-parallel GDO; the entry ``gdo_optimize`` delegates to
    when ``config.partition_workers > 0``.

    ``resume`` (the service's crash-recovery journal prefix) is
    accepted but unused: a partitioned run is a deterministic re-run,
    and the shared verdict store makes the replayed proofs cheap — the
    recovery contract (identical final result, journal re-emitted from
    seq 0) holds without record-level replay.  A caller-owned
    ``broker`` is likewise unused: region runs build their own brokers
    against ``proof_store_path``, which is how proof work stays shared.

    ``region_optimizer`` injects a replacement for
    :func:`optimize_region` — the merge-conflict tests drive the
    coordinator with crafted region rewrites through this seam.
    """
    from ..opt.gdo import GdoResult

    del broker, resume  # see docstring: determinism makes both moot
    cfg = config
    work = net.copy(name=net.name)
    library.rebind(work)
    stats = GdoStats()
    obs = Observability.from_config(cfg.obs)
    start = time.perf_counter()
    sta = make_sta(work, library, cfg)
    stats.gates_before = work.num_gates
    stats.literals_before = work.num_literals
    stats.area_before = library.netlist_area(work)
    stats.delay_before = sta.delay
    obs.journal.record(
        "run_begin", circuit=work.name, gates=stats.gates_before,
        seed=cfg.seed, n_words=cfg.n_words,
    )
    workers = max(1, cfg.partition_workers)
    k = max(1, cfg.partition_regions)
    if work.num_gates < cfg.partition_min_gates:
        k = 1
    with obs.span("partition.cut"):
        part = partition_netlist(work, k, library=library)
    stats.partition_regions = len(part.regions)
    obs.journal.record(
        "partition_begin", regions=len(part.regions),
        gates=stats.gates_before, cones=part.cones,
        cut_edges=part.cut_edges,
    )
    optimizer = region_optimizer or optimize_region
    region_gates: Dict[int, List[str]] = {
        r.index: list(r.gates) for r in part.regions
    }
    pending = sorted(region_gates)
    merged_total = 0
    rounds = 0
    while pending and rounds < cfg.partition_max_rounds:
        rounds += 1
        rank = signal_rank(work)
        todo = [make_region(work, index, region_gates[index], rank)
                for index in pending]
        for region in todo:
            obs.journal.record(
                "region", region=region.index, round=rounds,
                gates=len(region.gates), halo=len(region.halo),
                exports=len(region.exports),
            )
        with obs.span("partition.optimize", regions=len(todo)):
            results = _optimize_all(work, library, cfg, todo, workers,
                                    optimizer)
        modified_now: set = set()
        next_pending: List[int] = []
        for region in todo:  # canonical index order == merge order
            res = results[region.index]
            obs.journal.record(
                "region_result", region=region.index, round=rounds,
                commits=res.commits, delay_after=res.delay_after,
            )
            if res.commits == 0:
                continue
            overlap = modified_now.intersection(region.halo)
            if overlap:
                # The region optimized against boundary timing a merge
                # earlier in this round's canonical order invalidated:
                # reject its commits and re-queue it — next round it is
                # re-cut against the refreshed master.
                stats.partition_conflicts += 1
                obs.journal.record(
                    "region_reject", region=region.index, round=rounds,
                    overlap=len(overlap), reason="stale-halo",
                )
                obs.journal.record("region_requeue",
                                   region=region.index, round=rounds)
                next_pending.append(region.index)
                continue
            # Splice into a trial copy first: a region rewrite may read
            # a halo signal on a new path to an export — legal inside
            # the region (the halo is just PIs there) but a
            # combinational loop once composed with the master path
            # running the other way.  ``validate`` inside the splice
            # catches it; the master is untouched on rejection.
            trial = work.copy(name=work.name)
            try:
                with obs.span("partition.merge", region=region.index):
                    spliced = splice_region(trial, region, res.net)
            except NetlistError:
                # Not re-queued: the rewrite is deterministic, so the
                # same region would produce the same loop next round —
                # its gates simply stay unoptimized in the master.
                stats.partition_conflicts += 1
                obs.journal.record(
                    "region_reject", region=region.index, round=rounds,
                    overlap=0, reason="cycle",
                )
                continue
            work = trial
            region_gates[region.index] = spliced
            modified_now.update(res.modified)
            merged_total += 1
            stats.mods2 += res.mods2
            stats.mods3 += res.mods3
            stats.proofs_attempted += res.proofs_attempted
            stats.proofs_passed += res.proofs_passed
            for (phase, desc, kind, d0, d1, a0, a1) in res.history:
                stats.history.append(ModRecord(
                    phase=phase, description=f"r{region.index}:{desc}",
                    kind=kind, delay_before=d0, delay_after=d1,
                    area_before=a0, area_after=a1,
                ))
            obs.journal.record(
                "region_merge", region=region.index, round=rounds,
                modified=len(res.modified),
            )
        pending = next_pending
    obs.journal.record(
        "partition_end", rounds=rounds, merged=merged_total,
        rejected=stats.partition_conflicts,
    )
    stats.partition_rounds = rounds
    stats.rounds = rounds
    sta = make_sta(work, library, cfg)
    stats.gates_after = work.num_gates
    stats.literals_after = work.num_literals
    stats.area_after = library.netlist_area(work)
    stats.delay_after = sta.delay
    stats.cpu_seconds = time.perf_counter() - start
    if cfg.verify_final:
        from ..verify.equiv import check_equivalence

        t0 = time.perf_counter()
        with obs.span("partition.verify"):
            stats.equivalent = check_equivalence(
                net, work, n_words=cfg.verify_words, seed=cfg.seed,
                max_conflicts=cfg.max_conflicts, tally=stats.verify_sweep,
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
