"""Workload inputs and the operations the benchmark times.

An operation is one optimization of one netlist: an in-process
``gdo_optimize`` call, or one job submitted to the optimization
service.  A pass runs every netlist of a workload once.

Inputs are the registry circuits (``repro.circuits.registry``), renamed
by the workload seed (:func:`relabel`); ``DEFAULT_SEED`` gives them
unrenamed.  The seed does not pick other circuits: a different
``random_control`` generator seed changes the work of one C5315-class
run by up to 3x, which no spread bound of the benchmark could absorb.
"""

from __future__ import annotations

import hashlib
import os
import resource
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.circuits.registry import build
from repro.io import parse_netlist, write_blif
from repro.library import mcnc_like
from repro.netlist.netlist import Netlist
from repro.opt import GdoConfig
from repro.opt import gdo as gdo_module
from repro.service.client import ServiceClient
from repro.service.queue import JobQueue
from repro.service.server import OptimizationService

from outputs import Check, check_output, digest
from yardstick import Sampler, scale

#: seed that reproduces the registry circuits (C5315 is seed 909)
DEFAULT_SEED = 909

#: The shared GDO configuration: ``benchmarks/bench_partition.py``'s
#: caps with the final SAT miter on, single-process proving, 8 proofs
#: per pass (not 48) and a 3000-conflict SAT budget (not 30000), which
#: size one C5315-class run to ~10 s on a 2-core machine.
CONFIG: Dict[str, object] = dict(
    n_words=8, verify_words=16, verify_final=True,
    max_rounds=2, max_passes_per_phase=6,
    max_trials_per_pass=128, max_proofs_per_pass=8,
    max_conflicts=3000, proof_workers=1,
)

PARTITION: Dict[str, object] = dict(
    partition_workers=2, partition_regions=8,
    partition_max_rounds=2, partition_min_gates=64,
)

#: daemon worker processes and client connections of ``service_mix``
SERVICE_WORKERS = 2
SERVICE_CLIENTS = 2
#: rounds of the job mix per pass: first occurrences miss the verdict
#: store, repeats can hit it
SERVICE_ROUNDS = 2
#: seconds one service job may take before the pass fails
JOB_TIMEOUT = 150.0


def relabel(net: Netlist, seed: int) -> Netlist:
    """``net`` with every signal renamed for ``seed``.

    The default seed returns ``net`` itself.  Other seeds prefix every
    name with a seed tag, keeping declaration order and the relative
    order of names, so the structure — and the work the optimizer does
    on it — stays that of the registry circuit.
    """
    if seed == DEFAULT_SEED:
        return net
    tag = f"s{seed & 0xFFFFFFFF:x}_"
    out = Netlist(net.name)
    for pi in net.pis:
        out.add_pi(tag + pi)
    for name, gate in net.gates.items():
        out.add_gate(tag + name, gate.func, [tag + i for i in gate.inputs],
                     cell=gate.cell)
    out.set_pos([tag + po for po in net.pos])
    return out


def c5315_nets(seed: int):
    """Registry C5315, the 2100-gate ``random_control`` netlist, twice:
    once for the serial run and once for the partitioned run."""
    return [relabel(build("C5315"), seed) for _ in range(2)]


def suite_nets(seed: int):
    """Z5xp1, C432, C880 and C1908 at full size, C1355 and C499 small."""
    return [relabel(build(name, small=small), seed) for name, small in (
        ("Z5xp1", False), ("C432", False), ("C880", False),
        ("C1908", False), ("C1355", True), ("C499", True))]


def service_nets(seed: int):
    """The small circuits ``service_mix`` clients submit.  C432 is left
    out: at ~4 s it alone would set the tail and halve the passes that
    fit in a run."""
    return [relabel(build(name, small=True), seed) for name in (
        "Z5xp1", "C880", "C1908", "C1355", "C499", "alu4")]


@dataclass(frozen=True)
class Workload:
    """One workload; its reason to exist is in ``BENCHMARK.json`` and
    ``WORKLOADS.md``."""

    name: str
    nets: Callable[[int], list]
    config: Dict[str, object]
    #: per netlist, settings laid over ``config`` (default: none)
    per_net: Tuple[Dict[str, object], ...] = ()
    service: bool = False
    #: layers predicted to dominate the traced breakdown
    dominant: Tuple[str, ...] = ()
    #: known defects the workload shows
    defects: Tuple[str, ...] = ()


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "c5315", c5315_nets, CONFIG, per_net=({}, PARTITION),
        dominant=("sat.solve", "netlist.extract_cone", "cnf.encode",
                  "proof.prove", "verify.check", "partition.wait"),
        defects=(
            "the partitioned run's final SAT miter exhausts its "
            "conflict budget: equivalent=None (verify.undecided)",
            "region GDO runs in forked children: visible only as "
            "partition.wait",
        ),
    ),
    Workload(
        "suite_commit", suite_nets, CONFIG,
        dominant=("analysis.classify", "analysis.static_build",
                  "clauses.enumerate", "timing.refresh_trial"),
    ),
    Workload(
        "service_mix", service_nets, CONFIG, service=True,
        dominant=("service.run", "service.queue_wait"),
        defects=(
            "results come back as unmapped BLIF (service.result_mapped "
            "= 0), so their timing cannot be re-checked",
            "GDO runs in forked service workers: visible only as "
            "service.run",
        ),
    ),
)}


@dataclass
class Op:
    """One finished operation and its check."""

    index: int                 # position of the input netlist
    seconds: float             # latency as the caller sees it
    check: Check
    equivalent: Optional[bool]
    digest: str
    commits: int
    delay_ratio: float
    area_ratio: float
    counters: Dict[str, float] = field(default_factory=dict)
    cpu: float = float("nan")  # CPU seconds, children included
    ref: float = float("nan")  # mean reference chunk seconds during it


@dataclass
class Pass:
    seconds: float             # wall time of the timed section
    ops: List[Op]
    cpu: float                 # CPU seconds of it, children included
    scaled: float              # CPU seconds on the reference scale
    ref: float                 # mean reference chunk seconds during it


def cpu_clock() -> float:
    """CPU seconds of this process (all threads) and of its reaped
    children.  Partition regions and service workers are forked and
    reaped within one pass, so a pass's difference covers them.  Unlike
    wall time it leaves out the time the host lets other tenants run."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


#: Output checks already made in this process, by input position,
#: result fingerprint and reported delay.  The check is deterministic,
#: so an identical result of the same input gets the same verdict; later
#: passes reuse it instead of simulating and re-timing again.
_CHECKED: Dict[tuple, Check] = {}


def cached_check(key: tuple, make: Callable[[], Check]) -> Check:
    if key not in _CHECKED:
        _CHECKED[key] = make()
    return replace(_CHECKED[key])


def check_seed(seed: int, index: int) -> int:
    """Vector seed of one output check — never the program's own."""
    return 1_000_003 + 7919 * seed + index


def _gdo_counters(stats) -> Dict[str, float]:
    """Funnel and cache counts of one in-process run, from its result."""
    snap = stats.obs  # metrics snapshot; None only with metrics off

    def total(name: str, **labels) -> int:
        if snap is None:
            return 0
        return snap.counter(name, **labels) if labels \
            else snap.counter_sum(name)

    return {
        "opt.generated": total("gdo_candidates_generated"),
        "opt.trials": total("gdo_trials"),
        "opt.to_bpfs": total("gdo_to_bpfs"),
        "opt.rejects.timing": total("gdo_rejected", reason="timing"),
        "opt.rejects.refuted": total("gdo_rejected", reason="refuted"),
        "opt.rejects.proof": total("gdo_rejected", reason="proof"),
        "opt.static_proved": stats.static_proved,
        "opt.static_refuted": stats.static_refuted,
        "proof.cache_hits": stats.proof.cache_hits,
        "proof.cache_misses": stats.proof.cache_misses,
        "partition.regions": stats.partition_regions,
        "partition.conflicts": stats.partition_conflicts,
    }


def failed_op(index: int, seconds: float, reason: str) -> Op:
    nan = float("nan")
    return Op(index=index, seconds=seconds,
              check=Check(reason[:200], nan, nan, nan, nan),
              equivalent=None, digest="", commits=0,
              delay_ratio=nan, area_ratio=nan)


def gdo_pass(workload: Workload, nets, library, seed: int,
             sampler: Sampler, section=nullcontext) -> Pass:
    """Optimize every netlist in-process.  Only the ``gdo_optimize``
    calls are timed, inside ``section``, each with the reference
    samples taken while it ran; the checks run after all of them."""
    extras = workload.per_net or ({},) * len(nets)
    cfgs = [GdoConfig(**{**workload.config, **extra}) for extra in extras]
    raw = []
    with section():
        for net, cfg in zip(nets, cfgs):
            t0, c0, mark = time.perf_counter(), cpu_clock(), sampler.mark()
            try:
                result = gdo_module.gdo_optimize(net, library, cfg)
            except Exception as exc:  # a failed operation, not a crash
                result = exc
            raw.append((time.perf_counter() - t0, cpu_clock() - c0,
                        sampler.since(mark), result))
    ops = []
    for index, (seconds, cpu, ref, result) in enumerate(raw):
        if isinstance(result, Exception):
            ops.append(failed_op(index, seconds, f"raised {result!r}"))
            ops[-1].cpu, ops[-1].ref = cpu, ref
            continue
        s = result.stats
        fingerprint = digest(result.net)
        check = cached_check(
            (index, fingerprint, s.delay_after),
            lambda: check_output(nets[index], result.net, library,
                                 seed=check_seed(seed, index),
                                 reported_delay=s.delay_after))
        ops.append(Op(
            index=index, seconds=seconds, check=check,
            equivalent=s.equivalent, digest=fingerprint,
            commits=len(s.history),
            delay_ratio=check.delay_after / check.delay_before,
            area_ratio=check.area_after / check.area_before,
            counters=_gdo_counters(s), cpu=cpu, ref=ref,
        ))
    return Pass(sum(op.seconds for op in ops), ops,
                cpu=sum(op.cpu for op in ops),
                scaled=sum(scale(op.cpu, op.ref) for op in ops),
                ref=sum(op.ref for op in ops) / len(ops))


def service_inputs(nets, library) -> List[str]:
    """Mapped BLIF of every circuit, as a client would submit it."""
    return [write_blif(net, mapped=True, library=library) for net in nets]


def start_service(root: str) -> OptimizationService:
    service = OptimizationService(root, workers=SERVICE_WORKERS)
    service.start()
    ServiceClient(*service.address).ping()
    return service


def service_pass(workload: Workload, nets, library, seed: int,
                 blifs: List[str], root: str,
                 sampler: Sampler, section=nullcontext) -> Pass:
    """One closed-loop round of the job mix against a fresh daemon and
    store; each client waits for a job before submitting the next.
    Wall time covers the client loop, inside ``section``; CPU time also
    covers daemon start and shutdown, which reaps the workers.  Jobs
    overlap, so the pass is scaled as a whole."""
    order = list(range(len(nets))) * SERVICE_ROUNDS
    records: Dict[int, tuple] = {}
    c0, mark = cpu_clock(), sampler.mark()
    service = start_service(root)
    try:
        client = ServiceClient(*service.address)

        def run_client(k: int) -> None:
            for slot in range(k, len(order), SERVICE_CLIENTS):
                index = order[slot]
                t0 = time.perf_counter()
                try:
                    job = client.submit(blifs[index], name=nets[index].name,
                                        config=workload.config)
                    submitted = time.perf_counter() - t0
                    status = client.wait(job, timeout=JOB_TIMEOUT,
                                         poll=0.05)
                except Exception as exc:  # a failed operation
                    job, submitted = None, 0.0
                    status = {"state": "error", "error": repr(exc)}
                records[slot] = (job, submitted,
                                 time.perf_counter() - t0, status)

        threads = [threading.Thread(target=run_client, args=(k,))
                   for k in range(SERVICE_CLIENTS)]
        with section():
            t0 = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            total = time.perf_counter() - t0
    finally:
        service.close()
    cpu = cpu_clock() - c0
    ref = sampler.since(mark)
    queue = JobQueue(root)
    ops = [_service_op(queue, *records[slot], order[slot], library, seed,
                       nets[order[slot]])
           for slot in sorted(records)]
    return Pass(total, ops, cpu=cpu, scaled=scale(cpu, ref), ref=ref)


def _service_op(queue, job_id, submitted, latency, status, index,
                library, seed, net) -> Op:
    if status.get("state") != "done":
        return failed_op(index, latency, f"job {status.get('state')}: "
                                         f"{status.get('error', '')}")
    summary = status["result"]
    with open(os.path.join(queue.get(job_id).path, "result.blif"),
              encoding="utf-8") as fh:
        blif = fh.read()
    mapped = ".gate " in blif
    text = hashlib.sha256(blif.encode()).hexdigest()[:16]

    def check() -> Check:
        result = parse_netlist(blif, "blif", library=library,
                               name=net.name)
        # Unmapped results (a known defect) carry no cells to re-time:
        # function is checked, timing is judged from the reported
        # figures.
        return check_output(net, result, library,
                            seed=check_seed(seed, index),
                            reported_delay=summary["delay_after"],
                            retime=mapped)

    check = cached_check((index, text, summary["delay_after"]), check)
    if not check.reason and \
            summary["delay_after"] > summary["delay_before"] + 1e-6:
        check.reason = "reported delay rose"
    store = summary.get("store", {})
    proof = summary.get("proof", {})
    return Op(
        index=index, seconds=latency, check=check,
        equivalent=summary.get("equivalent"),
        digest=f"{summary.get('signature', '')}:{text}",
        commits=int(summary.get("mods", 0)),
        delay_ratio=summary["delay_after"] / summary["delay_before"],
        area_ratio=summary["area_after"] / summary["area_before"],
        counters={
            "service.submit": submitted,
            "service.run": summary["seconds"],
            "service.queue_wait": max(0.0, latency - summary["seconds"]),
            "service.shared_hits": store.get("shared_hits", 0),
            "service.store_misses": store.get("misses", 0),
            "service.result_mapped": int(mapped),
            "proof.cache_hits": proof.get("cache_hits", 0),
            "proof.cache_misses": proof.get("cache_misses", 0),
        },
    )
