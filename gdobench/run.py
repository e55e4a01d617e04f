"""GDO benchmark: time, quality and verification of whole optimizations.

Usage, from the root of a checkout::

    python3 gdobench/run.py --workload c5315 --seed 909 \\
        --seconds 40 --trace 0

The seed makes the inputs (``workloads.py``).  Set-up — library, netlist
generation and mapping, daemon start — is timed several times and
reported as ``setup_s``.  Then whole passes over the workload run until
``--seconds`` would be exceeded (at least one).  The bounded time
figures are CPU seconds put on the scale of a fixed reference workload
(``yardstick.py``), because a shared host moves raw CPU and wall time
by up to 2x; the raw figures are printed beside them.  Every operation is
checked by ``outputs.check_output``, and repeated passes, as well as
earlier runs of the same code and seed, must give identical quality and
structure.  With ``--trace 1`` untraced and traced passes alternate and
the per-layer breakdown (``layers.py``) is reported instead.

Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from contextlib import contextmanager, nullcontext
from typing import Dict, List, Tuple

from yardstick import Sampler, scale

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS_DIR = os.path.join(HERE, "_runs")
QUALITY_FILE = os.path.join(RUNS_DIR, "quality.json")

#: set-ups per run: at least the first, then more until the second
#: (seconds of wall time, tear-downs included) has passed or the third
#: is reached; setup_s is their median
SETUP_REPEATS = (5, 1.0, 25)


def median(values):
    return statistics.median(values)


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def tail(latencies: List[float]) -> Tuple[float, float]:
    """Highest-percentile latency with at least ten samples beyond it,
    as ``(value, percentile)``; the maximum when there are too few."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 21:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def op_latencies(passes) -> List[float]:
    """Each operation's median latency over the passes.  Every pass runs
    the same operations in the same order, so position identifies one."""
    return [median(column)
            for column in zip(*[[op.seconds for op in p.ops]
                                for p in passes])]


def code_digest() -> str:
    """Digest of the program and benchmark sources: 'the same code'."""
    h = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames
                                 if d not in ("__pycache__", "_runs"))
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child (MiB).
    The benchmark reads it after the first pass: the program's caches
    grow a little with every pass, and the number of passes that fit in
    a run depends on the host's speed."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


@contextmanager
def traced(tracer):
    import layers

    installed = layers.install(tracer)
    try:
        yield
    finally:
        installed.remove()


def set_up(workload, seed: int, W):
    """One set-up, timed in CPU seconds like a pass: library, netlists,
    mapping (and for the service the BLIF texts and a daemon start,
    whose pool is stopped again untimed)."""
    t0 = W.cpu_clock()
    library = W.mcnc_like()
    nets = workload.nets(seed)
    for net in nets:
        library.rebind(net)
    inputs = service = None
    root = os.path.join(RUNS_DIR, f"setup-{os.getpid()}")
    if workload.service:
        inputs = W.service_inputs(nets, library)
        service = W.start_service(root)
    seconds = W.cpu_clock() - t0
    if service is not None:
        service.close()
        shutil.rmtree(root, ignore_errors=True)
    return seconds, library, nets, inputs


def run_pass(workload, W, library, nets, inputs, seed, index, sampler,
             section):
    if workload.service:
        root = os.path.join(RUNS_DIR, f"svc-{os.getpid()}-{index}")
        try:
            return W.service_pass(workload, nets, library, seed, inputs,
                                  root, sampler, section=section)
        finally:
            shutil.rmtree(root, ignore_errors=True)
    return W.gdo_pass(workload, nets, library, seed, sampler,
                      section=section)


def record_service_spans(tracer, passes) -> None:
    from layers import SERVICE_SPANS

    for p in passes:
        for op in p.ops:
            for span in SERVICE_SPANS:
                if span in op.counters:
                    tracer.record(span, op.counters[span])


def quality(ops) -> dict:
    """Per-netlist quality, required identical in every pass: an
    operation whose result differs from an earlier one fails."""
    per_net: Dict[int, tuple] = {}
    for op in ops:
        if not op.check.ok:
            continue
        q = (op.digest, op.commits, op.delay_ratio, op.area_ratio)
        if per_net.setdefault(op.index, q) != q:
            op.check.reason = "result differs from an earlier pass"
    keys = sorted(per_net)
    if not keys:
        return {}
    return {
        "delay_ratio": geomean([per_net[k][2] for k in keys]),
        "area_ratio": geomean([per_net[k][3] for k in keys]),
        "commits": sum(per_net[k][1] for k in keys),
        "digests": [per_net[k][0] for k in keys],
    }


def same_as_before(key: str, record: dict) -> bool:
    """Determinism gate across runs: the first run of a (workload,
    seed, code) stores its quality, later runs must match it."""
    state = {}
    if os.path.exists(QUALITY_FILE):
        with open(QUALITY_FILE, encoding="utf-8") as fh:
            state = json.load(fh)
    if key in state:
        return state[key] == record
    state[key] = record
    tmp = QUALITY_FILE + f".{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(state, fh, sort_keys=True)
    os.replace(tmp, QUALITY_FILE)
    return True


def end_to_end(setups, setup_ref: float, passes, record, rss_mb: float
               ) -> Dict[str, Tuple[float, str]]:
    """Times are CPU seconds on the reference scale (``yardstick.py``):
    ``setup_s`` is the median set-up, scaled by the reference samples
    taken during the set-ups; ``cpu_s`` is the mean over the run's
    passes of their scaled CPU time."""
    return {
        "setup_s": (scale(median(setups), setup_ref), "s"),
        "cpu_s": (sum(p.scaled for p in passes) / len(passes), "s"),
        "delay_ratio": (record.get("delay_ratio", float("nan")), "ratio"),
        "area_ratio": (record.get("area_ratio", float("nan")), "ratio"),
        "peak_rss_mb": (rss_mb, "MiB"),
    }


def unbounded(passes) -> Dict[str, Tuple[float, str]]:
    """Unscaled figures of untraced passes: wall clock, and CPU seconds
    with the reference chunk time they are scaled by.  A shared host
    moves them by up to 2x from run to run, so they carry no bound
    (``WORKLOADS.md``)."""
    latencies = op_latencies(passes)
    tail_value, _ = tail(latencies)
    wall = median([p.seconds for p in passes])
    return {
        "cpu_raw_s": (sum(p.cpu for p in passes) / len(passes), "s"),
        "yardstick_s": (sum(p.ref for p in passes) / len(passes), "s"),
        "wall_s": (wall, "s"),
        "jobs_per_s": (len(latencies) / wall, "1/s"),
        "job_p50_s": (median(latencies), "s"),
        "job_tail_s": (tail_value, "s"),
    }


def _share(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer, traced_passes, plain_passes
              ) -> Dict[str, Tuple[float, str]]:
    """Per-pass layer figures of the traced passes."""
    from layers import SPAN_NAMES, SpanStats

    n = len(traced_passes)
    out = unbounded(plain_passes)
    for span in SPAN_NAMES:
        st = tracer.spans.get(span, SpanStats())
        out[f"{span}.calls"] = (st.calls / n, "count")
        out[f"{span}.incl_s"] = (st.incl / n, "s")
        out[f"{span}.self_s"] = (st.self_time / n, "s")
    ops = [op for p in traced_passes for op in p.ops]
    c: Dict[str, float] = {}
    for op in ops:
        for k, v in op.counters.items():
            c[k] = c.get(k, 0) + v
    t = tracer.counts
    valid, invalid, unknown = (t.get(f"proof.{v}", 0)
                               for v in ("valid", "invalid", "unknown"))
    counts = {
        "opt.generated": c.get("opt.generated", 0),
        "opt.static_proved": c.get("opt.static_proved", 0),
        "opt.static_refuted": c.get("opt.static_refuted", 0),
        "opt.trials": c.get("opt.trials", 0),
        "opt.rejects.timing": c.get("opt.rejects.timing", 0),
        "opt.rejects.refuted": c.get("opt.rejects.refuted", 0),
        "opt.rejects.proof": c.get("opt.rejects.proof", 0),
        "opt.commits": sum(op.commits for op in ops),
        "proof.valid": valid,
        "proof.invalid": invalid,
        "proof.unknown": unknown,
        "sat.unknown": t.get("sat.unknown", 0),
        "analysis.proved": t.get("analysis.proved", 0),
        "analysis.refuted": t.get("analysis.refuted", 0),
        "verify.undecided": sum(op.equivalent is None for op in ops),
        "partition.regions": c.get("partition.regions", 0),
        "partition.conflicts": c.get("partition.conflicts", 0),
        "partition.cut_edges": t.get("partition.cut_edges", 0),
        "service.store_misses": c.get("service.store_misses", 0),
        "service.result_mapped": c.get("service.result_mapped", 0),
    }
    for name, value in counts.items():
        out[name] = (value / n, "count")
    hits = c.get("proof.cache_hits", 0)
    shared = c.get("service.shared_hits", 0)
    out.update({
        "proof.valid_share": (_share(valid, valid + invalid + unknown),
                              "ratio"),
        "proof.cache_hit_rate": (
            _share(hits, hits + c.get("proof.cache_misses", 0)), "ratio"),
        "opt.refuted_share": (_share(c.get("opt.rejects.refuted", 0),
                                     c.get("opt.to_bpfs", 0)), "ratio"),
        "verify.verified_share": (
            _share(sum(op.equivalent is True for op in ops), len(ops)),
            "ratio"),
        "service.hit_rate": (
            _share(shared, shared + c.get("service.store_misses", 0)),
            "ratio"),
        "trace.overhead": (
            median([p.scaled for p in traced_passes])
            / median([p.scaled for p in plain_passes]) - 1.0,
            "ratio"),
    })
    return out


def print_trace(layer: Dict[str, Tuple[float, str]], workload) -> None:
    """The funnel line and the layer table, largest self time first."""
    v = {k: val for k, (val, _) in layer.items()}
    print("funnel per pass: generated {:g} -> static proved {:g} / "
          "refuted {:g} -> trials {:g} (timing rejects {:g}) -> BPFS "
          "refuted {:g} -> proof valid {:g} / invalid {:g} / unknown {:g} "
          "-> committed {:g}".format(
              v["opt.generated"], v["opt.static_proved"],
              v["opt.static_refuted"], v["opt.trials"],
              v["opt.rejects.timing"], v["opt.rejects.refuted"],
              v["proof.valid"], v["proof.invalid"], v["proof.unknown"],
              v["opt.commits"]))
    spans = sorted(
        (k[:-len(".self_s")] for k in v if k.endswith(".self_s")),
        key=lambda s: -v[s + ".self_s"])
    print("predicted to dominate: " + ", ".join(workload.dominant))
    print(f"{'layer':24} {'calls':>8} {'incl_s':>10} {'self_s':>10}")
    for span in spans:
        if v[span + ".calls"]:
            print(f"{span:24} {v[span + '.calls']:8g} "
                  f"{v[span + '.incl_s']:10.4f} "
                  f"{v[span + '.self_s']:10.4f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=909)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import layers
    import workloads as W

    workload = W.WORKLOADS[args.workload]
    layers.resolve_all()
    os.makedirs(RUNS_DIR, exist_ok=True)
    print(f"workload {workload.name} seed {args.seed} "
          f"seconds {args.seconds:g} trace {args.trace}")

    with Sampler() as sampler:
        least, budget, most = SETUP_REPEATS
        setups: List[float] = []
        deadline = time.perf_counter() + budget
        while len(setups) < least or (time.perf_counter() < deadline
                                      and len(setups) < most):
            seconds, library, nets, inputs = set_up(workload, args.seed, W)
            setups.append(seconds)
        setup_ref = sampler.since(0)

        def measured_pass(section):
            return run_pass(workload, W, library, nets, inputs, args.seed,
                            len(plain) + len(traced_passes), sampler,
                            section=section)

        tracer = layers.Tracer()
        plain: List = []
        traced_passes: List = []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            plain.append(measured_pass(nullcontext))
            if len(plain) == 1:
                rss_mb = peak_rss_mb()
            if args.trace:
                traced_passes.append(
                    measured_pass(lambda: traced(tracer)))
            cost = time.perf_counter() - t0
            if time.perf_counter() - start + cost > args.seconds:
                break
    record_service_spans(tracer, traced_passes)

    ops = [op for p in plain + traced_passes for op in p.ops]
    record = quality(ops)
    failures = [f"net {op.index}: {op.check.reason or 'equivalent=False'}"
                for op in ops if not op.check.ok or op.equivalent is False]
    failed = len(failures)
    if not same_as_before(f"{workload.name}:{args.seed}:{code_digest()}",
                          record):
        failures.append("quality differs from an earlier run of the "
                        "same code and seed")

    e2e = end_to_end(setups, setup_ref, plain, record, rss_mb)
    _, pct = tail(op_latencies(plain))
    for name, (value, unit) in {**e2e, **unbounded(plain)}.items():
        print(f"{name:14} {value:.6g} {unit}")
    print(f"{'':14} {len(plain)} timed passes of {len(plain[0].ops)} "
          f"operations; latencies are per-operation medians over the "
          f"passes, tail = p{pct:.0f}; {len(setups)} set-ups")
    print(f"{'':14} pass seconds: "
          + " ".join(f"{p.seconds:.3f}" for p in plain) + "; CPU: "
          + " ".join(f"{p.cpu:.3f}" for p in plain))
    print(f"{'verified_share':14} "
          f"{sum(op.equivalent is True for op in ops) / len(ops):.6g} "
          f"ratio ({sum(op.equivalent is None for op in ops)} undecided)")
    print(f"{'failed_share':14} {failed / len(ops):.6g} ratio "
          f"({failed} of {len(ops)})")
    print(f"{'commits':14} {record.get('commits', 0)} count over the "
          f"{len(nets)} netlists")
    for defect in workload.defects:
        print(f"known defect: {defect}")
    for reason in failures:
        print(f"FAILED: {reason}")

    metrics = e2e
    if args.trace:
        metrics = per_layer(tracer, traced_passes, plain)
        print_trace(metrics, workload)
    result = {
        "correct": not failures,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
