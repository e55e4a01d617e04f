"""Human-readable reports for GDO runs."""

from __future__ import annotations

from typing import List, Optional

from ..library.cells import TechLibrary
from ..netlist.netlist import Netlist
from ..obs import hot_spans
from ..obs.export import funnel_counts
from ..timing.paths import longest_path
from ..timing.sta import Sta
from .gdo import GdoResult


def _bar(fraction: float, width: int = 30) -> str:
    filled = max(0, min(width, int(round(fraction * width))))
    return "#" * filled + "." * (width - filled)


def format_result(result: GdoResult, library: TechLibrary,
                  max_history: int = 12) -> str:
    """Multi-line summary of one GDO run (metrics, phases, mod log)."""
    s = result.stats
    lines: List[str] = []
    lines.append(f"GDO result for {result.net.name!r}")
    lines.append(
        f"  delay    {s.delay_before:10.3f} -> {s.delay_after:10.3f}   "
        f"[{_bar(s.delay_reduction)}] {100 * s.delay_reduction:5.1f}%"
    )
    lines.append(
        f"  literals {s.literals_before:10d} -> {s.literals_after:10d}   "
        f"[{_bar(s.literal_reduction)}] {100 * s.literal_reduction:5.1f}%"
    )
    lines.append(
        f"  gates    {s.gates_before:10d} -> {s.gates_after:10d}"
    )
    lines.append(
        f"  area     {s.area_before:10.2f} -> {s.area_after:10.2f}"
    )
    lines.append(
        f"  modifications: {s.mods2} OS/IS2, {s.mods3} OS/IS3 over "
        f"{s.rounds} round(s); proofs {s.proofs_passed}/"
        f"{s.proofs_attempted} passed"
    )
    verdict = f"equivalence verified: {s.equivalent}"
    sweep = s.verify_sweep
    if sweep:
        verdict += (f" (sweep: {sweep['merged']} merged, "
                    f"{sweep['refuted']} refuted, {sweep['undecided']} "
                    f"undecided pairs; {sweep['outputs_left']} outputs "
                    f"to the miter)")
    lines.append(f"  cpu: {s.cpu_seconds:.2f}s   {verdict}")
    delay_mods = sum(1 for r in s.history if r.phase == "delay")
    area_mods = len(s.history) - delay_mods
    lines.append(f"  phases: {delay_mods} delay-phase mods, "
                 f"{area_mods} area-phase mods")
    if s.phase_seconds:
        lines.append("  phase wall time: " + ", ".join(
            f"{name} {sec:.2f}s" for name, sec in s.phase_seconds.items()
        ))
    e = s.engine
    lines.append(
        f"  engine: sta {e.sta_incremental} incremental / "
        f"{e.sta_scratch} scratch ({e.sta_signals_touched} signals), "
        f"sim {e.sim_incremental} incremental / {e.sim_scratch} scratch "
        f"({e.sim_signals_changed} signals), "
        f"{e.sta_pi_root} PI-root trials"
    )
    lines.append(
        f"  observability rows: {e.obs_rows_reused} reused, "
        f"{e.obs_rows_computed} computed"
    )
    p = s.proof
    lines.append(
        f"  proof broker: {p.dispatched} dispatched "
        f"({p.parallel_batches} parallel batches, {p.deduped} deduped), "
        f"cache {p.cache_hits}/{p.cache_hits + p.cache_misses} hits "
        f"({100 * p.hit_rate:.1f}%), {p.static_skips} static skips"
    )
    lines.append(
        f"  proof backends: sim {p.sim_invalid} refuted, "
        f"sat {p.sat_valid}/{p.sat_invalid}/"
        f"{p.sat_unknown} bdd {p.bdd_valid}/{p.bdd_invalid}/"
        f"{p.bdd_unknown} (valid/invalid/unknown); "
        f"{p.retries} retries, {p.fallbacks} fallbacks, "
        f"{p.timeouts} timeouts, {p.unknown_final} undecided"
    )
    # Observability extras (metrics funnel, span table): every line is
    # guarded so a run with observability disabled prints exactly the
    # report of the pre-obs releases.
    obs = s.obs
    if obs is not None and obs.counter_sum("gdo_candidates_generated"):
        f = funnel_counts(obs)
        lines.append(
            f"  candidate funnel: {f['generated']} generated -> "
            f"{f['static_proved']} static_proved / "
            f"{f['static_refuted']} static_refuted / "
            f"{f['to_bpfs']} to_bpfs -> "
            f"{f['bpfs_survived']} BPFS-survived -> "
            f"{f['proved']} proved -> {f['committed']} committed"
        )
    if obs is not None and obs.spans:
        lines.append("  hot spans (top 8 by wall time):")
        lines.append(
            f"    {'span':24} {'count':>8} {'wall[s]':>10} {'cpu[s]':>10}"
        )
        for name, count, wall, cpu in hot_spans(obs.spans, top=8):
            lines.append(
                f"    {name:24} {count:>8d} {wall:>10.3f} {cpu:>10.3f}"
            )
    if s.history:
        lines.append("  modification log" +
                     ("" if len(s.history) <= max_history
                      else f" (first {max_history})") + ":")
        for rec in s.history[:max_history]:
            lines.append(
                f"    [{rec.phase:5}] {rec.description:44} "
                f"delay {rec.delay_before:8.3f} -> {rec.delay_after:8.3f}"
            )
    return "\n".join(lines)


def critical_path_report(net: Netlist, library: TechLibrary,
                         sta: Optional[Sta] = None) -> str:
    """The current critical path with per-stage arrivals."""
    timing = sta if sta is not None else Sta(net, library)
    path = longest_path(timing)
    lines = [f"critical path of {net.name!r} (delay {timing.delay:.3f}):"]
    for sig in path:
        gate = net.gates.get(sig)
        kind = "PI" if net.is_pi(sig) else (
            gate.cell or gate.func.name if gate else "?"
        )
        lines.append(
            f"  {sig:20} {kind:10} arrival {timing.arrival.get(sig, 0.0):8.3f}"
        )
    return "\n".join(lines)


def compare_report(before: Netlist, after: Netlist,
                   library: TechLibrary) -> str:
    """Side-by-side metric table for two netlists."""
    sta_b = Sta(before, library)
    sta_a = Sta(after, library)
    rows = [
        ("gates", before.num_gates, after.num_gates),
        ("literals", before.num_literals, after.num_literals),
        ("area", round(library.netlist_area(before), 2),
         round(library.netlist_area(after), 2)),
        ("delay", round(sta_b.delay, 3), round(sta_a.delay, 3)),
        ("depth", before.depth(), after.depth()),
        ("critical gates", len(sta_b.critical_gates()),
         len(sta_a.critical_gates())),
    ]
    width = max(len(r[0]) for r in rows)
    lines = [f"{'metric':{width}}  {'before':>12}  {'after':>12}"]
    for name, b_val, a_val in rows:
        lines.append(f"{name:{width}}  {b_val:>12}  {a_val:>12}")
    return "\n".join(lines)
