"""Render observability snapshots into ``BENCH_*.json`` trajectories.

The repo-root ``BENCH_*.json`` files are the cross-PR performance
record: each file holds ``{"entries": [...]}`` where every entry is
keyed by git SHA (plus a secondary field such as the circuit name), so
repeated runs of the same commit *merge* — replacing their previous
entry — while new commits *append*.  :func:`gdo_entry` reduces one
:class:`~repro.opt.gdo.GdoResult` to the schema below and
:func:`append_bench` does the keyed append/merge; benchmark modules
reuse :func:`bench_entry`/:func:`append_bench` for their own files.

GDO entry schema (validated by :func:`validate_gdo_entry`)::

    {
      "key": "<git sha>", "circuit": "...",
      "delay_before": f, "delay_after": f,
      "area_before": f, "area_after": f,
      "mods": n, "rounds": n, "seconds": f,
      "phase_seconds": {"delay": f, ...},
      "hot_spans": [{"name": s, "count": n, "wall_s": f}, ...],
      "broker": {"dispatched": n, "cache_hits": n,
                 "cache_misses": n, "hit_rate": f, "sim_invalid": n},
      "funnel": {"generated": n, "static_proved": n,
                 "static_refuted": n, "to_bpfs": n,
                 "bpfs_survived": n, "proved": n, "committed": n}
    }
"""

from __future__ import annotations

import json
import os
import subprocess
from typing import Dict, List, Optional, Sequence, Tuple

from .trace import hot_spans


class ExportSchemaError(ValueError):
    """An entry violates the BENCH schema it is exported under."""


# ----------------------------------------------------------------------
# keys
# ----------------------------------------------------------------------
def git_sha(root: Optional[str] = None) -> str:
    """Short git SHA of ``root`` (or cwd); falls back to ``GITHUB_SHA``
    then ``"unknown"`` so exports never fail outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=root, capture_output=True, text=True, timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    env = os.environ.get("GITHUB_SHA", "")
    return env[:12] if env else "unknown"


# ----------------------------------------------------------------------
# entry construction
# ----------------------------------------------------------------------
def funnel_counts(snapshot) -> Dict[str, int]:
    """The candidate funnel of one run from its obs snapshot (zeros
    when metrics were disabled)."""
    if snapshot is None:
        return {"generated": 0, "static_proved": 0, "static_refuted": 0,
                "to_bpfs": 0, "bpfs_survived": 0,
                "proved": 0, "committed": 0}
    return {
        "generated": snapshot.counter_sum("gdo_candidates_generated"),
        "static_proved": snapshot.counter_sum("gdo_static_proved"),
        "static_refuted": snapshot.counter_sum("gdo_static_refuted"),
        "to_bpfs": snapshot.counter_sum("gdo_to_bpfs"),
        "bpfs_survived": snapshot.counter_sum("gdo_bpfs_survived"),
        "proved": snapshot.counter_sum("gdo_proved"),
        "committed": snapshot.counter_sum("gdo_committed"),
    }


def gdo_entry(result, key: Optional[str] = None) -> dict:
    """One ``BENCH_gdo.json`` trajectory entry for a finished run."""
    s = result.stats
    snapshot = s.obs
    spans = snapshot.spans if snapshot is not None else {}
    p = s.proof
    entry = {
        "key": key if key is not None else git_sha(),
        "circuit": result.net.name,
        "delay_before": s.delay_before,
        "delay_after": s.delay_after,
        "area_before": s.area_before,
        "area_after": s.area_after,
        "mods": len(s.history),
        "rounds": s.rounds,
        "seconds": s.cpu_seconds,
        "phase_seconds": dict(s.phase_seconds),
        "hot_spans": [
            {"name": name, "count": count, "wall_s": wall}
            for name, count, wall, _cpu in hot_spans(spans, top=8)
        ],
        "broker": {
            "dispatched": p.dispatched,
            "cache_hits": p.cache_hits,
            "cache_misses": p.cache_misses,
            "hit_rate": p.hit_rate,
            "sim_invalid": p.sim_invalid,
        },
        "funnel": funnel_counts(snapshot),
    }
    validate_gdo_entry(entry)
    return entry


def bench_entry(key: Optional[str] = None, **fields) -> dict:
    """A free-form keyed entry for non-GDO bench files
    (``BENCH_engines.json``, ``BENCH_proof.json``)."""
    entry = {"key": key if key is not None else git_sha()}
    entry.update(fields)
    validate_bench_entry(entry)
    return entry


# ----------------------------------------------------------------------
# schema validation
# ----------------------------------------------------------------------
_GDO_FIELDS = {
    "key": str, "circuit": str,
    "delay_before": (int, float), "delay_after": (int, float),
    "area_before": (int, float), "area_after": (int, float),
    "mods": int, "rounds": int, "seconds": (int, float),
    "phase_seconds": dict, "hot_spans": list,
    "broker": dict, "funnel": dict,
}
_BROKER_FIELDS = ("dispatched", "cache_hits", "cache_misses", "hit_rate",
                  "sim_invalid")
_FUNNEL_FIELDS = ("generated", "static_proved", "static_refuted",
                  "to_bpfs", "bpfs_survived", "proved", "committed")


def validate_bench_entry(entry: dict) -> None:
    if not isinstance(entry, dict):
        raise ExportSchemaError(f"entry is not an object: {entry!r}")
    if not isinstance(entry.get("key"), str) or not entry["key"]:
        raise ExportSchemaError(f"entry lacks a string key: {entry!r}")


_SERVICE_FIELDS = {
    "key": str, "jobs": dict,
    "jobs_per_sec": (int, float), "queue_depth": int,
    "cross_client_hit_rate": (int, float),
    "cross_client_hits": int, "store_misses": int,
}


def validate_service_entry(entry: dict) -> None:
    """Raise :class:`ExportSchemaError` unless ``entry`` matches the
    ``BENCH_service.json`` schema (service-level job/store metrics)."""
    validate_bench_entry(entry)
    for field, types in _SERVICE_FIELDS.items():
        if field not in entry:
            raise ExportSchemaError(f"service entry missing {field!r}")
        if not isinstance(entry[field], types):
            raise ExportSchemaError(
                f"service entry field {field!r} has type "
                f"{type(entry[field]).__name__}")
    rate = entry["cross_client_hit_rate"]
    if not 0.0 <= rate <= 1.0:
        raise ExportSchemaError(
            f"cross_client_hit_rate {rate!r} outside [0, 1]")
    for state, count in entry["jobs"].items():
        if not isinstance(state, str) or not isinstance(count, int):
            raise ExportSchemaError(
                f"service entry jobs has malformed item "
                f"{state!r}: {count!r}")


_CHAOS_FIELDS = {
    "key": str, "seed": int, "jobs": int, "jobs_done": int,
    "deadlettered": int, "fault_activations": int,
    "fires_by_point": dict,
    "baseline_seconds": (int, float), "chaos_seconds": (int, float),
    "inflation": (int, float),
    "watchdog_kills": int, "respawns": int,
    "equivalence_checked": int, "replay_verified": bool,
}


def validate_chaos_entry(entry: dict) -> None:
    """Raise :class:`ExportSchemaError` unless ``entry`` matches the
    ``BENCH_chaos.json`` schema (chaos-soak acceptance metrics)."""
    validate_bench_entry(entry)
    for field, types in _CHAOS_FIELDS.items():
        if field not in entry:
            raise ExportSchemaError(f"chaos entry missing {field!r}")
        if not isinstance(entry[field], types):
            raise ExportSchemaError(
                f"chaos entry field {field!r} has type "
                f"{type(entry[field]).__name__}")
    if entry["jobs_done"] != entry["jobs"] or entry["deadlettered"]:
        raise ExportSchemaError(
            "chaos entry records lost jobs: "
            f"{entry['jobs_done']}/{entry['jobs']} done, "
            f"{entry['deadlettered']} dead-lettered")
    for point, fires in entry["fires_by_point"].items():
        if not isinstance(point, str) or not isinstance(fires, int):
            raise ExportSchemaError(
                f"chaos entry fires_by_point has malformed item "
                f"{point!r}: {fires!r}")


def validate_gdo_entry(entry: dict) -> None:
    """Raise :class:`ExportSchemaError` unless ``entry`` matches the
    GDO trajectory schema."""
    validate_bench_entry(entry)
    for field, types in _GDO_FIELDS.items():
        if field not in entry:
            raise ExportSchemaError(f"gdo entry missing {field!r}")
        if not isinstance(entry[field], types):
            raise ExportSchemaError(
                f"gdo entry field {field!r} has type "
                f"{type(entry[field]).__name__}")
    for field in _BROKER_FIELDS:
        if field not in entry["broker"]:
            raise ExportSchemaError(f"gdo entry broker missing {field!r}")
    for field in _FUNNEL_FIELDS:
        if field not in entry["funnel"]:
            raise ExportSchemaError(f"gdo entry funnel missing {field!r}")
    for span in entry["hot_spans"]:
        if not isinstance(span, dict) or "name" not in span \
                or "wall_s" not in span:
            raise ExportSchemaError(f"malformed hot span {span!r}")


# ----------------------------------------------------------------------
# append/merge
# ----------------------------------------------------------------------
def _entry_key(entry: dict, key_fields: Sequence[str]) -> Tuple:
    return tuple(entry.get(f) for f in key_fields)


def load_bench(path: str) -> List[dict]:
    """The entries of one BENCH file (empty when absent/corrupt)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError):
        return []
    if isinstance(data, dict):
        entries = data.get("entries", [])
    else:  # tolerate a bare list
        entries = data
    return [e for e in entries if isinstance(e, dict)]


def append_bench(
    path: str,
    entry: dict,
    key_fields: Sequence[str] = ("key", "circuit"),
) -> List[dict]:
    """Append ``entry`` to the BENCH file at ``path``, replacing any
    existing entry with the same ``key_fields`` tuple.  Returns the
    written entry list."""
    validate_bench_entry(entry)
    entries = load_bench(path)
    ident = _entry_key(entry, key_fields)
    entries = [
        e for e in entries if _entry_key(e, key_fields) != ident
    ]
    entries.append(entry)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"entries": entries}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return entries


def export_gdo(result, path: str = "BENCH_gdo.json",
               key: Optional[str] = None) -> dict:
    """Build, validate, and append one GDO trajectory entry; the
    written entry is returned for reporting/tests."""
    entry = gdo_entry(result, key=key)
    append_bench(path, entry, key_fields=("key", "circuit"))
    return entry
