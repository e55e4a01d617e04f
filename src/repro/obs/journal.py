"""Append-only JSONL run journals for GDO.

A :class:`RunJournal` records the complete decision trail of one
optimizer run — every candidate trial, BPFS refutation, proof verdict
(with obligation hash and cache hit/miss), and committed modification —
one JSON object per line, enough to post-mortem or replay a run.

Determinism contract (asserted by
``tests/opt/test_obs_integration.py``): records carry **no timestamps**
— ordering is the monotonic ``seq`` id — and every latency-ish field a
record may carry is listed in :data:`VOLATILE_FIELDS`, so two runs that
make the same decisions produce journals identical modulo those fields
(``proof_workers=1`` vs ``N``, incremental vs scratch engines).

Records are validated against :data:`RECORD_SCHEMA` both on write (in
debug validation mode) and by :func:`validate_journal` after a load.
"""

from __future__ import annotations

import io
import json
import os
import signal
from typing import Dict, Iterable, List, Optional, Tuple

from ..faults import fault_arg, register_point

#: fault point: SIGKILL the process mid-journal-append (``arg > 0``
#: first writes a torn partial line, as a crash mid-write would leave)
FP_JOURNAL_CRASH = register_point(
    "journal.record.crash",
    "SIGKILL while appending a journal record (arg>0: torn line first)")

#: fields whose values may differ between byte-identical decision
#: sequences (scheduling, caching, wall clock); comparisons strip them
VOLATILE_FIELDS = frozenset({"wall_ms", "cache_hit", "batched"})

#: required fields per record type (beyond the envelope ``seq``/``type``)
RECORD_SCHEMA: Dict[str, frozenset] = {
    "run_begin": frozenset({"circuit", "gates", "seed", "n_words"}),
    "phase_begin": frozenset({"phase", "round"}),
    "trial": frozenset({"phase", "kind", "desc"}),
    # Trial edit forced a from-scratch timing recompute
    # (dirty_fraction).  Classified from the edit's dirty set alone, so
    # the record appears identically under every worker count.
    "sta_scratch": frozenset({"cause", "dirty"}),
    # Trial edit touched a PI fanout cone root — handled in-cone by the
    # incremental sweep, journaled so the trigger is no longer silent.
    "sta_pi_root": frozenset({"dirty"}),
    "static": frozenset({"desc", "verdict"}),
    "refute": frozenset({"desc", "refuted"}),
    "verdict": frozenset({"obligation", "verdict"}),
    "reject": frozenset({"desc", "reason"}),
    "commit": frozenset({"phase", "kind", "desc",
                         "delay_after", "area_after"}),
    "run_end": frozenset({"delay_after", "area_after",
                          "mods", "rounds"}),
    # --- partitioned parallel GDO (repro.partition, DESIGN.md §12) ---
    # Scheduling-independent by construction: the partition plan is a
    # pure function of (netlist, config) and regions are journaled in
    # canonical index order, never worker/completion order, so
    # workers=1 and workers=N journals are identical.
    "partition_begin": frozenset({"regions", "gates", "cones",
                                  "cut_edges"}),
    "region": frozenset({"region", "round", "gates", "halo",
                         "exports"}),
    "region_result": frozenset({"region", "round", "commits",
                                "delay_after"}),
    "region_merge": frozenset({"region", "round", "modified"}),
    "region_reject": frozenset({"region", "round", "overlap", "reason"}),
    "region_requeue": frozenset({"region", "round"}),
    "partition_end": frozenset({"rounds", "merged", "rejected"}),
}


class JournalSchemaError(ValueError):
    """A record violates :data:`RECORD_SCHEMA` or the seq contract."""


#: record types whose on-disk line is fsync'd before ``record`` returns
#: — crash recovery resumes from the last *committed* substitution, so
#: commits (and the run envelope) must survive a SIGKILL.
DURABLE_TYPES = frozenset({"commit", "run_begin", "run_end"})

#: fault-injection hook (crash-recovery tests): ``"commit:2"`` SIGKILLs
#: the process right after the 2nd commit record reaches disk;
#: ``"commit:2:partial"`` first appends a torn half-record so the loader
#: sees a mid-append crash.  Parsed once per journal; unset = disabled.
CRASH_ENV = "REPRO_CRASH_AFTER"


def _parse_crash_hook(value: Optional[str]):
    if not value:
        return None
    parts = value.split(":")
    if len(parts) < 2:
        return None
    try:
        return parts[0], int(parts[1]), (len(parts) > 2 and
                                         parts[2] == "partial")
    except ValueError:
        return None


class RunJournal:
    """Append-only journal; in-memory always, JSONL on disk if ``path``.

    ``record`` assigns the next ``seq`` and validates the record against
    the schema; disk writes are line-buffered JSON with sorted keys, so
    journals are diffable and the file is valid JSONL even mid-run.
    Records in :data:`DURABLE_TYPES` are additionally fsync'd — the
    service's crash recovery depends on every committed modification
    being on disk before the optimizer proceeds.
    """

    enabled = True

    def __init__(self, path: Optional[str] = None):
        self.path = path
        self.records: List[dict] = []
        self._fh: Optional[io.TextIOBase] = None
        self._crash = _parse_crash_hook(os.environ.get(CRASH_ENV))
        self._crash_seen = 0
        if path is not None:
            self._fh = open(path, "w", encoding="utf-8", buffering=1)

    # ------------------------------------------------------------------
    def record(self, rectype: str, **fields) -> dict:
        rec = {"seq": len(self.records), "type": rectype}
        rec.update(fields)
        validate_record(rec)
        self.records.append(rec)
        if self._fh is not None:
            self._fh.write(json.dumps(rec, sort_keys=True) + "\n")
            if rectype in DURABLE_TYPES:
                self._fh.flush()
                os.fsync(self._fh.fileno())
        if self._crash is not None:
            self._crash_tick(rectype)
        arg = fault_arg(FP_JOURNAL_CRASH)
        if arg is not None:
            self._die(torn=arg > 0)
        return rec

    def _crash_tick(self, rectype: str) -> None:
        """Fault injection: die by SIGKILL after the Nth ``rectype``."""
        crash_type, crash_count, partial = self._crash
        if rectype != crash_type:
            return
        self._crash_seen += 1
        if self._crash_seen < crash_count:
            return
        self._die(torn=partial)

    def _die(self, torn: bool) -> None:
        """SIGKILL this process, optionally leaving a torn final line —
        the shared exit of the ``REPRO_CRASH_AFTER`` hook and the
        ``journal.record.crash`` fault point."""
        if self._fh is not None:
            if torn:
                # A torn final line, as a crash mid-append would leave.
                self._fh.write('{"seq": 999999, "type": "tri')
            self._fh.flush()
            os.fsync(self._fh.fileno())
        os.kill(os.getpid(), signal.SIGKILL)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


class NullJournal:
    """No-op journal for disabled observability."""

    enabled = False
    path = None
    records: List[dict] = []

    def record(self, rectype: str, **fields) -> None:
        return None

    def close(self) -> None:
        pass


NULL_JOURNAL = NullJournal()


# ----------------------------------------------------------------------
# schema validation / loading / comparison
# ----------------------------------------------------------------------
def validate_record(rec: dict) -> None:
    """Raise :class:`JournalSchemaError` unless ``rec`` is well-formed."""
    if not isinstance(rec.get("seq"), int) or rec["seq"] < 0:
        raise JournalSchemaError(f"bad seq in {rec!r}")
    rectype = rec.get("type")
    required = RECORD_SCHEMA.get(rectype)
    if required is None:
        raise JournalSchemaError(f"unknown record type {rectype!r}")
    missing = required - rec.keys()
    if missing:
        raise JournalSchemaError(
            f"{rectype} record missing fields {sorted(missing)}: {rec!r}")


def validate_journal(records: Iterable[dict]) -> None:
    """Validate every record and the monotonic-seq envelope."""
    for i, rec in enumerate(records):
        validate_record(rec)
        if rec["seq"] != i:
            raise JournalSchemaError(
                f"seq gap: record {i} carries seq {rec['seq']}")


def load_journal(path: str) -> List[dict]:
    """Parse a JSONL journal file (no validation — see
    :func:`validate_journal`)."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def load_journal_tolerant(path: str) -> Tuple[List[dict], int]:
    """Parse a journal that may end in a torn line (crash mid-append).

    Returns ``(records, dropped)`` where ``dropped`` counts unparseable
    *trailing* lines discarded (0 for a clean journal).  Only the final
    line may be torn — an unparseable line followed by a parseable one
    means real corruption, which still raises, exactly like
    :func:`load_journal`.  Crash recovery loads journals through this:
    the valid prefix is the resumable decision trail.
    """
    raw: List[str] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                raw.append(line)
    records: List[dict] = []
    for i, line in enumerate(raw):
        try:
            records.append(json.loads(line))
        except ValueError as exc:
            if i == len(raw) - 1:
                return records, 1
            raise ValueError(
                f"{path}: corrupt journal record at line {i + 1} "
                f"(not a torn tail)") from exc
    return records, 0


def strip_volatile(records: Iterable[dict]) -> List[dict]:
    """Copies of ``records`` without :data:`VOLATILE_FIELDS` — the
    comparable form for determinism regressions."""
    return [
        {k: v for k, v in rec.items() if k not in VOLATILE_FIELDS}
        for rec in records
    ]


# ----------------------------------------------------------------------
# service event log
# ----------------------------------------------------------------------
class EventLog:
    """Multi-process append-only JSONL event log (the service trail).

    Unlike :class:`RunJournal` this is *not* a determinism artifact:
    workers, the supervisor, and the daemon all append to one file, so
    events interleave by wall-clock scheduling.  Each ``emit`` is a
    single whole-line ``write(2)`` on an ``O_APPEND`` fd — the same
    discipline as the verdict store's segments — so concurrent writers
    never interleave bytes, and a killed writer leaves at most one torn
    tail line, which :func:`load_events` skips.  ``seq`` restarts per
    process; ``pid`` disambiguates.
    """

    def __init__(self, path: str, fsync: bool = False):
        self.path = path
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._fsync = fsync
        self._seq = 0
        self._fd: Optional[int] = os.open(
            path, os.O_APPEND | os.O_CREAT | os.O_WRONLY, 0o644)

    def emit(self, etype: str, **fields) -> dict:
        """Append one event; returns the record written."""
        rec = {"type": etype, "pid": os.getpid(), "seq": self._seq}
        rec.update(fields)
        self._seq += 1
        if self._fd is not None:
            os.write(self._fd,
                     (json.dumps(rec, sort_keys=True) + "\n").encode())
            if self._fsync:
                os.fsync(self._fd)
        return rec

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


def load_events(path: str) -> Tuple[List[dict], int]:
    """Parse an event log; returns ``(events, dropped)``.

    Tolerant by design — any unparseable line (torn tail of a killed
    writer) is counted and skipped, never raised: the event log is an
    operational trail, not a replay oracle.
    """
    events: List[dict] = []
    dropped = 0
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except ValueError:
                    dropped += 1
                    continue
                if isinstance(rec, dict):
                    events.append(rec)
                else:
                    dropped += 1
    except OSError:
        return [], 0
    return events, dropped


def event_counts(events: Iterable[dict]) -> Dict[str, int]:
    """``{event type: count}`` — the stats-surface rollup."""
    counts: Dict[str, int] = {}
    for rec in events:
        etype = str(rec.get("type"))
        counts[etype] = counts.get(etype, 0) + 1
    return dict(sorted(counts.items()))
