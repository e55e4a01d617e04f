"""Sharded persistent verdict store shared by every service worker.

This is the one persistent verdict store: GDO runs reach it through
``GdoConfig.proof_store_path``, and the optimization service points
every worker at one root.  It is laid out for concurrent writers::

    <root>/
      shards/<prefix>/base.json                   # compacted snapshot
      shards/<prefix>/seg-<pid>-<token>.open.jsonl  # live writer segment
      shards/<prefix>/seg-<pid>-<token>.jsonl       # sealed segment

* **sharding** — verdicts land in the shard named by the first
  ``prefix_len`` hex digits of their obligation hash.  Obligation hashes
  are uniform, so shards stay balanced, and every shard is an
  independent unit of append, merge, and compaction (the hash-prefix
  clustering layout motivated by Donovan et al., PAPERS.md).
* **append** — each writer appends one JSON line per verdict to its own
  per-process segment file opened ``O_APPEND``; whole-line writes from
  distinct writers never interleave, so *no verdict is ever lost* to
  concurrency.  ``flush`` fsyncs each dirty shard fd once (the
  per-shard fsync discipline).
* **read-side merge** — a shard's view is ``base.json`` plus every
  segment, sealed *and* open.  Verdicts are pure functions of their key
  and only definitive verdicts are stored, so merge order is
  irrelevant: duplicate keys always agree.  Readers tail segments
  incrementally (byte offsets per file), making another client's fresh
  verdicts visible at the next refresh without re-reading the store.
* **compaction** — folds sealed segments into ``base.json``
  (tmp + rename, atomic) and unlinks them.  Readers list segments
  *before* reading the base, so a concurrent compaction can only move
  entries from files the reader has already consumed into a base it is
  about to read — never hide them.  Open segments whose writer pid is
  dead (SIGKILL'd worker) are sealed first, so crashes leak nothing.
"""

from __future__ import annotations

import json
import os
import uuid
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..faults import fault, register_point
from ..proof.backends import INVALID, VALID
from ..proof.cache import ProofCache

_HEX = "0123456789abcdef"

#: fault points of the store's write path (DESIGN.md §11)
FP_APPEND_TORN = register_point(
    "store.append.torn",
    "segment append writes only a partial line (torn write; the "
    "writer believes it succeeded)")
FP_APPEND_ERROR = register_point(
    "store.append.error",
    "segment append fails with OSError (full disk, dead mount)")
FP_FSYNC_ERROR = register_point(
    "store.fsync.error",
    "shard fsync fails with OSError (write-back error)")


class StoreError(RuntimeError):
    """The store root is unusable (bad layout or parameters)."""


def shard_of(key: str, prefix_len: int) -> str:
    """The shard name holding ``key`` (hash-prefix, lower-cased)."""
    prefix = key[:prefix_len].lower()
    if len(prefix) < prefix_len or any(c not in _HEX for c in prefix):
        # Non-hex or short keys (tests, sentinel keys) share one shard.
        return "_" * prefix_len
    return prefix


def _segment_pid(name: str) -> Optional[int]:
    """Writer pid encoded in a segment file name, if parseable."""
    parts = name.split("-")
    if len(parts) >= 3 and parts[0] == "seg":
        try:
            return int(parts[1])
        except ValueError:
            return None
    return None


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, not ours
        return True
    except OSError:  # pragma: no cover - conservative
        return True
    return True


@dataclass
class CompactionStats:
    """What one :meth:`ShardedVerdictStore.compact` pass did."""

    shards: int = 0
    segments_folded: int = 0
    orphans_sealed: int = 0
    entries: int = 0
    torn_lines_dropped: int = 0
    retired: int = 0           # verdicts dropped by the GC policy


@dataclass
class _ShardView:
    """Reader-side state of one shard: merged dict + tail offsets."""

    entries: Dict[str, str] = field(default_factory=dict)
    offsets: Dict[str, int] = field(default_factory=dict)
    base_stat: Optional[Tuple[int, int]] = None  # (st_ino, st_size)


class ShardedVerdictStore:
    """Append-only, hash-prefix-sharded store of definitive verdicts.

    One instance per process; many instances (across processes and
    hosts sharing a filesystem) may point at the same ``root``.
    """

    def __init__(self, root: str, prefix_len: int = 1,
                 fsync_interval: int = 64,
                 degrade_after: int = 4, probe_interval: int = 32,
                 on_event: Optional[Callable[[str, dict], None]] = None,
                 gc_max_generations: Optional[int] = None,
                 gc_max_entries: Optional[int] = None):
        if not 1 <= prefix_len <= 4:
            raise StoreError(f"prefix_len {prefix_len} not in 1..4")
        if gc_max_generations is not None and gc_max_generations < 1:
            raise StoreError("gc_max_generations must be >= 1")
        if gc_max_entries is not None and gc_max_entries < 1:
            raise StoreError("gc_max_entries must be >= 1")
        self.root = root
        self.prefix_len = prefix_len
        self.fsync_interval = max(1, fsync_interval)
        self.shards_dir = os.path.join(root, "shards")
        os.makedirs(self.shards_dir, exist_ok=True)
        self._token = uuid.uuid4().hex[:8]
        self._write_fds: Dict[str, int] = {}       # shard -> fd
        self._write_paths: Dict[str, str] = {}     # shard -> open path
        self._unsynced: Dict[str, int] = {}        # shard -> appends
        self._views: Dict[str, _ShardView] = {}
        self.appends = 0
        # --- degradation ladder (DESIGN.md §11) -----------------------
        # After ``degrade_after`` *consecutive* write/fsync failures the
        # store turns read-only: appends land in a local in-memory
        # overlay (this process keeps its verdicts; nothing shared).
        # Every ``probe_interval`` overlay appends a re-promotion is
        # probed — on success the overlay is flushed to disk and the
        # store is read-write again.
        self.degrade_after = max(1, degrade_after)
        self.probe_interval = max(1, probe_interval)
        self.on_event = on_event
        self.read_only = False
        self._overlay: Dict[str, str] = {}
        self._consecutive_failures = 0
        self._since_probe = 0
        self.write_errors = 0      # total failed writes/fsyncs
        self.degradations = 0      # read-write -> read-only transitions
        self.repromotions = 0      # read-only -> read-write transitions
        # --- GC policy (age/size-bounded retirement) ------------------
        # Verdicts are pure and re-provable, so the store may retire
        # them: compaction stamps every key with the generation that
        # first folded it into the base, and drops keys older than
        # ``gc_max_generations`` compactions or beyond the
        # ``gc_max_entries`` per-shard size bound (oldest first).
        # ``None`` (the defaults) = keep everything.
        self.gc_max_generations = gc_max_generations
        self.gc_max_entries = gc_max_entries
        self.retired = 0           # cumulative GC-retired verdicts

    # ------------------------------------------------------------------
    # write side
    # ------------------------------------------------------------------
    def append(self, key: str, verdict: str) -> bool:
        """Durably queue one definitive verdict; returns True if written.

        Non-definitive verdicts are refused (budget-relative, not
        shareable).  The line reaches the OS immediately via a single
        ``write(2)`` on an ``O_APPEND`` fd — atomic with respect to
        every other writer of the shard directory.

        Never raises on I/O failure: a failed write keeps the verdict
        in the local overlay (reads still see it) and returns False;
        persistent failure degrades the store to read-only until a
        probe write succeeds again.
        """
        if verdict not in (VALID, INVALID):
            return False
        shard = shard_of(key, self.prefix_len)
        # Keep our own view current regardless of disk outcome.
        self._view(shard).entries.setdefault(key, verdict)
        if self.read_only:
            self._overlay.setdefault(key, verdict)
            self._since_probe += 1
            if self._since_probe >= self.probe_interval:
                self._since_probe = 0
                return self._try_repromote()
            return False
        if self._append_disk(shard, key, verdict):
            self.appends += 1
            self._consecutive_failures = 0
            return True
        self._write_failed(key, verdict)
        return False

    def _append_disk(self, shard: str, key: str, verdict: str) -> bool:
        """One segment append; False (never an exception) on failure."""
        line = json.dumps({"k": key, "v": verdict}) + "\n"
        data = line.encode("utf-8")
        try:
            fd = self._shard_fd(shard)
            if fault(FP_APPEND_TORN):
                # Torn write: a prefix lands, no newline — readers and
                # compaction drop it; the writer believes it succeeded.
                os.write(fd, data[: max(1, len(data) // 2)])
                return True
            if fault(FP_APPEND_ERROR):
                raise OSError("injected append failure")
            os.write(fd, data)
        except OSError:
            return False
        self._unsynced[shard] = self._unsynced.get(shard, 0) + 1
        if self._unsynced[shard] >= self.fsync_interval:
            self._fsync_shard(shard, fd)
        return True

    def _fsync_shard(self, shard: str, fd: int) -> None:
        try:
            if fault(FP_FSYNC_ERROR):
                raise OSError("injected fsync failure")
            os.fsync(fd)
            self._unsynced[shard] = 0
        except OSError:
            self._write_failed()

    def _write_failed(self, key: Optional[str] = None,
                      verdict: Optional[str] = None) -> None:
        self.write_errors += 1
        self._consecutive_failures += 1
        if key is not None and verdict is not None:
            self._overlay.setdefault(key, verdict)
        if (not self.read_only
                and self._consecutive_failures >= self.degrade_after):
            self.read_only = True
            self.degradations += 1
            self._since_probe = 0
            self._emit("store_degraded",
                       consecutive_failures=self._consecutive_failures,
                       overlay=len(self._overlay))

    def _try_repromote(self) -> bool:
        """Probe the write path; on success flush the overlay and leave
        read-only mode.  Any failure keeps the store degraded."""
        for key, verdict in list(self._overlay.items()):
            shard = shard_of(key, self.prefix_len)
            if not self._append_disk(shard, key, verdict):
                self.write_errors += 1
                return False
            del self._overlay[key]
            self.appends += 1
        self.read_only = False
        self._consecutive_failures = 0
        self.repromotions += 1
        self._emit("store_repromoted", flushed=self.appends)
        return True

    def _emit(self, etype: str, **fields) -> None:
        if self.on_event is not None:
            try:
                self.on_event(etype, fields)
            except Exception:  # pragma: no cover - observer must not kill
                pass

    def _shard_fd(self, shard: str) -> int:
        fd = self._write_fds.get(shard)
        if fd is not None:
            return fd
        shard_dir = os.path.join(self.shards_dir, shard)
        os.makedirs(shard_dir, exist_ok=True)
        name = f"seg-{os.getpid()}-{self._token}.open.jsonl"
        path = os.path.join(shard_dir, name)
        fd = os.open(path, os.O_APPEND | os.O_CREAT | os.O_WRONLY, 0o644)
        self._write_fds[shard] = fd
        self._write_paths[shard] = path
        self._unsynced[shard] = 0
        return fd

    def flush(self) -> None:
        """fsync every shard fd with unsynced appends."""
        for shard, fd in list(self._write_fds.items()):
            if self._unsynced.get(shard):
                self._fsync_shard(shard, fd)

    def seal(self) -> None:
        """Close this writer's segments and mark them compactable
        (``.open.jsonl`` → ``.jsonl``).  A degraded store gets one
        last re-promotion attempt so overlay verdicts are not lost if
        the write path recovered."""
        if self.read_only:
            self._try_repromote()
        self.flush()
        for shard, fd in list(self._write_fds.items()):
            os.close(fd)
            path = self._write_paths[shard]
            sealed = path[: -len(".open.jsonl")] + ".jsonl"
            try:
                os.replace(path, sealed)
            except OSError:  # pragma: no cover - concurrent cleanup
                pass
            del self._write_fds[shard]
            del self._write_paths[shard]
        self._unsynced.clear()

    close = seal

    def __enter__(self) -> "ShardedVerdictStore":
        return self

    def __exit__(self, *exc) -> bool:
        self.seal()
        return False

    # ------------------------------------------------------------------
    # read side
    # ------------------------------------------------------------------
    def get(self, key: str, refresh: bool = False) -> Optional[str]:
        """The stored verdict for ``key`` (``None`` on a miss).

        ``refresh=True`` re-tails the key's shard first, picking up
        verdicts other processes appended since the last look — the
        read path of cross-client cache sharing.
        """
        shard = shard_of(key, self.prefix_len)
        view = self._view(shard)
        verdict = view.entries.get(key)
        if verdict is None and refresh:
            self.refresh(shard)
            verdict = view.entries.get(key)
        return verdict

    def load(self) -> Dict[str, str]:
        """Refresh every shard and return the merged verdict dict."""
        merged: Dict[str, str] = {}
        for shard in self._list_shards():
            self.refresh(shard)
            merged.update(self._views[shard].entries)
        return merged

    def __len__(self) -> int:
        return len(self.load())

    def refresh(self, shard: str) -> None:
        """Fold new on-disk bytes of one shard into its view.

        Segments are read before the base (see the module docstring for
        why that order survives a concurrent compaction); each segment
        is tailed from its last consumed offset, so a refresh after N
        appended verdicts costs O(N), not O(shard).
        """
        view = self._view(shard)
        shard_dir = os.path.join(self.shards_dir, shard)
        try:
            names = sorted(os.listdir(shard_dir))
        except OSError:
            return
        segments = [n for n in names if n.startswith("seg-")
                    and n.endswith(".jsonl")]
        for name in segments:
            self._tail_segment(view, os.path.join(shard_dir, name), name)
        # Forget offsets of segments compaction removed — their entries
        # are in the base we are about to (re)read.
        gone = set(view.offsets) - set(segments)
        for name in gone:
            del view.offsets[name]
        base = os.path.join(shard_dir, "base.json")
        try:
            st = os.stat(base)
        except OSError:
            return
        stamp = (st.st_ino, st.st_size)
        if stamp != view.base_stat:
            for k, v in _read_base(base).items():
                view.entries.setdefault(k, v)
            view.base_stat = stamp

    def _tail_segment(self, view: _ShardView, path: str,
                      name: str) -> None:
        offset = view.offsets.get(name, 0)
        try:
            with open(path, "rb") as fh:
                fh.seek(offset)
                data = fh.read()
        except OSError:
            return
        if not data:
            return
        # Consume only whole lines; a torn tail (writer mid-append or
        # crashed) is retried at the next refresh / dropped by compact.
        cut = data.rfind(b"\n")
        if cut < 0:
            return
        for line in data[: cut + 1].splitlines():
            entry = _parse_segment_line(line)
            if entry is not None:
                view.entries.setdefault(*entry)
        view.offsets[name] = offset + cut + 1

    def _view(self, shard: str) -> _ShardView:
        view = self._views.get(shard)
        if view is None:
            view = self._views[shard] = _ShardView()
        return view

    def _list_shards(self) -> List[str]:
        try:
            return sorted(
                n for n in os.listdir(self.shards_dir)
                if os.path.isdir(os.path.join(self.shards_dir, n))
            )
        except OSError:
            return []

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def compact(self, reclaim_orphans: bool = True) -> CompactionStats:
        """Fold sealed segments into each shard's base snapshot.

        Safe under concurrent readers and writers: only sealed segments
        are folded (live writers own ``.open`` files), the base is
        replaced atomically, and folded segments are unlinked only
        after the new base is in place.  ``reclaim_orphans`` first
        seals ``.open`` segments whose writer pid is gone.

        Each fold advances the shard's **generation** and stamps
        newly-folded keys with it (recorded under a ``"__meta__"`` key
        older readers transparently ignore).  When the GC bounds are
        set, verdicts whose stamp fell out of the ``gc_max_generations``
        window — or beyond the ``gc_max_entries`` size bound, oldest
        first — are retired from the base: dropping a verdict only
        costs a future re-prove, never correctness.
        """
        stats = CompactionStats()
        for shard in self._list_shards():
            shard_dir = os.path.join(self.shards_dir, shard)
            if reclaim_orphans:
                stats.orphans_sealed += _seal_orphans(shard_dir)
            try:
                names = sorted(os.listdir(shard_dir))
            except OSError:
                continue
            sealed = [
                n for n in names
                if n.startswith("seg-") and n.endswith(".jsonl")
                and not n.endswith(".open.jsonl")
            ]
            base = os.path.join(shard_dir, "base.json")
            merged = _read_base(base)
            if not sealed:
                if merged:
                    stats.shards += 1
                    stats.entries += len(merged)
                continue
            stamps, generation = _read_base_meta(base)
            generation += 1
            for name in sealed:
                entries, torn = _read_segment(
                    os.path.join(shard_dir, name))
                for key in entries:
                    if key not in merged:
                        stamps[key] = generation
                merged.update(entries)
                stats.torn_lines_dropped += torn
            stamps = {k: g for k, g in stamps.items() if k in merged}
            retired = self._gc_keys(merged, stamps, generation)
            for key in retired:
                merged.pop(key, None)
                stamps.pop(key, None)
            stats.retired += len(retired)
            self.retired += len(retired)
            snapshot = dict(merged)
            snapshot["__meta__"] = {"generation": generation,
                                    "stamps": stamps}
            tmp = base + f".tmp-{os.getpid()}-{self._token}"
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(snapshot, fh, sort_keys=True)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, base)
            for name in sealed:
                try:
                    os.unlink(os.path.join(shard_dir, name))
                except OSError:  # pragma: no cover - racing compactor
                    pass
            stats.shards += 1
            stats.segments_folded += len(sealed)
            stats.entries += len(merged)
        return stats

    def _gc_keys(self, merged: Dict[str, str], stamps: Dict[str, int],
                 generation: int) -> List[str]:
        """Keys the GC policy retires from one shard's merged view.

        Age first (stamped more than ``gc_max_generations`` folds ago
        — keys with no stamp, i.e. from a pre-GC base, count as oldest),
        then the size bound, evicting oldest-stamped keys (ties by key)
        until ``gc_max_entries`` survive.
        """
        retired: List[str] = []
        if self.gc_max_generations is not None:
            floor = generation - self.gc_max_generations
            retired.extend(k for k in merged
                           if stamps.get(k, 0) <= floor)
        if self.gc_max_entries is not None:
            dropped = set(retired)
            survivors = [k for k in merged if k not in dropped]
            excess = len(survivors) - self.gc_max_entries
            if excess > 0:
                survivors.sort(key=lambda k: (stamps.get(k, 0), k))
                retired.extend(survivors[:excess])
        return retired


def _seal_orphans(shard_dir: str) -> int:
    sealed = 0
    try:
        names = os.listdir(shard_dir)
    except OSError:
        return 0
    for name in names:
        if not name.endswith(".open.jsonl"):
            continue
        pid = _segment_pid(name)
        if pid is None or pid == os.getpid() or _pid_alive(pid):
            continue
        path = os.path.join(shard_dir, name)
        target = path[: -len(".open.jsonl")] + ".jsonl"
        try:
            os.replace(path, target)
            sealed += 1
        except OSError:  # pragma: no cover - racing compactor
            pass
    return sealed


def _parse_segment_line(line: bytes) -> Optional[Tuple[str, str]]:
    line = line.strip()
    if not line:
        return None
    try:
        obj = json.loads(line)
    except ValueError:
        return None
    if not isinstance(obj, dict):
        return None
    key, verdict = obj.get("k"), obj.get("v")
    if isinstance(key, str) and verdict in (VALID, INVALID):
        return key, verdict
    return None


def _read_segment(path: str) -> Tuple[Dict[str, str], int]:
    entries: Dict[str, str] = {}
    torn = 0
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError:
        return entries, 0
    for line in data.splitlines():
        parsed = _parse_segment_line(line)
        if parsed is None:
            if line.strip():
                torn += 1
            continue
        entries.setdefault(*parsed)
    return entries, torn


def _read_base(path: str) -> Dict[str, str]:
    # Filtering to definitive verdict values also skips "__meta__" (the
    # GC bookkeeping, a dict) — so pre-GC readers and GC-aware bases
    # are compatible in both directions.
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError):
        return {}
    if not isinstance(data, dict):
        return {}
    return {k: v for k, v in data.items()
            if isinstance(k, str) and v in (VALID, INVALID)}


def _read_base_meta(path: str) -> Tuple[Dict[str, int], int]:
    """GC bookkeeping of a base snapshot: ``(stamps, generation)``.

    A base written before the GC policy existed has neither — its keys
    read as stamp 0 (oldest) at generation 0.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError):
        return {}, 0
    if not isinstance(data, dict):
        return {}, 0
    meta = data.get("__meta__")
    if not isinstance(meta, dict):
        return {}, 0
    generation = meta.get("generation")
    if not isinstance(generation, int) or generation < 0:
        generation = 0
    raw = meta.get("stamps")
    stamps: Dict[str, int] = {}
    if isinstance(raw, dict):
        stamps = {k: g for k, g in raw.items()
                  if isinstance(k, str) and isinstance(g, int)}
    return stamps, generation


# ----------------------------------------------------------------------
# broker adapter
# ----------------------------------------------------------------------
class ShardedProofCache(ProofCache):
    """The broker's :class:`~repro.proof.cache.ProofCache` LRU backed by
    a :class:`ShardedVerdictStore`.

    A miss in the LRU re-tails the key's shard, picking up verdicts
    other clients appended since the last look; definitive verdicts are
    appended to the store.  ``shared_hits`` counts gets served from the
    *store* — verdicts this process never computed, i.e. cross-client
    cache sharing — separately from in-memory LRU hits.
    """

    def __init__(self, store: ShardedVerdictStore,
                 max_entries: int = 4096):
        super().__init__(max_entries)
        self.store = store
        self.shared_hits = 0
        self.local_hits = 0
        self.misses = 0

    def get(self, key: str) -> Optional[str]:
        verdict = super().get(key)
        if verdict is not None:
            self.local_hits += 1
            return verdict
        verdict = self.store.get(key, refresh=True)
        if verdict is not None:
            self.shared_hits += 1
            super().put(key, verdict)
            return verdict
        self.misses += 1
        return None

    def put(self, key: str, verdict: str) -> None:
        super().put(key, verdict)
        self.store.append(key, verdict)  # refuses non-definitive

    @property
    def shared_hit_rate(self) -> float:
        """Fraction of proof-or-store decisions another client saved
        this one: store-served hits over store hits + real misses."""
        total = self.shared_hits + self.misses
        return self.shared_hits / total if total else 0.0

    def health(self) -> Dict[str, object]:
        """The store's degradation state, for job summaries/stats."""
        return {
            "read_only": self.store.read_only,
            "write_errors": self.store.write_errors,
            "degradations": self.store.degradations,
            "repromotions": self.store.repromotions,
            "overlay_entries": len(self.store._overlay),
            "retired": self.store.retired,
        }

    def compact(self, reclaim_orphans: bool = True) -> CompactionStats:
        """Fold-and-GC the backing store (see
        :meth:`ShardedVerdictStore.compact`)."""
        return self.store.compact(reclaim_orphans=reclaim_orphans)

    def flush(self) -> None:
        self.store.flush()

    def close(self) -> None:
        self.store.seal()
