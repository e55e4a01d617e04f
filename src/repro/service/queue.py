"""Filesystem-spooled job queue for the optimization service.

Every job is a directory under ``<root>/jobs/``::

    <root>/jobs/<job_id>/
      job.json          # the JobSpec: netlist text, format, overrides
      lease             # claim marker (O_EXCL-created JSON:
                        #   pid, start tick, token, created)
      journal.jsonl     # the run journal (written by the worker)
      attempts.jsonl    # durable retry ledger (start/error events)
      not_before        # retry backoff stamp (skip until this time)
      result.json       # terminal: summary of the finished run
      result.blif       # terminal: the optimized netlist
      error.json        # terminal: what went wrong

    <root>/deadletter/<job_id>/   # quarantined poison jobs

The spool *is* the durable state — there is no in-memory queue to lose.
Submission is a directory rename (tmp + ``os.replace``), claiming is an
``O_EXCL`` lease-file create, so any number of client and worker
processes can share one root without coordination beyond the
filesystem.  Crash recovery (:mod:`repro.service.recovery`) is a pure
function of this layout: a job with a journal but no ``result.json``
was interrupted; a lease naming a dead pid is stale.

Status model::

    queued -> running -> done | failed
                      -> deadlettered   (poison: retry budget spent)
"""

from __future__ import annotations

import fcntl
import json
import os
import tempfile
import time
import uuid
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..faults import fault, register_point

_ID_SAFE = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-")

#: fault points of the spool (DESIGN.md §11)
FP_LEASE_RACE = register_point(
    "queue.lease.race",
    "claim loses the lease race after winning it (another claimant "
    "appears to have taken the job)")
FP_SUBMIT_TORN = register_point(
    "queue.submit.torn",
    "submitter dies between staging and publish, leaving a stale "
    ".staging-* directory")

#: job states surfaced by :meth:`JobQueue.status`
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
DEADLETTERED = "deadlettered"


class QueueError(RuntimeError):
    """Malformed job spec or unusable queue root."""


@dataclass
class JobSpec:
    """What a client submits: one netlist plus how to optimize it.

    ``netlist`` is source text in ``fmt`` (any :data:`repro.io.FORMATS`
    entry); ``config`` holds :class:`~repro.opt.config.GdoConfig` field
    overrides by name (service-owned fields — observability, the store
    path — are set by the worker and rejected here).
    """

    netlist: str
    fmt: str = "blif"
    name: str = "job"
    library: str = "mcnc_like"
    config: Dict[str, object] = field(default_factory=dict)

    _FORBIDDEN = frozenset({"obs", "proof_store_path"})

    def validate(self) -> None:
        from ..io import FORMATS

        if not isinstance(self.netlist, str) or not self.netlist.strip():
            raise QueueError("job has no netlist text")
        if self.fmt not in FORMATS:
            raise QueueError(f"unknown netlist format {self.fmt!r}")
        if self.library not in ("mcnc_like", "unit"):
            raise QueueError(f"unknown library {self.library!r}")
        if not isinstance(self.config, dict):
            raise QueueError("config overrides must be an object")
        from ..opt.config import GdoConfig

        valid = {f for f in GdoConfig.__dataclass_fields__}
        for key in self.config:
            if key in self._FORBIDDEN:
                raise QueueError(
                    f"config override {key!r} is service-owned")
            if key not in valid:
                raise QueueError(f"unknown config override {key!r}")

    def to_json(self) -> dict:
        return {
            "netlist": self.netlist, "fmt": self.fmt, "name": self.name,
            "library": self.library, "config": dict(self.config),
        }

    @classmethod
    def from_json(cls, data: dict) -> "JobSpec":
        if not isinstance(data, dict):
            raise QueueError(f"job spec is not an object: {data!r}")
        spec = cls(
            netlist=data.get("netlist", ""),
            fmt=data.get("fmt", "blif"),
            name=str(data.get("name", "job")),
            library=data.get("library", "mcnc_like"),
            config=data.get("config", {}) or {},
        )
        spec.validate()
        return spec


@dataclass
class Job:
    """A claimed job: its id, directory, and parsed spec."""

    job_id: str
    path: str
    spec: JobSpec

    @property
    def journal_path(self) -> str:
        return os.path.join(self.path, "journal.jsonl")

    @property
    def result_path(self) -> str:
        return os.path.join(self.path, "result.json")

    @property
    def error_path(self) -> str:
        return os.path.join(self.path, "error.json")

    @property
    def lease_path(self) -> str:
        return os.path.join(self.path, "lease")

    @property
    def attempts_path(self) -> str:
        return os.path.join(self.path, "attempts.jsonl")

    @property
    def not_before_path(self) -> str:
        return os.path.join(self.path, "not_before")

    @property
    def faults_path(self) -> str:
        return os.path.join(self.path, "faults.jsonl")


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, not ours
        return True
    return True


def _proc_start(pid: int) -> Optional[int]:
    """The kernel's start tick of ``pid`` (Linux ``/proc``), or None.

    Field 22 of ``/proc/<pid>/stat``, read *after* the closing paren of
    the comm field (which may itself contain spaces/parens).  Two
    processes can share a pid only across a recycle, and a recycled pid
    gets a new start tick — so ``(pid, start)`` identifies a process
    where a bare pid does not.
    """
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            data = fh.read()
        fields = data[data.rindex(b")") + 2:].split()
        return int(fields[19])  # stat field 22, 0-indexed after comm
    except (OSError, ValueError, IndexError):
        return None


def _lease_payload() -> dict:
    pid = os.getpid()
    return {
        "pid": pid,
        "start": _proc_start(pid),
        "token": uuid.uuid4().hex[:8],
        "created": time.time(),
    }


def lease_live(info: Optional[dict],
               ttl: Optional[float] = None) -> bool:
    """Is the lease's claimant provably the process that took it?

    * pid dead → stale;
    * pid alive with a recorded start tick that no longer matches →
      the pid was recycled onto an unrelated process → stale;
    * pid alive, start tick unavailable (non-Linux or legacy lease) →
      trust liveness, unless ``ttl`` has expired — the TTL is the
      backstop that keeps reclaim safe when pid recycling cannot be
      ruled out.
    """
    if info is None:
        return False
    pid = info.get("pid")
    if not isinstance(pid, int) or not _pid_alive(pid):
        return False
    recorded = info.get("start")
    if recorded is not None:
        current = _proc_start(pid)
        if current is not None:
            return current == recorded
    if ttl is not None:
        created = info.get("created")
        if not isinstance(created, (int, float)) or \
                time.time() - created > ttl:
            return False
    return True


class JobQueue:
    """Shared filesystem spool of optimization jobs.

    Safe for concurrent submitters and workers: submission publishes a
    complete job directory atomically; :meth:`claim` takes per-job
    ``O_EXCL`` leases, so each job runs exactly once while its claimant
    lives.  ``tick`` orders claims (FIFO by submission counter).
    """

    def __init__(self, root: str):
        self.root = os.path.abspath(root)
        self.jobs_dir = os.path.join(self.root, "jobs")
        self.deadletter_dir = os.path.join(self.root, "deadletter")
        os.makedirs(self.jobs_dir, exist_ok=True)

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(self, spec: JobSpec) -> str:
        """Spool one job; returns its id.  The job directory appears
        atomically (staged in a tmp dir, published by rename)."""
        spec.validate()
        tick = self._next_tick()
        base = "".join(
            c if c in _ID_SAFE else "_" for c in spec.name) or "job"
        job_id = f"{tick:08d}-{base}-{uuid.uuid4().hex[:8]}"
        staging = tempfile.mkdtemp(
            dir=self.jobs_dir, prefix=f".staging-{os.getpid()}-")
        try:
            with open(os.path.join(staging, "job.json"), "w",
                      encoding="utf-8") as fh:
                json.dump(spec.to_json(), fh)
                fh.flush()
                os.fsync(fh.fileno())
            if fault(FP_SUBMIT_TORN):
                # Submitter "dies" before publish: the staged directory
                # stays behind exactly as a crash would leave it
                # (cleared by clean_staging / recovery); the job was
                # never submitted, so the client retries.
                raise QueueError(
                    "injected submit crash before publish")
            os.replace(staging, os.path.join(self.jobs_dir, job_id))
        except OSError:
            for name in os.listdir(staging):
                os.unlink(os.path.join(staging, name))
            os.rmdir(staging)
            raise
        return job_id

    def _next_tick(self) -> int:
        """Monotonic submission counter (lock-free: O_EXCL ticket
        files double as the counter's history)."""
        path = os.path.join(self.root, "ticks")
        os.makedirs(path, exist_ok=True)
        n = len(os.listdir(path))
        while True:
            try:
                fd = os.open(os.path.join(path, f"{n:08d}"),
                             os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                os.close(fd)
                return n
            except FileExistsError:
                n += 1

    # ------------------------------------------------------------------
    # worker side
    # ------------------------------------------------------------------
    def claim(self, reclaim_stale: bool = True,
              lease_ttl: Optional[float] = None) -> Optional[Job]:
        """Atomically claim the oldest due queued job, or ``None``.

        Jobs deferred by :meth:`defer` (retry backoff) are skipped
        until their ``not_before`` stamp passes.  A lease whose
        claimant is provably gone — dead pid, recycled pid (start-tick
        mismatch), or ``lease_ttl`` expiry when liveness cannot be
        pinned — is stale: with ``reclaim_stale`` it is replaced and
        the job re-claimed; the new claimant resumes from the journal,
        not from scratch."""
        now = time.time()
        for job_id in sorted(self._job_ids()):
            job = self._load(job_id)
            if job is None or self._terminal(job):
                continue
            if self.deferred_until(job) > now:
                continue
            if self._take_lease(job, reclaim_stale, lease_ttl):
                if fault(FP_LEASE_RACE):
                    # Lost the race after all: another claimant beat us
                    # (from this process's view the claim just fails).
                    self.release(job)
                    continue
                return job
        return None

    def _install_lease(self, job: Job, payload: str) -> bool:
        """Atomically create the lease *with* its payload (tmp write +
        hard link).  A create-then-write would leave an empty lease
        visible between the two steps — empty reads as stale, inviting
        a concurrent reclaim of a job that was just claimed."""
        tmp = (job.lease_path
               + f".claim.{os.getpid()}.{uuid.uuid4().hex[:8]}")
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(payload)
        try:
            os.link(tmp, job.lease_path)
        except FileExistsError:
            return False
        finally:
            os.unlink(tmp)
        return True

    def _take_lease(self, job: Job, reclaim_stale: bool,
                    lease_ttl: Optional[float] = None) -> bool:
        payload = json.dumps(_lease_payload(), sort_keys=True) + "\n"
        if self._install_lease(job, payload):
            return True
        if not reclaim_stale:
            return False
        if lease_live(self._lease_info(job), lease_ttl):
            return False
        # Stale: the whole reclaim cycle — re-check, corpse-rename,
        # re-create — runs under an exclusive flock on the job
        # directory, because the staleness read above is unlocked: a
        # second reclaimer could finish its entire cycle between our
        # read and our rename, and we would rename its *fresh* lease
        # to a corpse and double-claim the job.  Fresh claimants never
        # remove a lease (their link-install only succeeds when none
        # exists), so they cannot steal; one slipping into our
        # rename/install gap just makes our install lose with EEXIST.
        try:
            dirfd = os.open(job.path, os.O_RDONLY)
        except OSError:
            return False
        try:
            try:
                fcntl.flock(dirfd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                return False  # another reclaimer is mid-cycle
            if lease_live(self._lease_info(job), lease_ttl):
                return False  # reclaimed while we took the lock
            corpse = (job.lease_path
                      + f".stale.{os.getpid()}.{uuid.uuid4().hex[:8]}")
            try:
                os.rename(job.lease_path, corpse)
            except OSError:
                pass  # lease released meanwhile: install decides
            else:
                try:
                    os.unlink(corpse)
                except OSError:  # pragma: no cover - harmless debris
                    pass
            return self._install_lease(job, payload)
        finally:
            os.close(dirfd)

    def renew_lease(self, job: Job) -> None:
        """Refresh this claimant's lease stamp (TTL keep-alive)."""
        tmp = job.lease_path + f".renew.{os.getpid()}"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(_lease_payload(),
                                    sort_keys=True) + "\n")
            os.replace(tmp, job.lease_path)
        except OSError:  # pragma: no cover - renewals are best-effort
            if os.path.exists(tmp):
                os.unlink(tmp)

    def release(self, job: Job) -> None:
        """Drop the lease (the job becomes claimable again)."""
        try:
            os.unlink(job.lease_path)
        except OSError:
            pass

    def _lease_info(self, job: Job) -> Optional[dict]:
        """The lease payload; legacy bare-pid leases are adapted."""
        try:
            with open(job.lease_path, "r", encoding="utf-8") as fh:
                text = fh.read().strip()
        except OSError:
            return None
        if not text:
            return None
        try:
            info = json.loads(text)
        except ValueError:
            return None
        if isinstance(info, int):  # legacy bare-pid lease
            return {"pid": info}
        return info if isinstance(info, dict) else None

    def _lease_pid(self, job: Job) -> Optional[int]:
        info = self._lease_info(job)
        pid = info.get("pid") if info else None
        return pid if isinstance(pid, int) else None

    # ------------------------------------------------------------------
    # retry bookkeeping (the supervisor's durable state)
    # ------------------------------------------------------------------
    def record_attempt(self, job: Job, event: str,
                       error: str = "") -> int:
        """Append one attempt event (``start`` | ``error``) to the
        job's ``attempts.jsonl``; returns how many events of that kind
        the job now has.  Durable, append-only — the retry budget
        survives worker crashes."""
        rec = {"event": event, "pid": os.getpid(), "t": time.time()}
        if error:
            rec["error"] = error[:2000]
        line = json.dumps(rec, sort_keys=True) + "\n"
        fd = os.open(job.attempts_path,
                     os.O_APPEND | os.O_CREAT | os.O_WRONLY, 0o644)
        try:
            os.write(fd, line.encode("utf-8"))
        finally:
            os.close(fd)
        return self.attempt_counts(job).get(event, 0)

    def attempt_counts(self, job: Job) -> Dict[str, int]:
        """``{event: count}`` over the job's attempt history."""
        counts: Dict[str, int] = {}
        try:
            with open(job.attempts_path, "r", encoding="utf-8") as fh:
                for line in fh:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        event = json.loads(line).get("event")
                    except ValueError:
                        continue  # torn tail of a killed writer
                    if isinstance(event, str):
                        counts[event] = counts.get(event, 0) + 1
        except OSError:
            pass
        return counts

    def defer(self, job: Job, delay: float) -> float:
        """Back the job off: release the lease and stamp
        ``not_before`` so no worker re-claims it for ``delay``
        seconds.  Returns the stamp."""
        due = time.time() + max(0.0, delay)
        self._write_atomic(job.not_before_path, f"{due:.6f}\n")
        self.release(job)
        return due

    def deferred_until(self, job: Job) -> float:
        """The job's ``not_before`` stamp (0.0 when not deferred)."""
        try:
            with open(job.not_before_path, "r",
                      encoding="utf-8") as fh:
                return float(fh.read().strip() or "0")
        except (OSError, ValueError):
            return 0.0

    # ------------------------------------------------------------------
    # dead-letter quarantine
    # ------------------------------------------------------------------
    def quarantine(self, job: Job, reason: str) -> str:
        """Move a poison job out of the spool into ``deadletter/``.

        Atomic (directory rename); the job keeps its journal, attempt
        history, and fault log for inspection, plus a
        ``deadletter.json`` with the reason.  Returns the new path."""
        os.makedirs(self.deadletter_dir, exist_ok=True)
        self.release(job)
        target = os.path.join(self.deadletter_dir, job.job_id)
        try:
            self._write_atomic(
                os.path.join(job.path, "deadletter.json"),
                json.dumps({
                    "reason": reason[:2000],
                    "attempts": self.attempt_counts(job),
                    "quarantined_at": time.time(),
                }, sort_keys=True))
            os.replace(job.path, target)
        except OSError:
            # Raced another quarantiner (or the dir is otherwise gone):
            # as long as the job landed in deadletter/, the outcome we
            # wanted holds and crashing the worker would help nobody.
            if os.path.isdir(target) and not os.path.isdir(job.path):
                return target
            raise
        return target

    def deadletter_jobs(self) -> Dict[str, dict]:
        """``{job_id: deadletter.json payload}`` for quarantined jobs."""
        try:
            names = sorted(os.listdir(self.deadletter_dir))
        except OSError:
            return {}
        out: Dict[str, dict] = {}
        for name in names:
            if name.startswith("."):
                continue
            info_path = os.path.join(
                self.deadletter_dir, name, "deadletter.json")
            try:
                with open(info_path, "r", encoding="utf-8") as fh:
                    out[name] = json.load(fh)
            except (OSError, ValueError):
                out[name] = {}
        return out

    def requeue(self, job_id: str) -> bool:
        """Move a dead-lettered job back into the spool with a fresh
        retry budget (backoff stamp, lease, and terminal error
        cleared; the durable attempt ledger and the journal move aside
        as ``.prev`` so the fresh budget starts at zero attempts while
        the quarantine history stays auditable)."""
        if "/" in job_id or job_id.startswith("."):
            return False
        source = os.path.join(self.deadletter_dir, job_id)
        if not os.path.isdir(source):
            return False
        for name in ("lease", "not_before", "faults.jsonl",
                     "deadletter.json", "error.json"):
            try:
                os.unlink(os.path.join(source, name))
            except OSError:
                pass
        for name in ("attempts.jsonl", "journal.jsonl"):
            path = os.path.join(source, name)
            if os.path.exists(path):
                os.replace(path, path + ".prev")
        os.replace(source, os.path.join(self.jobs_dir, job_id))
        return True

    def clean_staging(self, max_age: float = 300.0) -> int:
        """Remove ``.staging-*`` directories whose submitter is dead
        (or, failing pid parse, older than ``max_age``) — the debris a
        submitter crash between staging and publish leaves behind."""
        removed = 0
        now = time.time()
        try:
            names = os.listdir(self.jobs_dir)
        except OSError:
            return 0
        for name in names:
            if not name.startswith(".staging-"):
                continue
            path = os.path.join(self.jobs_dir, name)
            pid: Optional[int] = None
            parts = name.split("-")
            if len(parts) >= 2:
                try:
                    pid = int(parts[1])
                except ValueError:
                    pid = None
            if pid is not None and _pid_alive(pid):
                continue  # live submitter mid-publish
            if pid is None:
                try:
                    if now - os.stat(path).st_mtime < max_age:
                        continue
                except OSError:
                    continue
            try:
                for entry in os.listdir(path):
                    os.unlink(os.path.join(path, entry))
                os.rmdir(path)
                removed += 1
            except OSError:  # pragma: no cover - racing cleaner
                pass
        return removed

    # ------------------------------------------------------------------
    # completion
    # ------------------------------------------------------------------
    def complete(self, job: Job, result: dict,
                 netlist_blif: Optional[str] = None) -> None:
        """Publish a terminal result (atomic: tmp + rename)."""
        if netlist_blif is not None:
            self._write_atomic(
                os.path.join(job.path, "result.blif"), netlist_blif)
        self._write_atomic(job.result_path,
                           json.dumps(result, sort_keys=True))

    def fail(self, job: Job, error: str) -> None:
        self._write_atomic(job.error_path,
                           json.dumps({"error": error}))

    @staticmethod
    def _write_atomic(path: str, text: str) -> None:
        directory = os.path.dirname(path)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except OSError:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def _job_ids(self) -> List[str]:
        try:
            names = os.listdir(self.jobs_dir)
        except FileNotFoundError:
            return []
        return [n for n in names if not n.startswith(".")]

    def _load(self, job_id: str) -> Optional[Job]:
        path = os.path.join(self.jobs_dir, job_id)
        try:
            with open(os.path.join(path, "job.json"), "r",
                      encoding="utf-8") as fh:
                spec = JobSpec.from_json(json.load(fh))
        except (OSError, ValueError, QueueError):
            return None
        return Job(job_id=job_id, path=path, spec=spec)

    def get(self, job_id: str) -> Optional[Job]:
        """The job by id (``None`` when unknown/corrupt)."""
        if "/" in job_id or job_id.startswith("."):
            return None
        return self._load(job_id)

    def _terminal(self, job: Job) -> bool:
        return (os.path.exists(job.result_path)
                or os.path.exists(job.error_path))

    def status(self, job_id: str) -> dict:
        """One job's state: ``{state, ...terminal payload}``."""
        job = self.get(job_id)
        if job is None:
            if job_id in self.deadletter_jobs():
                return {"state": DEADLETTERED,
                        "deadletter": self.deadletter_jobs()[job_id]}
            return {"state": "unknown"}
        if os.path.exists(job.result_path):
            try:
                with open(job.result_path, "r", encoding="utf-8") as fh:
                    result = json.load(fh)
            except (OSError, ValueError):
                result = {}
            return {"state": DONE, "result": result}
        if os.path.exists(job.error_path):
            try:
                with open(job.error_path, "r", encoding="utf-8") as fh:
                    error = json.load(fh).get("error", "")
            except (OSError, ValueError):
                error = ""
            return {"state": FAILED, "error": error}
        if lease_live(self._lease_info(job)):
            return {"state": RUNNING, "pid": self._lease_pid(job)}
        return {"state": QUEUED}

    def jobs(self) -> Dict[str, str]:
        """``{job_id: state}`` for every spooled job."""
        return {
            job_id: self.status(job_id)["state"]
            for job_id in sorted(self._job_ids())
        }

    def depth(self) -> int:
        """Jobs neither terminal nor actively running."""
        return sum(
            1 for state in self.jobs().values()
            if state == QUEUED
        )
