"""Job queue: spec validation, FIFO claims, leases, terminal states."""

import multiprocessing
import os

import pytest

from repro.service.queue import Job, JobQueue, JobSpec, QueueError

CTX = multiprocessing.get_context("fork")

BLIF = """\
.model tiny
.inputs a b
.outputs y
.names a b y
11 1
.end
"""


def spec(name="tiny", **config):
    return JobSpec(netlist=BLIF, fmt="blif", name=name, config=config)


# ----------------------------------------------------------------------
# spec validation
# ----------------------------------------------------------------------
def test_spec_rejects_empty_netlist():
    with pytest.raises(QueueError):
        JobSpec(netlist="  ").validate()


def test_spec_rejects_unknown_format():
    with pytest.raises(QueueError):
        JobSpec(netlist=BLIF, fmt="edif").validate()


def test_spec_rejects_unknown_override():
    # proof_cache_path named the removed JSON verdict mirror.
    for key in ("not_a_knob", "proof_cache_path"):
        with pytest.raises(QueueError, match="unknown config override"):
            spec(**{key: 1}).validate()


def test_spec_rejects_service_owned_overrides():
    for key in ("obs", "proof_store_path"):
        with pytest.raises(QueueError, match="service-owned"):
            spec(**{key: "x"}).validate()


def test_spec_accepts_real_overrides_and_roundtrips():
    s = spec(max_rounds=3, proof="none")
    s.validate()
    again = JobSpec.from_json(s.to_json())
    assert again.config == {"max_rounds": 3, "proof": "none"}
    assert again.netlist == BLIF


# ----------------------------------------------------------------------
# submit / claim
# ----------------------------------------------------------------------
def test_submit_claim_fifo(tmp_path):
    q = JobQueue(str(tmp_path))
    first = q.submit(spec("first"))
    second = q.submit(spec("second"))
    assert q.depth() == 2
    assert q.claim().job_id == first
    assert q.claim().job_id == second
    assert q.claim() is None  # both leased


def test_claim_is_exclusive(tmp_path):
    q = JobQueue(str(tmp_path))
    q.submit(spec())
    job = q.claim()
    assert job is not None
    # Same-process second claim (and a fresh queue handle) both lose.
    assert q.claim() is None
    assert JobQueue(str(tmp_path)).claim() is None


def _claim_and_exit(root, out):
    q = JobQueue(root)
    job = q.claim()
    out.put(None if job is None else job.job_id)
    # exits without completing: lease pid goes dead -> stale


def test_stale_lease_reclaimed(tmp_path):
    q = JobQueue(str(tmp_path))
    job_id = q.submit(spec())
    out = CTX.Queue()
    proc = CTX.Process(target=_claim_and_exit, args=(str(tmp_path), out))
    proc.start()
    proc.join()
    assert out.get(timeout=5) == job_id
    # The claimant is dead: the job is claimable again (crash resume).
    job = q.claim()
    assert job is not None and job.job_id == job_id
    # ...but not while the (live) new lease holder exists.
    assert q.claim() is None


def test_status_lifecycle(tmp_path):
    q = JobQueue(str(tmp_path))
    job_id = q.submit(spec())
    assert q.status(job_id)["state"] == "queued"
    job = q.claim()
    assert q.status(job_id)["state"] == "running"
    q.complete(job, {"delay_after": 1.0}, netlist_blif=BLIF)
    status = q.status(job_id)
    assert status["state"] == "done"
    assert status["result"]["delay_after"] == 1.0
    assert os.path.exists(os.path.join(job.path, "result.blif"))
    assert q.claim() is None  # terminal jobs are never re-claimed


def test_failed_jobs_surface_error(tmp_path):
    q = JobQueue(str(tmp_path))
    job_id = q.submit(spec())
    q.fail(q.claim(), "boom")
    status = q.status(job_id)
    assert status["state"] == "failed"
    assert "boom" in status["error"]


def test_unknown_and_hostile_ids(tmp_path):
    q = JobQueue(str(tmp_path))
    assert q.status("nope")["state"] == "unknown"
    assert q.get("../../etc/passwd") is None
    assert q.get(".hidden") is None


def test_jobs_summary(tmp_path):
    q = JobQueue(str(tmp_path))
    a = q.submit(spec("a"))
    b = q.submit(spec("b"))
    q.complete(q.claim(), {})
    assert q.jobs() == {a: "done", b: "queued"}
    assert q.depth() == 1


def test_job_paths(tmp_path):
    q = JobQueue(str(tmp_path))
    job_id = q.submit(spec())
    job = q.get(job_id)
    assert isinstance(job, Job)
    for attr in ("journal_path", "result_path", "error_path",
                 "lease_path"):
        assert getattr(job, attr).startswith(job.path)
