"""Uniform proving backends over the SAT miter and the BDD engine.

Every backend call returns one of three verdicts instead of raising:

* ``VALID``   — the obligation's two cones are equivalent,
* ``INVALID`` — a distinguishing vector exists (the PVCC is refuted),
* ``UNKNOWN`` — the per-call budget (CDCL conflicts, BDD nodes, or the
  optional wall-clock timeout) ran out before a verdict.

``prove_serialized`` is the unit of work shipped to pool workers.  It
rebuilds the obligation's two cones from their canonical form, then:

0. simulates ``SIM_WORDS`` random words on both cones, seeded by the
   obligation key — an input that makes an output differ is a concrete
   witness, so a refutation here is a sound ``INVALID`` and the formal
   ladder is skipped (the paper's order: simulation filters, the proof
   engine only sees the survivors);
1. runs the *fallback ladder* — primary backend at base budget, retry
   at an escalated budget, then the other backend.

Both the cones and the simulation seed come from the key, so the
verdict (budget behaviour included, timeouts excluded) is a pure
function of the obligation key: parallel and serial runs agree.
"""

from __future__ import annotations

import random
import signal
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..bdd.bdd import BddBudgetExceeded
from ..bdd.circuit_bdd import bdd_equivalent
from ..faults import fault, fault_arg, register_point
from ..netlist.netlist import Netlist
from ..sat.miter import miter_equivalent
from ..sat.solver import SolverBudgetExceeded
from ..verify.equiv import random_sim_refutes

VALID = "valid"
INVALID = "invalid"
UNKNOWN = "unknown"

#: 64-bit words of random vectors simulated on each obligation before
#: the ladder (rung 0).  On the C5315 benchmark configuration 8/16/32/64
#: words left 5/6/2/0 of its 16 (all invalid) obligations for SAT, at
#: ~40 ms of simulation per obligation.
SIM_WORDS = 64

#: fault points of the proving ladder (DESIGN.md §11).  All three are
#: *fail-safe* by construction: a backend under fault only loses time
#: or returns UNKNOWN (dropping a candidate) — it never asserts a wrong
#: verdict, so injected faults cannot corrupt results.
FP_BACKEND_TIMEOUT = register_point(
    "proof.backend.timeout",
    "one ladder attempt expires as if its wall-clock budget ran out")
FP_BACKEND_FLAKY = register_point(
    "proof.backend.flaky",
    "one ladder attempt forgets its verdict and reports UNKNOWN")
FP_BACKEND_SLOW = register_point(
    "proof.backend.slow",
    "one ladder attempt takes `arg` extra seconds before answering")


@dataclass(frozen=True)
class LadderSpec:
    """Budgets and ordering of one proving ladder (picklable)."""

    mode: str = "sat"              # "sat" | "bdd" | "auto"
    max_conflicts: int = 30_000
    bdd_max_nodes: int = 200_000
    retry_factor: int = 4          # escalated-budget multiplier
    timeout: Optional[float] = None  # per-attempt wall clock; None = off
    #: base pause before a retry/fallback rung (0 = no pause).  Spreads
    #: retry herds out in time when many pool workers hit budget
    #: exhaustion together; purely temporal — verdicts are unaffected.
    retry_delay: float = 0.0
    #: jitter fraction on ``retry_delay``, drawn from an RNG seeded by
    #: (obligation key, attempt) — reproducible, and de-correlated
    #: across obligations so workers never re-synchronize.
    retry_jitter: float = 0.5

    def retry_pause(self, key: str, attempt: int) -> float:
        """The pause before ladder rung ``attempt`` (0 for the first)."""
        if attempt <= 0 or self.retry_delay <= 0.0:
            return 0.0
        rng = random.Random(f"ladder:{key}:{attempt}")
        return self.retry_delay * (1.0 + self.retry_jitter * rng.random())

    def rungs(self) -> List[Tuple[str, int]]:
        """The ``(backend, budget)`` attempts, in order."""
        c, n, f = self.max_conflicts, self.bdd_max_nodes, self.retry_factor
        if self.mode == "sat":
            return [("sat", c), ("sat", c * f), ("bdd", n)]
        if self.mode == "bdd":
            return [("bdd", n), ("bdd", n * f), ("sat", c)]
        if self.mode == "auto":
            # The paper's observation: BDDs win on small/medium cones,
            # ATPG-style SAT scales further — so BDD first, SAT after.
            return [("bdd", n), ("sat", c), ("sat", c * f)]
        raise ValueError(f"unknown proof mode {self.mode!r}")


class ProofTimeout(Exception):
    """The wall-clock budget of one attempt expired."""


def _run_with_timeout(fn, seconds: Optional[float]):
    """Run ``fn`` under SIGALRM when a timeout is set and usable.

    Wall-clock timeouts are inherently nondeterministic; they default
    to off and are only armed in a main thread on platforms with
    ``SIGALRM`` (pool workers qualify — each child's ladder runs in its
    main thread).
    """
    if not seconds or not hasattr(signal, "SIGALRM") or \
            threading.current_thread() is not threading.main_thread():
        return fn()

    def _raise(signum, frame):
        raise ProofTimeout()

    old = signal.signal(signal.SIGALRM, _raise)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, old)


def sat_verdict(left: Netlist, right: Netlist,
                max_conflicts: Optional[int]) -> str:
    """SAT-miter verdict with the conflict budget mapped to UNKNOWN."""
    try:
        equal = miter_equivalent(left, right, max_conflicts=max_conflicts)
    except SolverBudgetExceeded:
        return UNKNOWN
    return VALID if equal else INVALID


def bdd_verdict(left: Netlist, right: Netlist, max_nodes: int) -> str:
    """BDD verdict with the node budget mapped to UNKNOWN."""
    try:
        equal = bdd_equivalent(left, right, max_nodes=max_nodes)
    except BddBudgetExceeded:
        return UNKNOWN
    return VALID if equal else INVALID


def prove_pair(left: Netlist, right: Netlist, backend: str,
               budget: int) -> str:
    if backend == "sat":
        return sat_verdict(left, right, budget)
    if backend == "bdd":
        return bdd_verdict(left, right, budget)
    raise ValueError(f"unknown proof backend {backend!r}")


def prove_serialized(job) -> Tuple[str, str, Dict[str, int], dict]:
    """Pool-worker entry point: run the ladder for one obligation.

    ``job`` is ``(key, left, right, spec)`` with the serialized cones of
    :class:`~repro.proof.obligation.ProofObligation`.  Returns the key,
    the final verdict, a tally of per-backend outcomes / retries /
    fallbacks / timeouts for the broker's counters, and a mergeable
    metrics snapshot (per-backend attempt latency histograms) that the
    broker folds into the run's registry — how worker processes ship
    their observability back through the pool.
    """
    import time

    from ..obs.metrics import MetricsRegistry

    key, left_ser, right_ser, spec = job
    from .obligation import ProofObligation

    ob = ProofObligation(key=key, left=left_ser, right=right_ser)
    left, right = ob.netlists()
    tally: Dict[str, int] = {}
    metrics = MetricsRegistry()

    def bump(name: str) -> None:
        tally[name] = tally.get(name, 0) + 1

    def observe(backend: str, verdict: str, t0: float) -> None:
        metrics.histogram("proof_attempt_seconds", backend=backend) \
            .observe(time.perf_counter() - t0)
        metrics.counter("proof_attempts", backend=backend,
                        verdict=verdict).inc()
        bump(f"{backend}_{verdict}")

    # Rung 0: key-seeded simulation.  It can only answer INVALID, and
    # only with a witness, so it carries no fault point: a fault could
    # not make it wrong, only skip it.
    t0 = time.perf_counter()
    if random_sim_refutes(left, right, n_words=SIM_WORDS,
                          seed=int(key[:16], 16)):
        observe("sim", INVALID, t0)
        return key, INVALID, tally, metrics.snapshot()

    rungs = spec.rungs()
    verdict = UNKNOWN
    for attempt, (backend, budget) in enumerate(rungs):
        pause = spec.retry_pause(key, attempt)
        if pause > 0.0:
            time.sleep(pause)
        slow = fault_arg(FP_BACKEND_SLOW)
        if slow is not None:
            time.sleep(slow)
        t0 = time.perf_counter()
        try:
            if fault(FP_BACKEND_TIMEOUT):
                raise ProofTimeout()
            verdict = _run_with_timeout(
                lambda: prove_pair(left, right, backend, budget),
                spec.timeout,
            )
        except ProofTimeout:
            bump("timeouts")
            verdict = UNKNOWN
        if verdict != UNKNOWN and fault(FP_BACKEND_FLAKY):
            # Fail-safe lie: the backend "forgets" — UNKNOWN walks the
            # ladder / drops the candidate, it never flips a verdict.
            bump("flaky")
            verdict = UNKNOWN
        observe(backend, verdict, t0)
        if verdict != UNKNOWN:
            break
        if attempt + 1 < len(rungs):
            # Advance the ladder: same backend again is a retry with an
            # escalated budget, a different backend is a fallback.
            nxt = rungs[attempt + 1][0]
            bump("retries" if nxt == backend else "fallbacks")
    else:
        bump("unknown_final")
    return key, verdict, tally, metrics.snapshot()
