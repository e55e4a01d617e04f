"""Configuration for the GDO optimizer."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional

from ..obs import ObsConfig, ObsSnapshot
from ..proof.broker import ProofCounters


@dataclass
class GdoConfig:
    """Tuning knobs of :func:`repro.opt.gdo.gdo_optimize`.

    Defaults follow the paper's setup where it is described: random BPFS
    vectors, C2 substitutions before C3, critical gates only in the delay
    phase, area phase afterwards with periodic returns to the delay
    phase, XOR forms enabled (``mcnc_like`` has XOR cells).
    """

    # --- simulation (BPFS) ---
    n_words: int = 16          # 64 vectors per word
    seed: int = 0

    # --- candidate enumeration ---
    include_xor: bool = True
    use_c2_reduction: bool = True
    allow_inverted: bool = True
    max_pool: int = 48         # b/c-source pool cap per target
    level_skew: Optional[int] = None  # structural filter; None = off
    max_targets_per_pass: int = 24
    max_mods_per_pass: int = 8  # "several modifications per simulation"
    max_candidates_per_target: int = 16
    max_trials_per_pass: int = 96  # trial-apply budget per pass

    # --- proof backend ---
    proof: str = "sat"         # "sat" | "bdd" | "auto" | "none"
    max_conflicts: int = 30_000  # per-proof CDCL budget; abort = UNKNOWN
    bdd_max_nodes: int = 200_000
    max_proofs_per_pass: int = 64

    # --- proof broker (see repro.proof and DESIGN.md §6) ---
    # Worker processes for batched proving; None = os.cpu_count().
    # Verdicts are pure functions of the obligation, so any worker
    # count commits the identical modification sequence.
    proof_workers: Optional[int] = None
    # Top-ranked candidates whose obligations are proven in one batch
    # before the trial loop (only when workers > 1); None = twice
    # max_mods_per_pass.
    proof_prefetch: Optional[int] = None
    # Escalated-budget multiplier for the retry rung of the ladder.
    proof_retry_factor: int = 4
    # Per-attempt wall-clock timeout in seconds.  None (the default)
    # keeps proving fully deterministic; a finite timeout trades that
    # determinism for bounded latency on pathological obligations.
    proof_timeout: Optional[float] = None
    # Base pause (seconds) before retry/fallback rungs of the ladder,
    # with seeded jitter (fraction) so retry herds across pool workers
    # de-synchronize.  0 (the default) = no pause.  Purely temporal —
    # verdicts and the modification sequence are unaffected.
    proof_retry_delay: float = 0.0
    proof_retry_jitter: float = 0.5
    # Verdict LRU entries.
    proof_cache_size: int = 4096
    # Root of a sharded verdict store (repro.service.store) persisting
    # the definitive (valid/invalid) verdicts across runs and sharing
    # them between concurrent clients.  The optimization service sets
    # this for every worker so proof work is shared across jobs, runs,
    # and client processes.
    proof_store_path: Optional[str] = None

    # --- static analysis (see repro.analysis and DESIGN.md §8) ---
    # Invariant checking of the live netlist during the run:
    #   "off"      — never check (hard no-op fast path);
    #   "commits"  — dirty-region check after every committed
    #                modification (<5% overhead);
    #   "paranoid" — additionally after every trial edit and undo.
    # Violations raise repro.analysis.InvariantViolation immediately.
    check: str = "off"
    # Check every Nth eligible event (1 = all); sampling keeps paranoid
    # mode affordable on long runs while still catching drift.
    check_sample: int = 1
    # Static prove/refute funnel stage before BPFS: candidates whose
    # clause combination is implication-covered skip the proof broker,
    # statically refuted candidates skip the trial entirely.  Pure
    # function of the netlist, so serial == parallel determinism holds.
    # Inactive when proof == "none" (nothing to discharge).
    static_funnel: bool = True

    # --- observability (see repro.obs and DESIGN.md §7) ---
    # Default: metrics on, span tracing and the JSONL journal off.
    # Disabled pieces are hard no-ops (<2% overhead, asserted by
    # tests/obs/test_trace.py); journal records are deterministic
    # modulo repro.obs.journal.VOLATILE_FIELDS, so observability never
    # perturbs the modification sequence.
    obs: ObsConfig = field(default_factory=ObsConfig)

    # --- partitioned parallel GDO (repro.partition, DESIGN.md §12) ---
    # Worker processes for region-parallel optimization of one netlist;
    # 0 (the default) keeps the serial trial loop.  The partition plan
    # is fixed by partition_regions — never by the worker count — and
    # regions merge in canonical index order, so workers=1 and
    # workers=N produce identical netlists and journals.
    partition_workers: int = 0
    # Dominator-cone regions the partitioner cuts the netlist into.
    partition_regions: int = 4
    # Merge rounds before regions still re-queued by conflicts are
    # abandoned (their unmerged results are discarded, the master
    # netlist stays proven-equivalent).
    partition_max_rounds: int = 4
    # Netlists below this gate count are not worth cutting: the
    # partitioned path collapses to one region (serial semantics with
    # the partition journal envelope).
    partition_min_gates: int = 64

    # --- phases ---
    area_phase: bool = True
    area_mods_before_retry: int = 5
    max_rounds: int = 400
    max_passes_per_phase: int = 40  # safety cap against tie ping-pong
    max_seconds: Optional[float] = None  # wall-clock budget (None = off)

    # --- timing model ---
    po_load: float = 1.0
    eps: float = 1e-6
    # Equal-delay modifications must reduce the total PO arrival by at
    # least this much (absolute) — prevents epsilon-churn on ties.
    secondary_gain: float = 0.05

    # --- safety ---
    verify_final: bool = True
    verify_words: int = 32

    def make_broker(self):
        """A :class:`~repro.proof.broker.ProofBroker` for this config
        (``None`` in ``proof="none"`` mode — nothing is ever proven)."""
        if self.proof == "none":
            return None
        from ..proof.broker import ProofBroker

        cache = None
        if self.proof_store_path is not None:
            from ..service.store import (
                ShardedProofCache, ShardedVerdictStore,
            )

            cache = ShardedProofCache(
                ShardedVerdictStore(self.proof_store_path),
                max_entries=self.proof_cache_size,
            )
        return ProofBroker(
            mode=self.proof,
            workers=self.proof_workers,
            max_conflicts=self.max_conflicts,
            bdd_max_nodes=self.bdd_max_nodes,
            retry_factor=self.proof_retry_factor,
            timeout=self.proof_timeout,
            retry_delay=self.proof_retry_delay,
            retry_jitter=self.proof_retry_jitter,
            cache_size=self.proof_cache_size,
            cache=cache,
        )

    @property
    def prefetch_limit(self) -> int:
        if self.proof_prefetch is not None:
            return self.proof_prefetch
        return 2 * self.max_mods_per_pass

    def region_config(self) -> "GdoConfig":
        """The derived config for one region-local GDO run.

        Regions recurse into the *serial* optimizer (partitioning does
        not nest), skip the final miter (the master run verifies the
        merged netlist once), prove single-process (the regions
        themselves are the parallelism — a proof pool per region would
        oversubscribe), and run observability off: partition decisions
        are journaled by the master coordinator, and region-local
        journals would interleave by scheduling.  Everything else —
        seed, enumeration caps, proof knobs including the
        shared ``proof_store_path`` — is inherited, so every region
        still shares verdicts through the sharded store.
        """
        return replace(
            self,
            partition_workers=0,
            verify_final=False,
            proof_workers=1,
            proof_prefetch=None,
            obs=ObsConfig.off(),
        )


@dataclass
class ModRecord:
    """One accepted modification, for reporting."""

    phase: str        # "delay" | "area"
    description: str
    kind: str         # OS2/IS2/OS3/IS3
    delay_before: float
    delay_after: float
    area_before: float
    area_after: float


@dataclass
class EngineCounters:
    """Scratch vs. incremental update counts of the GDO engine layer."""

    sta_scratch: int = 0           # full timing recomputes
    sta_incremental: int = 0       # dirty-cone timing refreshes
    sta_signals_touched: int = 0   # signals visited by those refreshes
    sim_scratch: int = 0           # full word-parallel simulations
    sim_incremental: int = 0       # dirty-cone state carry-overs
    sim_signals_changed: int = 0   # word rows rewritten by carry-overs
    obs_rows_computed: int = 0     # observability rows resimulated
    obs_rows_reused: int = 0       # rows carried across engine refreshes
    sta_pi_root: int = 0           # trial edits touching a PI fanout root


@dataclass
class GdoStats:
    """Aggregate statistics of one GDO run (the Table 1/2 columns)."""

    gates_before: int = 0
    gates_after: int = 0
    literals_before: int = 0
    literals_after: int = 0
    area_before: float = 0.0
    area_after: float = 0.0
    delay_before: float = 0.0
    delay_after: float = 0.0
    mods2: int = 0             # OS2 + IS2 count
    mods3: int = 0             # OS3 + IS3 count
    proofs_attempted: int = 0
    proofs_passed: int = 0
    # Static funnel stage (repro.analysis): candidates discharged
    # before BPFS/broker, and invariant checks executed.
    static_proved: int = 0
    static_refuted: int = 0
    checks_run: int = 0
    # Crash recovery (repro.service): True when the run replayed a
    # journal prefix, and how many proof verdicts it took from the
    # journal instead of the broker.
    resumed: bool = False
    replayed_verdicts: int = 0
    # Partitioned parallel GDO (repro.partition): how many regions the
    # run was cut into (0 = serial path), merge conflicts that
    # re-queued a region, and merge rounds executed.
    partition_regions: int = 0
    partition_conflicts: int = 0
    partition_rounds: int = 0
    rounds: int = 0
    cpu_seconds: float = 0.0
    equivalent: Optional[bool] = None
    # The final check's SAT sweep: merged/refuted/undecided pair counts
    # and outputs_left for the output miter (empty when no sweep ran).
    verify_sweep: Dict[str, int] = field(default_factory=dict)
    history: list = field(default_factory=list)
    engine: EngineCounters = field(default_factory=EngineCounters)
    proof: ProofCounters = field(default_factory=ProofCounters)
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    # End-of-run observability snapshot (None when fully disabled);
    # spans/metrics/journal records per GdoConfig.obs.
    obs: Optional[ObsSnapshot] = None

    @property
    def delay_reduction(self) -> float:
        if self.delay_before <= 0:
            return 0.0
        return 1.0 - self.delay_after / self.delay_before

    @property
    def literal_reduction(self) -> float:
        if self.literals_before <= 0:
            return 0.0
        return 1.0 - self.literals_after / self.literals_before
