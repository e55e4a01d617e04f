"""Outside-in per-layer tracing: wrap public layer functions, time calls.

The program is not instrumented.  :func:`install` replaces each layer's
public function (or method) with a timing wrapper, everywhere the name
is bound inside ``repro``; :meth:`Installed.remove` puts the originals
back, so untraced runs measure unwrapped code.

Every wrapped call is a span with a name.  A span's inclusive time is
its wall duration; its self time is the inclusive time minus the part
covered by wrapped calls it made.  A recursive call of a span already
open on the stack adds to the call count and to self time but not to
inclusive time again, so inclusive seconds never exceed wall time.

Work done in forked child processes (partition regions, service
workers, proof pools) is invisible here: it shows up only as the
parent's time waiting for it.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

#: outcome hook: ``(tracer, result, exc)`` after a call
Outcome = Callable[["Tracer", object, Optional[BaseException]], None]


@dataclass
class SpanStats:
    calls: int = 0
    incl: float = 0.0
    self_time: float = 0.0


@dataclass
class Tracer:
    """Span aggregates and outcome counters of one traced section.

    Single-threaded: only the benchmark's main thread runs wrapped code.
    """

    spans: Dict[str, SpanStats] = field(default_factory=dict)
    counts: Dict[str, int] = field(default_factory=dict)
    # Open spans: [name, seconds covered by child spans].
    _stack: List[list] = field(default_factory=list)
    clock: Callable[[], float] = time.perf_counter

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def enter(self, name: str) -> float:
        self._stack.append([name, 0.0])
        return self.clock()

    def leave(self, name: str, start: float) -> None:
        elapsed = self.clock() - start
        _, child = self._stack.pop()
        stats = self.spans.setdefault(name, SpanStats())
        stats.calls += 1
        stats.self_time += elapsed - child
        if all(frame[0] != name for frame in self._stack):
            stats.incl += elapsed
        if self._stack:
            self._stack[-1][1] += elapsed

    def record(self, name: str, seconds: float) -> None:
        """A span measured elsewhere (e.g. a service job's run time)."""
        stats = self.spans.setdefault(name, SpanStats())
        stats.calls += 1
        stats.incl += seconds
        stats.self_time += seconds

    def wrap(self, fn: Callable, name: str,
             outcome: Optional[Outcome] = None) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            start = tracer.enter(name)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                tracer.leave(name, start)
                if outcome is not None:
                    outcome(tracer, result, exc)

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        traced.__name__ = getattr(fn, "__name__", name)
        return traced


@dataclass(frozen=True)
class Target:
    """One layer entry point: ``module:attr`` or ``module:Class.method``."""

    span: str
    where: str
    outcome: Optional[Outcome] = None


def _verdict_outcome(prefix: str) -> Outcome:
    def outcome(tracer, result, exc):
        if exc is None:
            tracer.count(f"{prefix}.{result}")
    return outcome


def _solve_outcome(tracer, result, exc):
    from repro.sat.solver import SolverBudgetExceeded

    if isinstance(exc, SolverBudgetExceeded):
        tracer.count("sat.unknown")
    elif exc is None:
        tracer.count("sat.sat" if bool(result) else "sat.unsat")


def _verify_outcome(tracer, result, exc):
    if exc is None:
        tracer.count({True: "verify.equivalent", False: "verify.different",
                      None: "verify.undecided"}[result])


def _plan_outcome(tracer, result, exc):
    if exc is None:
        tracer.count("partition.cut_edges", result.cut_edges)


#: The layers the benchmark times, in north-star order.
TARGETS: Tuple[Target, ...] = (
    Target("opt", "repro.opt.gdo:gdo_optimize"),
    Target("clauses.enumerate",
           "repro.clauses.candidates:CandidateEnumerator.delay_targets"),
    Target("clauses.enumerate",
           "repro.clauses.candidates:CandidateEnumerator.two_subs"),
    Target("clauses.enumerate",
           "repro.clauses.candidates:CandidateEnumerator.three_subs"),
    Target("analysis.static_build",
           "repro.analysis.static_refuter:StaticRefuter.__init__"),
    Target("analysis.classify",
           "repro.analysis.static_refuter:StaticRefuter.classify",
           _verdict_outcome("analysis")),
    Target("transform.apply",
           "repro.transform.substitution:apply_candidate_inplace"),
    Target("transform.undo",
           "repro.transform.substitution:InplaceSubstitution.undo"),
    Target("timing.refresh_trial",
           "repro.timing.incremental:IncrementalSta.refresh_trial"),
    Target("sim.resimulate_cone",
           "repro.sim.bitsim:BitSimulator.resimulate_cone"),
    Target("flat.simulate", "repro.flat.batchsim:flat_simulate"),
    Target("flat.obs_prefetch",
           "repro.flat.batchsim:FlatObservabilityEngine.prefetch"),
    Target("proof.prove", "repro.proof.broker:ProofBroker.prove",
           _verdict_outcome("proof")),
    Target("proof.obligation", "repro.proof.obligation:obligation_from_nets"),
    Target("proof.canonical", "repro.proof.obligation:build_obligation"),
    Target("netlist.extract_cone", "repro.netlist.traverse:extract_cone"),
    Target("netlist.copy", "repro.netlist.netlist:Netlist.copy"),
    Target("cnf.encode", "repro.cnf.formula:encode_netlist"),
    Target("sat.solve", "repro.sat.solver:Solver.solve", _solve_outcome),
    Target("verify.check", "repro.verify.equiv:check_equivalence",
           _verify_outcome),
    Target("partition.plan", "repro.partition.partitioner:partition_netlist",
           _plan_outcome),
    Target("partition.extract", "repro.partition.partitioner:make_region"),
    Target("partition.extract", "repro.partition.region:extract_region"),
    Target("partition.splice", "repro.partition.region:splice_region"),
    Target("partition.wait", "repro.partition.runner:run_partitioned"),
)

#: Spans the benchmark records itself around service calls.
SERVICE_SPANS = ("service.submit", "service.queue_wait", "service.run")

#: Every span name the trace reports, wrapped or recorded.
SPAN_NAMES: Tuple[str, ...] = tuple(
    dict.fromkeys([t.span for t in TARGETS] + list(SERVICE_SPANS)))


def _resolve(where: str):
    module_name, _, attr = where.partition(":")
    module = importlib.import_module(module_name)
    owner_name, _, method = attr.rpartition(".")
    if owner_name:
        return getattr(module, owner_name), method
    return module, attr


def resolve_all(targets=TARGETS) -> List[tuple]:
    """``(target, owner, attribute)`` of every target.  Importing all
    their modules first also means the program's own lazy imports of
    them cost nothing later, inside a timed section."""
    return [(target, *_resolve(target.where)) for target in targets]


def _modules(package: str):
    return [m for m in list(sys.modules.values())
            if getattr(m, "__name__", "") == package
            or getattr(m, "__name__", "").startswith(package + ".")]


@dataclass
class Installed:
    """The patches one :func:`install` made; :meth:`remove` undoes them."""

    package: str
    methods: List[Tuple[type, str, object]] = field(default_factory=list)
    #: id(wrapper) -> (wrapper, original) of wrapped module functions
    functions: Dict[int, Tuple[object, object]] = field(default_factory=dict)

    def remove(self) -> None:
        for owner, attr, original in self.methods:
            setattr(owner, attr, original)
        # Every module binding that holds a wrapper, including those of
        # modules first imported while the wrappers were in place.
        for module in _modules(self.package):
            for key, value in list(vars(module).items()):
                hit = self.functions.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, key, hit[1])
        self.methods.clear()
        self.functions.clear()


def install(tracer: Tracer, targets=TARGETS,
            package: str = "repro") -> Installed:
    """Wrap every target, at its definition and every module-level
    binding of the same object inside ``package``."""
    installed = Installed(package)
    for target, owner, attr in resolve_all(targets):
        if isinstance(owner, type):
            original = owner.__dict__[attr]
            installed.methods.append((owner, attr, original))
            setattr(owner, attr,
                    tracer.wrap(original, target.span, target.outcome))
            continue
        original = getattr(owner, attr)
        wrapped = tracer.wrap(original, target.span, target.outcome)
        installed.functions[id(wrapped)] = (wrapped, original)
        for module in _modules(package):
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
    return installed
