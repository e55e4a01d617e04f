"""Levelized flat-array netlist kernels.

The dict-based :class:`~repro.netlist.netlist.Netlist` is the editing
substrate; this package compiles it into int-indexed numpy arrays (one
:class:`~repro.flat.view.FlatView` per structure version) and runs the
two numerically hottest GDO loops as vectorized matrix passes:

* :mod:`repro.flat.batchsim` — batched bit-parallel simulation and
  fault observability (the BPFS stage), all fault sites of a pass
  against all vectors at once;
* :mod:`repro.flat.flatsta` — the full arrival/required/slack sweep of
  static timing analysis over the level structure.

GDO runs its full simulations, observability batches and from-scratch
timing sweeps on these kernels.  Every kernel is bitwise-identical to
its dict-engine reference (:class:`~repro.sim.bitsim.BitSimulator`,
:class:`~repro.sim.observability.ObservabilityEngine`,
:class:`~repro.timing.sta.Sta`; the contract
``tests/flat/test_differential.py`` enforces).  Structures the array
form cannot express raise :class:`~repro.flat.view.FlatViewError`,
which propagates to the caller.
"""

from .view import FlatView, FlatViewError, FUNC_CODES
from .batchsim import FlatObservabilityEngine, batch_observability, flat_simulate
from .flatsta import FlatTiming

__all__ = [
    "FlatView",
    "FlatViewError",
    "FUNC_CODES",
    "FlatObservabilityEngine",
    "batch_observability",
    "flat_simulate",
    "FlatTiming",
]
