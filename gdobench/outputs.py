"""The benchmark's own output check, independent of the program's.

Every optimized netlist is compared with its input:

* function — both are simulated on random vectors from a seed the
  program never saw, and every primary output must agree;
* timing — both are re-timed with a fresh :class:`~repro.timing.sta.Sta`;
  the result may not be slower than the input, and its delay must equal
  the delay the program reported.

The program's own ``equivalent`` verdict is recorded next to it: ``None``
(undecided) is not a failure, ``False`` is.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.netlist.edit import structural_signature
from repro.sim.bitsim import BitSimulator
from repro.timing.sta import Sta

#: simulation words (64 vectors each) per check
CHECK_WORDS = 16
#: slack allowed between two float delay computations
DELAY_TOL = 1e-6


@dataclass
class Check:
    """Outcome of one output check; ``reason`` is empty when it passed."""

    reason: str
    delay_before: float
    delay_after: float
    area_before: float
    area_after: float

    @property
    def ok(self) -> bool:
        return not self.reason


def digest(net) -> str:
    """Short fingerprint of a netlist's structural signature."""
    return hashlib.sha256(
        repr(structural_signature(net)).encode()).hexdigest()[:16]


def _pi_words(pis, seed: int, n_words: int):
    rng = np.random.default_rng(seed)
    return {pi: rng.integers(0, np.iinfo(np.uint64).max, size=n_words,
                             dtype=np.uint64, endpoint=True)
            for pi in pis}


def function_mismatch(before, after, seed: int,
                      n_words: int = CHECK_WORDS) -> str:
    """Why ``after`` does not compute ``before``'s outputs ('' if it does)."""
    if set(before.pis) != set(after.pis):
        return "primary inputs differ"
    if len(before.pos) != len(after.pos):
        return "number of primary outputs differs"
    words = _pi_words(before.pis, seed, n_words)
    left = BitSimulator(before).simulate(words)
    right = BitSimulator(after).simulate(words)
    # Outputs correspond by position: a substitution at an output stem
    # renames the signal that drives it.
    for k, (po_l, po_r) in enumerate(zip(before.pos, after.pos)):
        if np.any(left.word(po_l) ^ right.word(po_r)):
            return f"output {k} ({po_l}) differs on random vectors"
    return ""


def check_output(before, after, library, seed: int,
                 reported_delay: Optional[float] = None,
                 retime: bool = True) -> Check:
    """Check ``after`` (an optimization result) against ``before``.

    ``retime=False`` skips the timing half, for results whose cells the
    program did not return (the service's unmapped BLIF); the caller
    then judges timing from the reported figures.
    """
    sta0 = Sta(before, library)
    reason = function_mismatch(before, after, seed)
    delay_after = float("nan")
    if retime:
        delay_after = Sta(after, library).delay
        if not reason and delay_after > sta0.delay + DELAY_TOL:
            reason = (f"delay rose {sta0.delay:.4f} -> "
                      f"{delay_after:.4f}")
        if not reason and reported_delay is not None and \
                abs(delay_after - reported_delay) > DELAY_TOL:
            reason = (f"reported delay {reported_delay:.4f} but "
                      f"re-timed {delay_after:.4f}")
    return Check(
        reason=reason,
        delay_before=sta0.delay,
        delay_after=delay_after,
        area_before=library.netlist_area(before),
        area_after=library.netlist_area(after) if retime else float("nan"),
    )
