"""A fixed reference workload that puts CPU time on a steady scale.

On a shared virtual machine the same work takes up to ~1.7x more CPU
time in one minute than in the next: other tenants' load slows the
virtual CPU while it runs, in phases of seconds to minutes.  The
benchmark therefore runs a :class:`Sampler` beside the program: a
thread that every ``PERIOD`` seconds moves to the CPU the main thread
last ran on and times one evaluation ("chunk") of a reference workload
— pure Python, owned by the benchmark, never touched by the program.
An operation's CPU time is then scaled by ``NOMINAL_S`` over the mean
chunk time of the samples taken while it ran: the CPU seconds it would
take where a chunk takes ``NOMINAL_S``.  A change to the program moves
the scaled figure; a busier host slows the operation and the samples
together and leaves it.  The sampler holds the interpreter lock for
about 1 ms per ``PERIOD``, about 1 % of the main thread's time.

The reference resembles the program's hot loops: a topological
bit-parallel simulation of a random gate DAG (dict and list access,
Python integer bit operations) and a fanin-cone walk over it.
"""

from __future__ import annotations

import os
import random
import threading
import time
from typing import Dict, List, Optional, Tuple

#: gates of the reference DAG and the DAG's own generator seed
GATES = 1500
DAG_SEED = 20240229
#: seconds between two samples
PERIOD = 0.1
#: a window with fewer samples is widened back to this many
MIN_SAMPLES = 5
#: CPU seconds of one chunk in a tight loop on an uncontended 2-core
#: Xeon VM at 2.1 GHz.  A fixed unit: samples beside the program run
#: with colder caches and take longer, so scaled figures are in
#: proportion to CPU seconds rather than equal to them.
NOMINAL_S = 0.0007


class Yardstick:
    """The reference DAG, built once; :meth:`chunk` evaluates it."""

    def __init__(self, gates: int = GATES, seed: int = DAG_SEED):
        rng = random.Random(seed)
        names = [f"i{k}" for k in range(64)]
        self.words = {pi: rng.getrandbits(64) for pi in names}
        self.order: List[Tuple[str, int, List[str]]] = []
        for k in range(gates):
            lo = max(0, len(names) - 200)
            fanin = [names[rng.randrange(lo, len(names))]
                     for _ in range(rng.choice((2, 2, 3)))]
            self.order.append((f"g{k}", rng.randrange(3), fanin))
            names.append(f"g{k}")
        self.fanin: Dict[str, List[str]] = {n: f for n, _, f in self.order}
        self.roots = [n for n, _, _ in self.order[-8:]]

    def chunk(self) -> int:
        mask = (1 << 64) - 1
        value = dict(self.words)
        for name, op, fanin in self.order:
            if op == 0:
                v = mask
                for f in fanin:
                    v &= value[f]
            elif op == 1:
                v = 0
                for f in fanin:
                    v |= value[f]
            else:
                v = 0
                for f in fanin:
                    v ^= value[f]
                v ^= mask
            value[name] = v
        seen = set()
        stack = list(self.roots)
        while stack:
            node = stack.pop()
            if node not in seen:
                seen.add(node)
                stack.extend(self.fanin.get(node, ()))
        return len(seen)

    def timed_chunk(self) -> float:
        """CPU seconds of one chunk on the calling thread."""
        t0 = time.thread_time()
        self.chunk()
        return time.thread_time() - t0


def _last_cpu(tid: int) -> Optional[int]:
    """The CPU thread ``tid`` of this process last ran on."""
    try:
        with open(f"/proc/self/task/{tid}/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return int(fields[36])  # field 39 of proc(5), "processor"
    except (OSError, ValueError, IndexError):
        return None


class Sampler:
    """Reference samples taken beside the program; use as a context
    manager, which starts the sampling thread and stops and joins it."""

    def __init__(self, stick: Optional[Yardstick] = None):
        self.stick = stick or Yardstick()
        self.samples: List[float] = []
        self._main = threading.main_thread().native_id
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="yardstick")

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(PERIOD):
            cpu = _last_cpu(self._main)
            if cpu is not None:
                try:
                    os.sched_setaffinity(0, {cpu})  # this thread only
                except OSError:
                    pass
            self.samples.append(self.stick.timed_chunk())

    def mark(self) -> int:
        return len(self.samples)

    def since(self, mark: int) -> float:
        """Mean chunk CPU seconds of the samples taken since ``mark``,
        widened back to the last ``MIN_SAMPLES`` for short windows."""
        while not self.samples:  # only before the thread's first sample
            self.samples.append(self.stick.timed_chunk())
        window = self.samples[max(0, min(mark,
                                         len(self.samples) - MIN_SAMPLES)):]
        return sum(window) / len(window)


def scale(cpu: float, reference: float) -> float:
    """``cpu`` seconds measured where a chunk took ``reference``
    seconds, on the scale where it takes ``NOMINAL_S``."""
    return cpu * NOMINAL_S / reference
