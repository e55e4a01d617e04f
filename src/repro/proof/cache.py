"""In-memory verdict cache keyed by obligation structural hash.

Within one process the ladder budgets are fixed, so the LRU holds *all*
verdicts, even ``unknown``, as a sound memo.  Persistence across runs
and sharing between processes is the job of the sharded verdict store
(:mod:`repro.service.store`, selected by ``GdoConfig.proof_store_path``),
whose :class:`~repro.service.store.ShardedProofCache` extends this LRU
and persists only the *definitive* verdicts (``valid`` / ``invalid``):
``unknown`` is budget-relative, and a later run with a bigger budget
may decide it.

Invalidation needs no bookkeeping: keys are content hashes of the
canonical cones (see :mod:`repro.proof.obligation`), so a netlist edit
that changes a cone changes the key, and stale entries simply stop
being referenced until the LRU evicts them.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional


class ProofCache:
    """LRU verdict memo of one process."""

    def __init__(self, max_entries: int = 4096):
        self.max_entries = max(1, max_entries)
        self._mem: "OrderedDict[str, str]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._mem)

    def get(self, key: str) -> Optional[str]:
        """The cached verdict, or ``None`` on a miss."""
        verdict = self._mem.get(key)
        if verdict is not None:
            self._mem.move_to_end(key)
        return verdict

    def put(self, key: str, verdict: str) -> None:
        self._mem[key] = verdict
        self._mem.move_to_end(key)
        while len(self._mem) > self.max_entries:
            self._mem.popitem(last=False)

    def flush(self) -> None:
        """Nothing to persist; stores override this."""
