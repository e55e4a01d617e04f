"""LRU behaviour of the in-memory verdict cache."""

from repro.proof import ProofCache
from repro.proof.backends import INVALID, UNKNOWN, VALID


def test_lru_evicts_oldest():
    cache = ProofCache(max_entries=2)
    cache.put("k1", VALID)
    cache.put("k2", INVALID)
    cache.put("k3", VALID)
    assert cache.get("k1") is None
    assert cache.get("k2") == INVALID
    assert cache.get("k3") == VALID


def test_lru_get_refreshes_recency():
    cache = ProofCache(max_entries=2)
    cache.put("k1", VALID)
    cache.put("k2", INVALID)
    cache.get("k1")            # k2 is now least-recent
    cache.put("k3", VALID)
    assert cache.get("k2") is None
    assert cache.get("k1") == VALID


def test_lru_memoizes_unknown_within_the_process():
    # Budgets are fixed within one process, so UNKNOWN is a sound memo
    # here; only the sharded store refuses to persist it.
    cache = ProofCache(max_entries=2)
    cache.put("ku", UNKNOWN)
    assert cache.get("ku") == UNKNOWN
