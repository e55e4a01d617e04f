"""Broker scheduling: dedupe, ladder fallback, pool/serial agreement."""

import pytest

from repro.netlist.netlist import Netlist
from repro.proof import ProofBroker, build_obligation
from repro.proof import backends as backends_mod
from repro.proof.backends import INVALID, UNKNOWN, VALID
from repro.clauses.pvcc import Candidate


def _cand(tag: str) -> Candidate:
    return Candidate(target=f"t{tag}", kind="OS2", sources=("s",))


def _obligation(n_and: int, equivalent: bool = True, tag: str = ""):
    """An obligation over an ``n_and``-input AND tree vs. its mirror."""
    def tree(name, flip):
        net = Netlist(name)
        pis = [net.add_pi(f"a{i}") for i in range(n_and)]
        prev = pis[0]
        for i, pi in enumerate(pis[1:]):
            out = f"{name}_g{i}"
            ins = [pi, prev] if flip else [prev, pi]
            net.add_gate(out, "AND", ins)
            prev = out
        if not equivalent and flip:
            net.add_gate(f"{name}_inv", "INV", [prev])
            prev = f"{name}_inv"
        net.set_pos([prev])
        return net

    return build_obligation(tree(f"l{tag}", False), tree(f"r{tag}", True),
                            _cand(tag or str(n_and)))


def test_batch_dedupes_by_key():
    broker = ProofBroker(mode="sat", workers=1)
    ob = _obligation(3)
    verdicts = broker.prove_batch([ob, ob, ob, None])
    assert verdicts == {ob.key: VALID}
    assert broker.counters.deduped == 2
    assert broker.counters.dispatched == 1
    broker.close()


def test_batch_serves_cached_keys_without_dispatch():
    broker = ProofBroker(mode="sat", workers=1)
    ob = _obligation(4)
    broker.prove_batch([ob])
    assert broker.counters.cache_misses == 1
    broker.prove_batch([ob])
    assert broker.counters.cache_hits == 1
    assert broker.counters.dispatched == 1
    broker.close()


def test_exhausted_ladder_yields_unknown_with_counters(monkeypatch):
    monkeypatch.setattr(backends_mod, "prove_pair",
                        lambda *a, **k: UNKNOWN)
    broker = ProofBroker(mode="sat", workers=1)
    ob = _obligation(3)
    verdicts = broker.prove_batch([ob])
    assert verdicts == {ob.key: UNKNOWN}
    c = broker.counters
    # sat @ base, sat @ escalated (retry), bdd (fallback), then give up.
    assert c.sat_unknown == 2 and c.bdd_unknown == 1
    assert c.retries == 1 and c.fallbacks == 1
    assert c.unknown_final == 1
    broker.close()


def test_unknown_not_served_from_persistent_store(tmp_path, monkeypatch):
    from repro.opt import GdoConfig

    cfg = GdoConfig(proof_workers=1, proof_store_path=str(tmp_path / "s"))
    monkeypatch.setattr(backends_mod, "prove_pair",
                        lambda *a, **k: UNKNOWN)
    broker = cfg.make_broker()
    ob = _obligation(3)
    assert broker.prove_batch([ob]) == {ob.key: UNKNOWN}
    broker.close()
    broker.cache.close()

    monkeypatch.undo()
    fresh = cfg.make_broker()
    verdicts = fresh.prove_batch([ob])
    # A bigger-budget rerun must re-attempt, not replay the UNKNOWN.
    assert verdicts == {ob.key: VALID}
    assert fresh.cache.shared_hits == 0
    fresh.close()

    # The definitive verdict, by contrast, is served from the store.
    warm = cfg.make_broker()
    assert warm.prove_batch([ob]) == {ob.key: VALID}
    assert warm.cache.shared_hits == 1
    warm.close()
    warm.cache.close()


def test_parallel_and_serial_verdicts_agree():
    obs = [_obligation(n, equivalent=(n % 2 == 0), tag=str(n))
           for n in range(2, 8)]
    serial = ProofBroker(mode="sat", workers=1)
    parallel = ProofBroker(mode="sat", workers=2)
    try:
        v_serial = serial.prove_batch(obs)
        v_parallel = parallel.prove_batch(obs)
        assert v_serial == v_parallel
        assert set(v_serial.values()) == {VALID, INVALID}
    finally:
        serial.close()
        parallel.close()


def test_counters_are_per_run():
    broker = ProofBroker(mode="sat", workers=1)
    broker.begin_run()
    broker.prove_batch([_obligation(3)])
    first = broker.take_counters()
    assert first.dispatched == 1
    # Second run on a shared broker starts from zero but keeps the cache.
    broker.begin_run()
    broker.prove_batch([_obligation(3)])
    second = broker.take_counters()
    assert second.dispatched == 0 and second.cache_hits == 1
    broker.close()


def test_mode_none_never_proves(monkeypatch):
    def boom(*a, **k):
        raise AssertionError("prover invoked in proof='none' mode")

    monkeypatch.setattr(backends_mod, "prove_pair", boom)
    broker = ProofBroker(mode="none", workers=1)
    assert broker.prove_batch([_obligation(3)]) == {}
    broker.close()


def test_invalid_mode_rejected():
    with pytest.raises(ValueError):
        ProofBroker(mode="smt")
