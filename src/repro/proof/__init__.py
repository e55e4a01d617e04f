"""Batched, cached, multi-backend proving of PVCC obligations."""

from ..netlist.traverse import align_interfaces
from .backends import (
    INVALID, LadderSpec, UNKNOWN, VALID, bdd_verdict, prove_pair,
    prove_serialized, sat_verdict,
)
from .broker import ProofBroker, ProofCounters
from .cache import ProofCache
from .obligation import (
    ProofObligation, build_obligation, obligation_from_nets,
)

__all__ = [
    "INVALID", "LadderSpec", "UNKNOWN", "VALID", "bdd_verdict",
    "prove_pair", "prove_serialized", "sat_verdict",
    "ProofBroker", "ProofCounters", "ProofCache",
    "ProofObligation", "align_interfaces", "build_obligation",
    "obligation_from_nets",
]
