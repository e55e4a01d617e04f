"""Behavioural-contract digests of GDO runs.

The behavioural contract of the optimizer is the run journal modulo
volatile fields plus the structural signature of the result.  This
script runs GDO on every SMALL_SUITE circuit, on full-size C880 and on
registry C5315 under the ``gdobench`` workload configuration, and prints
one line per run::

    <run> workers=<n> <journal digest>/<signature digest>

Each digest is ``sha256[:16]`` of ``json.dumps(strip_volatile(journal),
sort_keys=True)`` and of ``repr(structural_signature(result.net))``.
Two commits keep the contract when their outputs are identical.  Run::

    PYTHONPATH=src python benchmarks/contract.py [--workers 1 2] [--only C432 ...]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, Iterator, Tuple

from repro.circuits.registry import SMALL_SUITE, build
from repro.library import mcnc_like
from repro.netlist.edit import structural_signature
from repro.obs import ObsConfig, strip_volatile
from repro.opt import GdoConfig, gdo_optimize

#: the configuration of the SMALL_SUITE and full-C880 runs
CONFIG: Dict[str, object] = dict(
    n_words=8, verify_final=False, max_rounds=2, max_passes_per_phase=6,
    max_trials_per_pass=48, max_proofs_per_pass=32,
)


def _bench_config() -> Dict[str, object]:
    """``gdobench/workloads.CONFIG``, read without importing the
    benchmark's service dependencies."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent
                           / "gdobench"))
    try:
        from workloads import CONFIG as bench
    finally:
        sys.path.pop(0)
    return dict(bench)


def runs() -> Iterator[Tuple[str, str, bool, Dict[str, object]]]:
    """``(label, circuit, small, config)`` of every contract run."""
    for name in SMALL_SUITE:
        yield name, name, True, CONFIG
    yield "C880-full", "C880", False, CONFIG
    yield "C5315-bench", "C5315", False, _bench_config()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def contract(circuit: str, small: bool, config: Dict[str, object],
             workers: int, lib) -> Tuple[str, str]:
    net = build(circuit, small=small)
    lib.rebind(net)
    cfg = GdoConfig(**{**config, "proof_workers": workers,
                       "obs": ObsConfig(journal=True)})
    result = gdo_optimize(net, lib, cfg)
    journal = strip_volatile(result.stats.obs.journal_records)
    return (digest(json.dumps(journal, sort_keys=True)),
            digest(repr(structural_signature(result.net))))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workers", type=int, nargs="+", default=[1, 2],
                    help="proof_workers settings to run (default: 1 2)")
    ap.add_argument("--only", nargs="+", default=None,
                    help="run labels to keep (default: all)")
    args = ap.parse_args(argv)
    lib = mcnc_like()
    for label, circuit, small, config in runs():
        if args.only and label not in args.only:
            continue
        for workers in args.workers:
            journal, signature = contract(circuit, small, config,
                                          workers, lib)
            print(f"{label} workers={workers} {journal}/{signature}",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
