"""Refit noisy chains with calibrate_all and print one line per rung, so
that two checkouts' fits can be compared with diff.

    PYTHONPATH=src python tests/sweep_refits.py > after.txt

The chains are the benchmark's calibrate grid (perfbench/workloads.py:
spot 100, rate 0.01, maturities 0.5 and 1, eight strikes from 80 to 120)
priced by synthetic_chain at three stable models, INF_CHAIN, (1.5, 0, 0.2)
and NEAR_GAUSSIAN_CHAIN, with Gaussian noise of sd 0.005 or 0.05 added to
every quote by np.random.default_rng(seed), seeds 0 to 7, and each quote
floored at 1e-6: 48 chains.  A line names the chain and the rung and gives
its aggregated error as a float repr, its evaluations and its start.  It
uses only the package's public names, so this checkout's script can refit
with another checkout's package on PYTHONPATH; tests/test_calibrate.py
imports noisy_chain.  This is not a pytest module; it takes about five
seconds.
"""

import sys
from pathlib import Path

import numpy as np

import stablepricer as sp

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
sys.path.insert(0, PERFBENCH)
try:
    import workloads
finally:
    sys.path.remove(PERFBENCH)

TRUTHS = (workloads.INF_CHAIN, (1.5, 0.0, 0.2), workloads.NEAR_GAUSSIAN_CHAIN)
NOISE = (0.005, 0.05)
SEEDS = range(8)
FLOOR = 1e-6


def noisy_chain(truth: tuple, sd: float, seed: int) -> sp.OptionChain:
    """The benchmark's grid priced at truth = (alpha, beta, sigma), each quote
    moved by normal noise of sd drawn by default_rng(seed) and floored."""
    chain = sp.synthetic_chain(
        sp.StableModelParams.from_beta(*truth), workloads.SPOT, workloads.CHAIN_RATE,
        workloads.CHAIN_MATURITIES, workloads.CHAIN_STRIKES,
    )
    noise = np.random.default_rng(seed).normal(0.0, sd, len(chain.quotes))
    return sp.OptionChain(chain.as_of, tuple(
        sp.OptionQuote(q.spot, q.rate, q.maturity, q.strike, q.side,
                       max(q.market_price + float(e), FLOOR))
        for q, e in zip(chain.quotes, noise)
    ))


def main() -> None:
    for truth in TRUTHS:
        for sd in NOISE:
            for seed in SEEDS:
                reports = sp.calibrate_all(noisy_chain(truth, sd, seed))
                for kind, report in reports.items():
                    print(truth, sd, seed, kind, repr(report.aggregated_error),
                          report.evaluations, report.start)


if __name__ == "__main__":
    main()
