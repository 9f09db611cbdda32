"""Known faults of the program, one strict-xfail test each.

Each test asserts what a correct program does and is marked
xfail(strict=True, raises=...) with the fault as its reason: it fails today
for that reason, and an unexpected pass fails the suite, so the change that
mends a fault removes its mark in the same change.  To see each test fail
for its stated reason:

    PYTHONPATH=src python -m pytest --runxfail tests/test_known_faults.py
"""

import importlib
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from stablepricer import (
    CalibrateConfig,
    ConvergenceError,
    DomainError,
    OptionContract,
    StableModelParams,
    price,
    stable_density,
    synthetic_chain,
)
from stablepricer.calibrate import _SPECS, objective_params

from _support import series_density

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench(name):
    """A module of perfbench/, imported read-only."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.mark.xfail(
    strict=True, raises=ConvergenceError,
    reason="the density ladder cannot settle near alpha = 1 on the FMLS line: "
    "stable_density(a, a - 2, 0.5) raises ConvergenceError ('density rules of "
    "512 and 1024 nodes disagree at x=0.5') at a = 1.01 and 1.02",
)
@pytest.mark.parametrize("alpha", [1.01, 1.02])
def test_density_near_alpha_one_on_the_fmls_line(alpha):
    # the 40-digit series reads 0.0379067 at 1.01 and 0.0718323 at 1.02
    expected = series_density(alpha, alpha - 2.0, [0.5])[0]
    assert abs(stable_density(alpha, alpha - 2.0, 0.5) - expected) <= 1e-10


@pytest.mark.xfail(
    strict=True, raises=DomainError,
    reason="off the FMLS line the lattice returns put prices below zero, so "
    "synthetic_chain(from_beta(1.7, -0.3, 0.15), 100, 0.01, [0.25, 0.5, 1], "
    "80..120 step 5) raises DomainError on a quote of -0.012569",
)
def test_synthetic_chain_quotes_are_non_negative():
    params = StableModelParams.from_beta(1.7, -0.3, 0.15)
    chain = synthetic_chain(params, 100.0, 0.01, [0.25, 0.5, 1.0], np.arange(80.0, 121.0, 5.0))
    assert all(quote.market_price >= 0.0 for quote in chain.quotes)


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="with the default CalibrateConfig some quasi-random starts of every "
    "rung land where the series does not settle within 64 columns, so the "
    "rung runs fewer starts than it was asked for: on the benchmark's INF_CHAIN "
    "bs start 4, carrwu start 2 and stable starts 2 and 3 do not price",
)
def test_every_quasi_random_start_prices():
    workloads = _perfbench("workloads")
    chain = next(op.spec["chain"] for op in workloads.build_calibrate(1).ops
                 if op.spec.get("truth") == workloads.INF_CHAIN)
    unpriced = [
        (kind, start)
        for kind, spec in _SPECS.items()
        for start, x in enumerate(spec.box(CalibrateConfig()), 1)
        if not math.isfinite(objective_params(spec.to_params(x), chain))
    ]
    assert unpriced == []


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="the tolerance is not an error bound: the lattice stops after 47 "
    "columns at 52.64410094111758, 1.72e-8 from the series' limit "
    "52.6441009239262 at tolerance 1e-8",
)
def test_price_is_within_its_tolerance_of_the_series():
    # a miss found by pricing seeded draws against the same kernel at
    # tolerance 1e-15 and cap 400.  The reference is the lattice series
    # summed in 60-digit mpmath; a float64 sum of it can round by at most the
    # sum of absolute terms, about 61, times 2**-53, below 1e-14
    params = StableModelParams(
        1.1851380110379333, 0.8148619889620667, 0.23817126912294684, -0.6368708550165807
    )
    contract = OptionContract(100.0, 94.95955067689914, 0.049252874618377296, 0.1)
    expected, _ = _perfbench("refs").lattice_series_mp(
        params.alpha, params.theta, params.mu, contract.spot, contract.strike,
        contract.rate, contract.maturity, dps=60,
    )
    assert abs(price(params, contract, tolerance=1e-8).price - expected) <= 1e-8
