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
    StableModelParams,
    stable_density,
    synthetic_chain,
)
from stablepricer.calibrate import _SPECS, objective_params

from _support import series_density

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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
    sys.path.insert(0, str(PERFBENCH))
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))
    chain = next(op.spec["chain"] for op in workloads.build_calibrate(1).ops
                 if op.spec.get("truth") == workloads.INF_CHAIN)
    unpriced = [
        (kind, start)
        for kind, spec in _SPECS.items()
        for start, x in enumerate(spec.box(CalibrateConfig()), 1)
        if not math.isfinite(objective_params(spec.to_params(x), chain))
    ]
    assert unpriced == []
