"""Print the outcomes of a seeded sweep of the pricer, the calibration and
the density lab, one line per case, so that two checkouts can be compared
with diff.

    PYTHONPATH=src python tests/sweep_outcomes.py > after.txt

Each line is exact: prices as float reprs, errors with their type, message
and strike_index, calibration reports as their repr.  The sweep covers
price (call and put) and price_call_strikes on chains whose
(rate, maturity) pairs interleave, with every engine and every way a model
fails: the FMLS series, the lattice, alpha = 2, a drift off the FMLS line,
mu > 0, an overflowing FMLS tail, lattice series and scale
(-mu*tau)**(-1/alpha), an underflowing -mu*tau, and bad chains.  It ends
with acceptance 7's ladder, the five calibrate operations of the
benchmark at seeds 1 to 3, 41 density points and grids across the
diamond, one of which runs out of nodes, and the sampler: the SHA-256 of
its draws with the first, middle and last as reprs, at counts 1 to
3*65536 + 1 around its block and round edges and at (alpha, beta) edges,
mc_price_fmls at 1e5 paths, and density grids of 342 and 1001 points as
SHA-256 digests with three values each.  A failure is a DomainError or a
ConvergenceError; any other exception ends the run with a traceback and a
non-zero exit status, which CI checks.  This is not a pytest module; it
takes about ten seconds.
"""

import hashlib
import random
import sys
from pathlib import Path

import numpy as np

import stablepricer as sp

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

PAIRS = [(0.0, 0.5), (0.02, 1.0), (0.01, 0.25), (0.05, 2.0), (-0.01, 0.75)]
FAILURES = (sp.ConvergenceError, sp.DomainError)


def _model(rng: random.Random) -> sp.StableModelParams:
    alpha, beta = rng.uniform(1.2, 1.95), rng.uniform(-0.95, 0.95)
    sigma = rng.uniform(0.05, 0.5)
    # well-behaved models four times as often as each way to fail
    return rng.choices([
        lambda: sp.StableModelParams.fmls(alpha, sigma),
        lambda: sp.StableModelParams.from_beta(alpha, beta, sigma),
        lambda: sp.StableModelParams.from_beta(2.0, beta, sigma),
        lambda: sp.StableModelParams.from_beta(alpha, beta, rng.uniform(1.0, 3.0)),
        lambda: sp.StableModelParams(
            alpha, alpha - 2.0, sigma, sp.mu_fmls(alpha, sigma) * (1 + 1e-9)
        ),
        lambda: sp.StableModelParams(alpha, 0.0, sigma, 0.05),
        lambda: sp.StableModelParams.fmls(1.6, rng.uniform(30.0, 100.0)),
        lambda: sp.StableModelParams.from_beta(1.5, 0.3, 1e-6),
        lambda: sp.StableModelParams(1.01, 0.0, 0.2, -1e-320),
        lambda: sp.StableModelParams(1.5, 0.0, 0.2, -5e-324),
    ], weights=[4, 4, 4, 1, 1, 1, 1, 1, 1, 1])[0]()


def _outcome(call) -> str:
    try:
        value = call()
    except FAILURES as exc:
        return f"{type(exc).__name__}: {exc} @ {getattr(exc, 'strike_index', None)}"
    return repr(value.tolist() if isinstance(value, np.ndarray) else value)


def _chain(rng: random.Random) -> tuple:
    pairs = rng.sample(PAIRS, rng.randint(1, 3))
    quotes = [(*rng.choice(pairs), rng.uniform(60.0, 160.0)) for _ in range(rng.randint(1, 12))]
    rates, maturities, strikes = (np.array(column) for column in zip(*quotes))
    bad = rng.random()
    if bad < 0.02:
        strikes[-1] = np.nan
    elif bad < 0.04:
        maturities[0] = -maturities[0]
    elif bad < 0.06:
        rates = rates[:-1] if rates.size > 1 else np.append(rates, 0.0)
    elif bad < 0.08:
        rates[-1], maturities[-1] = -400.0, 2.0  # the discount overflows
    return rates, maturities, strikes


def main(seed: int = 20, cases: int = 4000) -> None:
    rng = random.Random(seed)
    for case in range(cases):
        params, (rates, maturities, strikes) = _model(rng), _chain(rng)
        tolerance = rng.choice([1e-4, 1e-6, 1e-8, 1e-10])
        max_column = rng.choice([8, 32, 64, 64, 100])
        print(case, "strikes", _outcome(lambda: sp.price_call_strikes(
            params, 100.0, rates, maturities, strikes, tolerance, max_column
        )))
        for side in ("call", "put"):
            print(case, side, _outcome(lambda: sp.price(
                params,
                sp.OptionContract(100.0, rng.uniform(60.0, 160.0), *rng.choice(PAIRS), side),
                tolerance, max_column,
            )))
    # test_pricer's mixed batch: each model on each chain, alone
    models = [
        sp.StableModelParams.fmls(1.6, 0.2),
        sp.StableModelParams.from_beta(1.7, -0.3, 0.15),
        sp.StableModelParams.from_beta(2.0, 0.0, 0.2),
        sp.StableModelParams(1.6, 0.0, 0.2, 0.05),
        sp.StableModelParams.fmls(1.6, 60.0),
        sp.StableModelParams.from_beta(1.5, 0.3, 1e-6),
        sp.StableModelParams.fmls(1.6, 4.5),
        sp.StableModelParams(1.01, 0.0, 0.2, -1e-320),
        sp.StableModelParams(1.5, 0.0, 0.2, -5e-324),
    ]
    chains = [
        ([0.0, 0.02, 0.0], [0.5, 1.0, 0.5], [95.0, 105.0, 110.0]),
        (
            [0.0, 0.02, 0.01, 0.0, 0.01, 0.02],
            [0.5, 1.0, 0.25, 0.5, 0.25, 1.0],
            [95.0, 105.0, 110.0, 100.0, 90.0, 120.0],
        ),
    ]
    for rates, maturities, strikes in chains:
        for params in models:
            print("mixed", _outcome(lambda: sp.price_call_strikes(
                params, 100.0, np.array(rates), np.array(maturities), np.array(strikes), 1e-8
            )))
            for quote in zip(rates, maturities, strikes):
                contract = sp.OptionContract(100.0, quote[2], quote[0], quote[1])
                print("mixed price", _outcome(lambda: sp.price(params, contract, 1e-8)))
    chain = sp.synthetic_chain(
        sp.StableModelParams.from_beta(1.5, -0.8, 0.2), 100.0, 0.01,
        maturities=(0.5, 0.75, 1.0, 1.25), strikes=np.linspace(80.0, 120.0, 10),
    )
    print("acceptance 7", sp.calibrate_all(chain, sp.CalibrateConfig()))
    for seed in (1, 2, 3):
        for op in workloads.build_calibrate(seed).ops:
            print("calibrate", seed, op.name, op.call())
    # the density lab across the diamond, edges included, and near its lower
    # edge at alpha = 1.01, where the node ladder runs out
    for case in range(40):
        alpha = rng.choice([2.0, rng.uniform(1.05, 2.0), rng.uniform(1.05, 2.0)])
        theta = rng.choice([-1.0, 1.0, rng.uniform(-1.0, 1.0)]) * (2.0 - alpha)
        if case % 2:
            half = 10.0 ** rng.uniform(-1.0, 3.0)
            xs = np.linspace(-half, half * rng.uniform(0.5, 2.0), rng.randint(2, 9))
            print("density_grid", case, _outcome(lambda: sp.density_grid(alpha, theta, xs).values))
        else:
            x = rng.choice([0.0, rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 4.0)])
            print("density", case, _outcome(lambda: sp.stable_density(alpha, theta, x)))
    print("density edge", _outcome(lambda: sp.stable_density(1.01, 1.01 - 2.0, 0.5)))
    # the sampler on one thread per usable core, where a block and a round of
    # blocks end, and the Monte-Carlo price of its draws
    for alpha, beta in [(1.01, -1.0), (1.05, 1.0), (2.0, 0.0), (2.0, 1.0),
                        (rng.uniform(1.05, 2.0), rng.uniform(-1.0, 1.0)),
                        (rng.uniform(1.05, 2.0), rng.uniform(-1.0, 1.0))]:
        for count in (1, 65535, 65536, 65537, 100_000, 3 * 65536 + 1):
            seed = rng.randrange(2**64)
            draws = sp.sample_stable(sp.SamplerConfig(alpha, beta, count, seed))
            digest = hashlib.sha256(draws.tobytes()).hexdigest()
            few = [float(draws[i]) for i in (0, count // 2, -1)]
            print("sample", alpha, beta, count, seed, digest, few)
    for alpha, strike in [(1.3, 90.0), (1.6, 100.0), (1.9, 120.0), (2.0, 100.0)]:
        sigma = rng.uniform(0.05, 0.3)
        contract = sp.OptionContract(100.0, strike, *rng.choice(PAIRS))
        seed = rng.randrange(2**32)
        print("mc", alpha, sigma, contract, seed, _outcome(
            lambda: sp.mc_price_fmls(alpha, sigma, contract, 100_000, seed)
        ))
    # density grids of one block of the first pass's 64 + 128 nodes and one
    # more (341 points a block), and of three blocks; near the edge at
    # (1.05, 0.9025) many points climb past 128 nodes
    for alpha, theta in [(1.5, -0.4), (1.8, 0.15), (1.05, 0.9025)]:
        for count in (342, 1001):
            mags = np.geomspace(1e-3, 1e300, count)
            for kind, xs in (("linear", np.linspace(-20.0, 20.0, count)),
                             ("wide", np.where(np.arange(count) % 2, -mags, mags))):
                values = sp.stable_density(alpha, theta, xs)
                digest = hashlib.sha256(values.tobytes()).hexdigest()
                few = [float(values[i]) for i in (0, count // 2, -1)]
                print("density pass", alpha, theta, count, kind, digest, few)


if __name__ == "__main__":
    main()
