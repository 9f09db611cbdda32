"""The three workloads: how their inputs are drawn and how outputs are checked.

A workload is a *round*: a fixed list of operations drawn from the seed.  A
run repeats whole rounds, so every run attempts the same operations in the
same proportions.  Checks compare outputs with ``refs`` (computed apart from
the program) or with properties the method must have; they run after the
timed region.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import stablepricer as sp

import refs

TOLERANCE = 1e-8  # series tolerance of every quotes operation
SPOT = 100.0
# Upper bound on the envelope ratio r = (|L| + po) * po**(-1/alpha) with
# po = -mu*tau.  Of 6000 draws with r between 1.5 and 2, those below 1.8
# needed at most 59 of the lattice's 66 columns at TOLERANCE, while some
# above 2 raised ConvergenceError; so no operation here raises.
ENVELOPE = 1.8


@dataclass
class Op:
    """One operation: a span name, the call, and what its check needs."""

    name: str
    call: Callable[[], Any]
    spec: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    ops: list[Op]
    probe: list[int]  # operations the other workloads' traced runs run
    overhead_ops: list[int]  # operations timed without and with tracing
    overhead_passes: int
    warm_up: Callable[[], None]
    check: Callable[[list[Op], list[Any]], "CheckResult"]


@dataclass
class CheckResult:
    failed: int = 0  # operations with a known fault, counted as failed
    problems: list[str] = field(default_factory=list)  # unexpected wrong outputs
    notes: list[str] = field(default_factory=list)


def _envelope(alpha: float, mu: float, spot: float, strike: float, rate: float, tau: float) -> float:
    po = -mu * tau
    lm = math.log(spot / strike) + rate * tau
    return (abs(lm) + po) * po ** (-1.0 / alpha)


def _market(rng: random.Random) -> tuple[float, float, float, float]:
    """(sigma, tau, strike, rate) over the documented ranges."""
    return (
        rng.uniform(0.1, 0.3),
        rng.uniform(0.1, 2.0),
        SPOT * (1.0 + rng.uniform(-0.3, 0.3)),
        rng.uniform(0.0, 0.05),
    )


def _strata(rng: random.Random, count: int, low: float, high: float) -> list[float]:
    """One uniform draw in each of `count` equal slices of [low, high), shuffled.

    Stratifying the stability index keeps every round's mix of fast and slow
    series alike across seeds, which is what keeps the timings steady.
    """
    values = [low + (high - low) * (i + rng.random()) / count for i in range(count)]
    rng.shuffle(values)
    return values


# ---------------------------------------------------------------------------
# quotes
# ---------------------------------------------------------------------------

# A round is large so that its latency quantiles are alike across seeds: the
# spread of the median over ten seeds was 0.09 of it with 1000 operations a
# round and 0.03 with 4000.
QUOTES_LATTICE = 3200
QUOTES_FMLS = 600
QUOTES_GAUSSIAN = 196
MP_SAMPLE = 2  # lattice operations re-summed in 50-digit mpmath per run

# the paper's tabulated option and its printed price
TABLE_ALPHA, TABLE_THETA, TABLE_SIGMA = 1.5, -0.4, 0.25
TABLE_CONTRACT = (4300.0, 4000.0, 0.01, 1.0)
TABLE_PRICE = 989.542


def _lattice_op(params: sp.StableModelParams, strike: float, rate: float, tau: float) -> Op:
    side = "put" if strike < SPOT else "call"
    contract = sp.OptionContract(SPOT, strike, rate, tau, side)
    fn = sp.price_put if side == "put" else sp.price_call
    spec = dict(params=params, contract=contract)
    return Op(f"pricer.price_{side}", lambda: fn(params, contract, tolerance=TOLERANCE), spec)


def build_quotes(seed: int) -> Workload:
    rng = random.Random(seed)
    ops: list[Op] = []
    for alpha in _strata(rng, QUOTES_LATTICE, 1.3, 2.0):
        while True:
            beta = rng.uniform(-1.0, 1.0)
            sigma, tau, strike, rate = _market(rng)
            params = sp.StableModelParams.from_beta(alpha, beta, sigma)
            if _envelope(alpha, params.mu, SPOT, strike, rate, tau) <= ENVELOPE:
                break
        ops.append(_lattice_op(params, strike, rate, tau))
    for _ in range(QUOTES_GAUSSIAN):
        while True:
            sigma, tau, strike, rate = _market(rng)
            params = sp.StableModelParams(2.0, 0.0, sigma, -sigma * sigma)
            if _envelope(2.0, params.mu, SPOT, strike, rate, tau) <= ENVELOPE:
                break
        ops.append(_lattice_op(params, strike, rate, tau))
    for alpha in _strata(rng, QUOTES_FMLS, 1.3, 2.0):
        while True:
            sigma, tau, strike, rate = _market(rng)
            if _envelope(alpha, refs.fmls_mu(alpha, sigma), SPOT, strike, rate, tau) <= ENVELOPE:
                break
        side = "put" if strike < SPOT else "call"
        contract = sp.OptionContract(SPOT, strike, rate, tau, side)
        ops.append(
            Op(
                "reference.fmls_call",
                lambda a=alpha, s=sigma, c=contract: sp.fmls_call(a, s, c, tolerance=TOLERANCE),
                dict(alpha=alpha, sigma=sigma, contract=contract),
            )
        )
    table_mu = TABLE_SIGMA**TABLE_ALPHA * math.cos(math.pi * TABLE_ALPHA / 2.0)
    table = sp.StableModelParams(TABLE_ALPHA, TABLE_THETA, TABLE_SIGMA, table_mu)
    table_contract = sp.OptionContract(*TABLE_CONTRACT)
    ops.append(
        Op(
            "pricer.price_call",
            lambda: sp.price_call(table, table_contract, tolerance=TOLERANCE),
            dict(params=table, contract=table_contract, table=True),
        )
    )
    rng.shuffle(ops)
    lattice = [i for i, op in enumerate(ops) if op.name.startswith("pricer.") and op.spec["params"].alpha < 2.0]
    for i in rng.sample(lattice, MP_SAMPLE):
        ops[i].spec["mp"] = True

    def warm_up() -> None:
        for name in ("pricer.price_call", "pricer.price_put", "reference.fmls_call"):
            next(op for op in ops if op.name == name).call()

    return Workload("quotes", ops, probe=list(range(200)), overhead_ops=list(range(200)), overhead_passes=3, warm_up=warm_up, check=check_quotes)


def check_quotes(ops: list[Op], outputs: list[Any]) -> CheckResult:
    out = CheckResult()
    for op, result in zip(ops, outputs):
        c = op.spec["contract"]
        price = result.price
        if op.name == "reference.fmls_call":
            ref = refs.lewis_fmls_call(op.spec["alpha"], op.spec["sigma"], c.spot, c.strike, c.rate, c.maturity)
            if c.side == "put":
                ref = refs.put_from_call(ref, c.spot, c.strike, c.rate, c.maturity)
            # the stop rule leaves a tail of a few columns below TOLERANCE
            if abs(price - ref) > 100 * TOLERANCE:
                out.problems.append(f"fmls_call {c} = {price!r}, Lewis integral {ref!r}")
            continue
        p = op.spec["params"]
        if op.spec.get("table"):
            # the table prints 3 decimals and stops at column n = 10; the
            # columns after it move the sum by about 1.2e-3
            if abs(price - TABLE_PRICE) > 2e-3:
                out.problems.append(f"tabulated option priced {price!r}, table {TABLE_PRICE}")
        if p.alpha == 2.0:
            ref = refs.bs_call(c.spot, c.strike, c.rate, c.maturity, p.sigma * math.sqrt(2.0))
            if c.side == "put":
                ref = refs.put_from_call(ref, c.spot, c.strike, c.rate, c.maturity)
            if abs(price - ref) > 100 * TOLERANCE:
                out.problems.append(f"alpha=2 {c} = {price!r}, Black-Scholes {ref!r}")
        if op.spec.get("mp") or op.spec.get("table"):
            ref, abs_sum = refs.lattice_series_mp(p.alpha, p.theta, p.mu, c.spot, c.strike, c.rate, c.maturity)
            if c.side == "put":
                ref = refs.put_from_call(ref, c.spot, c.strike, c.rate, c.maturity)
            # truncation below the stop rule plus float64 rounding of the terms
            allowed = 100 * TOLERANCE + 64 * 2.0**-52 * abs_sum
            if abs(price - ref) > allowed:
                out.problems.append(f"lattice {p} {c} = {price!r}, 50-digit series {ref!r}")
            out.notes.append(f"mpmath lattice check at alpha={p.alpha:.4f}: |diff|={abs(price - ref):.2e}")
    return out


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------

CHAIN_MATURITIES = (0.5, 1.0)
CHAIN_STRIKES = np.linspace(80.0, 120.0, 8)
CHAIN_RATE = 0.01
# Its stable rung crosses the region where the objective returns inf: 138 of
# about 2900 evaluations fail to converge.
INF_CHAIN = (1.7, -0.3, 0.15)
NEAR_GAUSSIAN_CHAIN = (1.85, -0.6, 0.18)
FMLS_CHAIN = (1.6, 0.2)
# Only one stable chain depends on the seed.  A ladder's cost jumps with any
# change of its chain, as Nelder-Mead takes other paths (22 s for a
# Black-Scholes chain at vol 0.3, 32 s at 0.2).  With five operations the
# median is the third, which the two fixed stable ladders bracket, and the
# slowest is the fixed Black-Scholes ladder, so both stay alike across seeds.
BS_VOL = 0.3


def _quote(strike: float, tau: float, call: float) -> sp.OptionQuote:
    """Put below spot (by parity), call at and above."""
    if strike < SPOT:
        return sp.OptionQuote(SPOT, CHAIN_RATE, tau, strike, "put",
                              refs.put_from_call(call, SPOT, strike, CHAIN_RATE, tau))
    return sp.OptionQuote(SPOT, CHAIN_RATE, tau, strike, "call", call)


def _chain(as_of: str, call: Callable[[float, float], float]) -> sp.OptionChain:
    quotes = [_quote(float(k), tau, call(float(k), tau)) for tau in CHAIN_MATURITIES for k in CHAIN_STRIKES]
    return sp.OptionChain(as_of, tuple(quotes))


def build_calibrate(seed: int) -> Workload:
    rng = random.Random(seed)
    ops: list[Op] = []

    def ladder(chain: sp.OptionChain, spec: dict) -> Op:
        return Op("calibrate.calibrate_all", lambda: sp.calibrate_all(chain), dict(spec, chain=chain))

    def synthetic(alpha: float, beta: float, sigma: float) -> sp.OptionChain:
        params = sp.StableModelParams.from_beta(alpha, beta, sigma)
        return sp.synthetic_chain(params, SPOT, CHAIN_RATE, CHAIN_MATURITIES, CHAIN_STRIKES)

    ops.append(ladder(synthetic(*INF_CHAIN), dict(kind="stable", truth=INF_CHAIN)))
    # a second stable-family set, drawn near (1.5, 0, 0.2), where the stable
    # rung recovered the truth to 1e-3 on every draw tried
    truth = (1.5 + rng.uniform(-0.05, 0.05), rng.uniform(-0.1, 0.1), 0.2 + rng.uniform(-0.01, 0.01))
    ops.append(ladder(synthetic(*truth), dict(kind="stable", truth=truth)))
    ops.append(ladder(synthetic(*NEAR_GAUSSIAN_CHAIN), dict(kind="stable", truth=NEAR_GAUSSIAN_CHAIN)))
    bs_chain = _chain("black-scholes", lambda k, tau: refs.bs_call(SPOT, k, CHAIN_RATE, tau, BS_VOL))
    ops.append(ladder(bs_chain, dict(kind="bs", vol=BS_VOL)))
    alpha, sigma = FMLS_CHAIN
    fmls_chain = _chain(
        "fmls",
        lambda k, tau: sp.fmls_call(alpha, sigma, sp.OptionContract(SPOT, k, CHAIN_RATE, tau), tolerance=1e-10).price,
    )
    ops.append(
        Op("calibrate.calibrate", lambda: {"carrwu": sp.calibrate(fmls_chain, "carrwu")},
           dict(kind="fmls", truth=FMLS_CHAIN, chain=fmls_chain))
    )

    def warm_up() -> None:
        for op in ops:
            sp.aggregated_error(sp.StableModelParams.from_beta(1.8, 0.0, 0.2), op.spec["chain"])

    # the FMLS fit, the cheapest operation, times the tracing
    return Workload("calibrate", ops, probe=[0], overhead_ops=[len(ops) - 1], overhead_passes=1, warm_up=warm_up, check=check_calibrate)


def check_calibrate(ops: list[Op], outputs: list[Any]) -> CheckResult:
    out = CheckResult()
    for op, reports in zip(ops, outputs):
        kind = op.spec["kind"]
        if kind == "fmls":
            # Known fault: the carrwu rung prices with the lattice series,
            # not the FMLS expectation, so it cannot recover the chain.
            fit = reports["carrwu"]
            alpha, sigma = op.spec["truth"]
            ok = abs(fit.alpha - alpha) <= 0.01 and abs(fit.sigma / sigma - 1.0) <= 0.01
            if not ok:
                out.failed += 1
                out.notes.append(
                    f"FMLS chain (alpha={alpha}, sigma={sigma}): carrwu fit alpha={fit.alpha:.4f} "
                    f"sigma={fit.sigma:.4f} AE={fit.aggregated_error:.4g} (counted as failed)"
                )
            continue
        ae = [reports[k].aggregated_error for k in ("bs", "carrwu", "stable")]
        # each richer family contains the leaner optimum, so errors nest
        if not (ae[2] <= ae[1] * (1 + 1e-9) + 1e-12 and ae[1] <= ae[0] * (1 + 1e-9) + 1e-12):
            out.problems.append(f"{op.spec['chain'].as_of}: aggregated errors do not nest: {ae}")
        if kind == "stable":
            alpha, beta, sigma = op.spec["truth"]
            fit = reports["stable"]
            if not (abs(fit.alpha - alpha) <= 0.01 and abs(fit.beta - beta) <= 0.05
                    and abs(fit.sigma / sigma - 1.0) <= 0.01):
                out.problems.append(
                    f"stable rung fit ({fit.alpha:.4f}, {fit.beta:.4f}, {fit.sigma:.4f}) "
                    f"to a chain made with ({alpha:.4f}, {beta:.4f}, {sigma:.4f})"
                )
        else:
            fit = reports["bs"]
            if abs(fit.sigma / op.spec["vol"] - 1.0) > 1e-3:
                out.problems.append(f"bs rung fit vol {fit.sigma:.6f} to a chain made with {op.spec['vol']:.6f}")
    return out


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

# Density grids are most of a round, so that the median operation is a grid:
# a Monte-Carlo check streams arrays of 1e5 draws through the shared cache,
# and its time moved by up to 30% from run to run, with other tenants' use of
# the cache, while the machine's speed (speed.py) stayed the same.  A grid
# costs 5 to 90 ms with its (alpha, theta) and point count; all three are
# stratified.  SLOW_GRIDS fixed grids at the slow corner of the diamond are
# the slowest operations, so that the round's 99th percentile is theirs on
# every seed, as a drawn extreme is not.
ORACLE_DENSITIES = 96  # of which ORACLE_GAUSSIAN at alpha = 2
ORACLE_GAUSSIAN = 9
ORACLE_MC = 24
SLOW_GRID = (1.3, -0.665, 101)  # alpha, theta (0.95 of the way to the edge), points
SLOW_GRIDS = 3
MC_PATHS = 100_000
MC_SE_BOUND = 5.0  # a correct sampler misses by more than 5 SE once in 1.7e6


def build_oracles(seed: int) -> Workload:
    rng = random.Random(seed)
    ops: list[Op] = []
    alphas = _strata(rng, ORACLE_DENSITIES - ORACLE_GAUSSIAN, 1.3, 2.0) + [2.0] * ORACLE_GAUSSIAN
    skews = _strata(rng, ORACLE_DENSITIES, -1.0, 1.0)  # theta over its range 2 - alpha
    points = [2 * int(half) + 1 for half in _strata(rng, ORACLE_DENSITIES, 20.0, 51.0)]  # 41 to 101
    grids = [(alpha, skew * (2.0 - alpha), n) for alpha, skew, n in zip(alphas, skews, points)]
    for alpha, theta, n in grids + [SLOW_GRID] * SLOW_GRIDS:
        support = sp.effective_support(alpha, theta)
        xs = np.linspace(-support, support, n)  # n is odd, so x = 0 is a grid point
        ops.append(
            Op("lab.density_grid", lambda a=alpha, t=theta, x=xs: sp.density_grid(a, t, x),
               dict(alpha=alpha, theta=theta))
        )
    for alpha in _strata(rng, ORACLE_MC, 1.3, 2.0):
        while True:
            sigma, tau, strike, rate = _market(rng)
            if _envelope(alpha, refs.fmls_mu(alpha, sigma), SPOT, strike, rate, tau) <= ENVELOPE:
                break
        contract = sp.OptionContract(SPOT, strike, rate, tau)
        mc_seed = rng.randrange(2**32)

        def mc_check(a=alpha, s=sigma, c=contract, k=mc_seed):
            mean, se = sp.mc_price_fmls(a, s, c, paths=MC_PATHS, seed=k)
            return mean, se, sp.fmls_call(a, s, c, tolerance=TOLERANCE).price

        ops.append(Op("oracles.mc_check", mc_check, dict(alpha=alpha, sigma=sigma, contract=contract)))
    rng.shuffle(ops)

    def warm_up() -> None:
        sp.stable_density(1.5, 0.0, 1.0)
        sp.mc_price_fmls(1.5, 0.2, sp.OptionContract(SPOT, SPOT, 0.0, 1.0), paths=1000)
        sp.fmls_call(1.5, 0.2, sp.OptionContract(SPOT, SPOT, 0.0, 1.0))

    # the first four operations of each kind
    probe = [i for i, op in enumerate(ops) if op.name == "lab.density_grid"][:4]
    probe += [i for i, op in enumerate(ops) if op.name == "oracles.mc_check"][:4]
    return Workload("oracles", ops, probe=probe, overhead_ops=probe, overhead_passes=3, warm_up=warm_up, check=check_oracles)


def _density_points(xs: np.ndarray) -> list[int]:
    """Indices checked on a grid: the origin, the first point in the tail
    region on each side, and both ends."""
    centre = int(np.argmin(np.abs(xs)))
    chosen = {centre, 0, len(xs) - 1}
    for side in (range(centre, len(xs)), range(centre, -1, -1)):
        for i in side:
            if abs(xs[i]) >= refs.TAIL_START:
                chosen.add(i)
                break
    return sorted(chosen)


def check_oracles(ops: list[Op], outputs: list[Any]) -> CheckResult:
    out = CheckResult()
    for op, result in zip(ops, outputs):
        if op.name == "lab.density_grid":
            alpha, theta = op.spec["alpha"], op.spec["theta"]
            xs, vals = result.abscissae, result.values
            if alpha == 2.0:
                indices = range(len(xs))
            else:
                indices = _density_points(xs)
            for i in indices:
                x = float(xs[i])
                ref = refs.gaussian_var2_pdf(x) if alpha == 2.0 else refs.stable_density_mp(alpha, theta, x)
                if ref is None:
                    out.problems.append(f"no reference density at alpha={alpha}, x={x}")
                elif abs(vals[i] - ref) > 1e-9 + 1e-6 * abs(ref):  # stable_density's quadrature bound
                    out.problems.append(f"density({alpha:.4f}, {theta:.4f}, {x:.6g}) = {vals[i]!r}, reference {ref!r}")
            continue
        mean, se, series = result
        c = op.spec["contract"]
        ref = refs.lewis_fmls_call(op.spec["alpha"], op.spec["sigma"], c.spot, c.strike, c.rate, c.maturity)
        if abs(series - ref) > 100 * TOLERANCE:
            out.problems.append(f"fmls_call {c} = {series!r}, Lewis integral {ref!r}")
        if abs(mean - ref) > MC_SE_BOUND * se:
            out.problems.append(f"Monte-Carlo {c} = {mean!r} +- {se:.3g}, Lewis integral {ref!r}")
    return out


BUILDERS = {"quotes": build_quotes, "calibrate": build_calibrate, "oracles": build_oracles}
