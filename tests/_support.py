"""Shared constants and numeric helpers for the test suite.

GOLDEN_* values are frozen from a verified evaluation of this
implementation (regression locks).  REFERENCE_* values are the externally
tabulated targets the golden convention was locked against; they carry
print-level rounding, so the tests compare them at looser tolerances.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from scipy import integrate, stats

from stablepricer.calibrate import OptionChain
from stablepricer.core import (
    ConvergenceError,
    DomainError,
    OptionContract,
    StableModelParams,
    beta_to_theta,
    mu_fmls,
)
from stablepricer.lab import (
    SamplerConfig,
    _gauss_legendre,
    effective_support,
    s1_scale_factor,
    sample_stable,
    stable_density,
)
from stablepricer.pricer import price_call_strikes

# the locked golden pricing convention: alpha=1.5, theta=-0.4, sigma=0.25 on
# the S=4300/K=4000/r=1%/tau=1 contract, with the drift correction
# mu = sigma**alpha * cos(pi*alpha/2)
GOLDEN_MU = -0.08838834764831843


def golden_params() -> StableModelParams:
    return StableModelParams(alpha=1.5, theta=-0.4, sigma=0.25, mu=GOLDEN_MU)


def golden_contract() -> OptionContract:
    return OptionContract(spot=4300.0, strike=4000.0, rate=0.01, maturity=1.0)


# cumulative column sums of the golden term table, n = -1 .. 10 (frozen)
GOLDEN_COLUMN_SUMS = (
    215.2070878354408,
    1218.1188642925372,
    994.2847915333662,
    964.3583076911701,
    995.5244346046092,
    990.5462391240249,
    988.7339672425725,
    989.642778464895,
    989.5861125780733,
    989.5230834837953,
    989.541901817475,
    989.5425207631318,
)
GOLDEN_PRICE = 989.541311710991  # price_call at tolerance 1e-4
GOLDEN_COLUMNS_USED = 16

# price_call_strikes of the golden params at spot 4300 (r = 1%, tau = 1) at
# tolerance 1e-8, to the last bit: each strike's columns are summed in
# numpy's pairwise order over its own contiguous column, so a change of
# layout or of summation order shows here
GOLDEN_LADDER_STRIKES = (
    3600.0, 3800.0, 4000.0, 4200.0, 4300.0, 4400.0, 4600.0, 4800.0, 5000.0
)
GOLDEN_LADDER_CALLS = (
    1067.407936114676,
    1014.4259369712692,
    989.5413150976899,
    988.0502123060137,
    993.6664382461692,
    1001.8919182210202,
    1020.6955044083472,
    1033.526961637598,
    1030.8825866893017,
)

# externally tabulated cumulative row (printed at 3 decimals)
REFERENCE_CUMULATIVE = (
    215.207,
    1218.119,
    994.285,
    964.358,
    995.524,
    990.546,
    988.734,
    989.643,
    989.586,
    989.523,
    989.542,
    989.542,
)
REFERENCE_PRICE = 989.542

# externally tabulated nonzero term cells {(n, m): value}
REFERENCE_CELLS = {
    (-1, 0): 215.207,
    (0, 0): 37.007,
    (1, 0): -4.118,
    (2, 0): -0.265,
    (3, 0): 0.133,
    (4, 0): -0.010,
    (5, 0): -0.002,
    (0, 1): 965.905,
    (1, 1): -214.969,
    (2, 1): -20.765,
    (3, 1): 13.905,
    (4, 1): -1.339,
    (5, 1): -0.282,
    (6, 1): 0.080,
    (7, 1): -0.003,
    (8, 1): 0.002,
    (1, 2): -4.747,
    (2, 2): -0.917,
    (3, 2): 0.921,
    (4, 2): -0.118,
    (5, 2): -0.031,
    (6, 2): 0.011,
    (2, 3): -7.979,
    (3, 3): 16.030,
    (4, 3): -3.087,
    (5, 3): -1.084,
    (6, 3): 0.459,
    (7, 3): -0.022,
    (8, 3): -0.018,
    (3, 4): 0.177,
    (4, 4): -0.068,
    (5, 4): -0.036,
    (6, 4): 0.020,
    (7, 4): -0.001,
    (8, 4): -0.001,
    (4, 5): -0.356,
    (5, 5): -0.375,
    (6, 5): 0.317,
    (7, 5): -0.025,
    (8, 5): -0.031,
    (9, 5): 0.009,
    (5, 6): -0.003,
    (6, 6): 0.005,
    (7, 6): -0.001,
    (8, 6): -0.001,
    (6, 7): 0.017,
    (7, 7): -0.004,
    (8, 7): -0.010,
    (9, 7): 0.005,
}


def normalization_mass(
    alpha: float,
    theta: float,
    half: float = 16.0,
    step: float = 0.004,
    tail_points: int = 800,
    tail_mass: float = 1e-7,
) -> float:
    """Trapezoid mass of stable_density on a dense core + log-spaced tails."""
    support = effective_support(alpha, theta, tail_mass)
    core = np.linspace(-half, half, int(2 * half / step) + 1)
    right = np.geomspace(half, support, tail_points)[1:]
    xs = np.concatenate([-right[::-1], core, right])
    return float(np.trapezoid(stable_density(alpha, theta, xs), xs))


def density_cdf(alpha: float, theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Numeric CDF of the Feller-standard density on a wide grid."""
    support = effective_support(alpha, theta, 1e-6)
    core = np.linspace(-15.0, 15.0, 1501)
    right = np.geomspace(15.0, support, 250)[1:]
    xs = np.concatenate([-right[::-1], core, right])
    pdf = stable_density(alpha, theta, xs)
    cdf = np.concatenate(
        [[0.0], np.cumsum(np.diff(xs) * (pdf[1:] + pdf[:-1]) / 2.0)]
    )
    return xs, cdf / cdf[-1]


SERIES_DIGITS = 40
POWER_TERMS = 2000


def _power_plans(alpha: float, xs: list[float]) -> list[tuple[int, int] | None]:
    """For each x: the terms of the power series until they stay below
    1e-45, and the decimal digits of its largest term; None if that takes
    more than POWER_TERMS terms.  The log term size is concave in n, so the
    first small term after n = 0 ends the series."""
    n = np.arange(POWER_TERMS + 1)
    log_c = np.array([math.lgamma((k + 1) / alpha) - math.lgamma(k + 1) for k in n])
    plans = []
    for x in xs:
        mag = log_c + n * math.log(abs(x)) if x else np.where(n == 0, log_c, -np.inf)
        small = np.flatnonzero((n > 0) & (mag < -(SERIES_DIGITS + 5) * math.log(10.0)))
        if small.size:
            plans.append((int(small[0]), int(max(0.0, mag.max()) / math.log(10.0))))
        else:
            plans.append(None)
    return plans


def series_density(alpha: float, theta: float, xs) -> np.ndarray:
    """Feller-standard stable density at each x from 40-digit mpmath series.

    Power series (convergent, summed with guard digits for its largest term)
    where it needs at most POWER_TERMS terms, else the asymptotic series
    in |x|, summed to its smallest term, which must fall below 1e-20 of
    the sum:

        g(x) = 1/(alpha pi) sum_n Gamma((n+1)/alpha)/n!
                                  cos(pi (theta (n+1)/(2 alpha) + n/2)) x^n
        g(x) ~ 1/pi sum_j (-1)^(j+1) Gamma(alpha j + 1)/j!
                                  sin(pi j (alpha - theta)/2) x^-(alpha j + 1),

    the second for x > 0, with g(-x; theta) = g(x; -theta).
    """
    import mpmath as mp

    xs = [float(x) for x in xs]
    plans = _power_plans(alpha, xs)
    used = [p for p in plans if p is not None]
    terms = max((n for n, _ in used), default=0)
    guard = max((d for _, d in used), default=0)
    out = []
    with mp.workdps(SERIES_DIGITS + guard + 5):
        a, th = mp.mpf(alpha), mp.mpf(theta)
        power = [
            mp.gamma((n + 1) / a)
            / mp.factorial(n)
            * mp.cospi(th * (n + 1) / (2 * a) + mp.mpf(n) / 2)
            for n in range(terms + 1)
        ]
        tail = []  # log(Gamma(alpha j + 1)/j!) for j = 1, 2, ...
        for x, plan in zip(xs, plans):
            if plan is not None:
                n, digits = plan
                with mp.workdps(SERIES_DIGITS + digits + 5):
                    total = mp.mpf(0)
                    for c in reversed(power[: n + 1]):
                        total = total * x + c
                    out.append(float(total / (a * mp.pi)))
                continue
            side, log_x = (th if x > 0.0 else -th), mp.log(abs(x))
            total, smallest = mp.mpf(0), mp.inf
            for j in range(1, 100_000):
                if len(tail) < j:
                    tail.append(mp.loggamma(a * j + 1) - mp.loggamma(j + 1))
                size = mp.exp(tail[j - 1] - (a * j + 1) * log_x)
                if size > smallest or size < mp.mpf(10) ** -SERIES_DIGITS * abs(total):
                    break
                smallest = size
                total += (-1) ** (j + 1) * mp.sinpi(j * (a - side) / 2) * size
            if smallest > mp.mpf(10) ** -20 * abs(total):
                raise ArithmeticError(f"no density series settles at x={x}")
            out.append(float(total / mp.pi))
    return np.array(out)


def reference_ray_rule(alpha: float, theta: float, xs: np.ndarray, nodes: int) -> np.ndarray:
    """The rule in r = R u**3 on [0, R] at each point, x < 0 by g(x; theta) =
    g(-x; -theta); each point's terms are summed in their own row."""
    side = np.where(xs < 0.0, -theta, theta)
    turn = np.exp(1j * np.pi * (1.0 + side) / (4.0 * alpha))  # e^{i phi}
    tilt = np.exp(1j * np.pi * (1.0 - side) / 4.0)  # e^{i (alpha phi - side pi/2)}
    grow = 1j * np.abs(xs) * turn  # the exponent is grow r - tilt r**alpha
    # each term of its real part passes -40 at its own cut, so their sum by the nearer
    cut = 40.0 / np.maximum(-grow.real, 40.0 * (tilt.real / 40.0) ** (1.0 / alpha))
    u, w = _gauss_legendre(nodes)
    sums = np.empty(xs.size, dtype=complex)
    rows = max(1, (1 << 16) // nodes)  # points per block of at most 2**16 terms
    for b in (slice(i, i + rows) for i in range(0, xs.size, rows)):
        r = cut[b, None] * u
        sums[b] = (np.exp(grow[b, None] * r - tilt[b, None] * r**alpha) * w).sum(axis=1)
    return (turn * cut * sums).real / np.pi


def ray_rule_size(alpha: float, theta: float, xs: np.ndarray, nodes: int) -> np.ndarray:
    """(R/pi) sum_j w_j e^{Re z_j} at each point: the sum of the absolute
    values of reference_ray_rule's terms, the scale of its rounding error."""
    side = np.where(xs < 0.0, -theta, theta)
    turn = np.exp(1j * np.pi * (1.0 + side) / (4.0 * alpha))
    tilt = np.exp(1j * np.pi * (1.0 - side) / 4.0)
    grow = 1j * np.abs(xs) * turn
    cut = 40.0 / np.maximum(-grow.real, 40.0 * (tilt.real / 40.0) ** (1.0 / alpha))
    u, w = _gauss_legendre(nodes)
    r = cut[:, None] * u
    exponent = (grow[:, None] * r - tilt[:, None] * r**alpha).real
    return cut / np.pi * (np.exp(exponent) * w).sum(axis=1)


def sampler_ks_pvalue(
    alpha: float, beta: float, count: int = 100_000, seed: int = 11
) -> float:
    """KS p-value of sampler draws against the numerically integrated CDF."""
    theta = beta_to_theta(alpha, beta)
    xs, cdf = density_cdf(alpha, theta)
    draws = sample_stable(
        SamplerConfig(alpha=alpha, beta=beta, count=count, seed=seed)
    )
    # draws use the common-parameterization unit scale; the density grid is
    # Feller-standard, so rescale before comparing
    feller = draws / s1_scale_factor(alpha, beta)
    result = stats.kstest(feller, lambda q: np.interp(q, xs, cdf))
    return float(result.pvalue)


def sampler_blocks(config: SamplerConfig):
    """(first, U, W) of each 65536-draw block of lab.sample_stable, in one
    serial loop: U = pi (V - 1/2) and W from Philox keyed by (seed, block)."""
    block_size = 1 << 16
    for first in range(0, config.count, block_size):
        size = min(block_size, config.count - first)
        key = np.array([config.seed, first // block_size], dtype=np.uint64)
        gen = np.random.Generator(np.random.Philox(key=key))
        yield first, math.pi * (gen.random(size) - 0.5), gen.standard_exponential(size)


def sampler_constants(config: SamplerConfig) -> tuple[float, float, float, float]:
    """B, scale, 1/alpha and (1 - alpha)/alpha of the transform."""
    alpha, beta = config.alpha, config.beta
    b = math.atan(beta * math.tan(math.pi * (alpha - 2.0) / 2.0)) / alpha
    return b, s1_scale_factor(alpha, beta), 1.0 / alpha, (1.0 - alpha) / alpha


def half_angle_cos(x: np.ndarray) -> np.ndarray:
    """cos x = 2/(1 + t*t) - 1 with t = tan(x/2)."""
    t = np.tan(x / 2.0)
    return 2.0 / (1.0 + t * t) - 1.0


def reference_sample_stable(config: SamplerConfig) -> np.ndarray:
    """The stable sampler as one serial loop over its blocks, in the order of
    lab.sample_stable's transform, with sin x = 2t/(1 + t*t) and
    half_angle_cos: the bits it must reproduce on any number of cores."""
    b, scale, inv_alpha, exp_w = sampler_constants(config)
    out = np.empty(config.count)
    for first, u, w in sampler_blocks(config):
        au = config.alpha * (u + b)
        c = (half_angle_cos(u - au) / w) ** exp_w / half_angle_cos(u) ** inv_alpha
        t = np.tan(au / 2.0)
        out[first : first + u.size] = 2.0 * scale * t / (1.0 + t * t) * c
    return out


def sincos_sample_stable(config: SamplerConfig) -> np.ndarray:
    """The sampler's draws from the same (U, W) by np.sin and np.cos:

    X = scale sin(alpha (U + B)) / cos(U)**(1/alpha)
          * (cos(U - alpha (U + B)) / W)**((1 - alpha)/alpha)."""
    b, scale, inv_alpha, exp_w = sampler_constants(config)
    out = np.empty(config.count)
    for first, u, w in sampler_blocks(config):
        au = config.alpha * (u + b)
        out[first : first + u.size] = (
            scale * np.sin(au) / np.cos(u) ** inv_alpha * (np.cos(u - au) / w) ** exp_w
        )
    return out


def gaussian_pdf_var2(x: float) -> float:
    """N(0, 2) density, the alpha=2 limit of the Feller-standard family."""
    return math.exp(-x * x / 4.0) / (2.0 * math.sqrt(math.pi))


def well_convergent(params: StableModelParams, contract: OptionContract) -> bool:
    """Whether a setup sits in the series' fast-convergence envelope.

    Column magnitudes initially grow like r**n with
    r = (|log-moneyness| + po) * po**(-1/alpha), po = -mu*tau, before the
    factorial deficit takes over; r <= 2 keeps the peak small enough for
    float64 summation and for the default 64-column cap.
    """
    po = -params.mu * contract.maturity
    lm = math.log(contract.spot / contract.strike) + contract.rate * contract.maturity
    return (abs(lm) + po) * po ** (-1.0 / params.alpha) <= 2.0


def lewis_fmls_call(alpha: float, sigma: float, contract: OptionContract) -> float:
    """FMLS call price from the Lewis (2001) Fourier integral.

    C = S - sqrt(S*K*exp(-r*tau))/pi
        * int_0^inf Re[exp(i*u*k) * phi(u - i/2)] / (u**2 + 1/4) du,
    with k = ln(S/K) + r*tau and phi(z) = exp(i*z*mu*tau - mu*tau*(i*z)**alpha)
    the characteristic function of the log-return net of r*tau.
    """
    s, k, r, tau = contract.spot, contract.strike, contract.rate, contract.maturity
    mu = mu_fmls(alpha, sigma)
    lm = math.log(s / k) + r * tau

    def integrand(u: float) -> float:
        z = u - 0.5j
        phi = cmath.exp(1j * z * mu * tau - mu * tau * (1j * z) ** alpha)
        return (cmath.exp(1j * u * lm) * phi).real / (u * u + 0.25)

    val, err = integrate.quad(
        integrand, 0.0, math.inf, epsabs=1e-14, epsrel=1e-13, limit=500
    )
    assert err < 1e-10
    return s - math.sqrt(s * k * math.exp(-r * tau)) / math.pi * val


def _by_pair(pairs) -> dict[tuple, list[int]]:
    """Indices grouped by key, keys in order of first appearance."""
    groups: dict[tuple, list[int]] = {}
    for i, pair in enumerate(pairs):
        groups.setdefault(pair, []).append(i)
    return groups


def price_by_pair(
    params: StableModelParams,
    spot: float,
    rates: np.ndarray,
    maturities: np.ndarray,
    strikes: np.ndarray,
    **kwargs,
) -> np.ndarray:
    """A chain priced one price_call_strikes call per (rate, maturity) pair.

    Pairs go in order of first appearance; the prices come back in input
    order, and a failure's strike_index is its index in strikes.
    """
    prices = np.empty(len(strikes))
    for (rate, maturity), indices in _by_pair(zip(rates, maturities)).items():
        try:
            prices[indices] = price_call_strikes(
                params, spot, rate, maturity, np.asarray(strikes)[indices], **kwargs
            )
        except ConvergenceError as exc:
            exc.strike_index = indices[exc.strike_index]
            raise
    return prices


def aggregated_error_by_group(
    params: StableModelParams,
    chain: OptionChain,
    tolerance: float = 1e-5,
    max_column: int = 64,
) -> float:
    """calibrate.objective_params restated one (spot, rate, maturity) group at
    a time: one price_call_strikes call per group, puts through parity,
    math.fsum of the absolute errors, and inf where a group fails to price."""
    per_quote = [0.0] * len(chain.quotes)
    quotes = chain.quotes
    for (spot, rate, maturity), indices in _by_pair(
        (q.spot, q.rate, q.maturity) for q in quotes
    ).items():
        try:
            calls = price_call_strikes(
                params,
                spot,
                rate,
                maturity,
                np.array([quotes[i].strike for i in indices]),
                tolerance=tolerance,
                max_column=max_column,
            )
        except (ConvergenceError, DomainError):
            return math.inf
        disc = math.exp(-rate * maturity)
        for i, call in zip(indices, calls):
            if quotes[i].side == "put":
                call -= spot - quotes[i].strike * disc
            per_quote[i] = abs(call - quotes[i].market_price)
    return math.fsum(per_quote)
