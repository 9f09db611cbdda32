"""Pricers for the two members with a risk-neutral expectation.

The Gaussian member of the stable family (alpha=2, theta=0, mu=-sigma**2)
has characteristic function exp(-k**2), i.e. a normal log-return with
variance 2 per unit maturity, so the series price coincides with the
Black-Scholes formula at volatility sigma*sqrt(2).

The finite-moment log-stable (FMLS) member (theta = alpha-2, mu = mu_fmls)
is priced by the drift-shifted double series of Carr & Wu (2003) and
Aguilar & Korbel (2019),

    C = (K*exp(-r*tau)/alpha) * sum_{n>=0, m>=1} x**n/n!
        * (-mu*tau)**((m-n)/alpha) / Gamma(1 + (m-n)/alpha),

with x = ln(S/K) + (r + mu)*tau.  This is the discounted payoff
expectation that lab.mc_price_fmls simulates.  The lattice series of
pricer.py at the same parameters is a different number, so it is not used
here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .core import (
    ConvergenceError,
    DomainError,
    OptionContract,
    StableModelParams,
    log_moneyness,
)
from .pricer import PriceResult


@dataclass(frozen=True)
class BlackScholesParams:
    """Lognormal model parameter."""

    volatility: float

    def __post_init__(self) -> None:
        if self.volatility <= 0.0:
            raise DomainError(f"volatility must be positive, got {self.volatility}")


def _norm_cdf(x: float) -> float:
    # erfc keeps full relative accuracy in the far tails.
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def bs_equivalent_vol(sigma: float) -> float:
    """Lognormal volatility matching the stable scale sigma at alpha=2."""
    return sigma * math.sqrt(2.0)


def black_scholes_call(contract: OptionContract, vol: float) -> float:
    """Standard lognormal call price S*N(d1) - K*exp(-r*tau)*N(d2)."""
    if vol <= 0.0:
        raise DomainError(f"volatility must be positive, got {vol}")
    lm = log_moneyness(contract)
    sq = vol * math.sqrt(contract.maturity)
    d1 = lm / sq + sq / 2.0
    d2 = d1 - sq
    return contract.spot * _norm_cdf(d1) - contract.discounted_strike() * _norm_cdf(d2)


def black_scholes_put(contract: OptionContract, vol: float) -> float:
    """Lognormal put price via parity, P = C - (S - K*exp(-r*tau))."""
    call = black_scholes_call(contract, vol)
    return call - (contract.spot - contract.discounted_strike())


def _rgamma(x: float) -> float:
    """1/Gamma(x), exactly 0 at the poles x = 0, -1, -2, ..."""
    if x <= 0.0 and x == math.floor(x):
        return 0.0
    return 1.0 / math.gamma(x)


def _fmls_series(
    params: StableModelParams,
    contract: OptionContract,
    tolerance: float,
    max_column: int,
) -> PriceResult:
    """Call price from the drift-shifted FMLS series, summed column by column.

    With a_j = po**(j/alpha) / Gamma(1 + j/alpha), po = -mu*tau, column n
    is (K*exp(-r*tau)/alpha) * c_n * x**n/n! where c_n = sum_{j>=1-n} a_j.
    The tail sum_{j>=1} a_j is common to every column; each new column adds
    one a_{1-n}.  1/Gamma vanishes exactly at its poles, so those a_j are 0.
    """
    alpha = params.alpha
    po = -params.mu * contract.maturity
    log_po = math.log(po)
    x = log_moneyness(contract) + params.mu * contract.maturity
    scale = contract.discounted_strike() / alpha

    # sum_{j>=1} a_j: the terms fall once j/alpha exceeds po, then
    # factorially; stop when they no longer move the sum in float64.
    c = 0.0
    j = 1
    while True:
        try:
            a = math.exp(j * log_po / alpha - math.lgamma(1.0 + j / alpha))
        except OverflowError:
            raise ConvergenceError(
                f"FMLS series overflowed (-mu*tau = {po:.3g} too large)"
            ) from None
        c += a
        if j / alpha > po and a <= 1e-17 * c:
            break
        j += 1

    columns: list[float] = []
    power = 1.0  # x**n / n!
    prev_quiet = False
    for n in range(0, max_column + 1):
        if n > 0:
            try:
                a = po ** ((1 - n) / alpha) * _rgamma(1.0 + (1 - n) / alpha)
            except (OverflowError, ZeroDivisionError):
                a = math.inf  # reported by the finiteness check below
            c += a
            power *= x / n
        col = scale * c * power
        if not math.isfinite(col):
            raise ConvergenceError(
                f"FMLS series terms overflowed at column {n} "
                f"(-mu*tau = {po:.3g}, x = {x:.3g})"
            )
        columns.append(col)
        quiet = abs(col) <= tolerance
        if quiet and prev_quiet:
            break
        prev_quiet = quiet
    else:
        raise ConvergenceError(
            f"FMLS series did not stabilize within {max_column} columns "
            f"(last column {abs(col):.3e} > tolerance {tolerance:.3e})"
        )
    return PriceResult(
        price=math.fsum(columns),
        columns_used=len(columns),
        truncation_estimate=abs(col),
        diamond_flag=params.in_diamond,
    )


def fmls_call(
    alpha: float,
    sigma: float,
    contract: OptionContract,
    tolerance: float = 1e-4,
    max_column: int = 64,
) -> PriceResult:
    """Price under maximal negative skewness (theta = alpha-2, mu = mu_fmls).

    The value is the risk-neutral expectation, summed from the drift-shifted
    series in the module docstring over columns n = 0, 1, ...  Summation
    stops after two consecutive columns each below tolerance in absolute
    value (currency units); columns_used counts the columns summed.  Put
    contracts are priced through parity, P = C - (S - K*exp(-r*tau)).

    Raises ConvergenceError if max_column is reached before two consecutive
    columns are below tolerance, or if the terms overflow.
    """
    if tolerance <= 0.0:
        raise DomainError(f"tolerance must be positive, got {tolerance}")
    if max_column < 1:
        raise DomainError(f"max_column must be >= 1, got {max_column}")
    params = StableModelParams.fmls(alpha, sigma)
    call = _fmls_series(params, contract, tolerance, max_column)
    if contract.side == "put":
        forward = contract.spot - contract.discounted_strike()
        return replace(call, price=call.price - forward, via_parity=True)
    return call
