"""Closed-form oracles and the FMLS member's price.

The Gaussian member of the stable family (alpha=2, theta=0, mu=-sigma**2)
has characteristic function exp(-k**2), i.e. a normal log-return with
variance 2 per unit maturity, so the series price coincides with the
Black-Scholes formula at volatility sigma*sqrt(2).

The finite-moment log-stable (FMLS) member (theta = alpha-2, mu = mu_fmls)
is priced by the drift-shifted series of Carr & Wu (2003), the discounted
payoff expectation that lab.mc_price_fmls simulates; fmls_call is
pricer.price on that member, which picks this series from the model.
"""

from __future__ import annotations

import math

from .core import DomainError, OptionContract, StableModelParams, log_moneyness
from .pricer import _MAX_COLUMN, _TOLERANCE, PriceResult, price


def _norm_cdf(x: float) -> float:
    # erfc keeps full relative accuracy in the far tails.
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def bs_equivalent_vol(sigma: float) -> float:
    """Lognormal volatility matching the stable scale sigma at alpha=2."""
    return sigma * math.sqrt(2.0)


def black_scholes(contract: OptionContract, vol: float) -> float:
    """Lognormal price by contract.side: the call S*N(d1) - K*exp(-r*tau)*N(d2),
    and a put through parity, P = C - (S - K*exp(-r*tau))."""
    if vol <= 0.0:
        raise DomainError(f"volatility must be positive, got {vol}")
    lm = log_moneyness(contract)
    sq = vol * math.sqrt(contract.maturity)
    d1 = lm / sq + sq / 2.0
    d2 = d1 - sq
    call = contract.spot * _norm_cdf(d1) - contract.discounted_strike() * _norm_cdf(d2)
    return call - contract.forward() if contract.side == "put" else call


def fmls_call(
    alpha: float,
    sigma: float,
    contract: OptionContract,
    tolerance: float = _TOLERANCE,
    max_column: int = _MAX_COLUMN,
) -> PriceResult:
    """Price under maximal negative skewness (theta = alpha-2, mu = mu_fmls).

    price on StableModelParams.fmls(alpha, sigma), for a call or a put by
    the contract's side: for alpha < 2 the risk-neutral expectation from
    Carr & Wu's series, at alpha = 2 Black-Scholes.  Put contracts are
    priced through parity, P = C - (S - K*exp(-r*tau)).  It raises what
    price raises.
    """
    return price(StableModelParams.fmls(alpha, sigma), contract, tolerance, max_column)
