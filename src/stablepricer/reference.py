"""Closed-form oracles.

The Gaussian member of the stable family (alpha=2, theta=0, mu=-sigma**2)
has characteristic function exp(-k**2), i.e. a normal log-return with
variance 2 per unit maturity, so the series price coincides with the
Black-Scholes formula at volatility sigma*sqrt(2).
"""

from __future__ import annotations

import math

from .core import DomainError, OptionContract, log_moneyness


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

