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
expectation that lab.mc_price_fmls simulates.  Summed over m, column n
carries c_n = sum_{j>=1-n} po**(j/alpha) / Gamma(1 + j/alpha), po = -mu*tau.
On the FMLS line rho = (alpha-theta)/(2*alpha) = 1/alpha, so the reflection
formula writes the terms with j = -k <= 0 through pricer.py's residue weight
h_k = Gamma(k/alpha) * sin(pi*k*rho) / (alpha*pi), exactly 0 at the poles:

    po**(-k/alpha) / Gamma(1 - k/alpha) = alpha * h_k * po**(-k/alpha).

pricer._fmls_columns builds the columns and the lattice's strict stop rule
sums them: two consecutive columns within the tolerance, or ConvergenceError.
The lattice series of pricer.py at the same parameters is a different
number, so it is not used here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import DomainError, OptionContract, StableModelParams, log_moneyness
from .pricer import PriceResult, _fmls_columns, _price


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
    stops after two consecutive columns each at most tolerance in absolute
    value (currency units); columns_used counts the columns summed.  Put
    contracts are priced through parity, P = C - (S - K*exp(-r*tau)).

    Raises ConvergenceError, even when the final column alone is within
    tolerance, if no two consecutive columns up to n = max_column are, or if
    the terms overflow.
    """
    params = StableModelParams.fmls(alpha, sigma)
    return _price(_fmls_columns, params, contract, tolerance, max_column)
