"""Model parameter types, domain validation, and basic model quantities.

The asymmetry of the stable law is carried by the Feller parameter theta,
restricted (for a probabilistic interpretation) to the Feller-Takayasu
diamond |theta| <= min(alpha, 2 - alpha).  Market conventions often quote
the skewness beta in [-1, 1] instead; the two are related by a monotone
arctangent map fixed by its endpoints (beta=0 -> theta=0 and
beta=-1 -> theta=alpha-2).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

# the largest -rate*maturity whose discount exp(-rate*maturity) is finite
_MAX_DISCOUNT_EXPONENT = math.log(math.nextafter(math.inf, 0.0))


class DomainError(ValueError):
    """A parameter lies outside its mathematical domain."""


class ConvergenceError(RuntimeError):
    """A series or quadrature failed to reach the requested tolerance."""

    # the failing strike's index in the strikes priced (0 from price)
    strike_index: int | None = None


def _check_alpha(alpha: float) -> None:
    if not (1.0 < alpha <= 2.0):
        raise DomainError(f"alpha must lie in (1, 2], got {alpha}")


def _check_sigma(sigma: float) -> None:
    if not 0.0 < sigma < math.inf:
        raise DomainError(f"sigma must be positive and finite, got {sigma}")


def _check_discount(rate_maturity: float) -> None:
    if rate_maturity == math.inf:
        raise DomainError(f"rate * maturity must be finite, got {rate_maturity}")
    if rate_maturity < -_MAX_DISCOUNT_EXPONENT:
        raise DomainError(
            f"rate * maturity must be >= {-_MAX_DISCOUNT_EXPONENT:.6g} "
            f"(the discount overflows), got {rate_maturity:.6g}"
        )


def _check_discounted_strike(discounted_strike: float) -> None:
    if discounted_strike == math.inf:
        raise DomainError("discounted strike K * exp(-rate * maturity) overflows")


def _check_spot_ratio(spot: float, low_strike: float, high_strike: float) -> None:
    # ln(S/K) needs S/K inside float range at every strike, low to high
    if spot / high_strike == 0.0 or spot / low_strike == math.inf:
        raise DomainError("spot / strike leaves float range (it overflows or underflows)")


def _check_beta(beta: float) -> None:
    if not (-1.0 <= beta <= 1.0):
        raise DomainError(f"beta must lie in [-1, 1], got {beta}")


def validate_feller_takayasu(alpha: float, theta: float) -> bool:
    """Return True iff |theta| <= min(alpha, 2 - alpha)."""
    _check_alpha(alpha)
    return abs(theta) <= min(alpha, 2.0 - alpha)


def _tan_half(alpha: float) -> float:
    # tan(pi*alpha/2) computed via the shifted argument pi*(alpha-2)/2 so the
    # value is exactly 0.0 at alpha=2 instead of tan(pi) rounding noise.
    return math.tan(math.pi * (alpha - 2.0) / 2.0)


def beta_to_theta(alpha: float, beta: float) -> float:
    """Convert skewness beta in [-1, 1] to the Feller asymmetry theta.

    The map is strictly increasing in beta for alpha in (1, 2), sends 0 to 0,
    -1 to alpha-2, +1 to 2-alpha, and always lands inside the diamond.
    """
    _check_alpha(alpha)
    _check_beta(beta)
    bound = min(alpha, 2.0 - alpha)
    if abs(beta) == 1.0:
        # the diamond's edges exactly, so that beta = -1 lands on the FMLS
        # line theta = alpha-2; the arctan composition misses them by an ulp
        return beta * bound
    theta = -(2.0 / math.pi) * math.atan(beta * _tan_half(alpha))
    # near |beta| = 1 the composition can overshoot the edge by an ulp;
    # clamp so the advertised invariant holds exactly
    return max(-bound, min(bound, theta))


def theta_to_beta(alpha: float, theta: float) -> float:
    """Invert beta_to_theta; requires theta inside the diamond."""
    if not validate_feller_takayasu(alpha, theta):
        raise DomainError(
            f"theta={theta} outside the diamond |theta| <= "
            f"{min(alpha, 2.0 - alpha)} for alpha={alpha}; no skewness beta exists"
        )
    t = _tan_half(alpha)
    if t == 0.0:
        # alpha=2: diamond collapses to theta=0 and beta is unidentifiable.
        return 0.0
    return -math.tan(theta * math.pi / 2.0) / t


def mu_fmls(alpha: float, sigma: float) -> float:
    """Characteristic exponent sigma^alpha * sec(pi*alpha/2).

    Negative for all alpha in (1, 2]; equals -sigma**2 exactly at alpha=2.
    Where it overflows, DomainError.
    """
    _check_alpha(alpha)
    _check_sigma(sigma)
    # sec(pi*alpha/2) = -1/cos(pi*(alpha-2)/2); the shifted cosine is exact at
    # alpha=2 and stays positive on (1, 2], never 0 for a float alpha.
    c = math.cos(math.pi * (alpha - 2.0) / 2.0)
    try:
        mu = -(sigma**alpha) / c
    except OverflowError:
        mu = -math.inf
    if mu == -math.inf:
        raise DomainError(f"sigma**alpha * sec(pi*alpha/2) overflows at alpha={alpha}")
    return mu


@dataclass(frozen=True)
class StableModelParams:
    """Stable log-price model parameters.

    Attributes:
        alpha: stability index, in (1, 2].
        theta: Feller asymmetry, finite.  Values outside the diamond are
            accepted (the pricing series continues analytically) but flagged.
        sigma: scale, > 0 and finite.
        mu: characteristic exponent, finite; must be < 0 when pricing (checked by
            the pricing routines, not at construction, so that the error
            path is reachable).
        in_diamond: whether |theta| <= min(alpha, 2-alpha).
    """

    alpha: float
    theta: float
    sigma: float
    mu: float
    in_diamond: bool = field(init=False)

    def __post_init__(self) -> None:
        _check_alpha(self.alpha)
        _check_sigma(self.sigma)
        if not (math.isfinite(self.theta) and math.isfinite(self.mu)):
            raise DomainError(f"theta={self.theta} and mu={self.mu} must be finite")
        object.__setattr__(
            self, "in_diamond", validate_feller_takayasu(self.alpha, self.theta)
        )

    @classmethod
    def from_beta(
        cls, alpha: float, beta: float, sigma: float, mu: float | None = None
    ) -> "StableModelParams":
        """Build from market skewness beta; mu defaults to mu_fmls(alpha, sigma)."""
        theta = beta_to_theta(alpha, beta)
        if mu is None:
            mu = mu_fmls(alpha, sigma)
        return cls(alpha=alpha, theta=theta, sigma=sigma, mu=mu)

    @classmethod
    def fmls(cls, alpha: float, sigma: float) -> "StableModelParams":
        """Maximal negative skewness (beta=-1): theta=alpha-2, mu=mu_fmls."""
        return cls(
            alpha=alpha, theta=alpha - 2.0, sigma=sigma, mu=mu_fmls(alpha, sigma)
        )


@dataclass(frozen=True)
class OptionContract:
    """European option contract terms."""

    spot: float
    strike: float
    rate: float
    maturity: float
    side: str = "call"

    def __post_init__(self) -> None:
        for name in ("spot", "strike", "maturity"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise DomainError(f"{name} must be positive and finite, got {value}")
        if not math.isfinite(self.rate):
            raise DomainError(f"rate must be finite, got {self.rate}")
        _check_discount(self.rate * self.maturity)
        _check_discounted_strike(self.discounted_strike())
        _check_spot_ratio(self.spot, self.strike, self.strike)
        if self.side not in ("call", "put"):
            raise DomainError(f"side must be 'call' or 'put', got {self.side!r}")

    def discounted_strike(self) -> float:
        return self.strike * math.exp(-self.rate * self.maturity)

    def forward(self) -> float:
        """S - K*exp(-r*tau), what put-call parity takes off the call."""
        return self.spot - self.discounted_strike()


def log_moneyness(contract: OptionContract) -> float:
    """log(S/K) + r*tau; zero exactly at S = K*exp(-r*tau)."""
    return math.log(contract.spot / contract.strike) + contract.rate * contract.maturity


def _usable_cores() -> int:
    """The cores this process may run on, read afresh on each call."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1
