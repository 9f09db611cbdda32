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
from dataclasses import dataclass, field


class DomainError(ValueError):
    """A parameter lies outside its mathematical domain."""


class ConvergenceError(RuntimeError):
    """A series or quadrature failed to reach the requested tolerance."""

    strike_index: int | None = None  # the failing strike, from price_call_strikes


def _check_alpha(alpha: float) -> None:
    if not (1.0 < alpha <= 2.0):
        raise DomainError(f"alpha must lie in (1, 2], got {alpha}")


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
    if not (-1.0 <= beta <= 1.0):
        raise DomainError(f"beta must lie in [-1, 1], got {beta}")
    theta = -(2.0 / math.pi) * math.atan(beta * _tan_half(alpha))
    # the arctan composition can overshoot the diamond edge by an ulp at
    # beta = +/-1; clamp so the advertised invariant holds exactly
    bound = min(alpha, 2.0 - alpha)
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
    """
    _check_alpha(alpha)
    if sigma <= 0.0:
        raise DomainError(f"sigma must be positive, got {sigma}")
    # sec(pi*alpha/2) = -1/cos(pi*(alpha-2)/2); the shifted cosine is exact at
    # alpha=2 and stays positive on (1, 2].
    c = math.cos(math.pi * (alpha - 2.0) / 2.0)
    if c == 0.0:
        raise DomainError(f"alpha={alpha} too close to 1: sec(pi*alpha/2) diverges")
    return -(sigma**alpha) / c


@dataclass(frozen=True)
class StableModelParams:
    """Stable log-price model parameters.

    Attributes:
        alpha: stability index, in (1, 2].
        theta: Feller asymmetry.  Values outside the diamond are accepted
            (the pricing series continues analytically) but flagged.
        sigma: scale, > 0.
        mu: characteristic exponent; must be < 0 when pricing (checked by
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
        if self.sigma <= 0.0:
            raise DomainError(f"sigma must be positive, got {self.sigma}")
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
        if self.spot <= 0.0:
            raise DomainError(f"spot must be positive, got {self.spot}")
        if self.strike <= 0.0:
            raise DomainError(f"strike must be positive, got {self.strike}")
        if self.maturity <= 0.0:
            raise DomainError(f"maturity must be positive, got {self.maturity}")
        if self.side not in ("call", "put"):
            raise DomainError(f"side must be 'call' or 'put', got {self.side!r}")

    def discounted_strike(self) -> float:
        return self.strike * math.exp(-self.rate * self.maturity)


def log_moneyness(contract: OptionContract) -> float:
    """log(S/K) + r*tau; zero exactly at S = K*exp(-r*tau)."""
    return math.log(contract.spot / contract.strike) + contract.rate * contract.maturity
