"""Residue-series pricing of European options under stable log-price dynamics.

The call price is a double series over the lattice triangle
T = {n >= -1, m >= 0, 1+n-m >= 0}.  Each term combines a gamma factor,
a sine factor (the reciprocal of the reflection pair Gamma(x)Gamma(1-x),
whose poles become exact zeros of the sine), powers of the log-moneyness
and of (-mu*tau), and factorials.  The isolated (n, m) = (-1, 0) "forward"
term has the analytic value (alpha-theta)/(2*alpha) * (S - K*exp(-r*tau)).

price_call sums column by column in n (inner loop over m) and stops once
two consecutive column contributions are below tolerance in absolute value.
price_call_strikes builds every column up to the cap at once in variables
normalised to the convergence envelope, u = L * po**(-1/alpha) and
w = po**(1-1/alpha) (L the log-moneyness, po = -mu*tau), then stops alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

import numpy as np
from scipy.special import gammaln

from .core import (
    ConvergenceError,
    DomainError,
    OptionContract,
    StableModelParams,
    log_moneyness,
)

# Relative slack under which the sine argument counts as an exact integer;
# wide enough to absorb rounding in (alpha-theta)*(n+1)/(2*alpha), narrow
# enough never to clip a genuinely non-integer argument.
_INTEGER_SLACK = 1e-12


def _sinpi(x: float) -> float:
    """sin(pi*x) with argument reduction; exactly 0.0 at (near-)integer x."""
    k = round(x)
    d = x - k
    if abs(d) <= _INTEGER_SLACK * max(1.0, abs(x)):
        return 0.0
    s = math.sin(math.pi * d)
    return -s if k % 2 else s


@dataclass(frozen=True)
class TermIndex:
    """Lattice index (n, m) inside the triangle T."""

    n: int
    m: int

    def __post_init__(self) -> None:
        if self.n < -1 or self.m < 0 or 1 + self.n - self.m < 0:
            raise DomainError(
                f"(n={self.n}, m={self.m}) outside the triangle "
                "{n >= -1, m >= 0, 1+n-m >= 0}"
            )


@dataclass(frozen=True)
class PriceResult:
    """Series price plus truncation diagnostics.

    Attributes:
        price: option value.
        columns_used: number of n-columns summed (for the lattice series
            including the forward column n=-1); always >= 1.
        last_column_norm: max |term| within the final column.
        truncation_estimate: |contribution of the final column|.
        diamond_flag: True when theta sits inside the Feller-Takayasu
            diamond; False marks an analytic continuation.
        via_parity: True when the value was derived from a call price
            through put-call parity.
    """

    price: float
    columns_used: int
    last_column_norm: float
    truncation_estimate: float
    diamond_flag: bool
    via_parity: bool = False


@dataclass(frozen=True)
class TermTable:
    """All series terms up to a column cutoff, plus cumulative column sums.

    column_sums[i] is the cumulative price through column n = i - 1, so
    column_sums[0] is the forward term alone and
    column_sums[i] - column_sums[i-1] equals the sum of column i - 1's terms.
    """

    entries: Mapping[tuple[int, int], float]
    column_sums: tuple[float, ...]
    params: StableModelParams
    contract: OptionContract

    @property
    def n_max(self) -> int:
        return len(self.column_sums) - 2


def _require_priceable(params: StableModelParams) -> None:
    if params.mu >= 0.0:
        raise DomainError(
            f"mu must be negative for pricing (fractional powers of -mu*tau), got {params.mu}"
        )


def _term_value(
    params: StableModelParams, contract: OptionContract, n: int, m: int
) -> float:
    """Value of the (n, m) series term; assumes (n, m) in T and mu < 0."""
    alpha, theta = params.alpha, params.theta
    kd = contract.discounted_strike()
    if n == -1:
        # Analytic limit of the isolated singularity; the generic formula is
        # 0/0 here (Gamma(0) against its own reflection pole).
        return (alpha - theta) / (2.0 * alpha) * (contract.spot - kd)
    s = _sinpi((alpha - theta) * (n + 1) / (2.0 * alpha))
    if s == 0.0:
        return 0.0
    payoff = contract.spot - (-1) ** m * kd
    if payoff == 0.0:
        return 0.0
    p = 1 + n - m
    lm = log_moneyness(contract)
    if p > 0 and lm == 0.0:
        return 0.0
    # Log-space magnitude with separate sign: the gamma factor grows
    # super-exponentially and both the payoff factor and lm may be negative.
    sign = 1.0
    mag = math.lgamma((n + 1) / alpha) - math.log(alpha * math.pi)
    mag += math.log(abs(s))
    if s < 0.0:
        sign = -sign
    mag += math.log(abs(payoff))
    if payoff < 0.0:
        sign = -sign
    if p > 0:
        mag += p * math.log(abs(lm))
        if lm < 0.0 and p % 2:
            sign = -sign
    mag += (m - (n + 1) / alpha) * math.log(-params.mu * contract.maturity)
    mag -= math.lgamma(m + 1) + math.lgamma(p + 1)
    return sign * math.exp(mag)


def residue_term(
    params: StableModelParams, contract: OptionContract, idx: TermIndex
) -> float:
    """Evaluate one series term at lattice index idx.

    Raises DomainError if mu >= 0 or the contract is not a call; TermIndex
    construction already rejects indices outside the triangle.
    """
    _require_priceable(params)
    if contract.side != "call":
        raise DomainError("series terms are defined for call contracts")
    return _term_value(params, contract, idx.n, idx.m)


def _column(
    params: StableModelParams, contract: OptionContract, n: int
) -> tuple[float, float]:
    """Sum of column n's terms and the max |term| within it."""
    total = 0.0
    worst = 0.0
    for m in range(0, n + 2):
        t = _term_value(params, contract, n, m)
        total += t
        worst = max(worst, abs(t))
    return total, worst


def price_call(
    params: StableModelParams,
    contract: OptionContract,
    tolerance: float = 1e-4,
    max_column: int = 64,
) -> PriceResult:
    """Price a European call by column-wise summation of the series.

    Columns n = -1, 0, 1, ... are added until two consecutive column
    contributions are each below tolerance in absolute value (currency
    units), or n reaches max_column.

    Raises ConvergenceError if max_column is reached while the final
    column's max |term| still exceeds tolerance.
    """
    _require_priceable(params)
    if contract.side != "call":
        raise DomainError("price_call requires a call contract")
    if tolerance <= 0.0:
        raise DomainError(f"tolerance must be positive, got {tolerance}")
    if max_column < 1:
        raise DomainError(f"max_column must be >= 1, got {max_column}")

    # Kahan-compensated running total; cheap insurance against the large
    # oscillating early columns.
    total = 0.0
    comp = 0.0
    prev_quiet = False
    col_sum = 0.0
    col_norm = 0.0
    n_last = -1
    for n in range(-1, max_column + 1):
        col_sum, col_norm = _column(params, contract, n)
        y = col_sum - comp
        t = total + y
        comp = (t - total) - y
        total = t
        n_last = n
        quiet = abs(col_sum) <= tolerance
        if quiet and prev_quiet:
            break
        prev_quiet = quiet
    else:
        if col_norm > tolerance:
            raise ConvergenceError(
                f"series did not stabilize within {max_column} columns "
                f"(last column norm {col_norm:.3e} > tolerance {tolerance:.3e})"
            )
    return PriceResult(
        price=total,
        columns_used=n_last + 2,
        last_column_norm=col_norm,
        truncation_estimate=abs(col_sum),
        diamond_flag=params.in_diamond,
    )


def price_put(
    params: StableModelParams,
    contract: OptionContract,
    tolerance: float = 1e-4,
    max_column: int = 64,
) -> PriceResult:
    """Price a European put as call minus forward, P = C - (S - K*exp(-r*tau))."""
    if contract.side != "put":
        raise DomainError("price_put requires a put contract")
    mirrored = OptionContract(
        spot=contract.spot,
        strike=contract.strike,
        rate=contract.rate,
        maturity=contract.maturity,
        side="call",
    )
    call = price_call(params, mirrored, tolerance, max_column)
    forward = contract.spot - contract.discounted_strike()
    return PriceResult(
        price=call.price - forward,
        columns_used=call.columns_used,
        last_column_norm=call.last_column_norm,
        truncation_estimate=call.truncation_estimate,
        diamond_flag=call.diamond_flag,
        via_parity=True,
    )


def term_table(
    params: StableModelParams, contract: OptionContract, n_max: int
) -> TermTable:
    """All terms for -1 <= n <= n_max with cumulative column sums."""
    _require_priceable(params)
    if contract.side != "call":
        raise DomainError("term_table requires a call contract")
    if n_max < -1:
        raise DomainError(f"n_max must be >= -1, got {n_max}")
    entries: dict[tuple[int, int], float] = {}
    sums: list[float] = []
    running = 0.0
    for n in range(-1, n_max + 1):
        for m in range(0, n + 2):
            entries[(n, m)] = _term_value(params, contract, n, m)
            running += entries[(n, m)]
        sums.append(running)
    return TermTable(
        entries=entries, column_sums=tuple(sums), params=params, contract=contract
    )


def term_table_csv(table: TermTable, precision: int = 6) -> str:
    """Serialize a TermTable as CSV in the cumulative-row layout.

    Header row holds the n labels (-1 .. n_max), each subsequent row one m
    value (cells outside the triangle stay empty), and the final row
    labeled "Call" holds the cumulative column sums.
    """
    n_max = table.n_max
    fmt = f"%.{precision}g"
    lines = ["," + ",".join(str(n) for n in range(-1, n_max + 1))]
    for m in range(0, n_max + 2):
        cells = [str(m)]
        for n in range(-1, n_max + 1):
            cells.append(fmt % table.entries[(n, m)] if m <= n + 1 else "")
        lines.append(",".join(cells))
    lines.append("Call," + ",".join(fmt % s for s in table.column_sums))
    return "\n".join(lines) + "\n"


@lru_cache(maxsize=8)
def _triangle(max_column: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only tables over columns n = 0..max_column, indexed [n, p] with
    m = n+1-p: m (0 outside T), -lgamma(m+1)-lgamma(p+1) (-inf outside T, so
    the coefficient there is exactly 0) and the mask of even m inside T."""
    p = np.arange(max_column + 2)
    m = np.arange(1, max_column + 2)[:, None] - p
    inside = m >= 0
    m = np.where(inside, m, 0).astype(float)
    log_fact = np.where(inside, -gammaln(m + 1.0) - gammaln(p + 1.0), -np.inf)
    even = inside & (m % 2 == 0)
    for table in (m, log_fact, even):
        table.setflags(write=False)
    return m, log_fact, even


def _strike_failure(message: str, strike_index: int) -> ConvergenceError:
    # built here, not in the kernel's frame: an exception held in a local of
    # the frame its traceback holds is a cycle that keeps the arrays alive
    exc = ConvergenceError(message)
    exc.strike_index = int(strike_index)
    return exc


def price_call_strikes(
    params: StableModelParams,
    spot: float,
    rate: float,
    maturity: float,
    strikes: np.ndarray,
    tolerance: float = 1e-4,
    max_column: int = 64,
) -> np.ndarray:
    """Vectorized call prices for one (spot, rate, maturity) across strikes.

    price_call's series with all columns n = 0..max_column at once: each
    parity of m gives its columns as one matrix product of the coefficient
    triangle with the powers of u (see the module docstring).  price_call's
    stop rule (over n >= 0) is taken over the worst strike, so no price is
    less refined than price_call's.  On ConvergenceError, strike_index names
    the failing strike.
    """
    _require_priceable(params)
    strikes = np.asarray(strikes, dtype=float)
    if strikes.ndim != 1 or strikes.size == 0:
        raise DomainError("strikes must be a non-empty 1-d array")
    if max_column < 1:
        raise DomainError(f"max_column must be >= 1, got {max_column}")
    if np.any(strikes <= 0.0) or spot <= 0.0 or maturity <= 0.0:
        raise DomainError("spot, strikes and maturity must be positive")
    alpha, theta = params.alpha, params.theta
    kd = strikes * math.exp(-rate * maturity)
    po = -params.mu * maturity
    u = (np.log(spot / strikes) + rate * maturity) * po ** (-1.0 / alpha)
    m, log_fact, even = _triangle(max_column)
    n1 = np.arange(1, max_column + 2)
    # _sinpi per column, with its exact-zero rule
    x = (alpha - theta) * n1 / (2.0 * alpha)
    k = np.round(x)
    s = np.sin(np.pi * (x - k)) * (1.0 - 2.0 * (k % 2))
    s[np.abs(x - k) <= _INTEGER_SLACK * np.maximum(1.0, np.abs(x))] = 0.0
    # Columns past the stop may overflow; only the summed ones are checked.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        head = gammaln(n1 / alpha) + np.log(np.abs(s)) - math.log(alpha * math.pi)
        log_w = (1.0 - 1.0 / alpha) * math.log(po)
        coeff = np.sign(s)[:, None] * np.exp(head[:, None] + m * log_w + log_fact)
        powers = np.vander(u, max_column + 2, increasing=True).T
        cols = (np.where(even, coeff, 0.0) @ powers) * (spot - kd)
        cols += (np.where(even, 0.0, coeff) @ powers) * (spot + kd)
        worst = np.abs(cols).max(axis=1)
        quiet = worst <= tolerance
    stops = np.flatnonzero(quiet[1:] & quiet[:-1])
    used = cols[: stops[0] + 2] if stops.size else cols
    bad = np.argwhere(~np.isfinite(used))
    if bad.size:
        n, failed = bad[0]
        raise _strike_failure(
            f"series terms overflowed at column {n} "
            f"(parameters too far into the slow-convergence regime)",
            failed,
        )
    if not stops.size and worst[-1] > tolerance:
        raise _strike_failure(
            f"series did not stabilize within {max_column} columns "
            f"(last column norm {worst[-1]:.3e} > tolerance {tolerance:.3e})",
            np.argmax(np.abs(cols[-1])),
        )
    forward = (alpha - theta) / (2.0 * alpha) * (spot - kd)
    return forward + used.sum(axis=0)
