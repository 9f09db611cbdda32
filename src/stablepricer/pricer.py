"""Residue-series pricing of European options under stable log-price dynamics.

The paper's call price is a double series over the lattice triangle
T = {n >= -1, m >= 0, 1+n-m >= 0}.  Each term combines a gamma factor,
a sine factor (the reciprocal of the reflection pair Gamma(x)Gamma(1-x),
whose poles become exact zeros of the sine), powers of the log-moneyness
L = ln(S/K) + r*tau and of po = -mu*tau, and factorials.  The isolated
(n, m) = (-1, 0) "forward" term has the analytic value rho*(S - Kd), with
rho = (alpha-theta)/(2*alpha) and Kd = K*exp(-r*tau).

Summed over m by the binomial theorem, column n = k-1 collapses to two
power series, one per digital of the payoff:

    g_k * (S*y+**k - Kd*y-**k),    y+- = (L +- po) * po**(-1/alpha),
    g_k = Gamma(k/alpha) * sin(pi*k*rho) / (alpha*pi*k!).

price_call and price_call_strikes both build these columns (_columns) and
sum them under one stop rule (_sum_columns): stop after two consecutive
columns whose worst-strike absolute value is below tolerance, counting
from the forward column.  The (n, m) terms themselves are kept for
residue_term and term_table, which reproduce the paper's table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

import numpy as np

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


def _sinpi(x: float | np.ndarray) -> np.ndarray:
    """sin(pi*x) with argument reduction, elementwise; exactly 0.0 at
    (near-)integer x."""
    k = np.round(x)
    d = x - k
    s = np.sin(np.pi * d) * (1.0 - 2.0 * (k % 2))
    return np.where(np.abs(d) <= _INTEGER_SLACK * np.maximum(1.0, np.abs(x)), 0.0, s)


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
        truncation_estimate: |contribution of the final column|.
        diamond_flag: True when theta sits inside the Feller-Takayasu
            diamond; False marks an analytic continuation.
        via_parity: True when the value was derived from a call price
            through put-call parity.
    """

    price: float
    columns_used: int
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
    s = float(_sinpi((alpha - theta) * (n + 1) / (2.0 * alpha)))
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


@lru_cache(maxsize=8)
def _log_factorials(max_column: int) -> np.ndarray:
    """Read-only lgamma(k+1) for k = 1..max_column+1."""
    table = np.array([math.lgamma(k + 1.0) for k in range(1, max_column + 2)])
    table.setflags(write=False)
    return table


def _columns(
    params: StableModelParams,
    spot: float,
    rate: float,
    maturity: float,
    strikes: np.ndarray,
    max_column: int,
) -> np.ndarray:
    """Columns n = -1..max_column of the series (rows), one per strike.

    Row 0 is the forward term rho*(S - Kd); row k, column n = k-1, is
    g_k*(S*y+**k - Kd*y-**k) (see the module docstring).  Rows past the stop
    may overflow; _sum_columns checks only the rows it sums.
    """
    alpha, theta = params.alpha, params.theta
    kd = strikes * math.exp(-rate * maturity)
    po = -params.mu * maturity
    lm = np.log(spot / strikes) + rate * maturity
    k = np.arange(1, max_column + 2)
    sines = _sinpi((alpha - theta) * k / (2.0 * alpha))
    log_gamma = np.array([math.lgamma(n1 / alpha) for n1 in k.tolist()])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # log|sin| is -inf at the sine's exact zeros, so g_k is exactly 0 there
        g = np.sign(sines) * np.exp(
            log_gamma
            + np.log(np.abs(sines))
            - _log_factorials(max_column)
            - math.log(alpha * math.pi)
        )
        scale = po ** (-1.0 / alpha)
        up = np.vander((lm + po) * scale, max_column + 2, increasing=True).T[1:]
        down = np.vander((lm - po) * scale, max_column + 2, increasing=True).T[1:]
        digitals = g[:, None] * (spot * up - kd * down)
    forward = (alpha - theta) / (2.0 * alpha) * (spot - kd)
    return np.vstack([forward, digitals])


def _strike_failure(message: str, strike_index: int) -> ConvergenceError:
    # built here, not in the kernel's frame: an exception held in a local of
    # the frame its traceback holds is a cycle that keeps the arrays alive
    exc = ConvergenceError(message)
    exc.strike_index = int(strike_index)
    return exc


def _sum_columns(columns: np.ndarray, tolerance: float) -> np.ndarray:
    """The rows of columns the stop rule sums.

    Summation stops after two consecutive columns whose worst-strike
    absolute value is below tolerance, counting from the forward column.
    Only the summed columns are checked for overflow.  Raises
    ConvergenceError, with strike_index naming the failing strike, on
    overflow or when the final column is still above tolerance.
    """
    worst = np.abs(columns).max(axis=1)
    quiet = worst <= tolerance
    stops = np.flatnonzero(quiet[1:] & quiet[:-1])
    used = columns[: stops[0] + 2] if stops.size else columns
    finite = np.isfinite(used)
    if not finite.all():
        row, failed = np.argwhere(~finite)[0]
        raise _strike_failure(
            f"series terms overflowed at column {row - 1} "
            f"(parameters too far into the slow-convergence regime)",
            failed,
        )
    if not stops.size and worst[-1] > tolerance:
        raise _strike_failure(
            f"series did not stabilize within {len(columns) - 2} columns "
            f"(last column {worst[-1]:.3e} > tolerance {tolerance:.3e})",
            np.argmax(np.abs(columns[-1])),
        )
    return used


def price_call(
    params: StableModelParams,
    contract: OptionContract,
    tolerance: float = 1e-4,
    max_column: int = 64,
) -> PriceResult:
    """Price a European call by summing the series' columns.

    Columns n = -1, 0, 1, ... are added until two consecutive column
    contributions are each below tolerance in absolute value (currency
    units), or n reaches max_column.

    Raises ConvergenceError if max_column is reached while the final
    column still exceeds tolerance, or if a summed column overflows.
    """
    _require_priceable(params)
    if contract.side != "call":
        raise DomainError("price_call requires a call contract")
    if tolerance <= 0.0:
        raise DomainError(f"tolerance must be positive, got {tolerance}")
    if max_column < 1:
        raise DomainError(f"max_column must be >= 1, got {max_column}")
    columns = _columns(
        params,
        contract.spot,
        contract.rate,
        contract.maturity,
        np.array([contract.strike]),
        max_column,
    )
    used = _sum_columns(columns, tolerance)[:, 0]
    return PriceResult(
        price=float(used.sum()),
        columns_used=len(used),
        truncation_estimate=float(abs(used[-1])),
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

    price_call's columns and stop rule over the whole ladder: the stop is
    taken over the worst strike, so no price is less refined than
    price_call's.  On ConvergenceError, strike_index names the failing
    strike.
    """
    _require_priceable(params)
    strikes = np.asarray(strikes, dtype=float)
    if strikes.ndim != 1 or strikes.size == 0:
        raise DomainError("strikes must be a non-empty 1-d array")
    if max_column < 1:
        raise DomainError(f"max_column must be >= 1, got {max_column}")
    if np.any(strikes <= 0.0) or spot <= 0.0 or maturity <= 0.0:
        raise DomainError("spot, strikes and maturity must be positive")
    columns = _columns(params, spot, rate, maturity, strikes, max_column)
    return _sum_columns(columns, tolerance).sum(axis=0)
