"""Residue-series pricing of European options under stable log-price dynamics.

Every series here is built from one residue weight (_weights),

    h_k = Gamma(k/alpha) * sin(pi*k*rho) / (alpha*pi),   rho = (alpha-theta)/(2*alpha),

whose sine is exactly 0 at the poles of the reflection pair Gamma(x)Gamma(1-x).
With L = ln(S/K) + r*tau, po = -mu*tau and Kd = K*exp(-r*tau):

- The paper's call price sums the lattice triangle T = {n >= -1, m >= 0,
  1+n-m >= 0}.  Term (n, m), with k = n+1 and p = k-m, is
  h_k * (S - (-1)**m * Kd) * L**p * po**(m - k/alpha) / (m! * p!); the
  forward term (-1, 0) is rho*(S - Kd) (term_table, residue_term).
- Summed over m, lattice column n = k-1 is two power series, one per digital
  of the payoff (_columns): h_k/k! * (S*y+**k - Kd*y-**k) with
  y+- = (L +- po) * po**(-1/alpha).
- On the finite-moment log-stable (FMLS) line theta = alpha-2, rho = 1/alpha
  and the reflection formula turns the coefficients of Carr & Wu's
  drift-shifted series into the same weights (_fmls_columns):
  po**(-k/alpha) / Gamma(1 - k/alpha) = alpha * h_k * po**(-k/alpha).

_chain_layout checks a chain and groups its strikes by (rate, maturity)
pair, with their Kd and L (_ChainLayout), once per price_call_strikes call
or calibration chain; price lays out its one strike directly.  One driver
(_summed) builds a layout's columns for all its strikes, and for several
models at once, with one weight table per model: _model_calls's models,
price_call_strikes's one model, or price's one strike (a put is
C - (S - Kd)).  Each model picks its engine (_engine), one (scalars,
columns) entry whose builder takes the layout and returns its columns and
their reach: the FMLS series (_FMLS) on the FMLS line with the martingale
drift, where the call is a risk-neutral expectation, and the lattice
(_LATTICE, no reach) everywhere else, alpha = 2 included.  Off the FMLS line
with alpha < 2, E[S_T] is infinite and a call is the paper's lattice value,
not an expectation.  The term table is always the paper's lattice.

A model fails alone, in one of two places, and each model's prices are the
bits of a call with that model alone.  Its input is checked first
(_require_priceable, _engine): mu >= 0, a po that underflows to 0 or
overflows to inf, a scale po**(-1/alpha) that overflows, or a drift mu_fmls
that overflows, is a DomainError.  Then one strict stop rule, applied per
model and pair, stops after two consecutive columns whose worst-strike
absolute value is at most the tolerance (only from the column the
builder names as reach: on the FMLS series floor(max |L - po|), where
(L - po)**n/n! peaks); without such a pair by column max_column, or if a
summed column overflows (an FMLS tail that overflows is inf),
ConvergenceError.  No engine raises.  Most models stop within half of
max_column, so the columns are built that far first, and again up to
max_column only for the models that neither stop nor overflow there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .core import (
    ConvergenceError,
    DomainError,
    OptionContract,
    StableModelParams,
    _check_discount,
    _check_discounted_strike,
    _check_int,
    _check_spot_ratio,
    log_moneyness,
    mu_fmls,
)

# Relative slack under which the sine argument counts as an exact integer;
# wide enough to absorb rounding in (alpha-theta)*k/(2*alpha), narrow
# enough never to clip a genuinely non-integer argument.
_INTEGER_SLACK = 1e-12

# Relative slack under which mu counts as the martingale drift mu_fmls;
# calibrate's stable rung recovers every sigma from mu, and mu_fmls of that
# scale gives back mu only to a few ulps.
_MU_SLACK = 1e-14

# the series' default stop rule: its tolerance and its column cap
_TOLERANCE = 1e-4
_MAX_COLUMN = 64


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
        engine: the series that summed the call: "fmls", Carr & Wu's, or
            "lattice", which at alpha < 2 is not a risk-neutral expectation.
        expectation_finite: True where E[S_T] is finite, on theta = alpha-2
            (alpha = 2, theta = 0 included).
    """

    price: float
    columns_used: int
    truncation_estimate: float
    diamond_flag: bool
    via_parity: bool = False
    engine: str = "lattice"
    expectation_finite: bool = False


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


def _require_priceable(params: StableModelParams, pos: Sequence[float]) -> None:
    """Reject mu >= 0, then a po = -mu*tau in pos that underflows to 0,
    overflows to inf, or whose scale po**(-1/alpha) overflows (the least po
    has the largest)."""
    if params.mu >= 0.0:
        raise DomainError(
            f"mu must be negative for pricing (fractional powers of -mu*tau), got {params.mu}"
        )
    if 0.0 in pos:
        raise DomainError(f"-mu*tau underflows to 0 at mu={params.mu}")
    if math.inf in pos:
        raise DomainError(f"-mu*tau overflows at mu={params.mu}")
    try:
        min(pos) ** (-1.0 / params.alpha)
    except OverflowError:
        raise DomainError(f"(-mu*tau)**(-1/alpha) overflows at mu={params.mu}") from None


def _per_pair(values: list[tuple[float, ...]]) -> tuple:
    """One tuple of values per (rate, maturity) pair as one per-pair field
    per value: a float when the chain has one pair, else a tuple of them.
    The float is for speed, not the bits: always-array shapes print the
    same outcome sweep but cost 30% on the benchmark's quotes."""
    return values[0] if len(values) == 1 else tuple(zip(*values))


def _by_model(rows: list[tuple]) -> tuple:
    """Per-model fields, one tuple per model, as one value per field: a
    single model's own values, so that its call keeps floats for speed (see
    _per_pair), or else arrays with a leading model axis.  There a float
    field is a (model, 1) column and a per-pair tuple a (model, pair) array.
    """
    if len(rows) == 1:
        return rows[0]
    tables = [np.array(field) for field in zip(*rows)]
    return tuple(table if table.ndim == 2 else table[:, None] for table in tables)


def _weights(
    alpha: float | np.ndarray,
    theta: float | np.ndarray,
    log_norm: float | np.ndarray,
    count: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Sign and log-magnitude of h_k for k = 1..count, for alpha, theta and
    log_norm = math.log(alpha * pi) of one model, or of several as columns
    (see _by_model).

    The sine is taken as sin(pi*d) of the reduced argument d = x - round(x),
    x = (alpha-theta)*k/(2*alpha), and is exactly 0 where |d| is within
    _INTEGER_SLACK of zero; there the sign is 0 and the log-magnitude -inf,
    so callers ignore divide-by-zero.
    """
    k = np.arange(1.0, count + 1)
    x = (alpha - theta) * k / (2.0 * alpha)
    nearest = np.rint(x)
    d = x - nearest
    sine = np.sin(np.pi * d) * (1.0 - 2.0 * (nearest % 2))
    sine[np.abs(d) <= _INTEGER_SLACK * np.maximum(1.0, np.abs(x))] = 0.0
    log_mag = np.fromiter(
        map(math.lgamma, (k / alpha).ravel().tolist()), float, x.size
    ).reshape(x.shape)
    log_mag -= log_norm
    log_mag += np.log(np.abs(sine))
    return np.sign(sine), log_mag


@lru_cache(maxsize=8)
def _log_factorials(count: int) -> np.ndarray:
    """Read-only lgamma(j+1) for j = 0..count-1."""
    table = np.array([math.lgamma(j + 1.0) for j in range(count)])
    table.setflags(write=False)
    return table


def _powers(x: np.ndarray, first: int, last: int) -> np.ndarray:
    """x**first..x**last (first 0 or 1) along a new last axis, by repeated
    multiplication as np.vander(x, last + 1, increasing=True) builds them."""
    powers = np.empty(x.shape + (last + 1 - first,))
    rising = powers[..., 1 - first :]
    rising[...] = x[..., None]
    if first == 0:
        powers[..., 0] = 1.0
    np.multiply.accumulate(rising, axis=-1, out=rising)
    return powers


def _per_strike(values, counts: Sequence[int], axis: int):
    """Per-pair values, pairs along axis, laid out per strike: pair g's
    repeated for its counts[g] strikes.  One pair's values broadcast along
    strikes as they are.  They are Python floats computed per pair (_per_pair,
    _by_model): numpy's array exp and power can differ from math's in the
    last ulp."""
    return values if len(counts) == 1 else np.repeat(values, counts, axis=axis)


class _ChainLayout(NamedTuple):
    """A chain as the kernel reads it, its strikes grouped by distinct
    (rate, maturity) pair: counts and firsts give each pair's number of
    strikes and index of its first, and per strike kd = K*exp(-r*tau),
    lm = ln(S/K) + r*tau and order, the caller's index (None in price)."""

    spot: float
    pairs: tuple[tuple[float, float], ...]
    counts: tuple[int, ...]
    firsts: tuple[int, ...]
    kd: np.ndarray
    lm: np.ndarray
    order: np.ndarray | None


def _chain_layout(
    spot: float,
    rate: float | np.ndarray,
    maturity: float | np.ndarray,
    strikes: np.ndarray,
) -> _ChainLayout:
    """The layout of a checked chain, pairs in order of first appearance;
    rate and maturity are scalars or arrays aligned with strikes.  A bad
    chain, one whose discount, discounted strike or spot / strike leaves
    float range included, is a DomainError."""
    strikes = np.asarray(strikes, dtype=float)
    if strikes.ndim != 1 or strikes.size == 0:
        raise DomainError("strikes must be a non-empty 1-d array")
    try:
        rate, maturity = (
            np.full(strikes.shape, v, dtype=float) for v in (rate, maturity)
        )
    except ValueError:
        raise DomainError(
            "rate and maturity must be scalars or arrays aligned with strikes"
        ) from None
    # min propagates nan, so nan fails the comparisons; inf fails isfinite
    if not (
        0.0 < spot < math.inf and strikes.min() > 0.0 < maturity.min()
        and np.isfinite(np.concatenate((strikes, rate, maturity))).all()
    ):
        raise DomainError("spot, strikes and maturity must be positive, all finite")
    groups: dict[tuple[float, float], list[int]] = {}
    for i, pair in enumerate(zip(rate.tolist(), maturity.tolist())):
        groups.setdefault(pair, []).append(i)
    rts = [r * t for r, t in groups]  # floats: an overflow is inf, no numpy warning
    _check_discount(min(rts))
    _check_discount(max(rts))
    order = np.array([i for indices in groups.values() for i in indices])
    counts = tuple(len(indices) for indices in groups.values())
    strikes = strikes[order]
    disc, rt = _per_strike(_per_pair([(math.exp(-x), x) for x in rts]), counts, -1)
    with np.errstate(over="ignore"):
        kd = strikes * disc
    _check_discounted_strike(float(kd.max()))
    _check_spot_ratio(spot, float(strikes.min()), float(strikes.max()))
    layout = _ChainLayout(
        spot, tuple(groups), counts, (0, *accumulate(counts[:-1])),
        kd, np.log(spot / strikes) + rt, order,
    )
    for array in (layout.kd, layout.lm, order):
        array.setflags(write=False)
    return layout


def _strike_major(shape: tuple[int, ...], rows: int, strikes: int) -> np.ndarray:
    """An empty block columns[..., row, strike] with each strike's rows
    contiguous: each strike's sum is numpy's pairwise sum over its own
    column, whatever the other strikes and models of the call."""
    return np.empty(shape + (strikes, rows)).swapaxes(-1, -2)


def _lattice_scalars(p: StableModelParams, pos: Sequence[float]) -> tuple:
    """alpha, theta, log(alpha*pi), rho, and per pair po and po**(-1/alpha)."""
    return (
        p.alpha, p.theta, math.log(p.alpha * math.pi),
        (p.alpha - p.theta) / (2.0 * p.alpha),
        *_per_pair([(po, po ** (-1.0 / p.alpha)) for po in pos]),
    )


def _columns(
    scalars: tuple, layout: _ChainLayout, max_column: int
) -> tuple[np.ndarray, None]:
    """Lattice columns n = -1..max_column (rows), one per layout strike, of
    the models whose _lattice_scalars are stacked in scalars, and no reach.

    Row 0 is the forward term rho*(S - Kd); row k, column n = k-1, is
    h_k/k! * (S*y+**k - Kd*y-**k) (see the module docstring).  Rows past the
    stop may overflow; _summed checks only the rows it sums.
    """
    alpha, theta, log_norm, rho, po, scale = scalars
    spot, _, counts, _, kd, lm, _ = layout
    po, scale = _per_strike((po, scale), counts, -1)
    size = kd.size
    sign, log_h = _weights(alpha, theta, log_norm, max_column + 1)
    g = sign * np.exp(log_h - _log_factorials(max_column + 2)[1:])
    y = np.concatenate([(lm + po) * scale, (lm - po) * scale], axis=-1)
    legs = _powers(y, 1, max_column + 1).swapaxes(-1, -2)
    columns = _strike_major(y.shape[:-1], max_column + 2, size)
    columns[..., 0, :] = rho * (spot - kd)
    np.multiply(
        g[..., None],
        spot * legs[..., :size] - kd * legs[..., size:],
        out=columns[..., 1:, :],
    )
    return columns, None


def _fmls_tail(alpha: float, po: float) -> float:
    """sum_{j>=1} po**(j/alpha) / Gamma(1 + j/alpha), common to every FMLS column.

    The terms fall once j/alpha exceeds po, then factorially; the sum stops
    when they no longer move it in float64, or at inf on overflow.
    """
    exp, lgamma = math.exp, math.lgamma
    log_po = math.log(po)
    total = 0.0
    j = 1
    while True:
        ratio = j / alpha
        try:
            a = exp(j * log_po / alpha - lgamma(1.0 + ratio))
        except OverflowError:
            return math.inf
        total += a
        if ratio > po and a <= 1e-17 * total:
            return total
        j += 1


def _fmls_scalars(p: StableModelParams, pos: Sequence[float]) -> tuple:
    """alpha, theta, log(alpha*pi), and per pair the tail, po and log po."""
    return (
        p.alpha, p.theta, math.log(p.alpha * math.pi),
        *_per_pair([(_fmls_tail(p.alpha, po), po, math.log(po)) for po in pos]),
    )


def _fmls_columns(
    scalars: tuple, layout: _ChainLayout, max_column: int
) -> tuple[np.ndarray, np.ndarray]:
    """FMLS columns n = 0..max_column (rows), one per strike of the layout,
    of the models whose _fmls_scalars are stacked in scalars: models on the
    FMLS line (theta = alpha-2, mu = mu_fmls); and the reach per model and
    pair, floor(max |x|) over the pair's strikes, where x**n/n! peaks.

    Carr & Wu's drift-shifted series, C = (Kd/alpha) * sum_n c_n * x**n/n!
    with x = L - po = L + mu*tau.  c_0 is the tail sum_{j>=1} po**(j/alpha) /
    Gamma(1 + j/alpha), c_1 = c_0 + 1, and each later column adds one
    reflected coefficient, c_n = c_{n-1} + alpha * h_{n-1} * po**(-(n-1)/alpha).
    """
    alpha, theta, log_norm, tail, po, log_po = scalars
    _, _, counts, firsts, kd, lm, _ = layout
    sign, log_h = _weights(alpha, theta, log_norm, max_column - 1)
    exponents = np.arange(1.0, max_column) / alpha
    # one row of coefficients per pair (a pair axis of length 1 for one
    # pair): the tail, 1, the reflected coefficients, summed; then per strike
    log_po = np.asarray(log_po)[..., None]
    reflected = np.exp(log_h[..., None, :] - exponents[..., None, :] * log_po)
    c = np.empty(reflected.shape[:-1] + (max_column + 1,))
    c[..., 0] = tail
    c[..., 1] = 1.0
    np.multiply((alpha * sign)[..., None, :], reflected, out=c[..., 2:])
    np.add.accumulate(c, axis=-1, out=c)
    c = _per_strike(c, counts, -2).swapaxes(-1, -2)
    x = lm - _per_strike(po, counts, -1)
    powers = _powers(x, 0, max_column).swapaxes(-1, -2) * np.exp(
        -_log_factorials(max_column + 2)[:-1, None]
    )
    columns = _strike_major(x.shape[:-1], max_column + 1, kd.size)
    np.multiply(c * powers, (kd / alpha)[..., None, :], out=columns)
    reach = np.floor(np.maximum.reduceat(np.abs(x), firsts, axis=-1))
    return columns, reach.reshape(-1, len(counts))


# A series engine: scalars(params, pos), one model's floats and per-pair
# values (_per_pair) from its checked po = -mu*tau per pair, which never
# raises, and columns(scalars, layout, max_column), the columns of the models
# whose scalars _by_model stacks, over the layout's strikes, and their reach:
# None, or per model and pair the column from which a quiet pair counts.
_LATTICE = (_lattice_scalars, _columns)
_FMLS = (_fmls_scalars, _fmls_columns)


def _rejected(
    columns: np.ndarray, tolerance: float, max_column: int, first: int, reach: float
) -> ConvergenceError:
    """The error of one pair's columns (rows) that the stop rule rejects,
    with strike_index naming the failing strike (first + its column).

    The stop rule rejects columns when a row before their first quiet pair
    is not finite, or when they have no quiet pair; either way the sum
    reaches their first non-finite row.  So they overflowed exactly when an
    entry is not finite, and the first is named; otherwise no two
    consecutive columns from column reach on are within tolerance, and the
    later loud one of the final pair is named (the last column if both are
    quiet, before reach).
    """
    bad = np.argwhere(~np.isfinite(columns))
    if bad.size:
        row, failed = bad[0]
        exc = ConvergenceError(
            f"series terms overflowed at column {row + max_column + 1 - len(columns)} "
            f"(parameters too far into the slow-convergence regime)"
        )
    else:
        worst = np.abs(columns).max(axis=1)
        row = -1 if worst[-1] > tolerance else -2
        failed = np.argmax(np.abs(columns[row]))
        detail = f"column {max_column + 1 + row} {worst[row]:.3e} > tolerance {tolerance:.3e}"
        if worst[row] <= tolerance:
            detail = f"a quiet pair counts only from column {reach:.0f}"
        exc = ConvergenceError(
            f"series did not stabilize within {max_column} columns ({detail})"
        )
    exc.strike_index = int(first + failed)
    return exc


def _engine(params: StableModelParams) -> tuple[Callable, Callable]:
    """The engine, a (scalars, columns) entry, that prices params.

    On the FMLS line with the martingale drift (alpha < 2, theta = alpha-2
    exactly and mu = mu_fmls(alpha, sigma) within _MU_SLACK relative) the
    call is a risk-neutral expectation and Carr & Wu's series sums it
    (_FMLS); everywhere else, alpha = 2 included, the lattice does
    (_LATTICE).
    """
    alpha = params.alpha
    if alpha < 2.0 and params.theta == alpha - 2.0:
        drift = mu_fmls(alpha, params.sigma)
        if abs(params.mu - drift) <= _MU_SLACK * abs(drift):
            return _FMLS
    return _LATTICE


def _first_cap(max_column: int) -> int:
    """The column cap of _summed's first pass, within which most models stop."""
    return max(1, max_column // 2)


def _summed(
    models: Sequence[StableModelParams],
    layout: _ChainLayout,
    tolerance: float,
    max_column: int,
) -> list[list[np.ndarray] | Exception]:
    """For each model, each pair's summed columns over the layout's strikes,
    or the error that pricing the model alone raises.

    Each model's po = -mu*tau per pair is formed here, once, and checked
    with the model (_require_priceable, _engine): its input fails there or
    not at all, as a DomainError.  Each engine builds its columns at once
    for all its models under the stop rule of the module docstring, applied
    per model and pair in order, whose ConvergenceError names the failing
    strike in the layout (strike_index).  A first pass builds the columns up
    to _first_cap(max_column); only a model with a pair that neither stops
    nor overflows there is built again, up to max_column.  A row, and a
    strike's sum over its own leading rows, do not depend on how many rows or
    which models are built, so each model's columns and stops are those of a
    call with that model alone, whose columns are built up to max_column.
    """
    if not 0.0 < tolerance < math.inf:
        raise DomainError(f"tolerance must be positive and finite, got {tolerance}")
    _check_int("max_column", max_column, 1)
    firsts = layout.firsts
    outcomes: list[list[np.ndarray] | Exception] = [[] for _ in models]
    pending: dict[tuple[Callable, Callable], list[tuple[int, tuple]]] = {}
    for i, params in enumerate(models):
        try:
            pos = [-params.mu * t for _, t in layout.pairs]
            _require_priceable(params, pos)
            engine = _engine(params)
            row = engine[0](params, pos)
        except DomainError as exc:
            # without its traceback, which would hold this frame and with it
            # the error
            outcomes[i] = exc.with_traceback(None)
        else:
            pending.setdefault(engine, []).append((i, row))
    for cap in (_first_cap(max_column), max_column):
        unstopped: dict[tuple[Callable, Callable], list] = {}
        for engine, group in pending.items():
            members, rows = zip(*group)
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                columns, reach = engine[1](_by_model(list(rows)), layout, cap)
            if columns.ndim == 2:
                columns = columns[None]
            # each row's worst strike, per model and pair
            worst = np.maximum.reduceat(np.abs(columns), firsts, axis=2)
            quiet = worst <= tolerance
            quiet_pairs = quiet[:, 1:] & quiet[:, :-1]
            if reach is not None:  # a quiet pair counts only from column reach on
                quiet_pairs &= np.arange(quiet_pairs.shape[1])[:, None] >= reach[:, None]
            # argmin finds the first row that opens a quiet pair or is not
            # finite (max propagates nan, so a row's worst is finite exactly
            # when the row is): the stop, if that row opens a quiet pair
            stops = (np.isfinite(worst[:, :-1]) > quiet_pairs).argmin(axis=1)
            for k, (i, model_stops) in enumerate(zip(members, stops.tolist())):
                for pair, (first, n, stop) in enumerate(zip(firsts, layout.counts, model_stops)):
                    if not quiet_pairs[k, stop, pair]:
                        block = columns[k, :, first : first + n]
                        if cap < max_column and np.isfinite(block).all():
                            # no stop and no overflow yet: build again at max_column
                            outcomes[i] = []
                            unstopped.setdefault(engine, []).append(group[k])
                        else:
                            start = 0 if reach is None else reach[k, pair]
                            outcomes[i] = _rejected(block, tolerance, cap, first, start)
                        break
                    outcomes[i].append(columns[k, : stop + 2, first : first + n])
        pending = unstopped
    return outcomes


def price(
    params: StableModelParams,
    contract: OptionContract,
    tolerance: float = _TOLERANCE,
    max_column: int = _MAX_COLUMN,
) -> PriceResult:
    """Price a European call or put, by contract.side, as a one-strike chain.

    The call sums the columns the model picks.  On the FMLS line with the
    martingale drift they are Carr & Wu's series n = 0, 1, ..., and the
    price is the risk-neutral expectation; elsewhere they are the lattice
    columns n = -1, 0, 1, ..., Black-Scholes at alpha = 2, theta = 0.  For
    alpha < 2 off the FMLS line (theta != alpha - 2) E[S_T] is infinite, so
    a call there is the paper's lattice value, not an expectation.  A put
    is the call less the forward, P = C - (S - K*exp(-r*tau)), with
    via_parity set; it is a lattice value wherever the call is.  Columns
    are added until two consecutive column contributions are each at most
    tolerance in absolute value (currency units).

    Raises DomainError where the model's input leaves the series' domain
    (see the module docstring), and ConvergenceError, even when the final
    column alone is within tolerance, if no two consecutive columns up to
    n = max_column are, or if a summed column overflows.
    """
    spot, strikes = contract.spot, np.array([contract.strike])
    rt = contract.rate * contract.maturity
    layout = _ChainLayout(
        spot, ((contract.rate, contract.maturity),), (1,), (0,),
        strikes * math.exp(-rt), np.log(spot / strikes) + rt, None,
    )
    (outcome,) = _summed([params], layout, tolerance, max_column)
    if isinstance(outcome, Exception):
        raise outcome
    used = outcome[0][:, 0]
    value = float(used.sum())
    put = contract.side == "put"
    if put:
        value -= contract.forward()
    return PriceResult(
        price=value,
        columns_used=len(used),
        truncation_estimate=float(abs(used[-1])),
        diamond_flag=params.in_diamond,
        via_parity=put,
        engine="fmls" if _engine(params) == _FMLS else "lattice",
        expectation_finite=params.theta == params.alpha - 2.0,
    )


# one function under the names callers use for either side
price_call = price_put = price


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


def term_table(
    params: StableModelParams, contract: OptionContract, n_max: int
) -> TermTable:
    """All terms for -1 <= n <= n_max with cumulative column sums."""
    po = -params.mu * contract.maturity
    _require_priceable(params, [po])
    if contract.side != "call":
        raise DomainError("term_table requires a call contract")
    _check_int("n_max", n_max, -1)
    alpha, theta = params.alpha, params.theta
    spot, kd = contract.spot, contract.discounted_strike()
    # the triangle row by row, k = n+1 = 1..n_max+1, m = 0..k, p = k-m,
    # after the forward term at k = 0
    k, m = (index[1:] for index in np.tril_indices(n_max + 2))
    p = k - m
    log_fact = _log_factorials(n_max + 2)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        sign, log_h = _weights(alpha, theta, math.log(alpha * math.pi), n_max + 1)
        terms = (
            sign[k - 1]
            * np.where(m % 2, spot + kd, spot - kd)
            * log_moneyness(contract) ** p
            * np.exp(
                log_h[k - 1]
                + (m - k / alpha) * math.log(po)
                - log_fact[m]
                - log_fact[p]
            )
        )
    if not np.isfinite(terms).all():
        raise ConvergenceError(
            f"series terms overflowed at column {k[~np.isfinite(terms)][0] - 1}"
        )
    # the forward term is the analytic limit of an isolated singularity: the
    # generic formula is 0/0 there (Gamma(0) against its reflection pole);
    # + 0.0 turns the -0.0 of a zero weight into 0.0
    values = [(alpha - theta) / (2.0 * alpha) * (spot - kd)] + (terms + 0.0).tolist()
    running = list(accumulate(values))
    ends = np.arange(1, n_max + 3) * np.arange(2, n_max + 4) // 2 - 1
    return TermTable(
        entries=dict(zip([(-1, 0)] + list(zip((k - 1).tolist(), m.tolist())), values)),
        column_sums=tuple(running[i] for i in ends.tolist()),
        params=params,
        contract=contract,
    )


def residue_term(
    params: StableModelParams, contract: OptionContract, idx: TermIndex
) -> float:
    """Evaluate one series term at lattice index idx, as term_table does.

    Raises DomainError if mu >= 0 or the contract is not a call; TermIndex
    construction already rejects indices outside the triangle.
    """
    return term_table(params, contract, idx.n).entries[(idx.n, idx.m)]


def term_table_csv(table: TermTable, precision: int = 6) -> str:
    """Serialize a TermTable as CSV in the cumulative-row layout.

    Header row holds the n labels (-1 .. n_max), each subsequent row one m
    value (cells outside the triangle stay empty), and the final row
    labeled "Call" holds the cumulative column sums.
    """
    _check_int("precision", precision, 0)
    n_max = table.n_max
    fmt = f"%.{precision}g"
    lines = ["," + ",".join(str(n) for n in range(-1, n_max + 1))]
    for m in range(n_max + 2):
        filled = [fmt % table.entries[(n, m)] for n in range(m - 1, n_max + 1)]
        lines.append(",".join([str(m)] + [""] * m + filled))
    lines.append("Call," + ",".join(fmt % s for s in table.column_sums))
    return "\n".join(lines) + "\n"


def price_call_strikes(
    params: StableModelParams,
    spot: float,
    rate: float | np.ndarray,
    maturity: float | np.ndarray,
    strikes: np.ndarray,
    tolerance: float = _TOLERANCE,
    max_column: int = _MAX_COLUMN,
) -> np.ndarray:
    """Vectorized call prices for one spot across strikes, in one kernel call.

    rate and maturity are scalars or arrays aligned with strikes, so one call
    prices a whole chain.  The columns and stop rule of price (_summed),
    built for all strikes at once and applied to each distinct
    (rate, maturity) pair over that pair's worst strike: no price is less
    refined than price's for one of its strikes, and each pair stops on the
    column a call with its strikes alone stops on.  It raises what price
    raises; on ConvergenceError, strike_index names the failing strike (its
    index in strikes), the pairs checked in order of first appearance.
    """
    (prices,) = _model_calls(
        [params], _chain_layout(spot, rate, maturity, strikes), tolerance, max_column
    )
    if isinstance(prices, Exception):
        raise prices
    return prices


def _model_calls(
    models: Sequence[StableModelParams],
    layout: _ChainLayout,
    tolerance: float,
    max_column: int = _MAX_COLUMN,
) -> list[np.ndarray | DomainError | ConvergenceError]:
    """price_call_strikes of each model on one laid-out chain, in one kernel
    call: its prices, to the bit, or the error that call would raise, which
    fails that model only (a bad stop rule raises for all)."""
    outcomes = _summed(models, layout, tolerance, max_column)
    order = layout.order
    prices = np.empty((len(models), order.size))
    for i, outcome in enumerate(outcomes):
        if isinstance(outcome, ConvergenceError):
            outcome.strike_index = int(order[outcome.strike_index])
        elif not isinstance(outcome, Exception):
            prices[i, order] = np.concatenate([block.sum(axis=0) for block in outcome])
            outcomes[i] = prices[i]
    return outcomes
