"""Fitting stable-model parameters to option-chain quotes.

Three nested model families are fit by minimizing the aggregated absolute
pricing error over a chain:

* ``bs``      -- Gaussian member (alpha = 2, theta = 0, mu = -vol**2 / 2);
                 one free parameter, the lognormal volatility.
* ``carrwu``  -- maximally left-skewed member (beta = -1, mu tied to
                 mu_fmls); free parameters (sigma, alpha).
* ``stable``  -- full family with free skew; free parameters
                 (alpha, beta, mu), sigma reported as the scale the
                 martingale tie mu = mu_fmls(alpha, sigma) implies.

The ladder prices through _model_calls on the chain's cached layout, and
aggregated_error (the leaner rung's model) through price_call_strikes: one
kernel, whose series the model picks, the FMLS expectation on the carrwu
line (beta = -1, martingale drift) and the lattice elsewhere.  A point
prices the same in every family that contains it, so the leaner optimum
is a feasible point of each richer family.  Each rung hands its fitted
model to the next, which evaluates it as a candidate as it is, so the
aggregated errors nest: AE(stable) <= AE(carrwu) <= AE(bs).

Each family is one entry of the model-spec table ``_SPECS``: its start
box, bounds, map to a model and warm start, all in one coordinate system,
and its report.  The ladder fits the entries in order, so a new family is
one more entry.

Each rung runs Levenberg-Marquardt on the quote residuals, on Python
floats, under the bound alpha <= 2, from a warm start and the points of a
seeded Kronecker sequence, until one ends within what the objective
resolves.  When the best is above it, it is polished by Nelder-Mead with
Gao & Han's (2012) adaptive coefficients (see _fit_rung), a port of
scipy's, to the bit.  The starts step in lockstep: each round prices the
points of every live start in one kernel call on the chain's layout, built
once, and each start takes the path it takes alone.  The whole ladder runs
in the calling process.
"""

from __future__ import annotations

import io
import csv
import math
import os
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Callable, Generator, Sequence

import numpy as np

from .core import (
    ConvergenceError,
    DomainError,
    OptionContract,
    StableModelParams,
    _check_int,
    beta_to_theta,
    theta_to_beta,
)
from .pricer import _chain_layout, _model_calls, price_call_strikes
from .reference import bs_equivalent_vol

_SIDES = ("call", "put")
_CSV_COLUMNS = ("as_of", "spot", "rate", "maturity", "strike", "side", "market_price")

# Series tolerance of the objective.
_TOLERANCE = 1e-5

# Nelder-Mead iteration cap and termination tolerances of the polish.
_MAXITER = 400
_XATOL = 1e-4
_FATOL = 1e-6

# Levenberg-Marquardt step cap, tolerances, difference step and step bound.
_LM_MAXITER = 100
_LM_XTOL = 1e-8
_LM_FTOL = 1e-5
_LM_STEP = 1e-4
_LM_RADIUS = 1.0

# A fitted alpha this close to 2 leaves beta unidentified: a start can stop
# a few ulps short of the bound alpha = 2.
_ALPHA_TWO_SLACK = 1e-9


# ---------------------------------------------------------------------------
# chain containers and I/O
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OptionQuote:
    """One observed option price: the contract it prices, checked as an
    OptionContract, and a non-negative finite market price."""

    spot: float
    rate: float
    maturity: float
    strike: float
    side: str
    market_price: float

    def __post_init__(self) -> None:
        self.contract()  # the contract's own checks
        if not 0.0 <= self.market_price < math.inf:
            raise DomainError(
                f"market_price must be non-negative and finite, got {self.market_price}"
            )

    def contract(self) -> OptionContract:
        return OptionContract(
            self.spot, self.strike, self.rate, self.maturity, self.side
        )


@dataclass(frozen=True)
class OptionChain:
    """All quotes sharing one observation date (and therefore one spot)."""

    as_of: str
    quotes: tuple[OptionQuote, ...]

    def __post_init__(self) -> None:
        if not self.quotes:
            raise DomainError("option chain must contain at least one quote")
        spot = self.quotes[0].spot
        for i, quote in enumerate(self.quotes):
            if quote.spot != spot:
                raise DomainError(
                    f"inconsistent spot within chain {self.as_of!r}: "
                    f"quote 1 has {spot}, quote {i + 1} has {quote.spot}"
                )

    @property
    def spot(self) -> float:
        return self.quotes[0].spot

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, ...]:
        """Per-quote strikes, rates, maturities, forwards and market prices,
        built once per chain.

        A put's forward is OptionContract.forward, the amount put-call
        parity takes off the call; a call's is 0.
        """
        rows = [
            (q.strike, q.rate, q.maturity,
             q.contract().forward() if q.side == "put" else 0.0, q.market_price)
            for q in self.quotes
        ]
        return tuple(np.array(column) for column in zip(*rows))

    @cached_property
    def _layout(self):
        """The quotes laid out for the pricing kernel, built once per chain."""
        strikes, rates, maturities, _, _ = self._arrays
        return _chain_layout(self.spot, rates, maturities, strikes)


def filter_quotes(chain: OptionChain, side: str) -> OptionChain:
    """Restrict a chain to one side ('call' or 'put')."""
    if side not in _SIDES:
        raise DomainError(f"side must be one of {_SIDES}, got {side!r}")
    kept = tuple(q for q in chain.quotes if q.side == side)
    if not kept:
        raise DomainError(f"no {side} quotes in chain {chain.as_of!r}")
    return OptionChain(as_of=chain.as_of, quotes=kept)


def load_chain(source: str | os.PathLike | io.TextIOBase) -> OptionChain:
    """Read an option chain from CSV.

    Expected header: as_of,spot,rate,maturity,strike,side,market_price.
    All rows must share one as_of (one chain per file).  Malformed rows are
    reported together in a single DomainError, one diagnostic per row.  A
    path is read as UTF-8, with or without a byte-order mark; bytes that are
    not UTF-8, or a field past csv's size limit, are a DomainError too.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", newline="", encoding="utf-8-sig") as handle:
            return load_chain(handle)

    reader = csv.DictReader(source)
    try:
        header = reader.fieldnames
        rows = [(reader.line_num, row) for row in reader]
    except UnicodeDecodeError as exc:
        raise DomainError(f"chain file is not UTF-8 text: {exc}") from None
    except csv.Error as exc:
        # reader.reader counts the lines it was handed, the failing one too
        raise DomainError(f"malformed chain file: row {reader.reader.line_num}: {exc}") from None
    if header is None:
        raise DomainError("empty chain file: no header row")
    missing = [c for c in _CSV_COLUMNS if c not in header]
    if missing:
        raise DomainError(f"chain file is missing column(s): {', '.join(missing)}")

    problems: list[str] = []
    quotes: list[OptionQuote] = []
    as_of_values: list[str] = []
    for line, row in rows:
        raw = {c: (row.get(c) or "").strip() for c in _CSV_COLUMNS}
        numbers: dict[str, float] = {}
        bad = False
        for name in ("spot", "rate", "maturity", "strike", "market_price"):
            try:
                numbers[name] = float(raw[name])
            except ValueError:
                problems.append(f"row {line}: invalid {name} value {raw[name]!r}")
                bad = True
        side = raw["side"].lower()
        if side not in _SIDES:
            problems.append(f"row {line}: unknown side label {raw['side']!r}")
            bad = True
        if bad:
            continue
        try:
            quotes.append(OptionQuote(side=side, **numbers))
        except DomainError as exc:
            problems.append(f"row {line}: {exc}")
            continue
        if raw["as_of"] not in as_of_values:
            as_of_values.append(raw["as_of"])

    if problems:
        raise DomainError("malformed chain file:\n" + "\n".join(problems))
    if not quotes:
        raise DomainError("chain file contains no quotes")
    if len(as_of_values) > 1:
        raise DomainError(
            f"chain file mixes observation dates {as_of_values}; one as_of per file"
        )
    return OptionChain(as_of=as_of_values[0], quotes=tuple(quotes))


def synthetic_chain(
    params: StableModelParams,
    spot: float,
    rate: float,
    maturities: Sequence[float],
    strikes: Sequence[float],
    as_of: str = "synthetic",
    tolerance: float = 1e-8,
) -> OptionChain:
    """Generate a noiseless chain from one price_call_strikes call: puts below
    spot, calls above."""
    grid = [
        (float(maturity), float(strike))
        for maturity in maturities
        for strike in np.asarray(strikes, dtype=float)
    ]
    calls = price_call_strikes(
        params, spot, rate, np.array([maturity for maturity, _ in grid]),
        np.array([strike for _, strike in grid]), tolerance=tolerance,
    )
    quotes: list[OptionQuote] = []
    for (maturity, strike), call in zip(grid, calls.tolist()):
        side = "put" if strike < spot else "call"
        if side == "put":
            call -= OptionContract(spot, strike, rate, maturity).forward()
        quotes.append(OptionQuote(spot, rate, maturity, strike, side, call))
    return OptionChain(as_of=as_of, quotes=tuple(quotes))


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------


def aggregated_error(
    params: StableModelParams, chain: OptionChain, tolerance: float = _TOLERANCE
) -> float:
    """Sum of absolute pricing errors |model - market| over all quotes.

    The whole chain is priced in one price_call_strikes call, with per-quote
    rates and maturities; puts are priced through
    put = call - (spot - strike * exp(-rate * maturity)).  On
    non-convergence the error message names the offending quote, taken from
    the strike the call reports as failed; nothing is re-priced.
    """
    strikes, rates, maturities, forwards, market = chain._arrays
    try:
        calls = price_call_strikes(
            params, chain.spot, rates, maturities, strikes, tolerance=tolerance
        )
    except ConvergenceError as exc:
        i = exc.strike_index
        quote = chain.quotes[i]
        raise ConvergenceError(
            f"quote {i + 1} (strike={quote.strike}, maturity={quote.maturity}, "
            f"side={quote.side}) failed to price: {exc}"
        ) from exc
    return _error_sum((calls - forwards - market).tolist())


def _error_sum(residuals: list[float]) -> float:
    return math.fsum(map(abs, residuals))


def _residuals(models: Sequence[StableModelParams], chain: OptionChain) -> list:
    """calls - forwards - market per model, None where it fails, in one call."""
    _, _, _, forwards, market = chain._arrays
    return [
        None if isinstance(calls, Exception) else (calls - forwards - market).tolist()
        for calls in _model_calls(models, chain._layout, _TOLERANCE)
    ]


# ---------------------------------------------------------------------------
# model parameterizations
# ---------------------------------------------------------------------------


def _bs_member(vol: float) -> StableModelParams:
    """Gaussian member of the family equivalent to lognormal volatility vol."""
    scale = vol / math.sqrt(2.0)
    return StableModelParams(alpha=2.0, theta=0.0, sigma=scale, mu=-scale * scale)


def _implied_scale(alpha: float, mu: float) -> float:
    """Scale sigma with mu_fmls(alpha, sigma) == mu (inverse of the drift tie).

    The pricing series depends on sigma only through mu, so the stable rung
    fits mu and sigma is not identifiable; the reported scale is the one the
    martingale tie would imply.
    """
    c = math.cos(math.pi * (alpha - 2.0) / 2.0)
    return (-mu * c) ** (1.0 / alpha)


@dataclass(frozen=True)
class _ModelSpec:
    """One model family of the ladder: all that _fit_rung needs to fit it.

    Its points z, one coordinate system for the start box, the warm start,
    Levenberg-Marquardt and the polish, are natural parameters, except that
    a scale sigma or a drift mu enters as log(sigma) or log(-mu), so that the
    quasi-random starts spread log-uniformly over it, and the skew beta as
    atanh(beta), so that no point is off the family in beta.

    name              -- model label of the report.
    box_low, box_high -- corners of the box the quasi-random starts fill.
    upper             -- each coordinate's upper bound: 2 for alpha, else inf.
    to_params         -- z to StableModelParams, DomainError off the family.
    warm              -- the warm start z from the leaner rung's fitted model
                         (None on the first rung) and the chain.
    report            -- (sigma, beta) to report for fitted parameters.
    """

    name: str
    box_low: tuple[float, ...]
    box_high: tuple[float, ...]
    upper: tuple[float, ...]
    to_params: Callable[[Sequence[float]], StableModelParams]
    warm: Callable[[StableModelParams | None, OptionChain], tuple[float, ...]]
    report: Callable[[StableModelParams], tuple[float, float]]

    def box(self, config: CalibrateConfig) -> np.ndarray:
        """The quasi-random start points z: _kronecker's points 1 to
        config.starts, seeded by config.seed, mapped onto the box."""
        low, high = np.array(self.box_low), np.array(self.box_high)
        return low + _kronecker(len(low), config.starts, config.seed) * (high - low)


def _stable_params(z: Sequence[float]) -> StableModelParams:
    alpha, mu = z[0], -math.exp(z[2])
    theta = beta_to_theta(alpha, math.tanh(z[1]))  # checks alpha and beta first
    return StableModelParams(alpha, theta, _implied_scale(alpha, mu), mu)


# The ladder, leanest family first; each rung is warm-started from the model
# the one before it fitted, which is also one of its candidates, so that the
# aggregated errors nest.
_SPECS: dict[str, _ModelSpec] = {
    "bs": _ModelSpec(
        name="BS",
        box_low=(math.log(0.05),),
        box_high=(math.log(1.2),),
        upper=(math.inf,),
        to_params=lambda z: _bs_member(math.exp(z[0])),
        warm=lambda leaner, chain: (math.log(_heuristic_vol(chain)),),
        # report the lognormal vol
        report=lambda p: (bs_equivalent_vol(p.sigma), 0.0),
    ),
    "carrwu": _ModelSpec(
        name="CarrWu",
        box_low=(math.log(0.05), 1.15),
        box_high=(math.log(0.8), 1.95),
        upper=(math.inf, 2.0),
        to_params=lambda z: StableModelParams.fmls(alpha=z[1], sigma=math.exp(z[0])),
        warm=lambda leaner, chain: (math.log(leaner.sigma), 1.9),
        report=lambda p: (p.sigma, -1.0),
    ),
    "stable": _ModelSpec(
        name="AlphaBetaStable",
        box_low=(1.15, math.atanh(-0.95), math.log(0.005)),
        box_high=(1.95, math.atanh(0.95), math.log(0.5)),
        upper=(2.0, math.inf, math.inf),
        to_params=_stable_params,
        warm=lambda leaner, chain: (leaner.alpha, math.atanh(-0.9), math.log(-leaner.mu)),
        report=lambda p: (p.sigma, theta_to_beta(p.alpha, p.theta)),
    ),
}


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


def _kronecker(d: int, n: int, seed: int) -> np.ndarray:
    """Points 1 to n of the d-dimensional Kronecker sequence frac(offset + i g)
    in [0, 1)**d (Kuipers & Niederreiter 1974, ch. 1): g_k = phi**-k for k = 1
    to d, where phi solves phi**(d + 1) = phi + 1, and the offset is drawn
    by np.random.default_rng(seed).  i g is reduced mod 1 before the offset
    is added, so that successive points differ by g mod 1 to a few ulps."""
    phi = 2.0
    for _ in range(64):
        phi = (1.0 + phi) ** (1.0 / (d + 1))
    g, offset = phi ** -np.arange(1.0, d + 1), np.random.default_rng(seed).random(d)
    return (offset + np.arange(1, n + 1)[:, None] * g % 1.0) % 1.0


def _nelder_mead(
    x0: Sequence[float],
) -> Generator[list[list[float]], list[float], tuple[list[float], float, int, bool]]:
    """Nelder-Mead from x0 with Gao & Han's (2012) adaptive coefficients:
    scipy.optimize.minimize(method="Nelder-Mead") with options maxiter
    _MAXITER, xatol _XATOL, fatol _FATOL and adaptive=True, to the bit, a
    generator that _polish drives from the best start's point of a rung.

    The simplex and its points are lists of Python floats, formed in scipy's
    order of operations: the centroid sums the vertices from vertex 0 on,
    then divides by N; a trial point is formed coordinate by coordinate.
    The simplex is sorted with np.argsort, as scipy sorts it.

    It yields the points it needs, one per row: the N+1 vertices of the
    initial simplex, then one trial point per step, or the N points of a
    shrink.  It is sent their objective values, in order, and returns
    (x, fun, iterations, success); success is False when the run stops at
    _MAXITER iterations.
    """
    x0 = [float(v) for v in x0]
    dim = len(x0)
    rho, chi, psi, sigma = 1, 1 + 2 / dim, 0.75 - 1 / (2 * dim), 1 - 1 / dim
    nonzdelt, zdelt = 0.05, 0.00025
    sim = [x0]
    for k in range(dim):
        y = list(x0)
        y[k] = (1 + nonzdelt) * y[k] if y[k] != 0 else zdelt
        sim.append(y)
    fsim = yield sim
    # scipy sorts the initial simplex twice
    for _ in range(2):
        ind = np.argsort(fsim).tolist()
        sim, fsim = [sim[i] for i in ind], [fsim[i] for i in ind]
    iterations = 1
    while iterations < _MAXITER:
        best, worst = sim[0], sim[-1]
        if all(
            abs(v - b) <= _XATOL for vertex in sim[1:] for v, b in zip(vertex, best)
        ) and all(abs(fsim[0] - f) <= _FATOL for f in fsim[1:]):
            break
        xbar = list(sim[0])
        for vertex in sim[1:-1]:
            xbar = [s + v for s, v in zip(xbar, vertex)]
        xbar = [s / dim for s in xbar]
        xr = [(1 + rho) * c - rho * w for c, w in zip(xbar, worst)]
        (fxr,) = yield [xr]
        if fxr < fsim[0]:
            xe = [(1 + rho * chi) * c - rho * chi * w for c, w in zip(xbar, worst)]
            (fxe,) = yield [xe]
            if fxe < fxr:
                sim[-1], fsim[-1] = xe, fxe
            else:
                sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:
                # outside contraction
                xc = [(1 + psi * rho) * c - psi * rho * w for c, w in zip(xbar, worst)]
                (fxc,) = yield [xc]
                shrink = not fxc <= fxr
                if not shrink:
                    sim[-1], fsim[-1] = xc, fxc
            else:
                # inside contraction
                xcc = [(1 - psi) * c + psi * w for c, w in zip(xbar, worst)]
                (fxcc,) = yield [xcc]
                shrink = not fxcc < fsim[-1]
                if not shrink:
                    sim[-1], fsim[-1] = xcc, fxcc
            if shrink:
                sim[1:] = [[b + sigma * (v - b) for v, b in zip(vertex, best)]
                           for vertex in sim[1:]]
                fsim[1:] = yield sim[1:]
        iterations += 1
        ind = np.argsort(fsim).tolist()
        sim, fsim = [sim[i] for i in ind], [fsim[i] for i in ind]
    return sim[0], float(np.min(fsim)), iterations, iterations < _MAXITER


def _solve(matrix: list[list[float]], rhs: list[float]) -> list[float]:
    """matrix^-1 rhs by Gauss-Jordan elimination, positive definite: no pivots."""
    rows = [row + [b] for row, b in zip(matrix, rhs)]
    for i, pivot in enumerate(rows):
        for j, row in enumerate(rows):
            if j != i:
                factor = row[i] / pivot[i]
                rows[j] = [v - factor * p for v, p in zip(row, pivot)]
    return [row[-1] / row[i] for i, row in enumerate(rows)]


def _levenberg_marquardt(z0: Sequence[float], upper=None) -> Generator:
    """Levenberg-Marquardt from z0 on the sum of squared residuals, each z_k
    held at or below upper[k] (inf by default).  Each yield is a point z and
    its forward differences z + h_k e_k, h_k = _LM_STEP max(1, |z_k|); where
    z + h_k passes the bound, the difference steps inward, to z - h_k.  A
    step solves (J'J + lam max(diag J'J) I) dz = -J'r, in which a coordinate
    at its bound whose descent -J'r points outward sits out (its dz is 0),
    cuts dz to _LM_RADIUS a coordinate and clips z + dz to the bound; it is
    taken if it lowers the sum of squares and no residual vector is None, and
    lam (from 1e-3) falls tenfold, else lam grows tenfold.  It converges when
    dz, clipped to the bound, is within _LM_XTOL of z, or on a taken step
    that lowers the sum by at most _LM_FTOL of it, and stops after
    _LM_MAXITER steps or a None in its first yield.  Returns (z, the
    aggregated error at z, the steps tried, converged)."""
    upper = upper or [math.inf] * len(z0)

    def probe(z: list[float]) -> list[list[float]]:
        steps = [_LM_STEP * max(1.0, abs(v)) for v in z]
        return [z] + [z[:k] + [v + h if v + h <= b else v - h] + z[k + 1:]
                      for k, (v, h, b) in enumerate(zip(z, steps, upper))]

    points = probe([float(v) for v in z0])
    sent = yield points
    lam, iterations, success = 1e-3, 0, False
    while None not in sent and not success and iterations < _LM_MAXITER:
        z, r = points[0], sent[0]  # the point taken, and its Jacobian
        jac = [[(a - b) / (y[k] - z[k]) for a, b in zip(column, r)]
               for k, (y, column) in enumerate(zip(points[1:], sent[1:]))]
        squares = math.fsum(v * v for v in r)
        gradient = [-math.fsum(a * b for a, b in zip(u, r)) for u in jac]
        free = [v < b or g <= 0.0 for v, b, g in zip(z, upper, gradient)]
        normal = [[math.fsum(a * b for a, b in zip(u, v)) if fu and fv else 0.0
                   for v, fv in zip(jac, free)] for u, fu in zip(jac, free)]
        gradient = [g if f else 0.0 for g, f in zip(gradient, free)]
        while iterations < _LM_MAXITER:
            damping = lam * (max(row[i] for i, row in enumerate(normal)) or 1.0)
            step = _solve([[a + damping * (i == j) for j, a in enumerate(row)]
                           for i, row in enumerate(normal)], gradient)
            if success := all(abs(min(d, b - v)) <= _LM_XTOL * (abs(v) + _LM_XTOL)
                              for d, v, b in zip(step, z, upper)):
                break
            shrink = min(1.0, _LM_RADIUS / max(map(abs, step)))
            iterations += 1
            trial = probe([min(v + d * shrink, b) for v, d, b in zip(z, step, upper)])
            answer = yield trial
            if None not in answer and (lower := math.fsum(v * v for v in answer[0])) < squares:
                points, sent, lam = trial, answer, lam / 10.0
                success = squares - lower <= _LM_FTOL * squares
                break
            lam *= 10.0
    return points[0], _error_sum(sent[0]), iterations, success


def _polish(x0: Sequence[float]) -> Generator:
    """_nelder_mead from x0 on the aggregated error, sent residual vectors as
    _levenberg_marquardt is: it passes on their _error_sum, inf for None."""
    run = _nelder_mead(x0)
    points = next(run)
    while True:
        sent = yield points
        try:
            points = run.send([math.inf if r is None else _error_sum(r) for r in sent])
        except StopIteration as done:
            return done.value


# ---------------------------------------------------------------------------
# calibration driver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CalibrateConfig:
    """Optimizer settings.

    starts      -- number of quasi-random Levenberg-Marquardt starts (a warm
                   start derived from the next-leaner model is always added).
    seed        -- seed of the Kronecker start sequence's offset.
    """

    starts: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        _check_int("starts", self.starts, 1)
        _check_int("seed", self.seed, 0)


@dataclass(frozen=True)
class CalibrationReport:
    """Fit result for one chain and one model family.

    iterations counts the Levenberg-Marquardt steps of the finished starts and
    the polish iterations; evaluations, every point priced (the leaner
    rung's model too), and inf_evaluations the failed ones.  converged and
    start are the polish's (stopped on its tolerances) and the start it
    began from; when the polish is skipped, those of the best finished start,
    the first to end at the objective's resolution when the starts stop
    there; or the leaner rung's converged and None when its model wins.
    """

    model: str
    sigma: float
    alpha: float
    beta: float
    mu: float
    aggregated_error: float
    iterations: int
    converged: bool
    quotes: int
    evaluations: int
    inf_evaluations: int
    start: int | None = None

    @property
    def beta_identified(self) -> bool:
        """False when the fitted alpha is within 1e-9 of 2: there theta is 0
        for every beta, so the chain carries no information on the skew and
        the reported beta is arbitrary."""
        return abs(self.alpha - 2.0) > _ALPHA_TWO_SLACK


def report_payload(
    report: CalibrationReport, precision: int | None = None
) -> dict:
    """Report as a JSON-ready dict, its fields in order with beta_identified
    after beta (float fields rounded to `precision` significant digits when
    given, full precision otherwise)."""
    if precision is not None:
        _check_int("precision", precision, 0)
    payload = {}
    for field in fields(report):
        value = getattr(report, field.name)
        if precision is not None and field.type == "float":
            value = float(f"%.{precision}g" % value)
        payload[field.name] = value
        if field.name == "beta":
            payload["beta_identified"] = report.beta_identified
    return payload


def _heuristic_vol(chain: OptionChain) -> float:
    """Rough at-the-money volatility read straight off the nearest strike."""
    strikes, _, maturities, forwards, market = chain._arrays
    spot = chain.spot
    i = int(np.argmin(np.abs(strikes - spot)))
    call_value = max(float(market[i] + forwards[i]), 1e-8 * spot)
    vol = math.sqrt(2.0 * math.pi / maturities[i]) * call_value / spot
    return min(max(vol, 0.02), 1.5)


def objective_params(params: StableModelParams, chain: OptionChain) -> float:
    """Aggregated error of explicit parameters at aggregated_error's series
    tolerance and column cap, inf on failure to price."""
    try:
        return aggregated_error(params, chain)
    except (ConvergenceError, DomainError):
        return math.inf


def _lockstep(chain: OptionChain, spec: _ModelSpec, runs: dict) -> tuple[dict, int, int]:
    """Step runs of _levenberg_marquardt or _polish, by start, in lockstep:
    each round prices every live run's points in one kernel call on the
    chain's layout, built once, and sends each run its residual vectors, so
    each takes its path alone; a run whose first point is no model is dropped.
    After the round in which a run finishes at aggregated error <=
    len(chain.quotes) * _TOLERANCE, the objective's resolution, the runs
    still stepping are dropped too.  Returns (z, fun, iterations, success) by
    start of the finished runs, evaluations and failed ones."""
    resolution = len(chain.quotes) * _TOLERANCE
    evaluations = inf_evaluations = 0

    def residuals(points: list[list[float]]) -> list[list[float] | None]:
        nonlocal evaluations, inf_evaluations
        out: list[list[float] | None] = [None] * len(points)
        models: dict[int, StableModelParams] = {}
        for i, z in enumerate(points):
            try:
                models[i] = spec.to_params(z)
            except (DomainError, OverflowError):
                pass
        for i, r in zip(models, _residuals(list(models.values()), chain)):
            out[i] = r
        evaluations += len(out)
        inf_evaluations += out.count(None)
        return out

    # the points each live run asks for, by start, its own point first
    asks = {i: next(run) for i, run in runs.items()}
    results: dict[int, tuple[list[float], float, int, bool]] = {}
    first = True
    while asks and min((fun for _, fun, _, _ in results.values()), default=math.inf) > resolution:
        answers = iter(residuals([z for points in asks.values() for z in points]))
        answered = [(i, [next(answers) for _ in points]) for i, points in asks.items()]
        asks = {}
        for i, answer in answered:
            if first and answer[0] is None:
                continue  # start sits in the non-priceable region; skip it
            try:
                asks[i] = runs[i].send(answer)
            except StopIteration as done:
                results[i] = done.value
        first = False
    return results, evaluations, inf_evaluations


def _fit_rung(
    chain: OptionChain,
    spec: _ModelSpec,
    config: CalibrateConfig,
    leaner: tuple[CalibrationReport, StableModelParams] | None,
) -> tuple[CalibrationReport, StableModelParams]:
    """Fit one model family, warm-started from the next-leaner family's fit:
    its report and fitted model, `leaner`, None on the first rung.  Returns
    this rung's report and fitted model.

    Levenberg-Marquardt on the quote residuals (_lockstep) in the spec's
    coordinates z (log sigma for bs and carrwu, log(-mu) for stable; alpha
    itself, bounded by alpha <= 2; atanh beta), from the spec's warm start
    (start 0) and the Kronecker points of its box (starts 1 to
    config.starts).  Each price is good to the series tolerance, so below
    len(chain.quotes) * _TOLERANCE the objective cannot resolve a change:
    the starts stop after the round in which one ends there, and the finished
    start of least error, the earliest on ties, stands.  Above it,
    Nelder-Mead (_polish) minimizes the aggregated error over the same
    coordinates from that start's point.  The leaner fitted model, a member
    of this family as it is, is a candidate too, so the aggregated errors
    nest; it wins a tie.
    """
    leaner_report, leaner_model = leaner or (None, None)
    runs = {i: _levenberg_marquardt(z, spec.upper)
            for i, z in enumerate((spec.warm(leaner_model, chain), *spec.box(config)))}
    results, evaluations, inf_evaluations = _lockstep(chain, spec, runs)
    iterations = sum(nit for _, _, nit, _ in results.values())
    candidates = []
    if leaner is not None:
        error = objective_params(leaner_model, chain)
        evaluations += 1
        inf_evaluations += error == math.inf
        candidates.append((error, leaner_model, leaner_report.converged, None))
    if results:
        start = min(sorted(results), key=lambda i: results[i][1])
        z, fun, _, success = results[start]
        if fun > len(chain.quotes) * _TOLERANCE:
            polished, evals, infs = _lockstep(chain, spec, {start: _polish(z)})
            z, fun, nit, success = polished[start]
            evaluations, inf_evaluations = evaluations + evals, inf_evaluations + infs
            iterations += nit
        candidates.append((fun, spec.to_params(z), success, start))
    if not candidates:
        raise ConvergenceError(
            f"calibration of {spec.name!r} failed: no start produced a finite error"
        )
    error, params, converged, start = min(candidates, key=lambda cand: cand[0])
    sigma, beta = spec.report(params)
    return CalibrationReport(
        model=spec.name, sigma=sigma, alpha=params.alpha, beta=beta, mu=params.mu,
        aggregated_error=error, iterations=iterations, converged=converged,
        quotes=len(chain.quotes), evaluations=evaluations,
        inf_evaluations=inf_evaluations, start=start,
    ), params


def _ladder(
    chain: OptionChain, config: CalibrateConfig | None, last: str | None
) -> dict[str, CalibrationReport]:
    """Fit the families of _SPECS in order, up to and including `last`, in
    the calling process, each handed the report and fitted model of the one
    before it."""
    if config is None:
        config = CalibrateConfig()
    reports: dict[str, CalibrationReport] = {}
    leaner = None
    for kind in list(_SPECS)[: list(_SPECS).index(last) + 1 if last else None]:
        leaner = _fit_rung(chain, _SPECS[kind], config, leaner)
        reports[kind] = leaner[0]
    return reports


def calibrate_all(
    chain: OptionChain, config: CalibrateConfig | None = None
) -> dict[str, CalibrationReport]:
    """Fit all three nested families, sharing the warm-start ladder.

    Returns {"bs": ..., "carrwu": ..., "stable": ...}.  Each report's
    iteration and evaluation counts cover its own family's fit only.
    """
    return _ladder(chain, config, None)


def calibrate(
    chain: OptionChain,
    model: str = "stable",
    config: CalibrateConfig | None = None,
) -> CalibrationReport:
    """Fit one model family to a chain by aggregated-error minimization.

    Richer families are warm-started from the leaner ones, so requesting
    'carrwu' or 'stable' runs the ladder up to that rung.  Use
    calibrate_all to retrieve every rung of one ladder run.
    """
    if model not in _SPECS:
        raise DomainError(
            f"unknown model kind {model!r}; expected one of {list(_SPECS)}"
        )
    return _ladder(chain, config, model)[model]
