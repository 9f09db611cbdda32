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
aggregated_error (the embedded candidate) through price_call_strikes: one
kernel, whose series the model picks, the FMLS expectation on the carrwu
line (beta = -1, martingale drift) and the lattice elsewhere.  A point
prices the same in every family that contains it, so the leaner optimum
is a feasible point of each richer family.  The richer fits always
evaluate it as a candidate, so the aggregated errors nest:
AE(stable) <= AE(carrwu) <= AE(bs).

Each family is one entry of the model-spec table ``_SPECS`` (start box,
coordinate maps, warm start, embedded leaner optimum, report); the ladder
fits its entries in order, so a new family is one more entry.

Each rung runs Levenberg-Marquardt on the quote residuals, on Python
floats, from a warm start and the points of a scrambled Halton sequence
(Owen 2017), then polishes the aggregated error from the best start's point
by Nelder-Mead with Gao & Han's (2012) adaptive coefficients; _halton and
_nelder_mead are ports of scipy's, to the bit.  The starts step in
lockstep: each round prices the points of every live start in one kernel
call on the chain's layout, built once, and each start takes the path it
takes alone, so a forked worker process can run the last rung's Halton
starts on a second core with the same reports (see _ladder).
"""

from __future__ import annotations

import io
import csv
import math
import os
import pickle
import sys
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
    _usable_cores,
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

# A fitted alpha this close to 2 leaves beta unidentified: the optimizer
# stops a few ulps short of the closed map's alpha = 2.
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


def _alpha_from_z(z: float) -> float:
    # closed map: alpha = 2 sits at the finite z = pi/2 (alpha = 1 is
    # rejected by StableModelParams, so the objective is inf there)
    return 1.5 + 0.5 * math.sin(z)


def _z_from_alpha(alpha: float) -> float:
    return math.asin(min(max(2.0 * alpha - 3.0, -1.0), 1.0))


def _z_from_beta(beta: float) -> float:
    return math.atanh(min(max(beta, -1.0 + 1e-12), 1.0 - 1e-12))


@dataclass(frozen=True)
class _ModelSpec:
    """One model family of the ladder: all that _fit_rung needs to fit it.

    Its points x are natural parameters, except that a scale sigma or a
    drift mu enters as log(sigma) or log(-mu), so that the quasi-random
    starts spread log-uniformly over it.

    name              -- model label of the report.
    box_low, box_high -- corners of the box the quasi-random starts fill.
    to_z, to_x        -- x to Levenberg-Marquardt's unconstrained z, and back.
    to_params         -- x to StableModelParams, DomainError off the family.
    warm              -- the warm start x from the leaner fit (None on the
                         first rung) and the chain.
    embed             -- the leaner optimum as a member of this family,
                         always evaluated as a candidate; None on the first
                         rung.
    report            -- (sigma, beta) to report for fitted parameters.
    """

    name: str
    box_low: tuple[float, ...]
    box_high: tuple[float, ...]
    to_z: Callable[[Sequence[float]], np.ndarray]
    to_x: Callable[[Sequence[float]], list[float]]
    to_params: Callable[[Sequence[float]], StableModelParams]
    warm: Callable[[CalibrationReport | None, OptionChain], tuple[float, ...]]
    embed: Callable[[CalibrationReport], StableModelParams] | None
    report: Callable[[StableModelParams], tuple[float, float]]


def _stable_params(x: Sequence[float]) -> StableModelParams:
    alpha, mu = x[0], -math.exp(x[2])
    theta = beta_to_theta(alpha, x[1])  # checks alpha and beta first
    return StableModelParams(alpha, theta, _implied_scale(alpha, mu), mu)


# The ladder, leanest family first; each rung is warm-started from the one
# before it, and its embedded candidate makes the aggregated errors nest.
_SPECS: dict[str, _ModelSpec] = {
    "bs": _ModelSpec(
        name="BS",
        box_low=(math.log(0.05),),
        box_high=(math.log(1.2),),
        to_z=np.array,
        to_x=list,
        to_params=lambda x: _bs_member(math.exp(x[0])),
        warm=lambda leaner, chain: (math.log(_heuristic_vol(chain)),),
        embed=None,
        # report the lognormal vol
        report=lambda p: (bs_equivalent_vol(p.sigma), 0.0),
    ),
    "carrwu": _ModelSpec(
        name="CarrWu",
        box_low=(math.log(0.05), 1.15),
        box_high=(math.log(0.8), 1.95),
        to_z=lambda x: np.array([x[0], _z_from_alpha(x[1])]),
        to_x=lambda z: [z[0], _alpha_from_z(z[1])],
        to_params=lambda x: StableModelParams.fmls(alpha=x[1], sigma=math.exp(x[0])),
        warm=lambda leaner, chain: (math.log(leaner.sigma / math.sqrt(2.0)), 1.9),
        embed=lambda leaner: StableModelParams.fmls(
            alpha=2.0, sigma=leaner.sigma / math.sqrt(2.0)
        ),
        report=lambda p: (p.sigma, -1.0),
    ),
    "stable": _ModelSpec(
        name="AlphaBetaStable",
        box_low=(1.15, -0.95, math.log(0.005)),
        box_high=(1.95, 0.95, math.log(0.5)),
        to_z=lambda x: np.array([_z_from_alpha(x[0]), _z_from_beta(x[1]), x[2]]),
        to_x=lambda z: [_alpha_from_z(z[0]), math.tanh(z[1]), z[2]],
        to_params=_stable_params,
        warm=lambda leaner, chain: (leaner.alpha, -0.9, math.log(-leaner.mu)),
        embed=lambda leaner: StableModelParams.fmls(
            alpha=leaner.alpha, sigma=leaner.sigma
        ),
        report=lambda p: (p.sigma, theta_to_beta(p.alpha, p.theta)),
    ),
}


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


def _halton(d: int, n: int, seed: int) -> np.ndarray:
    """The first n points of the d-dimensional scrambled Halton sequence in
    [0, 1)**d, as scipy.stats.qmc.Halton(d, scramble=True, seed=seed).random(n)
    draws them.

    Dimension i is the van der Corput sequence in the i-th prime base, with
    Owen's (2017) scrambling: each of the digits that a float64 resolves
    goes through its own random permutation of 0..base-1.  The permutations
    are shuffled by np.random.default_rng(seed), base by base.
    """
    rng = np.random.default_rng(seed)
    bases: list[int] = []
    candidate = 2
    while len(bases) < d:
        if all(candidate % b for b in bases):
            bases.append(candidate)
        candidate += 1
    permutations = []
    for base in bases:
        table = np.repeat(np.arange(base)[None], math.ceil(54 / math.log2(base)) - 1, axis=0)
        for row in table:
            rng.shuffle(row)
        permutations.append(table)
    points = np.zeros((d, n))
    for point, base, table in zip(points, bases, permutations):
        quotient = np.arange(n)
        weight = 1.0 / base
        for row in table:
            point += row[quotient % base] * weight
            weight /= base
            quotient //= base
    return points.T


def _nelder_mead(
    x0: Sequence[float],
) -> Generator[list[list[float]], list[float], tuple[list[float], float, int, bool]]:
    """Nelder-Mead from x0 with Gao & Han's (2012) adaptive coefficients:
    scipy.optimize.minimize(method="Nelder-Mead") with options maxiter
    _MAXITER, xatol _XATOL, fatol _FATOL and adaptive=True, to the bit, a
    generator that _polish drives once per rung from the best start's point.

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


def _levenberg_marquardt(z0: Sequence[float], to_x: Callable = list) -> Generator:
    """Levenberg-Marquardt from z0 on the sum of squared residuals.  Each yield
    is a point z and its forward differences z + _LM_STEP max(1, |z_k|) e_k,
    through to_x.  A step solves (J'J + lam max(diag J'J) I) dz = -J'r, cut
    to _LM_RADIUS a coordinate; it is taken if it lowers the sum of squares
    and no residual vector is None, and lam (from 1e-3) falls tenfold, else
    lam grows tenfold.  It converges on a step within _LM_XTOL of z or a
    taken step that lowers the sum by at most _LM_FTOL of it, and stops after
    _LM_MAXITER steps or a None in its first yield.  Returns (to_x(z), the
    aggregated error at z, the steps tried, converged)."""

    def probe(z: list[float]) -> list[list[float]]:
        return [z] + [z[:k] + [v + _LM_STEP * max(1.0, abs(v))] + z[k + 1:]
                      for k, v in enumerate(z)]

    points = probe([float(v) for v in z0])
    sent = yield [to_x(p) for p in points]
    lam, iterations, success = 1e-3, 0, False
    while None not in sent and not success and iterations < _LM_MAXITER:
        z, r = points[0], sent[0]  # the point taken, and its Jacobian
        jac = [[(a - b) / (y[k] - z[k]) for a, b in zip(column, r)]
               for k, (y, column) in enumerate(zip(points[1:], sent[1:]))]
        squares = math.fsum(v * v for v in r)
        normal = [[math.fsum(a * b for a, b in zip(u, v)) for v in jac] for u in jac]
        gradient = [-math.fsum(a * b for a, b in zip(u, r)) for u in jac]
        while iterations < _LM_MAXITER:
            damping = lam * (max(row[i] for i, row in enumerate(normal)) or 1.0)
            step = _solve([[a + damping * (i == j) for j, a in enumerate(row)]
                           for i, row in enumerate(normal)], gradient)
            if success := all(abs(d) <= _LM_XTOL * (abs(v) + _LM_XTOL) for d, v in zip(step, z)):
                break
            shrink = min(1.0, _LM_RADIUS / max(map(abs, step)))
            iterations += 1
            trial = probe([v + d * shrink for v, d in zip(z, step)])
            answer = yield [to_x(p) for p in trial]
            if None not in answer and (lower := math.fsum(v * v for v in answer[0])) < squares:
                points, sent, lam = trial, answer, lam / 10.0
                success = squares - lower <= _LM_FTOL * squares
                break
            lam *= 10.0
    return to_x(points[0]), _error_sum(sent[0]), iterations, success


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
    seed        -- seed for the scrambled Halton start sequence.
    """

    starts: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        _check_int("starts", self.starts, 1)
        _check_int("seed", self.seed, 0)


@dataclass(frozen=True)
class CalibrationReport:
    """Fit result for one chain and one model family.

    iterations counts the Levenberg-Marquardt steps and polish iterations;
    evaluations, the points priced (the embedded leaner optimum too), and
    inf_evaluations the failed ones.  converged and start are the winning
    polish's (stopped on its tolerances) and its start, or the embedded
    leaner fit's converged and None.
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


def _halton_runs(spec: _ModelSpec, config: CalibrateConfig) -> dict:
    """Levenberg-Marquardt runs from the spec's box's Halton points, from 1."""
    low, high = np.array(spec.box_low), np.array(spec.box_high)
    box = low + _halton(len(low), config.starts, config.seed) * (high - low)
    return {i: _levenberg_marquardt(spec.to_z(x), spec.to_x) for i, x in enumerate(box, 1)}


def _lockstep(chain: OptionChain, spec: _ModelSpec, runs: dict) -> tuple[dict, int, int]:
    """Step runs of _levenberg_marquardt or _polish, by start, in lockstep:
    each round prices every live run's points in one kernel call on the
    chain's layout, built once, and sends each run its residual vectors, so
    each takes its path alone; a run whose first point is no model is dropped.
    Returns (x, fun, iterations, success) by start, evaluations, failed ones."""
    evaluations = inf_evaluations = 0

    def residuals(points: list[list[float]]) -> list[list[float] | None]:
        nonlocal evaluations, inf_evaluations
        out: list[list[float] | None] = [None] * len(points)
        models: dict[int, StableModelParams] = {}
        for i, x in enumerate(points):
            try:
                models[i] = spec.to_params(x)
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
    while asks:
        answers = iter(residuals([x for points in asks.values() for x in points]))
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


class _Worker:
    """A forked process that sends down a pipe, in one message, the _lockstep
    result of every Halton start of `spec`, or its exception.  It ends in
    os._exit: it never returns into the caller's frames nor flushes its
    stdio; _ladder kills and reaps it on every way out."""

    def __init__(self, chain: OptionChain, spec: _ModelSpec, config: CalibrateConfig):
        self.spec, self.status = spec, None
        read, write = os.pipe()
        self._pid = os.fork()
        if self._pid == 0:
            try:
                os.close(read)
                try:
                    message = _lockstep(chain, spec, _halton_runs(spec, config))
                except BaseException as exc:
                    message = exc
                with open(write, "wb") as pipe:
                    pipe.write(pickle.dumps(message))
                os._exit(0)
            finally:
                os._exit(1)
        os.close(write)
        self._pipe = open(read, "rb")

    def receive(self) -> tuple[dict, int, int]:
        try:
            message = pickle.load(self._pipe)
        except (EOFError, pickle.UnpicklingError):
            raise RuntimeError(f"calibration worker exited with status {self.close()} "
                               f"before sending its {self.spec.name!r} starts") from None
        if isinstance(message, BaseException):
            raise message
        return message

    def close(self) -> int:
        """Kill (SIGKILL, 9 on POSIX) and reap the worker, once; its status."""
        if self.status is None:
            self._pipe.close()
            os.kill(self._pid, 9)
            self.status = os.waitstatus_to_exitcode(os.waitpid(self._pid, 0)[1])
        return self.status


def _fit_rung(
    chain: OptionChain,
    spec: _ModelSpec,
    config: CalibrateConfig,
    leaner: CalibrationReport | None,
    worker: _Worker | None = None,
) -> CalibrationReport:
    """Fit one model family, warm-started from the next-leaner family's fit.

    Levenberg-Marquardt on the quote residuals (_lockstep) in the spec's
    unconstrained coordinates z (log sigma for bs and carrwu, log(-mu) for
    stable; alpha = 1.5 + 0.5 sin z; atanh beta), from the spec's warm start
    (start 0) and the scrambled Halton points of its box (starts 1 to
    config.starts).  A worker, if given, runs the Halton starts and this
    call the warm start; results merge by start index and counts add up, so
    the report is the same.  Nelder-Mead (_polish) then minimizes the
    aggregated error over the points x from the start point of least error,
    the earliest on ties.  The leaner optimum, embedded exactly, is a
    candidate too, so the aggregated errors nest; it wins a tie.
    """
    runs = {0: _levenberg_marquardt(spec.to_z(spec.warm(leaner, chain)), spec.to_x),
            **({} if worker else _halton_runs(spec, config))}
    results, evaluations, inf_evaluations = _lockstep(chain, spec, runs)
    candidates = []
    if spec.embed is not None:
        embedded = spec.embed(leaner)
        error = objective_params(embedded, chain)
        evaluations += 1
        inf_evaluations += error == math.inf
        candidates.append((error, embedded, leaner.converged, None))
    theirs, evals, infs = worker.receive() if worker else ({}, 0, 0)
    results.update(theirs)
    evaluations, inf_evaluations = evaluations + evals, inf_evaluations + infs
    iterations = sum(nit for _, _, nit, _ in results.values())
    if results:
        start = min(sorted(results), key=lambda i: results[i][1])
        polished, evals, infs = _lockstep(chain, spec, {start: _polish(results[start][0])})
        x, fun, nit, success = polished[start]
        evaluations, inf_evaluations = evaluations + evals, inf_evaluations + infs
        iterations += nit
        candidates.append((fun, spec.to_params(x), success, start))
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
    )


def _ladder(
    chain: OptionChain, config: CalibrateConfig | None, last: str | None
) -> dict[str, CalibrationReport]:
    """Fit the families of _SPECS in order, up to and including `last`.

    A ladder of two or more rungs on two or more usable cores forks a
    _Worker for the last rung's Halton starts, which depend on no leaner
    fit; this process runs every other start and every polish, and prices
    the embedded candidates.  A one-rung ladder forks nothing, as the fork costs it more
    than the worker saves.  The reports are the same, and nothing sets this.
    There is no worker without os.fork or from Python 3.12, where a fork
    with threads (numpy's BLAS pool) warns.
    """
    if config is None:
        config = CalibrateConfig()
    kinds = list(_SPECS)[: list(_SPECS).index(last) + 1 if last else None]
    forks = _usable_cores() > 1 and hasattr(os, "fork") and sys.version_info < (3, 12)
    worker = _Worker(chain, _SPECS[kinds[-1]], config) if forks and len(kinds) > 1 else None
    try:
        reports: dict[str, CalibrationReport] = {}
        leaner: CalibrationReport | None = None
        for kind in kinds:
            mine = worker if kind == kinds[-1] else None
            leaner = reports[kind] = _fit_rung(chain, _SPECS[kind], config, leaner, mine)
        return reports
    finally:
        if worker:
            worker.close()


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
