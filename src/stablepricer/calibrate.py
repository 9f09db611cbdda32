"""Fitting stable-model parameters to option-chain quotes.

Three nested model families are fit by minimizing the aggregated absolute
pricing error over a chain:

* ``bs``      -- Gaussian member (alpha = 2, theta = 0, mu = -vol**2 / 2);
                 one free parameter, the lognormal volatility.
* ``carrwu``  -- maximally left-skewed member (beta = -1, mu tied to
                 mu_fmls); free parameters (sigma, alpha).
* ``stable``  -- full family with free skew (sigma, alpha, beta), mu tied
                 to mu_fmls(alpha, sigma) unless ``free_mu`` is set.

Every family is priced through the same residue series, so the leaner
model's optimum is a feasible point of each richer family.  The richer
fits always evaluate that embedded point as a candidate, which guarantees
the aggregated errors nest: AE(stable) <= AE(carrwu) <= AE(bs).
"""

from __future__ import annotations

import io
import csv
import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import optimize
from scipy.stats import qmc

from .core import (
    ConvergenceError,
    DomainError,
    OptionContract,
    StableModelParams,
    mu_fmls,
    theta_to_beta,
)
from .pricer import price_call_strikes

_SIDES = ("call", "put")
_MODEL_NAMES = {"bs": "BS", "carrwu": "CarrWu", "stable": "AlphaBetaStable"}
_CSV_COLUMNS = ("as_of", "spot", "rate", "maturity", "strike", "side", "market_price")


# ---------------------------------------------------------------------------
# chain containers and I/O
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OptionQuote:
    """One observed option price."""

    spot: float
    rate: float
    maturity: float
    strike: float
    side: str
    market_price: float

    def __post_init__(self) -> None:
        if not (self.spot > 0.0 and math.isfinite(self.spot)):
            raise DomainError(f"spot must be positive, got {self.spot}")
        if not math.isfinite(self.rate):
            raise DomainError(f"rate must be finite, got {self.rate}")
        if not (self.maturity > 0.0 and math.isfinite(self.maturity)):
            raise DomainError(f"maturity must be positive, got {self.maturity}")
        if not (self.strike > 0.0 and math.isfinite(self.strike)):
            raise DomainError(f"strike must be positive, got {self.strike}")
        if self.side not in _SIDES:
            raise DomainError(f"side must be one of {_SIDES}, got {self.side!r}")
        if not (self.market_price >= 0.0 and math.isfinite(self.market_price)):
            raise DomainError(
                f"market_price must be non-negative, got {self.market_price}"
            )

    def contract(self) -> OptionContract:
        return OptionContract(
            spot=self.spot,
            strike=self.strike,
            rate=self.rate,
            maturity=self.maturity,
            side=self.side,
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
    reported together in a single DomainError, one diagnostic per row.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", newline="") as handle:
            return load_chain(handle)

    reader = csv.DictReader(source)
    header = reader.fieldnames
    if header is None:
        raise DomainError("empty chain file: no header row")
    missing = [c for c in _CSV_COLUMNS if c not in header]
    if missing:
        raise DomainError(f"chain file is missing column(s): {', '.join(missing)}")

    problems: list[str] = []
    quotes: list[OptionQuote] = []
    as_of_values: list[str] = []
    for row in reader:
        line = reader.line_num
        raw = {c: (row.get(c) or "").strip() for c in _CSV_COLUMNS}
        fields: dict[str, float] = {}
        bad = False
        for name in ("spot", "rate", "maturity", "strike", "market_price"):
            try:
                fields[name] = float(raw[name])
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
            quotes.append(OptionQuote(side=side, **fields))
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
    """Generate a noiseless chain from the series: puts below spot, calls above."""
    quotes: list[OptionQuote] = []
    strike_arr = np.asarray(strikes, dtype=float)
    for maturity in maturities:
        calls = price_call_strikes(
            params, spot, rate, maturity, strike_arr, tolerance=tolerance
        )
        disc = math.exp(-rate * maturity)
        for strike, call in zip(strike_arr, calls):
            if strike < spot:
                side, price = "put", call - (spot - strike * disc)
            else:
                side, price = "call", call
            quotes.append(
                OptionQuote(
                    spot=spot,
                    rate=rate,
                    maturity=float(maturity),
                    strike=float(strike),
                    side=side,
                    market_price=float(price),
                )
            )
    return OptionChain(as_of=as_of, quotes=tuple(quotes))


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------


def aggregated_error(
    params: StableModelParams,
    chain: OptionChain,
    tolerance: float = 1e-5,
    max_column: int = 64,
) -> float:
    """Sum of absolute pricing errors |model - market| over all quotes.

    Quotes are grouped by (spot, rate, maturity) and priced in one
    vectorized series evaluation per group; puts are priced through
    put = call - (spot - strike * exp(-rate * maturity)).  On
    non-convergence the error message names the offending quote, taken from
    the strike the batch reports as failed; nothing is re-priced.
    """
    per_quote = [0.0] * len(chain.quotes)
    groups: dict[tuple[float, float, float], list[int]] = {}
    for i, quote in enumerate(chain.quotes):
        groups.setdefault((quote.spot, quote.rate, quote.maturity), []).append(i)
    for (spot, rate, maturity), indices in groups.items():
        strikes = np.array([chain.quotes[i].strike for i in indices])
        try:
            calls = price_call_strikes(
                params,
                spot,
                rate,
                maturity,
                strikes,
                tolerance=tolerance,
                max_column=max_column,
            )
        except ConvergenceError as exc:
            i = indices[exc.strike_index]
            quote = chain.quotes[i]
            raise ConvergenceError(
                f"quote {i + 1} (strike={quote.strike}, maturity={quote.maturity}, "
                f"side={quote.side}) failed to price: {exc}"
            ) from exc
        disc = math.exp(-rate * maturity)
        for j, i in enumerate(indices):
            quote = chain.quotes[i]
            model = calls[j]
            if quote.side == "put":
                model -= spot - quote.strike * disc
            per_quote[i] = abs(model - quote.market_price)
    return math.fsum(per_quote)


# ---------------------------------------------------------------------------
# model parameterizations
# ---------------------------------------------------------------------------


def _bs_member(vol: float) -> StableModelParams:
    """Gaussian member of the family equivalent to lognormal volatility vol."""
    scale = vol / math.sqrt(2.0)
    return StableModelParams(alpha=2.0, theta=0.0, sigma=scale, mu=-scale * scale)


def _implied_scale(alpha: float, mu: float) -> float:
    """Scale sigma with mu_fmls(alpha, sigma) == mu (inverse of the drift tie).

    The pricing series depends on sigma only through mu, so when mu is fit
    freely sigma is not identifiable; the reported scale is the one the
    martingale tie would imply.
    """
    c = math.cos(math.pi * (alpha - 2.0) / 2.0)
    return (-mu * c) ** (1.0 / alpha)


def _alpha_from_z(z: float) -> float:
    return 1.0 + 1.0 / (1.0 + math.exp(-z))


def _z_from_alpha(alpha: float) -> float:
    alpha = min(max(alpha, 1.0 + 1e-9), 2.0 - 1e-9)
    return math.log((alpha - 1.0) / (2.0 - alpha))


def _z_from_beta(beta: float) -> float:
    return math.atanh(min(max(beta, -1.0 + 1e-12), 1.0 - 1e-12))


@dataclass(frozen=True)
class _ModelSpec:
    """How one model family maps an unconstrained vector to parameters."""

    kind: str
    dimension: int
    to_params: Callable[[np.ndarray], StableModelParams]
    # natural-box bounds used to spread quasi-random starts
    box_low: tuple[float, ...]
    box_high: tuple[float, ...]
    to_z: Callable[[np.ndarray], np.ndarray]


def _make_spec(kind: str, free_mu: bool) -> _ModelSpec:
    if kind == "bs":
        return _ModelSpec(
            kind=kind,
            dimension=1,
            to_params=lambda z: _bs_member(math.exp(z[0])),
            box_low=(math.log(0.05),),
            box_high=(math.log(1.2),),
            to_z=lambda x: np.array([math.log(x[0])]),
        )
    if kind == "carrwu":
        return _ModelSpec(
            kind=kind,
            dimension=2,
            to_params=lambda z: StableModelParams.fmls(
                alpha=_alpha_from_z(z[1]), sigma=math.exp(z[0])
            ),
            box_low=(math.log(0.05), 1.15),
            box_high=(math.log(0.8), 1.95),
            to_z=lambda x: np.array([math.log(x[0]), _z_from_alpha(x[1])]),
        )
    if kind == "stable":
        if free_mu:
            # the series sees sigma only through mu, so the free-mu family
            # optimizes (alpha, beta, mu) and derives sigma from the fit
            def _free_params(z: np.ndarray) -> StableModelParams:
                alpha = _alpha_from_z(z[0])
                mu = -math.exp(z[2])
                return StableModelParams.from_beta(
                    alpha=alpha,
                    beta=math.tanh(z[1]),
                    sigma=_implied_scale(alpha, mu),
                    mu=mu,
                )

            return _ModelSpec(
                kind=kind,
                dimension=3,
                to_params=_free_params,
                box_low=(1.15, -0.95, math.log(0.005)),
                box_high=(1.95, 0.95, math.log(0.5)),
                to_z=lambda x: np.array(
                    [_z_from_alpha(x[0]), _z_from_beta(x[1]), math.log(-x[2])]
                ),
            )
        return _ModelSpec(
            kind=kind,
            dimension=3,
            to_params=lambda z: StableModelParams.from_beta(
                alpha=_alpha_from_z(z[1]),
                beta=math.tanh(z[2]),
                sigma=math.exp(z[0]),
            ),
            box_low=(math.log(0.05), 1.15, -0.95),
            box_high=(math.log(0.8), 1.95, 0.95),
            to_z=lambda x: np.array(
                [math.log(x[0]), _z_from_alpha(x[1]), _z_from_beta(x[2])]
            ),
        )
    raise DomainError(f"unknown model kind {kind!r}; expected bs, carrwu or stable")


# ---------------------------------------------------------------------------
# calibration driver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CalibrateConfig:
    """Optimizer settings.

    starts      -- number of quasi-random Nelder-Mead starts (a warm start
                   derived from the next-leaner model is always added).
    seed        -- seed for the scrambled Halton start sequence.
    tolerance   -- series tolerance used inside the objective.
    max_column  -- series column cap used inside the objective.
    maxiter     -- Nelder-Mead iteration cap per start.
    free_mu     -- for the stable model, fit mu freely instead of tying it
                   to mu_fmls(alpha, sigma); sigma is then reported as the
                   scale the tie would imply at the fitted (alpha, mu).
    """

    starts: int = 5
    seed: int = 0
    tolerance: float = 1e-5
    max_column: int = 64
    maxiter: int = 400
    xatol: float = 1e-4
    fatol: float = 1e-6
    free_mu: bool = False

    def __post_init__(self) -> None:
        if self.starts < 1:
            raise DomainError(f"starts must be >= 1, got {self.starts}")
        if self.maxiter < 1:
            raise DomainError(f"maxiter must be >= 1, got {self.maxiter}")
        if not (self.tolerance > 0.0):
            raise DomainError(f"tolerance must be positive, got {self.tolerance}")


@dataclass(frozen=True)
class CalibrationReport:
    """Fit result for one chain and one model family."""

    model: str
    sigma: float
    alpha: float
    beta: float
    mu: float
    aggregated_error: float
    iterations: int
    converged: bool
    quotes: int


def report_payload(
    report: CalibrationReport, precision: int | None = None
) -> dict:
    """Report as a JSON-ready dict (floats rounded to `precision`
    significant digits when given, full precision otherwise)."""

    def fmt(x: float) -> float:
        return x if precision is None else float(f"%.{precision}g" % x)

    return {
        "model": report.model,
        "sigma": fmt(report.sigma),
        "alpha": fmt(report.alpha),
        "beta": fmt(report.beta),
        "mu": fmt(report.mu),
        "aggregated_error": fmt(report.aggregated_error),
        "iterations": report.iterations,
        "converged": report.converged,
        "quotes": report.quotes,
    }


def report_to_json(report: CalibrationReport, precision: int | None = None) -> str:
    """Serialize a report to JSON."""
    return json.dumps(report_payload(report, precision), indent=2)


@dataclass(frozen=True)
class _Candidate:
    error: float
    params: StableModelParams
    converged: bool


def _heuristic_vol(chain: OptionChain) -> float:
    """Rough at-the-money volatility read straight off the nearest strike."""
    spot = chain.spot
    best = min(chain.quotes, key=lambda q: abs(q.strike - spot))
    call_value = best.market_price
    if best.side == "put":
        call_value += spot - best.strike * math.exp(-best.rate * best.maturity)
    call_value = max(call_value, 1e-8 * spot)
    vol = math.sqrt(2.0 * math.pi / best.maturity) * call_value / spot
    return min(max(vol, 0.02), 1.5)


def objective_params(
    params: StableModelParams, chain: OptionChain, config: CalibrateConfig
) -> float:
    """Aggregated error of explicit parameters, inf on failure to price."""
    try:
        return aggregated_error(
            params, chain, tolerance=config.tolerance, max_column=config.max_column
        )
    except (ConvergenceError, DomainError, OverflowError):
        return math.inf


def _fit_rung(
    chain: OptionChain,
    kind: str,
    config: CalibrateConfig,
    leaner: CalibrationReport | None,
) -> CalibrationReport:
    """Fit one model family, warm-started from the next-leaner family's fit.

    Multi-start Nelder-Mead in an unconstrained reparameterization
    (log sigma, logistic alpha in (1, 2), atanh beta).  Besides the
    quasi-random starts, the leaner fit contributes a warm start and an
    exactly-embedded candidate, which guarantees the aggregated errors
    nest across bs -> carrwu -> stable.  The lowest aggregated error wins;
    ties keep the earliest candidate.
    """
    spec = _make_spec(kind, config.free_mu)

    def objective(z: np.ndarray) -> float:
        try:
            return objective_params(spec.to_params(z), chain, config)
        except (DomainError, OverflowError):
            return math.inf

    # quasi-random starts spread over a natural parameter box; the sigma/mu
    # coordinates are sampled in log space already, while alpha and beta come
    # out in natural units and get the unconstraining transform applied
    sampler = qmc.Halton(d=spec.dimension, scramble=True, seed=config.seed)
    unit = sampler.random(config.starts)
    low = np.asarray(spec.box_low)
    high = np.asarray(spec.box_high)
    natural = low + unit * (high - low)
    if kind == "bs":
        z_starts = [np.array([row[0]]) for row in natural]
    elif kind == "carrwu":
        z_starts = [np.array([row[0], _z_from_alpha(row[1])]) for row in natural]
    elif config.free_mu:
        z_starts = [
            np.array([_z_from_alpha(row[0]), _z_from_beta(row[1]), row[2]])
            for row in natural
        ]
    else:
        z_starts = [
            np.array([row[0], _z_from_alpha(row[1]), _z_from_beta(row[2])])
            for row in natural
        ]

    candidates: list[_Candidate] = []

    # warm start, plus the leaner optimum embedded exactly as a candidate
    if kind == "bs":
        z_starts.insert(0, spec.to_z([_heuristic_vol(chain)]))
    elif kind == "carrwu":
        scale = leaner.sigma / math.sqrt(2.0)
        z_starts.insert(0, spec.to_z([scale, 1.9]))
        embedded = StableModelParams.fmls(alpha=2.0, sigma=scale)
        candidates.append(
            _Candidate(
                objective_params(embedded, chain, config), embedded, leaner.converged
            )
        )
    else:
        if config.free_mu:
            z_starts.insert(
                0,
                spec.to_z(
                    [leaner.alpha, -0.9, mu_fmls(leaner.alpha, leaner.sigma)]
                ),
            )
        else:
            z_starts.insert(0, spec.to_z([leaner.sigma, leaner.alpha, -0.9]))
        embedded = StableModelParams.fmls(alpha=leaner.alpha, sigma=leaner.sigma)
        candidates.append(
            _Candidate(
                objective_params(embedded, chain, config), embedded, leaner.converged
            )
        )

    iterations = 0
    for z0 in z_starts:
        if not math.isfinite(objective(z0)):
            continue  # start sits in the non-priceable region; skip it
        result = optimize.minimize(
            objective,
            z0,
            method="Nelder-Mead",
            options={
                "maxiter": config.maxiter,
                "xatol": config.xatol,
                "fatol": config.fatol,
                "adaptive": True,
            },
        )
        iterations += int(result.nit)
        if math.isfinite(result.fun):
            candidates.append(
                _Candidate(
                    float(result.fun), spec.to_params(result.x), bool(result.success)
                )
            )

    if not candidates:
        raise ConvergenceError(
            f"calibration of {kind!r} failed: no start produced a finite error"
        )
    best = candidates[0]
    for cand in candidates[1:]:
        if cand.error < best.error:
            best = cand

    params = best.params
    if kind == "bs":
        sigma_out = params.sigma * math.sqrt(2.0)  # report the lognormal vol
        beta_out = 0.0
    elif kind == "carrwu":
        sigma_out = params.sigma
        beta_out = -1.0
    else:
        sigma_out = params.sigma
        beta_out = theta_to_beta(params.alpha, params.theta)
    return CalibrationReport(
        model=_MODEL_NAMES[kind],
        sigma=sigma_out,
        alpha=params.alpha,
        beta=beta_out,
        mu=params.mu,
        aggregated_error=best.error,
        iterations=iterations,
        converged=best.converged,
        quotes=len(chain.quotes),
    )


_LADDER = ("bs", "carrwu", "stable")


def calibrate_all(
    chain: OptionChain, config: CalibrateConfig | None = None
) -> dict[str, CalibrationReport]:
    """Fit all three nested families, sharing the warm-start ladder.

    Returns {"bs": ..., "carrwu": ..., "stable": ...}.  Each report's
    iteration count covers its own family's optimization only.
    """
    if config is None:
        config = CalibrateConfig()
    reports: dict[str, CalibrationReport] = {}
    leaner: CalibrationReport | None = None
    for kind in _LADDER:
        leaner = _fit_rung(chain, kind, config, leaner)
        reports[kind] = leaner
    return reports


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
    if config is None:
        config = CalibrateConfig()
    if model not in _MODEL_NAMES:
        raise DomainError(
            f"unknown model kind {model!r}; expected one of {sorted(_MODEL_NAMES)}"
        )
    leaner: CalibrationReport | None = None
    for kind in _LADDER:
        leaner = _fit_rung(chain, kind, config, leaner)
        if kind == model:
            return leaner
    raise AssertionError("unreachable")
