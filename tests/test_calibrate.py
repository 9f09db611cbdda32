"""Tests for chain I/O, the aggregated-error objective, and the fit ladder.

Recovery tests run on small noiseless synthetic chains with few optimizer
starts to stay fast; the full-size recovery check lives in the acceptance
suite.
"""

import importlib
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stablepricer import (
    CalibrateConfig,
    ConvergenceError,
    DomainError,
    OptionChain,
    OptionContract,
    OptionQuote,
    StableModelParams,
    aggregated_error,
    calibrate,
    calibrate_all,
    filter_quotes,
    fmls_call,
    load_chain,
    mu_fmls,
    price_call,
    price_put,
    report_payload,
    synthetic_chain,
)
from scipy import optimize
from scipy.stats import qmc
from stablepricer.calibrate import (
    _FATOL,
    _MAXITER,
    _SPECS,
    _XATOL,
    CalibrationReport,
    _alpha_from_z,
    _bs_member,
    _error_sum,
    _fit_rung,
    _halton,
    _heuristic_vol,
    _levenberg_marquardt,
    _lockstep,
    _nelder_mead,
    _polish,
    _z_from_alpha,
    objective_params,
)

from _support import aggregated_error_by_group, lewis_fmls_call

STRIKES = [85.0, 90.0, 95.0, 100.0, 105.0, 110.0, 115.0]
MATURITIES = [0.5, 1.0]
QUICK = CalibrateConfig(starts=2, seed=1)


def small_chain(params: StableModelParams) -> OptionChain:
    return synthetic_chain(params, 100.0, 0.01, MATURITIES, STRIKES)


class TestQuoteAndChain:
    def test_quote_validation(self):
        good = dict(
            spot=100.0, rate=0.01, maturity=1.0, strike=95.0,
            side="call", market_price=8.0,
        )
        OptionQuote(**good)
        for field, value in [
            ("spot", -1.0), ("maturity", 0.0), ("strike", 0.0),
            ("side", "straddle"), ("market_price", -0.5), ("rate", math.nan),
            ("strike", math.inf), ("maturity", math.nan), ("spot", math.inf),
            ("market_price", math.inf),
        ]:
            with pytest.raises(DomainError):
                OptionQuote(**{**good, field: value})

    def test_chain_requires_consistent_spot(self):
        q1 = OptionQuote(spot=100.0, rate=0.0, maturity=1.0, strike=95.0,
                         side="call", market_price=8.0)
        q2 = OptionQuote(spot=101.0, rate=0.0, maturity=1.0, strike=95.0,
                         side="call", market_price=8.0)
        with pytest.raises(DomainError, match="inconsistent spot"):
            OptionChain(as_of="d", quotes=(q1, q2))
        with pytest.raises(DomainError):
            OptionChain(as_of="d", quotes=())

    def test_filter_quotes(self):
        chain = small_chain(StableModelParams.fmls(1.6, 0.2))
        calls = filter_quotes(chain, "call")
        puts = filter_quotes(chain, "put")
        assert all(q.side == "call" for q in calls.quotes)
        assert all(q.side == "put" for q in puts.quotes)
        assert len(calls.quotes) + len(puts.quotes) == len(chain.quotes)
        with pytest.raises(DomainError):
            filter_quotes(calls, "put")
        with pytest.raises(DomainError):
            filter_quotes(chain, "both")


class TestLoadChain:
    HEADER = "as_of,spot,rate,maturity,strike,side,market_price\n"

    def test_happy_path_and_side_case(self):
        text = self.HEADER + (
            "2026-01-05,100,0.01,1.0,95,Call,9.1\n"
            "2026-01-05,100,0.01,1.0,105,PUT,7.3\n"
        )
        chain = load_chain(io.StringIO(text))
        assert chain.as_of == "2026-01-05"
        assert [q.side for q in chain.quotes] == ["call", "put"]
        assert chain.quotes[1].market_price == 7.3

    def test_row_diagnostics_cite_line_numbers(self):
        text = self.HEADER + (
            "d,100,0.01,1.0,95,call,9.1\n"
            "d,100,xx,1.0,95,call,9.1\n"
            "d,100,0.01,1.0,95,swaption,9.1\n"
        )
        with pytest.raises(DomainError) as err:
            load_chain(io.StringIO(text))
        message = str(err.value)
        assert "row 3: invalid rate value 'xx'" in message
        assert "row 4: unknown side label 'swaption'" in message

    def test_nan_strike_reported_under_its_row(self):
        text = self.HEADER + (
            "d,100,0.01,1.0,95,call,9.1\n"
            "d,100,0.01,1.0,nan,call,9.1\n"
        )
        with pytest.raises(DomainError, match="row 3: strike must be positive"):
            load_chain(io.StringIO(text))

    def test_missing_column(self):
        with pytest.raises(DomainError, match="missing column"):
            load_chain(io.StringIO("as_of,spot,rate\nd,100,0.01\n"))

    def test_mixed_as_of_rejected(self):
        text = self.HEADER + (
            "d1,100,0.01,1.0,95,call,9.1\n"
            "d2,100,0.01,1.0,105,call,4.2\n"
        )
        with pytest.raises(DomainError, match="mixes observation dates"):
            load_chain(io.StringIO(text))

    def test_byte_order_mark(self, tmp_path):
        # Excel's "CSV UTF-8" starts the file with a UTF-8 byte-order mark
        text = self.HEADER + (
            "2026-01-05,100,0.01,1.0,95,call,9.1\n"
            "2026-01-05,100,0.01,1.0,105,put,7.3\n"
        )
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(text.encode())
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        chain = load_chain(marked)
        assert chain == load_chain(plain) == load_chain(io.StringIO(text))
        assert calibrate(chain, "bs", QUICK) == calibrate(load_chain(plain), "bs", QUICK)

    def test_bytes_that_are_not_utf8(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes((self.HEADER + "café,100,0.01,1.0,95,call,9.1\n").encode("latin-1"))
        with pytest.raises(DomainError, match="chain file is not UTF-8 text: .* byte 0xe9"):
            load_chain(path)

    def test_field_past_the_csv_limit_names_its_row(self):
        text = self.HEADER + "d,100,0.01,1.0,95,call,9.1\n" + "d," + "1" * 200_000 + "\n"
        with pytest.raises(
            DomainError, match=r"^malformed chain file: row 3: field larger than field limit"
        ):
            load_chain(io.StringIO(text))

    def test_empty_file(self):
        with pytest.raises(DomainError, match="no header"):
            load_chain(io.StringIO(""))
        with pytest.raises(DomainError, match="no quotes"):
            load_chain(io.StringIO(self.HEADER))


class TestSyntheticChain:
    def test_sides_split_at_spot(self):
        chain = small_chain(StableModelParams.fmls(1.6, 0.2))
        for quote in chain.quotes:
            assert quote.side == ("put" if quote.strike < 100.0 else "call")
            assert quote.market_price > 0.0

    def test_prices_match_pricer(self):
        params = StableModelParams.fmls(1.6, 0.2)
        chain = small_chain(params)
        for quote in chain.quotes[:4]:
            pricer = price_put if quote.side == "put" else price_call
            direct = pricer(params, quote.contract(), tolerance=1e-8)
            assert quote.market_price == pytest.approx(direct.price, abs=1e-6)


class TestAggregatedError:
    def test_matches_scalar_sum(self):
        params = StableModelParams.fmls(1.7, 0.22)
        chain = small_chain(StableModelParams.fmls(1.6, 0.2))
        batch = aggregated_error(params, chain, tolerance=1e-9)
        manual = math.fsum(
            abs(
                (price_put if q.side == "put" else price_call)(
                    params, q.contract(), tolerance=1e-9
                ).price
                - q.market_price
            )
            for q in chain.quotes
        )
        assert batch == pytest.approx(manual, abs=1e-6)

    def test_near_zero_at_generator(self):
        params = StableModelParams.fmls(1.6, 0.2)
        chain = small_chain(params)
        assert aggregated_error(params, chain, tolerance=1e-8) < 1e-4

    def test_failure_names_the_quote(self):
        # a far-out strike pushes the series outside its convergence
        # envelope; the error should identify that quote, not the batch
        params = StableModelParams(alpha=1.5, theta=-0.4, sigma=0.1, mu=-0.02)
        quotes = (
            OptionQuote(spot=100.0, rate=0.01, maturity=0.5, strike=100.0,
                        side="call", market_price=5.0),
            OptionQuote(spot=100.0, rate=0.01, maturity=0.5, strike=300.0,
                        side="call", market_price=0.1),
        )
        chain = OptionChain(as_of="d", quotes=quotes)
        with pytest.raises(ConvergenceError, match=r"strike=300\.0"):
            aggregated_error(params, chain)

    def test_fmls_overflow_names_a_quote(self):
        # every strike shares the overflowing FMLS tail, which makes column 0
        # of its first pair overflow; the stop rule names that pair's first
        chain = small_chain(StableModelParams.fmls(1.6, 0.2))
        with pytest.raises(
            ConvergenceError,
            match=r"quote 1 \(strike=85\.0.*series terms overflowed at column 0 ",
        ):
            aggregated_error(StableModelParams.fmls(1.6, 100.0), chain)

    def test_failure_named_without_repricing(self, monkeypatch):
        # the package attribute stablepricer.calibrate is the function
        calibrate_module = importlib.import_module("stablepricer.calibrate")
        pricer_module = importlib.import_module("stablepricer.pricer")

        def no_scalar(*args, **kwargs):
            raise AssertionError("scalar re-pricing")

        batch = calibrate_module.price_call_strikes
        calls = []

        def counting(*args, **kwargs):
            calls.append(list(args[3]))
            return batch(*args, **kwargs)

        monkeypatch.setattr(pricer_module, "price_call", no_scalar)
        monkeypatch.setattr(calibrate_module, "price_call", no_scalar, raising=False)
        monkeypatch.setattr(calibrate_module, "price_call_strikes", counting)
        params = StableModelParams(alpha=1.5, theta=-0.4, sigma=0.1, mu=-0.02)
        quotes = tuple(
            OptionQuote(spot=100.0, rate=0.01, maturity=maturity, strike=strike,
                        side="call", market_price=1.0)
            for maturity, strike in [(0.5, 100.0), (0.5, 110.0),
                                     (1.0, 100.0), (1.0, 300.0)]
        )
        chain = OptionChain(as_of="d", quotes=quotes)
        with pytest.raises(
            ConvergenceError, match=r"quote 4 \(strike=300\.0, maturity=1\.0"
        ):
            aggregated_error(params, chain)
        # one call prices the whole chain, one maturity per quote
        assert calls == [[0.5, 0.5, 1.0, 1.0]]

    @pytest.mark.parametrize("kind", ["acceptance7", "interleaved"])
    def test_one_call_equals_one_call_per_group(self, kind):
        # the whole-chain call against the objective restated per
        # (rate, maturity) group, exactly, inf outcomes included
        if kind == "acceptance7":
            chain = synthetic_chain(
                StableModelParams.from_beta(1.5, -0.8, 0.2), 100.0, 0.01,
                maturities=(0.5, 0.75, 1.0, 1.25),
                strikes=np.linspace(80.0, 120.0, 10),
            )
        else:
            rng = random.Random(4)
            chain = OptionChain(as_of="mixed", quotes=tuple(
                OptionQuote(100.0, rng.choice([0.0, 0.01, 0.03]),
                            rng.choice([0.25, 0.5, 1.0]), rng.uniform(80.0, 120.0),
                            rng.choice(["call", "put"]), rng.uniform(0.5, 15.0))
                for _ in range(24)
            ))
        rng = random.Random(11)
        outcomes = []
        for _ in range(500):
            alpha = _alpha_from_z(rng.uniform(-1.4, math.pi / 2))
            sigma = math.exp(rng.uniform(math.log(0.03), math.log(1.0)))
            params = rng.choice([
                lambda: StableModelParams.from_beta(
                    alpha, rng.uniform(-1.0, 1.0), sigma
                ),
                lambda: StableModelParams.fmls(alpha, sigma),
                lambda: _bs_member(sigma),
            ])()
            error = objective_params(params, chain)
            assert error == aggregated_error_by_group(params, chain)
            outcomes.append(math.isfinite(error))
        assert 0 < sum(outcomes) < len(outcomes)


class TestConfigAndReport:
    def test_config_validation(self):
        with pytest.raises(DomainError):
            CalibrateConfig(starts=0)

    @pytest.mark.parametrize("starts", [2.0, True, "3", None])
    def test_starts_must_be_an_int(self, starts):
        with pytest.raises(DomainError, match="starts must be an int"):
            CalibrateConfig(starts=starts)

    @pytest.mark.parametrize("seed", [-1, 1.5, False, "0", None])
    def test_seed_must_be_a_non_negative_int(self, seed):
        # numpy's default_rng rejects a negative seed with a ValueError
        with pytest.raises(DomainError, match="seed must be a non-negative int"):
            CalibrateConfig(seed=seed)

    def test_payload_keys_and_json_round_trip(self):
        chain = small_chain(StableModelParams.fmls(1.6, 0.2))
        report = calibrate(chain, "bs", QUICK)
        payload = report_payload(report)
        assert list(payload) == [
            "model", "sigma", "alpha", "beta", "beta_identified", "mu",
            "aggregated_error", "iterations", "converged", "quotes",
            "evaluations", "inf_evaluations", "start",
        ]
        assert payload["beta_identified"] is False  # the bs rung has alpha = 2
        parsed = json.loads(json.dumps(report_payload(report, precision=17)))
        assert parsed["sigma"] == pytest.approx(report.sigma, rel=1e-15)
        assert parsed["quotes"] == len(chain.quotes)
        rounded = report_payload(report, precision=3)
        assert rounded["sigma"] == float(f"{report.sigma:.3g}")

    @pytest.mark.parametrize("precision", [-1, 2.5, True])
    def test_payload_precision_must_be_a_non_negative_int(self, precision):
        # -1 and 2.5 would otherwise raise "unsupported format character";
        # None keeps full precision
        report = CalibrationReport(
            model="BlackScholes", sigma=0.2, alpha=2.0, beta=0.0, mu=-0.04,
            aggregated_error=1.0, iterations=1, converged=True, quotes=16,
            evaluations=1, inf_evaluations=0,
        )
        with pytest.raises(DomainError, match="precision must be a non-negative int"):
            report_payload(report, precision=precision)
        assert report_payload(report, precision=None)["sigma"] == 0.2

    @pytest.mark.parametrize(
        "alpha, identified",
        # the first is the stable rung's alpha on a Black-Scholes chain
        [(1.9999999999999938, False), (2.0, False), (2.0 - 2e-9, True), (1.7, True)],
    )
    def test_beta_identified_away_from_alpha_two(self, alpha, identified):
        report = CalibrationReport(
            model="AlphaBetaStable", sigma=0.2, alpha=alpha, beta=-0.904,
            mu=mu_fmls(alpha, 0.2), aggregated_error=1.0, iterations=1,
            converged=True, quotes=16, evaluations=1, inf_evaluations=0,
        )
        assert report.beta_identified is identified
        assert report_payload(report)["beta_identified"] is identified


class TestRecovery:
    def test_bs_chain_recovers_vol(self):
        # generate from the Gaussian member at lognormal vol 0.25
        scale = 0.25 / math.sqrt(2.0)
        truth = StableModelParams(alpha=2.0, theta=0.0, sigma=scale, mu=-scale * scale)
        report = calibrate(small_chain(truth), "bs", QUICK)
        assert report.model == "BS"
        assert report.sigma == pytest.approx(0.25, abs=0.005)
        assert report.alpha == 2.0
        assert report.beta == 0.0
        assert not report.beta_identified
        assert report.converged

    def test_carrwu_chain_recovers_alpha_sigma(self):
        # the chain comes from the Lewis Fourier integral, not from the
        # series the rung fits
        quotes = []
        for maturity in MATURITIES:
            for strike in STRIKES:
                call = OptionContract(100.0, strike, 0.01, maturity)
                price = lewis_fmls_call(1.6, 0.2, call)
                side = "put" if strike < 100.0 else "call"
                if side == "put":
                    price -= call.spot - call.discounted_strike()
                quotes.append(OptionQuote(100.0, 0.01, maturity, strike, side, price))
        chain = OptionChain(as_of="lewis", quotes=tuple(quotes))
        report = calibrate(chain, "carrwu", QUICK)
        assert report.model == "CarrWu"
        assert report.alpha == pytest.approx(1.6, abs=0.01)
        assert report.sigma == pytest.approx(0.2, rel=0.01)
        assert report.beta == -1.0
        assert report.mu == mu_fmls(report.alpha, report.sigma)
        assert report.converged

    def test_ladder_nesting_and_stable_recovery(self):
        truth = StableModelParams.from_beta(1.5, -0.8, 0.2)
        reports = calibrate_all(small_chain(truth), QUICK)
        bs, cw, st = reports["bs"], reports["carrwu"], reports["stable"]
        assert st.model == "AlphaBetaStable"
        # richer families never fit worse (embedded leaner optimum is a
        # candidate), up to optimizer termination slack
        assert st.aggregated_error <= cw.aggregated_error * (1.0 + 1e-6) + 1e-9
        assert cw.aggregated_error <= bs.aggregated_error * (1.0 + 1e-6) + 1e-9
        assert st.alpha == pytest.approx(1.5, abs=0.05)
        assert st.beta == pytest.approx(-0.8, abs=0.05)
        assert st.beta_identified
        assert st.sigma == pytest.approx(0.2, abs=0.02)

    def test_stable_recovers_drift(self):
        # interior beta, so the unconstrained optimizer can terminate
        truth = StableModelParams.from_beta(1.6, -0.7, 0.2)
        report = calibrate(small_chain(truth), "stable", QUICK)
        assert report.converged
        assert report.mu == pytest.approx(truth.mu, rel=0.1)
        assert report.beta == pytest.approx(-0.7, abs=0.05)
        # sigma is reported as the scale implied by (alpha, mu)
        assert report.mu == pytest.approx(mu_fmls(report.alpha, report.sigma), rel=1e-9)

    @pytest.mark.parametrize(
        "kind, rebuild",
        [
            ("carrwu", lambda r: StableModelParams.fmls(r.alpha, r.sigma)),
            ("stable", lambda r: StableModelParams.from_beta(r.alpha, r.beta, r.sigma)),
        ],
        ids=["carrwu", "stable"],
    )
    def test_report_prices_back(self, kind, rebuild):
        # the reported parameters, through the public constructors, are the
        # fitted model: they reproduce the reported aggregated error.  The
        # prices carry +-2% noise, so that the error is far from 0.
        exact = small_chain(StableModelParams.from_beta(1.6, -0.7, 0.2))
        chain = OptionChain(
            as_of="noisy",
            quotes=tuple(
                replace(q, market_price=q.market_price * (1.0 + 0.02 * (i % 3 - 1)))
                for i, q in enumerate(exact.quotes)
            ),
        )
        report = calibrate(chain, kind, QUICK)
        assert aggregated_error(rebuild(report), chain) == pytest.approx(
            report.aggregated_error, rel=1e-9
        )

    def test_unknown_model_rejected(self):
        chain = small_chain(StableModelParams.fmls(1.6, 0.2))
        with pytest.raises(
            DomainError, match=r"expected one of \['bs', 'carrwu', 'stable'\]"
        ):
            calibrate(chain, "heston", QUICK)


class TestModelSpecs:
    def test_alpha_map_round_trip(self):
        for alpha in np.linspace(1.15, 2.0, 86):
            assert _alpha_from_z(_z_from_alpha(alpha)) == pytest.approx(
                alpha, abs=4e-16
            )
        # alpha = 2 lies at a finite coordinate and maps back exactly
        assert _alpha_from_z(_z_from_alpha(2.0)) == 2.0

    @pytest.mark.parametrize(
        "specs, kind",
        [(_SPECS, kind) for kind in _SPECS],
    )
    @pytest.mark.parametrize("leaner_alpha", [1.7, 2.0])
    def test_warm_start_round_trip(self, specs, kind, leaner_alpha):
        chain = small_chain(StableModelParams.fmls(1.6, 0.2))
        sigma = 0.2
        mu = mu_fmls(leaner_alpha, sigma)
        leaner = CalibrationReport(
            model="leaner", sigma=sigma, alpha=leaner_alpha, beta=-1.0, mu=mu,
            aggregated_error=1.0, iterations=1, converged=True, quotes=1,
            evaluations=1, inf_evaluations=0,
        )
        expected = {
            "BS": _bs_member(_heuristic_vol(chain)),
            "CarrWu": StableModelParams.fmls(alpha=1.9, sigma=sigma / math.sqrt(2.0)),
            "AlphaBetaStable": StableModelParams.from_beta(
                alpha=leaner_alpha, beta=-0.9, sigma=sigma, mu=mu
            ),
        }[specs[kind].name]
        spec = specs[kind]
        params = spec.to_params(spec.to_x(spec.to_z(spec.warm(leaner, chain))))
        for field in ("alpha", "theta", "sigma", "mu"):
            assert getattr(params, field) == pytest.approx(
                getattr(expected, field), rel=1e-12, abs=1e-15
            ), field
        if expected.alpha == 2.0:
            assert params.alpha == 2.0


# the package attribute stablepricer.calibrate is the function
calibrate_module = importlib.import_module("stablepricer.calibrate")


def _objective(spec, chain):
    """The objective of one point alone, through the one-model pricer."""

    def error(z: np.ndarray) -> float:
        try:
            return calibrate_module.objective_params(spec.to_params(spec.to_x(z)), chain)
        except (DomainError, OverflowError):
            return math.inf

    return error


def _drive(run, error):
    """Step one _nelder_mead run alone, pricing its points one by one."""
    points = next(run)
    try:
        while True:
            points = run.send([error(z) for z in points])
    except StopIteration as done:
        return done.value


def _residuals_alone(spec, chain, digits=None):
    """The residual vector of one point alone, through the one-model pricer,
    rounded to `digits` when given; None where the point is no model or
    fails to price."""
    strikes, rates, maturities, forwards, market = chain._arrays

    def residuals(x):
        try:
            calls = calibrate_module.price_call_strikes(
                spec.to_params(x), chain.spot, rates, maturities, strikes,
                tolerance=calibrate_module._TOLERANCE,
            )
        except (ConvergenceError, DomainError, OverflowError):
            return None
        values = (calls - forwards - market).tolist()
        return values if digits is None else [round(v, digits) for v in values]

    return residuals


def _drive_alone(run, residuals):
    """Step one optimizer run alone, pricing its points one by one: its result
    (None when its first point is no model), evaluations and failed ones."""
    points, evaluations, failed = next(run), 0, 0
    first = True
    try:
        while True:
            answer = [residuals(z) for z in points]
            evaluations += len(answer)
            failed += answer.count(None)
            if first and answer[0] is None:
                return None, evaluations, failed
            first = False
            points = run.send(answer)
    except StopIteration as done:
        return done.value, evaluations, failed


def _fit_alone(chain, spec, config, leaner, digits=None):
    """_fit_rung's report with each Levenberg-Marquardt start stepped alone, in
    start order, then the polish from the best of them."""
    residuals = _residuals_alone(spec, chain, digits)
    evaluations = inf_evaluations = 0
    candidates = []
    if spec.embed is not None:
        embedded = spec.embed(leaner)
        error = calibrate_module.objective_params(embedded, chain)
        evaluations, inf_evaluations = 1, int(error == math.inf)
        candidates.append((error, embedded, leaner.converged, None))
    low, high = np.array(spec.box_low), np.array(spec.box_high)
    box = low + _halton(len(low), config.starts, config.seed) * (high - low)
    results = {}
    for i, x in enumerate((spec.warm(leaner, chain), *box)):
        run = _levenberg_marquardt(spec.to_z(x), spec.to_x)
        result, evals, infs = _drive_alone(run, residuals)
        evaluations, inf_evaluations = evaluations + evals, inf_evaluations + infs
        if result is not None:
            results[i] = result
    iterations = sum(nit for _, _, nit, _ in results.values())
    # the lowest aggregated error, the earliest start on ties
    start = min(results, key=lambda i: results[i][1])
    (x, fun, nit, success), evals, infs = _drive_alone(_polish(results[start][0]), residuals)
    evaluations, inf_evaluations = evaluations + evals, inf_evaluations + infs
    candidates.append((fun, spec.to_params(x), success, start))
    fun, params, success, start = min(candidates, key=lambda cand: cand[0])
    sigma, beta = spec.report(params)
    return CalibrationReport(
        model=spec.name, sigma=sigma, alpha=params.alpha, beta=beta, mu=params.mu,
        aggregated_error=fun, iterations=iterations + nit, converged=success,
        quotes=len(chain.quotes), evaluations=evaluations,
        inf_evaluations=inf_evaluations, start=start,
    )


class TestOptimizer:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_halton_is_scipys(self, d):
        for seed in range(20):
            for n in range(1, 10):
                expected = qmc.Halton(d, scramble=True, seed=seed).random(n)
                assert np.array_equal(_halton(d, n, seed), expected), (seed, n)

    @pytest.mark.parametrize(
        "case",
        ["stable", "carrwu", "bs", "inf-region-2d", "inf-region-3d-maxiter", "plateaus"],
    )
    def test_nelder_mead_is_scipys(self, case):
        # driven alone, the port takes scipy's path to the bit: same point,
        # value, iteration count and success flag
        if case in ("stable", "carrwu", "bs"):
            chain = {
                "stable": small_chain(StableModelParams.from_beta(1.7, -0.3, 0.15)),
                "carrwu": small_chain(StableModelParams.fmls(1.6, 0.2)),
                "bs": small_chain(StableModelParams.fmls(1.6, 0.2)),
            }[case]
            spec = _SPECS[case]
            start = {"stable": (1.8, -0.5, math.log(0.03)),
                     "carrwu": (math.log(0.15), 1.8), "bs": (math.log(0.3),)}[case]
            error, x0 = _objective(spec, chain), spec.to_z(start)
        else:
            # Rosenbrock's valley, cut off where the first coordinate passes
            # 0.9, so that the search meets an inf region; scaled by 1e8 in
            # 3-d, so that fatol is not met within maxiter; rounded to
            # plateaus, so that trial points tie
            dim, scale, digits = {
                "inf-region-2d": (2, 1.0, None),
                "inf-region-3d-maxiter": (3, 1e8, None),
                "plateaus": (2, 1.0, 0),
            }[case]

            def error(z):
                # the port yields its points as lists of floats
                z = np.asarray(z, dtype=float)
                if z[0] > 0.9:
                    return math.inf
                value = scale * float(
                    sum(100.0 * (z[1:] - z[:-1] ** 2) ** 2 + (1.0 - z[:-1]) ** 2)
                )
                return value if digits is None else round(value, digits)

            x0 = np.array([-1.2, 1.0, 0.5][:dim])
        expected = optimize.minimize(
            error, x0, method="Nelder-Mead",
            options=dict(maxiter=400, xatol=1e-4, fatol=1e-6, adaptive=True),
        )
        x, fun, nit, success = _drive(_nelder_mead(x0), error)
        assert success is (case != "inf-region-3d-maxiter")
        assert np.array_equal(x, expected.x)
        assert fun == expected.fun
        assert nit == expected.nit
        assert success == expected.success

    @settings(deadline=None, max_examples=80)
    @given(
        dim=st.integers(1, 3),
        start=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
        shift=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
        rosenbrock=st.booleans(),
        digits=st.sampled_from([None, 0, 1, 3]),
        cut=st.one_of(st.none(), st.floats(-0.5, 1.5)),
    )
    def test_nelder_mead_is_scipys_on_random_problems(
        self, dim, start, shift, rosenbrock, digits, cut
    ):
        # shifted quadratics, or Rosenbrock's valley from 2-d on, rounded so
        # that values tie and cut off by an inf region past z[0] = cut
        def error(z):
            z = np.asarray(z, dtype=float)
            if cut is not None and z[0] > cut:
                return math.inf
            if rosenbrock and dim > 1:
                terms = 100.0 * (z[1:] - z[:-1] ** 2) ** 2 + (1.0 - z[:-1]) ** 2
            else:
                terms = (z - shift[:dim]) ** 2
            value = float(sum(terms))
            return value if digits is None else round(value, digits)

        x0 = np.array(start[:dim])
        # scipy's convergence test subtracts inf from inf on an inf simplex
        with np.errstate(invalid="ignore"):
            expected = optimize.minimize(
                error, x0, method="Nelder-Mead",
                options=dict(maxiter=_MAXITER, xatol=_XATOL, fatol=_FATOL, adaptive=True),
            )
        x, fun, nit, success = _drive(_nelder_mead(x0), error)
        # to the bit, signed zeros and NaN included
        assert np.array(x).tobytes() == expected.x.tobytes()
        assert np.float64(fun).tobytes() == np.float64(expected.fun).tobytes()
        assert (nit, success) == (expected.nit, expected.success)

    @pytest.mark.parametrize("case", ["quadratic", "rosenbrock", "exponential"])
    def test_levenberg_marquardt_reaches_scipys_optimum(self, case):
        # driven alone on toy least-squares problems, the port reaches the
        # optimum of scipy's MINPACK Levenberg-Marquardt: a quadratic fit to
        # points off every quadratic, Rosenbrock's valley as two residuals,
        # and an exponential decay through its own points
        t = np.linspace(0.0, 2.0, 9)
        if case == "quadratic":
            y = 1.5 + 0.7 * t - 0.4 * t**2 + 0.1 * np.cos(7.0 * t)
            fun, z0 = (lambda z: z[0] + z[1] * t + z[2] * t**2 - y), [0.0, 0.0, 0.0]
        elif case == "rosenbrock":
            fun, z0 = (lambda z: np.array([10.0 * (z[1] - z[0] ** 2), 1.0 - z[0]])), [-1.2, 1.0]
        else:
            y = 2.0 * np.exp(-1.3 * t)
            fun, z0 = (lambda z: z[0] * np.exp(z[1] * t) - y), [1.0, 0.0]
        expected = optimize.least_squares(fun, z0, method="lm")
        result, evaluations, failed = _drive_alone(
            _levenberg_marquardt(z0), lambda z: fun(np.array(z)).tolist()
        )
        z, error, iterations, success = result
        assert success and failed == 0
        assert evaluations == (len(z0) + 1) * (iterations + 1)
        np.testing.assert_allclose(z, expected.x, rtol=1e-6)
        assert error == _error_sum(fun(np.array(z)).tolist())

    def test_levenberg_marquardt_keeps_its_best_point_next_to_no_model(self):
        # Rosenbrock's valley with no model past z[0] = 0.9, short of its
        # optimum (1, 1): steps that land there, or whose forward-difference
        # points do, are rejected, and the run keeps the point of least sum
        # of squares of those whose every point priced
        def residuals(z):
            return None if z[0] > 0.9 else [10.0 * (z[1] - z[0] ** 2), 1.0 - z[0]]

        run = _levenberg_marquardt([-1.2, 1.0])
        points, priced, rejected = next(run), [], 0
        try:
            while True:
                answer = [residuals(z) for z in points]
                if None in answer:
                    rejected += 1
                else:
                    priced.append((math.fsum(v * v for v in answer[0]), points[0]))
                points = run.send(answer)
        except StopIteration as done:
            z, error, iterations, success = done.value
        assert rejected > 0
        assert z == min(priced)[1]
        assert z[0] <= 0.9
        assert error == _error_sum(residuals(z))

    def test_rung_lays_out_its_chain_once(self, monkeypatch):
        # every round of a rung prices on the layout its chain keeps
        pricer_module = importlib.import_module("stablepricer.pricer")
        layout = pricer_module._chain_layout
        built = []

        def counting(*args, **kwargs):
            built.append(args)
            return layout(*args, **kwargs)

        monkeypatch.setattr(pricer_module, "_chain_layout", counting)
        monkeypatch.setattr(calibrate_module, "_chain_layout", counting)
        chain = small_chain(StableModelParams.from_beta(1.7, -0.3, 0.15))
        leaner, counts = None, []
        for spec in _SPECS.values():
            before = len(built)
            leaner = _fit_rung(chain, spec, QUICK, leaner)
            counts.append(len(built) - before)
        # the bs rung lays out the chain, which keeps it; each later rung
        # lays out only the chain of its embedded candidate's one
        # aggregated_error call
        assert counts == [1, 1, 1]

    def test_lockstep_drops_a_start_that_is_no_model(self):
        # a log vol of 800 overflows math.exp, so neither point of the start's
        # initial simplex is a model: both are inf and the start is dropped
        chain = small_chain(StableModelParams.from_beta(1.7, -0.3, 0.15))
        run = _levenberg_marquardt([800.0])
        assert _lockstep(chain, _SPECS["bs"], {1: run}) == ({}, 2, 2)

    @pytest.mark.parametrize("rounded", [False, True], ids=["exact", "ties"])
    def test_lockstep_equals_each_start_alone(self, rounded, monkeypatch):
        # every start takes the path it takes alone, the polish begins from
        # the start of least aggregated error and the candidates keep start
        # order: with residuals rounded so that starts tie, the earliest start
        # still wins
        digits = 4 if rounded else None
        if rounded:
            _round_residuals(monkeypatch, digits)
        # on this chain and these starts, the rounded errors of the stable
        # rung's Levenberg-Marquardt starts 0, 2 and 3 tie, and start 0
        # finishes last
        chain = small_chain(StableModelParams.from_beta(1.5, -0.8, 0.2))
        config = CalibrateConfig(starts=3, seed=1)
        leaner = None
        for spec in _SPECS.values():
            report = _fit_rung(chain, spec, config, leaner)
            assert report == _fit_alone(chain, spec, config, leaner, digits), spec.name
            leaner = report


def _round_residuals(monkeypatch, digits: int) -> None:
    """Round every residual the ladder prices, and the embedded candidate's
    aggregated error, to `digits` decimals, so that starts tie."""
    batch, alone = calibrate_module._residuals, objective_params
    monkeypatch.setattr(
        calibrate_module, "_residuals",
        lambda models, chain: [
            None if r is None else [round(v, digits) for v in r] for r in batch(models, chain)
        ],
    )
    monkeypatch.setattr(
        calibrate_module, "objective_params",
        lambda params, chain: round(alone(params, chain), digits),
    )


def _use_cores(monkeypatch, cores: int) -> None:
    """Make the package see `cores` usable cores."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)


def _count_forks(monkeypatch) -> list[int]:
    """Wrap os.fork; the list it returns grows by one per fork."""
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


def _no_child_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def _fmls_chain() -> OptionChain:
    """The benchmark's FMLS chain: its carrwu ladder stops before stable."""
    quotes = []
    for tau in (0.5, 1.0):
        for strike in np.linspace(80.0, 120.0, 8).tolist():
            contract = OptionContract(100.0, strike, 0.01, tau)
            price = fmls_call(1.6, 0.2, contract, tolerance=1e-10).price
            side = "put" if strike < 100.0 else "call"
            if side == "put":
                price -= contract.forward()
            quotes.append(OptionQuote(100.0, 0.01, tau, strike, side, price))
    return OptionChain("fmls", tuple(quotes))


@pytest.mark.skipif(
    not hasattr(os, "fork") or sys.version_info >= (3, 12),
    reason="the calibration worker is forked, on Python before 3.12",
)
class TestWorker:
    @pytest.mark.parametrize("cores", [1, 2])
    @pytest.mark.parametrize("starts", [1, 2, 5, 8])
    @pytest.mark.parametrize("last", ["bs", "carrwu", "stable"])
    def test_which_process_runs_which_starts(self, monkeypatch, tmp_path, last, starts, cores):
        # on two cores the worker runs Halton starts 1 to N of the last rung
        # of a ladder of two or more rungs, and this process every other
        # start and each rung's polish; each process appends the starts it
        # runs, or "polish", to one file
        _use_cores(monkeypatch, cores)
        forks = _count_forks(monkeypatch)
        lockstep, log, caller = calibrate_module._lockstep, tmp_path / "runs", os.getpid()

        def recording(chain, spec, starts):
            polish = [run.__name__ for run in starts.values()] == ["_polish"]
            with open(log, "a") as handle:
                ran = "polish" if polish else sorted(starts)
                print(json.dumps([os.getpid() == caller, spec.name, ran]), file=handle)
            return lockstep(chain, spec, starts)

        monkeypatch.setattr(calibrate_module, "_lockstep", recording)
        config = CalibrateConfig(starts=starts, seed=1)
        calibrate(small_chain(StableModelParams.fmls(1.6, 0.2)), last, config)
        runs = [json.loads(line) for line in log.read_text().splitlines()]
        names = [spec.name for spec in _SPECS.values()][: list(_SPECS).index(last) + 1]
        every = list(range(starts + 1))
        if cores == 2 and len(names) > 1:
            here = [[name, every] for name in names[:-1]] + [[names[-1], [0]]]
            there = [[names[-1], every[1:]]]
        else:
            here, there = [[name, every] for name in names], []
        here = [run for lm in here for run in (lm, [lm[0], "polish"])]
        assert [run[1:] for run in runs if run[0]] == here
        assert [run[1:] for run in runs if not run[0]] == there
        assert len(forks) == len(there)
        assert _no_child_left()

    @pytest.mark.parametrize(
        "case", ["acceptance 7", "inf chain", "fmls carrwu", "bs", "starts 1", "starts 8"]
    )
    def test_same_reports_on_one_and_two_cores(self, monkeypatch, case):
        if case == "inf chain":
            # the benchmark's INF_CHAIN: its stable rung crosses the region
            # where the objective is inf
            chain = synthetic_chain(
                StableModelParams.from_beta(1.7, -0.3, 0.15), 100.0, 0.01,
                (0.5, 1.0), np.linspace(80.0, 120.0, 8),
            )
        elif case == "fmls carrwu":
            chain = _fmls_chain()
        else:
            chain = synthetic_chain(
                StableModelParams.from_beta(1.5, -0.8, 0.2), 100.0, 0.01,
                (0.5, 0.75, 1.0, 1.25), np.linspace(80.0, 120.0, 10),
            )
        model = {"fmls carrwu": "carrwu", "bs": "bs"}.get(case)
        config = {"starts 1": CalibrateConfig(starts=1), "starts 8": CalibrateConfig(starts=8)}.get(case)
        forks = _count_forks(monkeypatch)
        reports = {}
        for cores in (1, 2):
            _use_cores(monkeypatch, cores)
            if model:
                reports[cores] = repr(calibrate(chain, model, config))
            else:
                reports[cores] = repr(calibrate_all(chain, config))
            assert _no_child_left()
        assert reports[1] == reports[2]
        # a one-rung ladder forks nothing
        assert len(forks) == (model != "bs")

    def test_ties_keep_start_order_across_the_split(self, monkeypatch):
        # as in test_lockstep_equals_each_start_alone, with residuals rounded
        # so that starts tie; the worker runs the stable rung's starts 1 to 3,
        # this process its start 0, every start of bs and carrwu and every
        # polish
        _use_cores(monkeypatch, 2)
        _round_residuals(monkeypatch, 4)
        chain = small_chain(StableModelParams.from_beta(1.5, -0.8, 0.2))
        config = CalibrateConfig(starts=3, seed=1)
        reports, leaner = calibrate_all(chain, config), None
        for kind, spec in _SPECS.items():
            assert reports[kind] == _fit_alone(chain, spec, config, leaner, 4), spec.name
            leaner = reports[kind]

    def test_one_rung_ladder_forks_nothing(self, monkeypatch):
        _use_cores(monkeypatch, 2)
        forks = _count_forks(monkeypatch)
        calibrate(small_chain(StableModelParams.fmls(1.6, 0.2)), "bs")
        assert forks == []

    @pytest.mark.parametrize("error", [ConvergenceError, KeyboardInterrupt])
    def test_no_child_left_when_the_caller_raises(self, monkeypatch, error):
        _use_cores(monkeypatch, 2)
        chain = small_chain(StableModelParams.fmls(1.6, 0.2))
        if error is ConvergenceError:
            # no start gives a finite error, so the bs rung finds no candidate
            monkeypatch.setattr(
                calibrate_module, "_residuals", lambda models, chain: [None] * len(models)
            )
        else:
            # the carrwu rung's embedded candidate, which only the caller prices
            def interrupt(params, chain):
                raise KeyboardInterrupt

            monkeypatch.setattr(calibrate_module, "objective_params", interrupt)
        with pytest.raises(error):
            calibrate_all(chain, QUICK)
        assert _no_child_left()

    def test_worker_failure_reaches_the_caller(self, monkeypatch):
        # the fork inherits the patch, and the worker runs the last rung's
        # Halton starts
        _use_cores(monkeypatch, 2)
        lockstep, caller = calibrate_module._lockstep, os.getpid()

        def failing(chain, spec, starts):
            if os.getpid() != caller:
                raise ArithmeticError(f"no {spec.name} in the worker")
            return lockstep(chain, spec, starts)

        monkeypatch.setattr(calibrate_module, "_lockstep", failing)
        with pytest.raises(ArithmeticError, match="^no AlphaBetaStable in the worker$"):
            calibrate_all(small_chain(StableModelParams.fmls(1.6, 0.2)), QUICK)
        assert _no_child_left()

    def test_worker_exit_is_named(self, monkeypatch):
        _use_cores(monkeypatch, 2)
        lockstep, caller = calibrate_module._lockstep, os.getpid()

        def exiting(chain, spec, starts):
            if os.getpid() != caller:
                os._exit(3)
            return lockstep(chain, spec, starts)

        monkeypatch.setattr(calibrate_module, "_lockstep", exiting)
        message = "exited with status 3 before sending its 'AlphaBetaStable' starts"
        with pytest.raises(RuntimeError, match=message):
            calibrate_all(small_chain(StableModelParams.fmls(1.6, 0.2)), QUICK)
        assert _no_child_left()

    def test_unflushed_output_printed_once(self):
        # stdout on a pipe is block-buffered: the fork copies the unflushed
        # text, which only the caller may write out
        script = (
            "import os\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "forks, fork = [], os.fork\n"
            "os.fork = lambda: forks.append(1) or fork()\n"
            "from stablepricer import CalibrateConfig, StableModelParams, calibrate_all\n"
            "from stablepricer import synthetic_chain\n"
            "params = StableModelParams.fmls(1.6, 0.2)\n"
            "chain = synthetic_chain(params, 100.0, 0.01, [0.5], [90.0, 100.0, 110.0])\n"
            "print('unflushed', end=' ')\n"
            "calibrate_all(chain, CalibrateConfig(starts=2))\n"
            "print(len(forks))\n"
        )
        src = os.path.dirname(os.path.dirname(calibrate_module.__file__))
        paths = filter(None, (src, os.environ.get("PYTHONPATH")))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
        env.pop("PYTHONUNBUFFERED", None)  # which would make stdout write through
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, "unflushed 1\n", "")
