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
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

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
    load_chain,
    mu_fmls,
    price_call,
    price_put,
    report_payload,
    synthetic_chain,
)
from scipy import optimize
from stablepricer.calibrate import (
    _LM_RADIUS,
    _SPECS,
    CalibrationReport,
    _bs_member,
    _error_sum,
    _fit_rung,
    _heuristic_vol,
    _jacobian,
    _kronecker,
    _l1_step,
    _levenberg_marquardt,
    _lockstep,
    _polish,
    _probe,
    objective_params,
)

from _support import aggregated_error_by_group, lewis_fmls_call
from sweep_refits import noisy_chain

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
            alpha = 1.5 + 0.5 * math.sin(rng.uniform(-1.4, math.pi / 2))
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
        # richer families never fit worse (the leaner rung's model is a
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
    @pytest.mark.parametrize(
        "specs, kind",
        [(_SPECS, kind) for kind in _SPECS],
    )
    @pytest.mark.parametrize("leaner_alpha", [1.7, 2.0])
    def test_warm_start_round_trip(self, specs, kind, leaner_alpha):
        chain = small_chain(StableModelParams.fmls(1.6, 0.2))
        # the leaner rung's fitted model, whose sigma is its scale
        sigma = 0.2
        mu = mu_fmls(leaner_alpha, sigma)
        leaner = StableModelParams.fmls(leaner_alpha, sigma)
        expected = {
            "BS": _bs_member(_heuristic_vol(chain)),
            "CarrWu": StableModelParams.fmls(alpha=1.9, sigma=sigma),
            "AlphaBetaStable": StableModelParams.from_beta(
                alpha=leaner_alpha, beta=-0.9, sigma=sigma, mu=mu
            ),
        }[specs[kind].name]
        spec = specs[kind]
        params = spec.to_params(spec.warm(leaner, chain))
        for field in ("alpha", "theta", "sigma", "mu"):
            assert getattr(params, field) == pytest.approx(
                getattr(expected, field), rel=1e-12, abs=1e-15
            ), field
        if expected.alpha == 2.0:
            assert params.alpha == 2.0


# the package attribute stablepricer.calibrate is the function
calibrate_module = importlib.import_module("stablepricer.calibrate")

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def benchmark_chains():
    """The chains of the benchmark's calibrate workload at seed 1, by name:
    INF_CHAIN, the Black-Scholes chain and the FMLS chain."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))
    ops = workloads.build_calibrate(1).ops
    chains = {op.spec["kind"]: op.spec["chain"] for op in ops if op.spec["kind"] != "stable"}
    chains["inf"] = next(
        op.spec["chain"] for op in ops if op.spec.get("truth") == workloads.INF_CHAIN
    )
    return chains


def _residuals_alone(spec, chain, digits=None):
    """The residual vector of one point alone, through the one-model pricer,
    rounded to `digits` when given; None where the point is no model or
    fails to price."""
    strikes, rates, maturities, forwards, market = chain._arrays

    def residuals(z):
        try:
            calls = calibrate_module.price_call_strikes(
                spec.to_params(z), chain.spot, rates, maturities, strikes,
                tolerance=calibrate_module._TOLERANCE,
            )
        except (ConvergenceError, DomainError, OverflowError):
            return None
        values = (calls - forwards - market).tolist()
        return values if digits is None else [round(v, digits) for v in values]

    return residuals


def _drive_alone(run, residuals, rounds=math.inf):
    """Step one optimizer run alone for at most `rounds` rounds, pricing its
    points one by one: its result (None when its first point is no model or
    it is still stepping), evaluations, failed ones and rounds priced."""
    points, evaluations, failed, priced = next(run), 0, 0, 0
    try:
        while priced < rounds:
            answer = [residuals(z) for z in points]
            evaluations += len(answer)
            failed += answer.count(None)
            priced += 1
            if priced == 1 and answer[0] is None:
                break
            points = run.send(answer)
    except StopIteration as done:
        return done.value, evaluations, failed, priced
    return None, evaluations, failed, priced


def _starts(spec, config, leaner, chain):
    """A rung's start points z, from the leaner rung's fitted model: the warm
    start, then the Kronecker points."""
    return [spec.warm(leaner, chain), *spec.box(config)]


def _fit_alone(chain, spec, config, leaner, digits=None):
    """_fit_rung's report and fitted model with each Levenberg-Marquardt start
    stepped alone, in start order, up to the round in which the first start
    ends at the objective's resolution, then the polish from the best of them
    when it runs."""
    residuals = _residuals_alone(spec, chain, digits)
    resolution = len(chain.quotes) * calibrate_module._TOLERANCE
    evaluations = inf_evaluations = 0
    candidates = []
    leaner_report, leaner_model = leaner or (None, None)
    if leaner is not None:
        error = calibrate_module.objective_params(leaner_model, chain)
        evaluations, inf_evaluations = 1, int(error == math.inf)
        candidates.append((error, leaner_model, leaner_report.converged, None))
    starts = _starts(spec, config, leaner_model, chain)

    def run(z):
        return _levenberg_marquardt(z, spec.upper)

    # each start alone to its end, for the round the lockstep stops after
    alone = [_drive_alone(run(z), residuals) for z in starts]
    rounds = min(
        (priced for result, _, _, priced in alone if result and result[1] <= resolution),
        default=math.inf,
    )
    results = {}
    for i, z in enumerate(starts):
        result, evals, infs, _ = _drive_alone(run(z), residuals, rounds)
        evaluations, inf_evaluations = evaluations + evals, inf_evaluations + infs
        if result is not None:
            results[i] = result
    iterations = sum(nit for _, _, nit, _ in results.values())
    # the lowest aggregated error, the earliest start on ties, polished only
    # above the objective's resolution
    start = min(results, key=lambda i: results[i][1])
    z, fun, _, success = results[start]
    if fun > resolution:
        (z, fun, nit, success), evals, infs, _ = _drive_alone(_polish(z, spec.upper), residuals)
        evaluations, inf_evaluations = evaluations + evals, inf_evaluations + infs
        iterations += nit
    candidates.append((fun, spec.to_params(z), success, start))
    # the leaner model stands unless the start's error is lower by more than
    # the objective's resolution
    if len(candidates) == 2 and fun >= candidates[0][0] - resolution:
        candidates.pop()
    fun, params, success, start = min(candidates, key=lambda cand: cand[0])
    sigma, beta = spec.report(params)
    return CalibrationReport(
        model=spec.name, sigma=sigma, alpha=params.alpha, beta=beta, mu=params.mu,
        aggregated_error=fun, iterations=iterations, converged=success,
        quotes=len(chain.quotes), evaluations=evaluations,
        inf_evaluations=inf_evaluations, start=start,
    ), params


def _toy_least_squares(case):
    """A toy least-squares problem, as (residual function of z, start z0): a
    quadratic fit to points off every quadratic, Rosenbrock's valley as two
    residuals, or an exponential decay through its own points."""
    t = np.linspace(0.0, 2.0, 9)
    if case == "quadratic":
        y = 1.5 + 0.7 * t - 0.4 * t**2 + 0.1 * np.cos(7.0 * t)
        return (lambda z: z[0] + z[1] * t + z[2] * t**2 - y), [0.0, 0.0, 0.0]
    if case == "rosenbrock":
        return (lambda z: np.array([10.0 * (z[1] - z[0] ** 2), 1.0 - z[0]])), [-1.2, 1.0]
    y = 2.0 * np.exp(-1.3 * t)
    return (lambda z: z[0] * np.exp(z[1] * t) - y), [1.0, 0.0]


def _linprog_l1(r, jac, lo, hi):
    """The least sum |r + J dz| over lo <= dz <= hi (None or inf for no
    bound), J given by its columns, and a dz that attains it, by scipy's
    HiGHS linear program in (dz, e): min sum e, -e <= r + J dz <= e.  The
    sum is taken at HiGHS's dz moved into the box, which its feasibility
    tolerance can leave, since its own objective carries that tolerance."""
    n, d = len(r), len(jac)
    J = np.array(jac, dtype=float).reshape(d, n).T
    eye = np.eye(n)
    bounds = [(a, None if b == math.inf else b) for a, b in zip(lo, hi)]
    result = optimize.linprog(
        np.concatenate([np.zeros(d), np.ones(n)]),
        A_ub=np.block([[J, -eye], [-J, -eye]]),
        b_ub=np.concatenate([-np.asarray(r), np.asarray(r)]),
        bounds=bounds + [(0.0, None)] * n, method="highs",
    )
    assert result.status == 0, result.message
    x = np.clip(result.x[:d], [-math.inf if a is None else a for a in lo], hi)
    return _error_sum((np.asarray(r) + (J * x).sum(axis=1)).tolist()), x


def _l1_problem(seed):
    """A seeded subproblem (r, J by columns, lo, hi): n from 1 to 500 rows,
    d from 1 to 3 columns at scales 1e-8 to 1e8, or of small integers, whose
    vertices can have more rows at 0 than coordinates, at times a zero
    column or duplicate rows, and a box of radius 1e-3 to 10 whose upper
    faces sit at 0, inside the radius or at it."""
    rng = np.random.default_rng(seed)
    n = int(rng.choice([1, 2, 3, 5, 16, 40, 100, 500]))
    d = int(rng.integers(1, 4))
    J = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-8.0, 8.0, size=d)
    r = rng.normal(size=n)
    if rng.random() < 0.25:
        J, r = np.round(J / np.abs(J).max(axis=0) * 3.0), np.round(r * 2.0)
    if d > 1 and rng.random() < 0.3:
        J[:, rng.integers(d)] = 0.0
    if n > 3 and rng.random() < 0.3:
        J[1:3], r[1:3] = J[0], r[0]
    radius = float(rng.choice([1e-3, 0.1, 1.0, 10.0]))
    hi = [float(rng.choice([0.0, rng.uniform(0.0, radius), radius])) for _ in range(d)]
    return r.tolist(), J.T.tolist(), [-radius] * d, hi


def _carrwu_starts_alone(chain):
    """The results of the default carrwu rung's starts on a chain, each
    stepped alone to its end, past the round the rung would stop after."""
    config, spec = CalibrateConfig(), _SPECS["carrwu"]
    _, leaner = _fit_rung(chain, _SPECS["bs"], config, None)
    finished = []
    for z in _starts(spec, config, leaner, chain):
        run = _levenberg_marquardt(z, spec.upper)
        result, _, _, _ = _drive_alone(run, _residuals_alone(spec, chain))
        if result is not None:
            finished.append(result)
    return finished


class TestOptimizer:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_kronecker_sequence(self, d):
        # phi, found by bisection, solves phi**(d + 1) = phi + 1; points 1 to
        # n lie in [0, 1)**d, are fixed by the seed, and successive points
        # differ by g_k = phi**-k mod 1, k = 1 to d
        low, high = 1.0, 2.0
        for _ in range(60):
            phi = (low + high) / 2.0
            low, high = (phi, high) if phi ** (d + 1) < phi + 1.0 else (low, phi)
        assert abs(phi ** (d + 1) - (phi + 1.0)) <= 1e-15
        g = phi ** -np.arange(1.0, d + 1)
        for seed in range(20):
            for n in range(1, 10):
                points = _kronecker(d, n, seed)
                assert points.shape == (n, d), (seed, n)
                assert ((points >= 0.0) & (points < 1.0)).all(), (seed, n)
                assert np.array_equal(points, _kronecker(d, n, seed)), (seed, n)
                step = (np.diff(points, axis=0) - g) % 1.0
                assert np.minimum(step, 1.0 - step).max(initial=0.0) <= 1e-15, (seed, n)
            assert not np.array_equal(_kronecker(d, 9, seed), _kronecker(d, 9, seed + 1))

    @pytest.mark.parametrize("case", ["quadratic", "rosenbrock", "exponential"])
    def test_levenberg_marquardt_reaches_scipys_optimum(self, case):
        # driven alone on toy least-squares problems, the port reaches the
        # optimum of scipy's MINPACK Levenberg-Marquardt
        fun, z0 = _toy_least_squares(case)
        expected = optimize.least_squares(fun, z0, method="lm")
        result, evaluations, failed, _ = _drive_alone(
            _levenberg_marquardt(z0), lambda z: fun(np.array(z)).tolist()
        )
        z, error, iterations, success = result
        assert success and failed == 0
        assert evaluations == (len(z0) + 1) * (iterations + 1)
        np.testing.assert_allclose(z, expected.x, rtol=1e-6)
        assert error == _error_sum(fun(np.array(z)).tolist())

    @pytest.mark.parametrize(
        "case, k, bound, active",
        [("quadratic", 1, 0.5, True), ("quadratic", 1, 1.0, False),
         ("rosenbrock", 0, 0.9, True), ("rosenbrock", 0, 2.0, False),
         ("exponential", 1, -1.5, True), ("exponential", 1, 0.0, False)],
        ids=["quadratic-active", "quadratic-inactive", "rosenbrock-active",
             "rosenbrock-inactive", "exponential-active", "exponential-inactive"],
    )
    def test_bounded_levenberg_marquardt_reaches_scipys_optimum(self, case, k, bound, active):
        # the same problems with an upper bound on coordinate k, active at the
        # optimum or not.  A start past the bound moves onto it, and the
        # exponential decay starts on its bound either way, so that its first
        # differences step inward.  The port reaches the optimum of scipy's
        # bounded trust-region solver, and no point it yields, forward
        # differences included, passes the bound
        fun, z0 = _toy_least_squares(case)
        upper = [bound if i == k else math.inf for i in range(len(z0))]
        z0 = [min(v, b) for v, b in zip(z0, upper)]
        expected = optimize.least_squares(fun, z0, method="trf", bounds=(-np.inf, upper))
        yielded = []
        result, evaluations, failed, _ = _drive_alone(
            _levenberg_marquardt(z0, upper),
            lambda z: yielded.append(z) or fun(np.array(z)).tolist(),
        )
        z, error, iterations, success = result
        assert success and failed == 0
        assert evaluations == (len(z0) + 1) * (iterations + 1)
        np.testing.assert_allclose(z, expected.x, rtol=1e-6)
        assert all(v <= b for point in yielded for v, b in zip(point, upper))
        assert (z[k] == bound) is active

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

    def test_l1_step_is_linprogs(self):
        # on seeded subproblems with zero columns, duplicate rows, vertices
        # where more rows meet than coordinates, columns scaled apart by up
        # to 1e16 and active upper faces, the edge descent reaches the least
        # sum of scipy's HiGHS linear program (or, where HiGHS's own
        # tolerance tells, a lower one), stays in its box, keeps a zero
        # column's coordinate at 0 and returns the sum at its step
        on_a_face = 0
        for seed in range(300):
            r, jac, lo, hi = _l1_problem(seed)
            step, least = _l1_step(r, jac, lo, hi)
            expected, _ = _linprog_l1(r, jac, lo, hi)
            assert least <= expected + 1e-12 * max(1.0, expected), seed
            assert all(a <= v <= b for v, a, b in zip(step, lo, hi)), seed
            assert all(v == 0.0 for v, column in zip(step, jac) if not any(column)), seed
            model = np.asarray(r) + sum(np.asarray(c) * v for c, v in zip(jac, step))
            assert least == pytest.approx(_error_sum(model.tolist()), rel=1e-12, abs=1e-12)
            on_a_face += any(v == b and any(c) for v, b, c in zip(step, hi, jac))
        assert on_a_face >= 30

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("bounded", [False, True], ids=["free", "bounded"])
    def test_polish_reaches_linprogs_optimum_on_linear_residuals(self, seed, bounded):
        # on residuals linear in z, A z - y, the linear model is exact and
        # the polish from 0 ends at the linear program's least sum over
        # z <= upper; bounded, coordinate 0 is held 0.1 below its free optimum
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(4, 40)), int(rng.integers(1, 4))
        A, y = rng.normal(size=(n, d)), rng.normal(size=n)
        upper = [math.inf] * d
        if bounded:
            _, free = _linprog_l1(-y, A.T.tolist(), [None] * d, upper)
            upper[0] = float(free[0]) - 0.1
        expected, _ = _linprog_l1(-y, A.T.tolist(), [None] * d, upper)
        yielded = []
        result, _, failed, _ = _drive_alone(
            _polish([min(0.0, b) for b in upper], upper),
            lambda z: yielded.append(z) or ((A * z).sum(axis=1) - y).tolist(),
        )
        z, error, _, converged = result
        assert converged and failed == 0
        assert error == pytest.approx(expected, abs=1e-9)
        assert all(v <= b for point in yielded for v, b in zip(point, upper))
        if bounded:
            assert z[0] == upper[0]

    @pytest.mark.parametrize(
        "case, k, bound",
        [("quadratic", None, None), ("rosenbrock", None, None), ("exponential", None, None),
         ("quadratic", 1, 0.4), ("rosenbrock", 0, 0.9), ("exponential", 1, -1.5)],
        ids=["quadratic", "rosenbrock", "exponential",
             "quadratic-bounded", "rosenbrock-bounded", "exponential-bounded"],
    )
    def test_polish_reaches_nelder_meads_least_absolute_error(self, case, k, bound):
        # the toy problems in L1, free or with an upper bound on coordinate
        # k that is active at the optimum: the polish ends no higher than
        # scipy's Nelder-Mead at tight tolerances, and no point it yields,
        # differences included, passes the bound
        fun, z0 = _toy_least_squares(case)
        upper = [bound if i == k else math.inf for i in range(len(z0))]
        z0 = [min(v, b) for v, b in zip(z0, upper)]

        def error(z):
            return _error_sum(fun(np.asarray(z)).tolist())

        expected = optimize.minimize(
            error, z0, method="Nelder-Mead", bounds=[(None, b) for b in upper],
            options=dict(maxiter=20000, maxfev=20000, xatol=1e-12, fatol=1e-14, adaptive=True),
        )
        yielded = []
        result, _, failed, _ = _drive_alone(
            _polish(z0, upper), lambda z: yielded.append(z) or fun(np.array(z)).tolist()
        )
        z, least, _, converged = result
        assert converged and failed == 0
        assert least <= expected.fun + 1e-9
        assert least == error(z)
        assert all(v <= b for point in yielded for v, b in zip(point, upper))
        if k is not None:
            assert z[k] == bound

    def test_polish_ends_at_the_least_absolute_error_of_a_noisy_chain(self):
        # (1.5, 0, 0.2) on the benchmark's grid with quote noise of sd 0.05,
        # where the Nelder-Mead polish stopped at 0.61892: at the stable
        # rung's reported point neither a fresh linear model nor scipy's
        # Nelder-Mead, restarted there at tight tolerances, finds an error
        # lower by more than the objective's resolution
        chain = noisy_chain((1.5, 0.0, 0.2), 0.05, 4)
        resolution = len(chain.quotes) * calibrate_module._TOLERANCE
        report = calibrate_all(chain)["stable"]
        assert report.start is not None and report.aggregated_error < 0.6189 - resolution
        spec = _SPECS["stable"]
        z = [report.alpha, math.atanh(report.beta), math.log(-report.mu)]
        points = _probe(z, spec.upper)
        sent = calibrate_module._residuals([spec.to_params(p) for p in points], chain)
        assert _error_sum(sent[0]) == report.aggregated_error
        _, least = _l1_step(
            sent[0], _jacobian(points, sent), [-_LM_RADIUS] * 3,
            [min(_LM_RADIUS, b - v) for v, b in zip(z, spec.upper)],
        )
        assert report.aggregated_error - least <= resolution

        def error(x):
            try:
                return objective_params(spec.to_params(x), chain)
            except (DomainError, OverflowError):
                return math.inf

        restarted = optimize.minimize(
            error, z, method="Nelder-Mead", bounds=[(None, b) for b in spec.upper],
            options=dict(maxiter=3000, xatol=1e-10, fatol=1e-12, adaptive=True),
        )
        assert restarted.fun >= report.aggregated_error - resolution

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
        # lays out only the chain of the leaner rung's model's one
        # aggregated_error call
        assert counts == [1, 1, 1]

    def test_lockstep_drops_a_start_that_is_no_model(self):
        # a log vol of 800 overflows math.exp, so neither point of the start's
        # initial simplex is a model: both are inf and the start is dropped
        chain = small_chain(StableModelParams.from_beta(1.7, -0.3, 0.15))
        run = _levenberg_marquardt([800.0])
        assert _lockstep(chain, _SPECS["bs"], {1: run}) == ({}, 2, 2)

    @pytest.mark.parametrize("name", ["inf", "bs"])
    def test_carrwu_starts_end_on_the_bound(self, name, benchmark_chains):
        # the benchmark's INF_CHAIN lies outside the carrwu family and its
        # Black-Scholes chain inside it only at alpha = 2: each start's least
        # squares want alpha >= 2, and it ends on the bound exactly, in a few
        # steps, with alpha's difference stepping inward
        finished = _carrwu_starts_alone(benchmark_chains[name])
        assert len(finished) >= CalibrateConfig().starts - 1
        for x, _, steps, converged in finished:
            assert x[1] == 2.0 and steps <= 8 and converged

    def test_carrwu_rung_recovers_an_fmls_chain_off_the_bound(self, benchmark_chains):
        # the benchmark's FMLS chain (alpha 1.6, sigma 0.2): no start ends on
        # the bound, and the rung recovers the chain's parameters
        chain = benchmark_chains["fmls"]
        finished = _carrwu_starts_alone(chain)
        assert len(finished) >= CalibrateConfig().starts - 1
        for x, _, _, converged in finished:
            assert x[1] == pytest.approx(1.6, abs=0.01) and converged
        report = calibrate(chain, "carrwu")
        assert report.alpha == pytest.approx(1.6, abs=0.01)
        assert report.sigma == pytest.approx(0.2, rel=0.01)

    def test_stable_rung_stops_in_its_first_round(self, benchmark_chains, monkeypatch):
        # on the benchmark's Black-Scholes chain the stable rung's warm start
        # (the carrwu fit, at alpha = 2) ends at the objective's resolution
        # in its first round, so the rung prices that one round of every
        # start, and the leaner rung's model
        chain, config = benchmark_chains["bs"], CalibrateConfig()
        leaner = None
        for spec in list(_SPECS.values())[:2]:
            leaner = _fit_rung(chain, spec, config, leaner)
        rounds, batch = [], calibrate_module._residuals
        monkeypatch.setattr(
            calibrate_module, "_residuals",
            lambda models, chain: rounds.append(len(models)) or batch(models, chain),
        )
        report, _ = _fit_rung(chain, _SPECS["stable"], config, leaner)
        assert rounds == [4 * (config.starts + 1)]
        assert report.evaluations == rounds[0] + 1
        assert report.aggregated_error <= len(chain.quotes) * 1e-5

    @pytest.mark.parametrize("name", ["acceptance7", "inf"])
    def test_each_rung_hands_on_the_model_it_reports(self, name, benchmark_chains):
        # each rung's fitted model re-prices to its report's aggregated error,
        # bit for bit; on both chains the carrwu rung is won by the bs rung's
        # model as it is (start None), and reports its alpha, mu and error
        if name == "inf":
            chain = benchmark_chains["inf"]
        else:
            chain = synthetic_chain(
                StableModelParams.from_beta(1.5, -0.8, 0.2), 100.0, 0.01,
                (0.5, 0.75, 1.0, 1.25), np.linspace(80.0, 120.0, 10),
            )
        leaner, starts = None, []
        for spec in _SPECS.values():
            report, model = _fit_rung(chain, spec, CalibrateConfig(), leaner)
            assert aggregated_error(model, chain) == report.aggregated_error, spec.name
            if report.start is None:
                leaner_report, leaner_model = leaner
                assert model is leaner_model
                assert (report.alpha, report.mu, report.aggregated_error) == (
                    leaner_report.alpha, leaner_report.mu, leaner_report.aggregated_error
                )
            leaner = report, model
            starts.append(report.start)
        assert starts[1] is None and None not in (starts[0], starts[2]), starts

    @pytest.mark.parametrize("rounded", [False, True], ids=["exact", "ties"])
    def test_lockstep_equals_each_start_alone(self, rounded, monkeypatch):
        # every start takes the path it takes alone, the polish begins from
        # the start of least aggregated error and the candidates keep start
        # order: with residuals rounded so that starts tie, the earliest start
        # still wins
        digits = 4 if rounded else None
        if rounded:
            _round_residuals(monkeypatch, digits)
        runs, lockstep = [], calibrate_module._lockstep
        monkeypatch.setattr(
            calibrate_module, "_lockstep",
            lambda chain, spec, starts: runs.append(lockstep(chain, spec, starts)) or runs[-1],
        )
        chain = small_chain(StableModelParams.from_beta(1.5, -0.8, 0.2))
        config = CalibrateConfig(starts=5, seed=31)
        leaner, reports = None, []
        for spec in _SPECS.values():
            fit = _fit_rung(chain, spec, config, leaner)
            assert fit == _fit_alone(chain, spec, config, leaner, digits), spec.name
            leaner = fit
            reports.append(fit[0])
        if rounded:
            # the case tests a tie: two of the bs rung's Levenberg-Marquardt
            # starts end on its least rounded error, the later one finishes
            # first (results keep finishing order), and the earlier one wins
            results = runs[0][0]
            least = min(fun for _, fun, _, _ in results.values())
            tied = [i for i in results if results[i][1] == least]
            assert len(tied) == 2 and tied[0] > tied[1], tied
            assert reports[0].start == tied[1]

    @pytest.mark.parametrize("kind", ["bs", "carrwu", "stable"])
    def test_polish_runs_only_above_the_objectives_resolution(self, kind, monkeypatch):
        # on its own family's noiseless chain a rung's best Levenberg-Marquardt
        # start ends within quotes * _TOLERANCE, where the objective resolves
        # no change: the rung reports that start and never polishes
        polished, lockstep = [], calibrate_module._lockstep
        monkeypatch.setattr(
            calibrate_module, "_polish",
            lambda z, upper: polished.append(z) or _polish(z, upper),
        )
        runs = []
        monkeypatch.setattr(
            calibrate_module, "_lockstep",
            lambda chain, spec, starts: runs.append(lockstep(chain, spec, starts)) or runs[-1],
        )
        chain = small_chain({
            "bs": _bs_member(0.3),
            "carrwu": StableModelParams.fmls(1.6, 0.2),
            "stable": StableModelParams.from_beta(1.7, -0.3, 0.15),
        }[kind])
        leaner = None
        for spec in list(_SPECS.values())[: list(_SPECS).index(kind)]:
            leaner = _fit_rung(chain, spec, QUICK, leaner)
        del polished[:], runs[:]
        spec = _SPECS[kind]
        report, _ = _fit_rung(chain, spec, QUICK, leaner)
        assert polished == []
        ((results, evaluations, inf_evaluations),) = runs
        start = min(results, key=lambda i: results[i][1])
        x, error, _, converged = results[start]
        assert error <= len(chain.quotes) * calibrate_module._TOLERANCE
        params = spec.to_params(x)
        sigma, beta = spec.report(params)
        assert report == CalibrationReport(
            model=spec.name, sigma=sigma, alpha=params.alpha, beta=beta, mu=params.mu,
            aggregated_error=error,
            iterations=sum(nit for _, _, nit, _ in results.values()), converged=converged,
            quotes=len(chain.quotes), evaluations=evaluations + (leaner is not None),
            inf_evaluations=inf_evaluations, start=start,
        )

    def test_misspecified_rung_polishes_as_before(self, monkeypatch):
        # a Gaussian fit to a stable chain stops far above the objective's
        # resolution: the rung polishes once, from its best start, and its
        # error is no higher than the Nelder-Mead polish's, 9.09748490835846,
        # plus the objective's resolution, 14 * 1e-5
        polished = []
        monkeypatch.setattr(
            calibrate_module, "_polish",
            lambda z, upper: polished.append(z) or _polish(z, upper),
        )
        chain = small_chain(StableModelParams.from_beta(1.7, -0.3, 0.15))
        report, _ = _fit_rung(chain, _SPECS["bs"], QUICK, None)
        assert len(polished) == 1
        assert report.aggregated_error <= 9.09748490835846 + 14e-5
        assert repr(report) == (
            "CalibrationReport(model='BS', sigma=0.39161085288997893, alpha=2.0, beta=0.0, "
            "mu=-0.07667953005060836, aggregated_error=9.097484861864963, iterations=16, "
            "converged=True, quotes=14, evaluations=40, inf_evaluations=0, start=0)"
        )

    def test_no_finite_start_raises(self, monkeypatch):
        # no start gives a finite error, so the bs rung finds no candidate
        monkeypatch.setattr(
            calibrate_module, "_residuals", lambda models, chain: [None] * len(models)
        )
        with pytest.raises(ConvergenceError, match="no start produced a finite error"):
            calibrate_all(small_chain(StableModelParams.fmls(1.6, 0.2)), QUICK)

    @pytest.mark.parametrize("last", ["bs", "carrwu", "stable"])
    def test_ladder_forks_nothing(self, last, monkeypatch):
        # on two usable cores as on one, every start runs in this process
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        calibrate(small_chain(StableModelParams.fmls(1.6, 0.2)), last, QUICK)
        assert forks == []


def _round_residuals(monkeypatch, digits: int) -> None:
    """Round every residual the ladder prices, and the leaner rung's model's
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
