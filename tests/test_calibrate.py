"""Tests for chain I/O, the aggregated-error objective, and the fit ladder.

Recovery tests run on small noiseless synthetic chains with few optimizer
starts to stay fast; the full-size recovery check lives in the acceptance
suite.
"""

import importlib
import io
import json
import math

import pytest

from stablepricer import (
    CalibrateConfig,
    ConvergenceError,
    DomainError,
    OptionChain,
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
    report_to_json,
    synthetic_chain,
)

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

    def test_failure_named_without_repricing(self, monkeypatch):
        # the package attribute stablepricer.calibrate is the function
        calibrate_module = importlib.import_module("stablepricer.calibrate")
        pricer_module = importlib.import_module("stablepricer.pricer")

        def no_scalar(*args, **kwargs):
            raise AssertionError("scalar re-pricing")

        batch = calibrate_module.price_call_strikes
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[3])
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
        assert calls == [0.5, 1.0]


class TestConfigAndReport:
    def test_config_validation(self):
        with pytest.raises(DomainError):
            CalibrateConfig(starts=0)
        with pytest.raises(DomainError):
            CalibrateConfig(maxiter=0)
        with pytest.raises(DomainError):
            CalibrateConfig(tolerance=0.0)

    def test_payload_keys_and_json_round_trip(self):
        chain = small_chain(StableModelParams.fmls(1.6, 0.2))
        report = calibrate(chain, "bs", QUICK)
        payload = report_payload(report)
        assert list(payload) == [
            "model", "sigma", "alpha", "beta", "mu",
            "aggregated_error", "iterations", "converged", "quotes",
        ]
        parsed = json.loads(report_to_json(report, precision=17))
        assert parsed["sigma"] == pytest.approx(report.sigma, rel=1e-15)
        assert parsed["quotes"] == len(chain.quotes)
        rounded = report_payload(report, precision=3)
        assert rounded["sigma"] == float(f"{report.sigma:.3g}")


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
        assert report.converged

    def test_carrwu_chain_recovers_alpha_sigma(self):
        truth = StableModelParams.fmls(1.6, 0.2)
        report = calibrate(small_chain(truth), "carrwu", QUICK)
        assert report.model == "CarrWu"
        assert report.alpha == pytest.approx(1.6, abs=0.03)
        assert report.sigma == pytest.approx(0.2, abs=0.01)
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
        assert st.sigma == pytest.approx(0.2, abs=0.02)

    def test_free_mu_recovers_drift(self):
        # interior beta, so the unconstrained optimizer can terminate
        truth = StableModelParams.from_beta(1.6, -0.7, 0.2)
        config = CalibrateConfig(starts=2, seed=1, free_mu=True)
        report = calibrate(small_chain(truth), "stable", config)
        assert report.converged
        assert report.mu == pytest.approx(truth.mu, rel=0.1)
        assert report.beta == pytest.approx(-0.7, abs=0.05)
        # sigma is reported as the scale implied by (alpha, mu)
        assert report.mu == pytest.approx(mu_fmls(report.alpha, report.sigma), rel=1e-9)

    def test_unknown_model_rejected(self):
        chain = small_chain(StableModelParams.fmls(1.6, 0.2))
        with pytest.raises(DomainError, match="unknown model"):
            calibrate(chain, "heston", QUICK)
