"""Tests for the closed-form Black-Scholes oracle and the FMLS pricer.

The closed form is cross-checked against direct quadrature of the lognormal
payoff expectation, a fully independent route (erfc vs adaptive quad).  The
FMLS series is cross-checked against a Fourier integral of its
characteristic function.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from stablepricer import (
    ConvergenceError,
    DomainError,
    OptionContract,
    black_scholes,
    bs_equivalent_vol,
    fmls_call,
    price_call,
    price_call_strikes,
    price_put,
    StableModelParams,
)

from _support import lewis_fmls_call


def lognormal_call_quadrature(contract: OptionContract, vol: float) -> float:
    """Discounted lognormal payoff expectation by adaptive quadrature."""
    s, k, r, tau = contract.spot, contract.strike, contract.rate, contract.maturity
    sq = vol * math.sqrt(tau)
    drift = (r - 0.5 * vol * vol) * tau
    # payoff is zero below the z where the terminal spot crosses the strike
    z_star = (math.log(k / s) - drift) / sq

    def integrand(z: float) -> float:
        phi = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        return (s * math.exp(drift + sq * z) - k) * phi

    val, err = integrate.quad(integrand, z_star, 40.0, epsabs=1e-12, epsrel=1e-12)
    assert err < 1e-8
    return math.exp(-r * tau) * val


QUAD_CONTRACTS = [
    (OptionContract(spot=100.0, strike=90.0, rate=0.02, maturity=0.75), 0.25),
    (OptionContract(spot=100.0, strike=110.0, rate=0.0, maturity=1.5), 0.4),
    (OptionContract(spot=4300.0, strike=4000.0, rate=0.01, maturity=1.0), 0.3),
]


class TestBlackScholes:
    @pytest.mark.parametrize("contract,vol", QUAD_CONTRACTS)
    def test_call_matches_quadrature(self, contract, vol):
        closed = black_scholes(contract, vol)
        quad = lognormal_call_quadrature(contract, vol)
        assert closed == pytest.approx(quad, rel=1e-8)

    def test_put_parity(self):
        contract = OptionContract(spot=100.0, strike=105.0, rate=0.03, maturity=0.5)
        call = black_scholes(contract, 0.2)
        put = black_scholes(replace(contract, side="put"), 0.2)
        forward = contract.spot - contract.discounted_strike()
        assert call - put == pytest.approx(forward, rel=1e-14)

    def test_vol_monotonicity(self):
        contract = OptionContract(spot=100.0, strike=100.0, rate=0.01, maturity=1.0)
        prices = [black_scholes(contract, v) for v in (0.1, 0.2, 0.3, 0.5)]
        assert all(a < b for a, b in zip(prices, prices[1:]))

    def test_strike_convexity(self):
        for k in (80.0, 95.0, 100.0, 110.0):
            lo, mid, hi = (
                black_scholes(
                    OptionContract(spot=100.0, strike=kk, rate=0.02, maturity=1.0), 0.3
                )
                for kk in (k - 5.0, k, k + 5.0)
            )
            assert lo + hi >= 2.0 * mid

    @given(
        spot=st.floats(50.0, 200.0, allow_nan=False),
        strike=st.floats(50.0, 200.0, allow_nan=False),
        vol=st.floats(0.05, 0.8, allow_nan=False),
        rate=st.floats(0.0, 0.08, allow_nan=False),
        maturity=st.floats(0.1, 3.0, allow_nan=False),
    )
    @settings(deadline=None, max_examples=100)
    def test_no_arbitrage_bounds(self, spot, strike, vol, rate, maturity):
        contract = OptionContract(spot=spot, strike=strike, rate=rate, maturity=maturity)
        call = black_scholes(contract, vol)
        intrinsic = max(spot - contract.discounted_strike(), 0.0)
        assert intrinsic - 1e-12 * spot <= call <= spot

    def test_volatility_validation(self):
        contract = OptionContract(spot=100.0, strike=100.0, rate=0.0, maturity=1.0)
        with pytest.raises(DomainError):
            black_scholes(contract, 0.0)

    def test_bs_equivalent_vol(self):
        assert bs_equivalent_vol(0.25) == 0.25 * math.sqrt(2.0)


class TestFmlsCall:
    def test_gaussian_member_matches_black_scholes(self):
        # alpha=2 collapses to theta=0, mu=-sigma**2: lognormal at vol sigma*sqrt(2)
        contract = OptionContract(spot=100.0, strike=95.0, rate=0.02, maturity=0.8)
        sigma = 0.18
        result = fmls_call(2.0, sigma, contract, tolerance=1e-10)
        closed = black_scholes(contract, bs_equivalent_vol(sigma))
        assert result.price == pytest.approx(closed, rel=1e-10)

    @pytest.mark.parametrize("alpha", [1.2, 1.45, 1.8])
    @pytest.mark.parametrize("strike", [85.0, 115.0])
    @pytest.mark.parametrize("side", ["call", "put"])
    def test_matches_fourier_integral(self, alpha, strike, side):
        # in and out of the money on both sides; puts through parity
        call = OptionContract(spot=100.0, strike=strike, rate=0.02, maturity=0.75)
        contract = replace(call, side=side)
        expected = lewis_fmls_call(alpha, 0.2, call)
        if side == "put":
            expected -= contract.spot - contract.discounted_strike()
        result = fmls_call(alpha, 0.2, contract, tolerance=1e-10)
        assert result.via_parity == (side == "put")
        assert result.price == pytest.approx(expected, rel=1e-8)

    def test_matches_direct_series(self):
        # fmls_call must price the FMLS model: the risk-neutral expectation,
        # here from the Lewis (2001) Fourier integral of the log-return
        contract = OptionContract(spot=100.0, strike=98.0, rate=0.01, maturity=1.0)
        via_wrapper = fmls_call(1.6, 0.2, contract, tolerance=1e-6)
        expected = lewis_fmls_call(1.6, 0.2, contract)
        assert expected == pytest.approx(14.014116986228503, rel=1e-12)
        assert via_wrapper.price == pytest.approx(expected, rel=1e-8)
        # only at alpha=2 is the lattice series that same expectation
        gaussian = fmls_call(2.0, 0.2, contract, tolerance=1e-10)
        lattice = price_call(StableModelParams.fmls(2.0, 0.2), contract, tolerance=1e-10)
        assert gaussian.price == pytest.approx(lattice.price, rel=1e-10)

    @pytest.mark.parametrize("side", ["call", "put"])
    def test_pricer_prices_the_expectation(self, side):
        # price_call, price_put and the batch pick the FMLS series from the
        # model; the lattice gives 970.08 for the 4000 call
        params = StableModelParams.fmls(1.6, 0.2)
        strikes = np.array([3400.0, 3700.0, 4000.0, 4300.0, 4600.0, 5000.0, 5400.0])
        tolerance = 1e-6
        batch = price_call_strikes(params, 4300.0, 0.01, 1.0, strikes, tolerance)
        pricer = price_put if side == "put" else price_call
        for strike, call in zip(strikes, batch):
            contract = OptionContract(4300.0, strike, 0.01, 1.0, side)
            expected = fmls_call(1.6, 0.2, contract, tolerance).price
            if strike == 4000.0 and side == "call":
                assert expected == pytest.approx(725.2945184, rel=1e-9)
            assert pricer(params, contract, tolerance).price == expected
            if side == "put":
                call -= contract.spot - contract.discounted_strike()
            assert abs(call - expected) <= 10 * tolerance

    def test_put_side(self):
        call_contract = OptionContract(spot=100.0, strike=105.0, rate=0.02, maturity=1.0)
        put_contract = OptionContract(
            spot=100.0, strike=105.0, rate=0.02, maturity=1.0, side="put"
        )
        call = fmls_call(1.7, 0.22, call_contract, tolerance=1e-7)
        put = fmls_call(1.7, 0.22, put_contract, tolerance=1e-7)
        forward = call_contract.spot - call_contract.discounted_strike()
        assert put.via_parity
        assert call.price - put.price == pytest.approx(forward, rel=1e-12)

    def test_stop_rule_and_convergence_error(self):
        contract = OptionContract(spot=4300.0, strike=4000.0, rate=0.01, maturity=1.0)
        result = fmls_call(1.6, 0.2, contract, tolerance=1e-6)
        assert result.truncation_estimate <= 1e-6
        # the two quiet columns are the last two summed
        cap = result.columns_used - 2
        with pytest.raises(ConvergenceError, match=f"within {cap} columns"):
            fmls_call(1.6, 0.2, contract, tolerance=1e-6, max_column=cap)
        with pytest.raises(DomainError):
            fmls_call(1.6, 0.2, contract, tolerance=0.0)
