"""Parameter domain, asymmetry conversions, and contract containers."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stablepricer.core import (
    DomainError,
    OptionContract,
    StableModelParams,
    beta_to_theta,
    log_moneyness,
    mu_fmls,
    theta_to_beta,
    validate_feller_takayasu,
)


class TestDiamond:
    def test_interior_and_boundary(self):
        assert validate_feller_takayasu(1.5, 0.5)
        assert validate_feller_takayasu(1.4, -0.4)
        assert validate_feller_takayasu(1.5, -0.5)  # boundary included
        assert validate_feller_takayasu(2.0, 0.0)

    def test_outside(self):
        assert not validate_feller_takayasu(1.2, 0.9)
        assert not validate_feller_takayasu(1.9, 0.2)
        assert not validate_feller_takayasu(2.0, 0.1)

    def test_alpha_out_of_range(self):
        with pytest.raises(DomainError):
            validate_feller_takayasu(1.0, 0.0)
        with pytest.raises(DomainError):
            validate_feller_takayasu(2.1, 0.0)


class TestSkewConversion:
    def test_alpha_two_collapses_to_zero(self):
        assert beta_to_theta(2.0, -1.0) == 0.0
        assert beta_to_theta(2.0, 0.7) == 0.0
        assert theta_to_beta(2.0, 0.0) == 0.0

    def test_endpoints(self):
        for alpha in (1.2, 1.5, 1.8):
            assert beta_to_theta(alpha, -1.0) == pytest.approx(
                alpha - 2.0, rel=1e-14
            )
            assert beta_to_theta(alpha, 1.0) == pytest.approx(
                2.0 - alpha, rel=1e-14
            )
            assert theta_to_beta(alpha, alpha - 2.0) == pytest.approx(
                -1.0, rel=1e-14
            )

    def test_beta_minus_one_is_the_fmls_line(self):
        # exactly, not to an ulp: the pricer picks the FMLS series only on
        # theta = alpha - 2
        rng = np.random.default_rng(12)
        for alpha, sigma in zip(
            rng.uniform(1.05, 2.0, 10_000), rng.uniform(0.05, 0.8, 10_000)
        ):
            alpha, sigma = float(alpha), float(sigma)
            assert StableModelParams.from_beta(alpha, -1.0, sigma) == (
                StableModelParams.fmls(alpha, sigma)
            ), alpha

    def test_zero_maps_to_zero(self):
        assert beta_to_theta(1.6, 0.0) == 0.0

    def test_monotone_in_beta(self):
        alpha = 1.7
        thetas = [beta_to_theta(alpha, b) for b in (-1.0, -0.5, 0.0, 0.5, 1.0)]
        assert all(a < b for a, b in zip(thetas, thetas[1:]))

    def test_theta_outside_diamond_rejected(self):
        with pytest.raises(DomainError):
            theta_to_beta(1.5, 0.6)

    @settings(deadline=None, max_examples=150)
    @given(
        alpha=st.floats(1.02, 1.99, allow_nan=False),
        beta=st.floats(-1.0, 1.0, allow_nan=False),
    )
    def test_round_trip(self, alpha, beta):
        theta = beta_to_theta(alpha, beta)
        assert abs(theta) <= min(alpha, 2.0 - alpha) + 1e-12
        assert theta_to_beta(alpha, theta) == pytest.approx(beta, abs=1e-12)


class TestMuFmls:
    def test_gaussian_value(self):
        assert mu_fmls(2.0, 0.3) == pytest.approx(-0.09, rel=1e-14)

    def test_negative(self):
        for alpha in (1.1, 1.5, 1.9):
            assert mu_fmls(alpha, 0.25) < 0.0

    def test_sigma_must_be_positive_and_finite(self):
        for sigma in (0.0, -0.2, math.nan, math.inf):
            with pytest.raises(DomainError, match="sigma must be positive"):
                mu_fmls(1.5, sigma)

    def test_overflow_rejected(self):
        # sigma**alpha overflows; or it is finite and sec(pi*alpha/2) near
        # alpha = 1 takes it past the largest float
        for alpha, sigma in ((1.5, 1e300), (1.0 + 1e-12, 1e300)):
            with pytest.raises(DomainError, match=r"sigma\*\*alpha .* overflows"):
                mu_fmls(alpha, sigma)

    def test_scale_power(self):
        alpha = 1.6
        base = mu_fmls(alpha, 0.2)
        assert mu_fmls(alpha, 0.4) == pytest.approx(
            2.0**alpha * base, rel=1e-12
        )


class TestStableModelParams:
    def test_valid_construction(self):
        p = StableModelParams(alpha=1.5, theta=-0.4, sigma=0.25, mu=-0.1)
        assert p.in_diamond

    def test_out_of_diamond_flagged_not_rejected(self):
        p = StableModelParams(alpha=1.8, theta=0.9, sigma=0.25, mu=-0.1)
        assert not p.in_diamond

    def test_alpha_validation(self):
        with pytest.raises(DomainError):
            StableModelParams(alpha=1.0, theta=0.0, sigma=0.2, mu=-0.1)
        with pytest.raises(DomainError):
            StableModelParams(alpha=2.2, theta=0.0, sigma=0.2, mu=-0.1)

    def test_sigma_validation(self):
        with pytest.raises(DomainError):
            StableModelParams(alpha=1.5, theta=0.0, sigma=0.0, mu=-0.1)

    @pytest.mark.parametrize("field", ["theta", "sigma", "mu"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, field, value):
        good = dict(alpha=1.5, theta=-0.4, sigma=0.25, mu=-0.1)
        with pytest.raises(DomainError, match=f"{field}.* finite"):
            StableModelParams(**{**good, field: value})

    def test_positive_mu_constructs_but_is_flag_for_pricing(self):
        # mu is validated at pricing time, not at construction
        p = StableModelParams(alpha=1.5, theta=0.0, sigma=0.2, mu=0.05)
        assert p.mu == 0.05

    def test_from_beta_defaults_to_martingale_mu(self):
        p = StableModelParams.from_beta(alpha=1.6, beta=-0.5, sigma=0.2)
        assert p.mu == pytest.approx(mu_fmls(1.6, 0.2), rel=1e-15)
        assert p.theta == pytest.approx(beta_to_theta(1.6, -0.5), rel=1e-15)

    def test_fmls_constructor(self):
        p = StableModelParams.fmls(alpha=1.7, sigma=0.3)
        assert p.theta == 1.7 - 2.0
        assert p.mu == mu_fmls(1.7, 0.3)
        assert p.in_diamond


class TestOptionContract:
    def test_valid(self):
        c = OptionContract(spot=100.0, strike=90.0, rate=0.02, maturity=1.0)
        assert c.side == "call"
        assert c.discounted_strike() == pytest.approx(
            90.0 * math.exp(-0.02), rel=1e-15
        )

    def test_log_moneyness(self):
        c = OptionContract(spot=110.0, strike=100.0, rate=0.03, maturity=0.5)
        assert log_moneyness(c) == pytest.approx(
            math.log(1.1) + 0.015, rel=1e-14
        )

    def test_validation(self):
        with pytest.raises(DomainError):
            OptionContract(spot=-1.0, strike=90.0, rate=0.0, maturity=1.0)
        with pytest.raises(DomainError):
            OptionContract(spot=100.0, strike=0.0, rate=0.0, maturity=1.0)
        with pytest.raises(DomainError):
            OptionContract(spot=100.0, strike=90.0, rate=0.0, maturity=0.0)
        with pytest.raises(DomainError):
            OptionContract(
                spot=100.0, strike=90.0, rate=0.0, maturity=1.0, side="straddle"
            )
        good = dict(spot=100.0, strike=90.0, rate=0.02, maturity=1.0)
        for field, value in [
            ("strike", math.inf), ("maturity", math.nan), ("spot", math.inf),
            ("spot", math.nan), ("strike", math.nan), ("maturity", math.inf),
            ("rate", math.nan), ("rate", math.inf), ("rate", -math.inf),
        ]:
            with pytest.raises(DomainError, match=f"{field} must be .*finite"):
                OptionContract(**{**good, field: value})
        # spot / strike overflows, or underflows to 0: ln(S/K) is not finite
        for spot, strike in ((1e300, 1e-300), (1e-300, 1e300)):
            with pytest.raises(DomainError, match="spot / strike leaves float range"):
                OptionContract(spot=spot, strike=strike, rate=0.0, maturity=1.0)

    def test_discount_overflow_rejected(self):
        # exp(-rate*maturity) is finite up to rate*maturity = -log(max float)
        edge = -math.log(sys.float_info.max)
        assert math.isfinite(math.exp(-edge))
        OptionContract(spot=100.0, strike=1e-300, rate=edge, maturity=1.0)
        with pytest.raises(DomainError, match="discount overflows"):
            OptionContract(
                spot=100.0, strike=1e-300, rate=math.nextafter(edge, -math.inf), maturity=1.0
            )
        with pytest.raises(DomainError, match="discount overflows"):
            OptionContract(spot=100.0, strike=100.0, rate=-800.0, maturity=1.0)
        with pytest.raises(DomainError, match="discount overflows"):
            OptionContract(spot=100.0, strike=100.0, rate=-400.0, maturity=2.0)
        # the discount exp(709.7) is finite, 100 times it is not
        OptionContract(spot=100.0, strike=1.0, rate=-709.7, maturity=1.0)
        with pytest.raises(DomainError, match="discounted strike K"):
            OptionContract(spot=100.0, strike=100.0, rate=-709.7, maturity=1.0)

    def test_rate_maturity_overflow_rejected(self):
        # rate * maturity overflows to +inf: the discount would be 0.0 and
        # the price a ConvergenceError, not a rejected contract
        with pytest.raises(DomainError, match=r"rate \* maturity must be finite, got inf"):
            OptionContract(spot=100.0, strike=100.0, rate=1e300, maturity=1e10)
        # -inf keeps the discount's own message
        with pytest.raises(DomainError, match="discount overflows"):
            OptionContract(spot=100.0, strike=100.0, rate=-1e300, maturity=1e10)
