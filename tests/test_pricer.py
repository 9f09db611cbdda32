"""Series pricer: golden regression, reference table, and structural laws."""

import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import stablepricer
from stablepricer.core import (
    ConvergenceError,
    DomainError,
    OptionContract,
    StableModelParams,
    log_moneyness,
    mu_fmls,
)
from stablepricer.reference import black_scholes, bs_equivalent_vol
from stablepricer.pricer import (
    _FMLS,
    _LATTICE,
    PriceResult,
    TermIndex,
    _chain_layout,
    _engine,
    _model_calls,
    price,
    price_call,
    price_call_strikes,
    price_put,
    residue_term,
    term_table,
    term_table_csv,
)

import stablepricer.pricer as pricer_module
from hypothesis import assume

from _support import (
    GOLDEN_COLUMNS_USED,
    GOLDEN_COLUMN_SUMS,
    GOLDEN_LADDER_CALLS,
    GOLDEN_LADDER_STRIKES,
    GOLDEN_PRICE,
    REFERENCE_CELLS,
    REFERENCE_CUMULATIVE,
    golden_contract,
    golden_params,
    price_by_pair,
    well_convergent,
)


# bounded strategies for drawing valid, well-convergent pricing setups
ALPHAS = st.floats(1.35, 1.95, allow_nan=False)
BETAS = st.floats(-0.9, 0.9, allow_nan=False)
SIGMAS = st.floats(0.1, 0.35, allow_nan=False)
SPOTS = st.floats(50.0, 200.0, allow_nan=False)
MONEYNESS = st.floats(0.85, 1.18, allow_nan=False)
RATES = st.floats(0.0, 0.05, allow_nan=False)
MATURITIES = st.floats(0.5, 1.2, allow_nan=False)


def _draw_setup(alpha, beta, sigma, spot, moneyness, rate, maturity):
    params = StableModelParams.from_beta(alpha=alpha, beta=beta, sigma=sigma)
    contract = OptionContract(
        spot=spot, strike=spot / moneyness, rate=rate, maturity=maturity
    )
    assume(well_convergent(params, contract))
    return params, contract


class TestGolden:
    def test_price_regression(self):
        result = price_call(golden_params(), golden_contract(), tolerance=1e-4)
        assert result.price == pytest.approx(GOLDEN_PRICE, rel=1e-9)
        assert result.columns_used == GOLDEN_COLUMNS_USED
        assert result.diamond_flag
        assert not result.via_parity

    def test_column_sums_regression(self):
        table = term_table(golden_params(), golden_contract(), 10)
        assert len(table.column_sums) == 12
        for got, want in zip(table.column_sums, GOLDEN_COLUMN_SUMS):
            assert got == pytest.approx(want, rel=1e-9)

    def test_reference_cumulative_row(self):
        table = term_table(golden_params(), golden_contract(), 10)
        for got, want in zip(table.column_sums, REFERENCE_CUMULATIVE):
            assert got == pytest.approx(want, abs=1.2e-3)

    def test_reference_cells(self):
        # cells below 0.01 in magnitude sit at the edge of the tabulated
        # print resolution and get the same slack as the 0.000 cells
        table = term_table(golden_params(), golden_contract(), 10)
        for key, want in REFERENCE_CELLS.items():
            tol = 1e-3 if abs(want) >= 0.01 else 5e-3
            assert table.entries[key] == pytest.approx(want, abs=tol), key

    def test_reference_zero_cells(self):
        # cells tabulated as 0.000 are below print precision, not exactly zero
        table = term_table(golden_params(), golden_contract(), 10)
        for (n, m), value in table.entries.items():
            if (n, m) not in REFERENCE_CELLS and n >= -1:
                assert abs(value) < 5e-3, (n, m)

    def test_stabilization_between_late_columns(self):
        table = term_table(golden_params(), golden_contract(), 10)
        assert abs(table.column_sums[11] - table.column_sums[10]) < 1e-3


class TestTermIndex:
    def test_forward_index(self):
        TermIndex(-1, 0)

    def test_triangle_rejections(self):
        with pytest.raises(DomainError):
            TermIndex(-2, 0)
        with pytest.raises(DomainError):
            TermIndex(0, -1)
        with pytest.raises(DomainError):
            TermIndex(2, 4)  # m > n + 1

    @settings(deadline=None, max_examples=100)
    @given(n=st.integers(-5, 12), m=st.integers(-3, 15))
    def test_triangle_membership_property(self, n, m):
        inside = n >= -1 and m >= 0 and 1 + n - m >= 0
        if inside:
            idx = TermIndex(n, m)
            assert (idx.n, idx.m) == (n, m)
        else:
            with pytest.raises(DomainError):
                TermIndex(n, m)


class TestTermValues:
    def test_forward_term_value(self):
        params, contract = golden_params(), golden_contract()
        value = residue_term(params, contract, TermIndex(-1, 0))
        forward = contract.spot - contract.discounted_strike()
        expected = (params.alpha - params.theta) / (2 * params.alpha) * forward
        assert value == pytest.approx(expected, rel=1e-14)

    @settings(deadline=None, max_examples=100)
    @given(
        alpha=ALPHAS,
        sigma=SIGMAS,
        spot=SPOTS,
        moneyness=MONEYNESS,
        rate=RATES,
        maturity=MATURITIES,
    )
    def test_forward_term_maximal_skew_identity(
        self, alpha, sigma, spot, moneyness, rate, maturity
    ):
        # at theta = alpha - 2 the forward weight collapses to 1/alpha
        params = StableModelParams.fmls(alpha=alpha, sigma=sigma)
        contract = OptionContract(
            spot=spot, strike=spot / moneyness, rate=rate, maturity=maturity
        )
        value = residue_term(params, contract, TermIndex(-1, 0))
        expected = (contract.spot - contract.discounted_strike()) / alpha
        assert value == pytest.approx(expected, rel=1e-12)

    def test_vanishing_rule_at_integer_sine_argument(self):
        # alpha=2, theta=0 puts (alpha-theta)(n+1)/(2 alpha) on integers for
        # odd n, so those terms vanish identically
        params = StableModelParams(alpha=2.0, theta=0.0, sigma=0.2, mu=-0.04)
        contract = golden_contract()
        for m in (0, 1, 2):
            assert residue_term(params, contract, TermIndex(1, m)) == 0.0
        for m in (0, 1):
            assert residue_term(params, contract, TermIndex(3, m)) == 0.0
        assert residue_term(params, contract, TermIndex(0, 0)) != 0.0

    @pytest.mark.parametrize(
        "params, contract",
        [
            (golden_params(), golden_contract()),
            # exact zeros: the sine vanishes on every odd n
            (
                StableModelParams(alpha=2.0, theta=0.0, sigma=0.2, mu=-0.04),
                OptionContract(spot=110.0, strike=100.0, rate=0.02, maturity=1.0),
            ),
            # the FMLS line, rho = 1/alpha: zeros where k/alpha is an integer
            (
                StableModelParams.fmls(alpha=1.5, sigma=0.2),
                OptionContract(spot=100.0, strike=92.0, rate=0.03, maturity=0.5),
            ),
        ],
    )
    def test_entries_match_log_space_formula(self, params, contract):
        # each (n, m) term from its own gamma, sine, power and factorial
        # logarithms, independently of the pricer's weight table
        alpha, theta = params.alpha, params.theta
        kd = contract.discounted_strike()
        lm = log_moneyness(contract)
        log_po = math.log(-params.mu * contract.maturity)
        table = term_table(params, contract, 12)
        for (n, m), value in table.entries.items():
            if n == -1:
                continue
            k, p = n + 1, n + 1 - m
            x = (alpha - theta) * k / (2.0 * alpha)
            if abs(x - round(x)) <= 1e-12 * max(1.0, abs(x)):
                assert value == 0.0, (n, m)
                continue
            sine = math.sin(math.pi * (x - round(x))) * (-1) ** round(x)
            payoff = contract.spot - (-1) ** m * kd
            log_mag = (
                math.lgamma(k / alpha)
                + math.log(abs(sine))
                - math.log(alpha * math.pi)
                + math.log(abs(payoff))
                + (p * math.log(abs(lm)) if p else 0.0)
                + (m - k / alpha) * log_po
                - math.lgamma(m + 1)
                - math.lgamma(p + 1)
            )
            sign = math.copysign(1.0, sine * payoff * lm**p)
            assert value == pytest.approx(sign * math.exp(log_mag), rel=1e-12), (n, m)

    def test_positive_mu_rejected(self):
        params = StableModelParams(alpha=1.5, theta=0.0, sigma=0.2, mu=0.01)
        with pytest.raises(DomainError):
            residue_term(params, golden_contract(), TermIndex(0, 0))
        with pytest.raises(DomainError):
            price_call(params, golden_contract())

    @pytest.mark.parametrize(
        "params, maturity, message",
        [
            # -mu*tau rounds to 0 on either engine
            (StableModelParams(1.5, 0.0, 0.2, -5e-324), 0.5, r"-mu\*tau underflows to 0"),
            (StableModelParams.fmls(1.5, 1e-200), 1e-30, r"-mu\*tau underflows to 0"),
            # (-mu*tau)**(-1/alpha) overflows at alpha 1.01
            (StableModelParams(1.01, 0.0, 0.2, -1e-320), 1.0, r"\(-1/alpha\) overflows"),
            # -mu*tau overflows to inf, where the FMLS tail's sum would never
            # stop and the lattice's columns are not finite
            (StableModelParams(1.6, 0.0, 0.2, -1e200), 1e200, r"-mu\*tau overflows"),
            (StableModelParams.fmls(1.6, 1e100), 1e200, r"-mu\*tau overflows"),
        ],
        ids=["lattice", "fmls", "scale", "lattice-overflow", "fmls-overflow"],
    )
    def test_underflowing_po_rejected(self, params, maturity, message):
        contract = OptionContract(100.0, 100.0, 0.0, maturity)
        for call in (
            lambda: price(params, contract),
            lambda: term_table(params, contract, 3),
            lambda: price_call_strikes(params, 100.0, 0.0, maturity, np.array([100.0])),
        ):
            with pytest.raises(DomainError, match=message + " at mu="):
                call()

    def test_subnormal_po_with_finite_scale_prices(self):
        # the scale check is the power itself, not a bound on -mu*tau
        contract = OptionContract(100.0, 100.0, 0.0, 1.0)
        result = price(StableModelParams(1.5, 0.0, 0.2, -1e-310), contract)
        assert 0.0 < result.price < 1e-100


class TestColumnConsistency:
    def test_column_sums_match_entries(self):
        params, contract = golden_params(), golden_contract()
        table = term_table(params, contract, 8)
        running = 0.0
        for n in range(-1, 9):
            running += math.fsum(
                table.entries[(n, m)] for m in range(0, n + 2)
            )
            assert table.column_sums[n + 1] == pytest.approx(
                running, rel=1e-12
            )

    def test_entries_match_residue_term(self):
        params, contract = golden_params(), golden_contract()
        table = term_table(params, contract, 6)
        for (n, m), value in table.entries.items():
            direct = residue_term(params, contract, TermIndex(n, m))
            assert value == pytest.approx(direct, rel=1e-12)


class TestKernelMatchesTable:
    """The two-digital columns against the (n, m) terms they sum."""

    @settings(deadline=None, max_examples=60)
    @given(
        alpha=ALPHAS,
        beta=BETAS,
        sigma=SIGMAS,
        spot=SPOTS,
        moneyness=MONEYNESS,
        rate=RATES,
        maturity=MATURITIES,
    )
    # at the money forward S*y+**k - Kd*y-**k cancels to rounding level,
    # far below both legs and below the column's own term sum
    @example(
        alpha=1.5, beta=0.5, sigma=0.25, spot=50.0, moneyness=1.0,
        rate=1e-17, maturity=1.0,
    )
    def test_columns_and_price(
        self, alpha, beta, sigma, spot, moneyness, rate, maturity
    ):
        params, contract = _draw_setup(
            alpha, beta, sigma, spot, moneyness, rate, maturity
        )
        result = price_call(params, contract, tolerance=1e-8)
        n_max = result.columns_used - 2
        table = term_table(params, contract, n_max)
        # the lattice engine's two halves, as _summed calls them for one pair
        scalars, build = _LATTICE
        layout = _chain_layout(spot, rate, maturity, np.array([contract.strike]))
        po = -params.mu * maturity
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            columns = build(scalars(params, [po]), layout, n_max)[0][:, 0]
        lm = log_moneyness(contract)
        y_up, y_down = (lm + po) * po ** (-1 / alpha), (lm - po) * po ** (-1 / alpha)
        rho = (alpha - params.theta) / (2 * alpha)
        for n in range(-1, n_max + 1):
            terms = [table.entries[(n, m)] for m in range(0, n + 2)]
            # the kernel rounds at the scale of its two digital legs
            k = n + 1
            g = math.exp(math.lgamma(k / alpha) - math.lgamma(k + 1)) if k else 0.0
            legs = g * abs(math.sin(math.pi * k * rho)) / (alpha * math.pi) * (
                spot * abs(y_up) ** k + contract.discounted_strike() * abs(y_down) ** k
            )
            scale = max(math.fsum(abs(t) for t in terms), legs)
            assert abs(columns[n + 1] - math.fsum(terms)) <= 1e-9 * scale
        scale = math.fsum(abs(t) for t in table.entries.values())
        assert abs(result.price - table.column_sums[-1]) <= 1e-12 * scale


class TestPriceCall:
    def test_tolerance_refines(self):
        params, contract = golden_params(), golden_contract()
        coarse = price_call(params, contract, tolerance=1e-2)
        fine = price_call(params, contract, tolerance=1e-8)
        assert fine.columns_used >= coarse.columns_used
        assert fine.price == pytest.approx(coarse.price, abs=5e-2)

    def test_non_convergence_raises(self):
        with pytest.raises(ConvergenceError):
            price_call(
                golden_params(), golden_contract(), tolerance=1e-8, max_column=4
            )

    def test_cap_failure_agrees_with_batch(self):
        # the final column at the cap is 1.28e-4 > tolerance: the scalar
        # and the batch share one stop rule, so both raise
        params = StableModelParams.from_beta(
            1.2726168208538218, -0.7644155238432633, 0.2813613680764508
        )
        spot, strike, rate, maturity = (
            100.0, 76.18334274661548, 0.028560219570589615, 0.25
        )
        contract = OptionContract(
            spot=spot, strike=strike, rate=rate, maturity=maturity
        )
        with pytest.raises(ConvergenceError, match="did not stabilize"):
            price_call(params, contract, tolerance=1e-4)
        with pytest.raises(ConvergenceError, match="did not stabilize"):
            price_call_strikes(
                params, spot, rate, maturity, np.array([strike]), tolerance=1e-4
            )

    def test_fmls_tail_overflow_reported_one_way(self):
        # at -mu*tau = 711 only the tail's sum overflows, at 740 its terms
        # do; either way column 0 is inf, and the stop rule reports it
        contract = OptionContract(100.0, 100.0, 0.0, 1.0)
        reports = set()
        for po in (711.0, 740.0):
            sigma = (po * math.cos(0.2 * math.pi)) ** (1 / 1.6)
            params = StableModelParams.fmls(1.6, sigma)
            assert -params.mu == pytest.approx(po, rel=1e-12)
            with pytest.raises(ConvergenceError) as caught:
                price(params, contract)
            reports.add((str(caught.value), caught.value.strike_index))
        assert reports == {(
            "series terms overflowed at column 0 "
            "(parameters too far into the slow-convergence regime)", 0
        )}

    @pytest.mark.parametrize(
        "strike, rate", [(1e-10, 0.0), (100.0, 50.0), (1e-4, 0.0)],
        ids=["tiny-strike", "high-rate", "small-strike"],
    )
    def test_fmls_deep_in_the_money_respects_bounds(self, strike, rate):
        # each FMLS column carries Kd/alpha * x**n/n!, x = L - po: with a tiny
        # Kd the first columns are quiet, and the later ones grow up to n = |x|
        params, tolerance = StableModelParams.fmls(1.6, 0.2), 1e-8
        contract = OptionContract(100.0, strike, rate, 1.0)
        for call in (
            lambda: price(params, contract, tolerance).price,
            lambda: price_call_strikes(
                params, 100.0, rate, 1.0, np.array([strike]), tolerance
            )[0],
        ):
            try:
                value = call()
            except ConvergenceError:
                continue
            assert contract.forward() - 64 * tolerance <= value <= contract.spot

    def test_fmls_quiet_before_peak_named(self):
        # every column up to the cap is quiet, but |x|**n/n! peaks at n = 73
        with pytest.raises(ConvergenceError) as caught:
            price(
                StableModelParams.fmls(1.6, 0.2), OptionContract(100.0, 1e-30, 0.0, 1.0),
                tolerance=1e-3, max_column=8,
            )
        assert str(caught.value) == (
            "series did not stabilize within 8 columns "
            "(a quiet pair counts only from column 73)"
        )

    @pytest.mark.parametrize("max_column", [3, 5, 7])
    def test_odd_cap_at_alpha_two(self, max_column):
        # every even-k column is exactly 0 at alpha = 2, so with an odd cap
        # the final column is always quiet; the column before it is not
        params = StableModelParams(alpha=2.0, theta=0.0, sigma=0.25, mu=-0.0625)
        contract = golden_contract()
        message = f"did not stabilize within {max_column} columns"
        with pytest.raises(ConvergenceError, match=message):
            price_call(params, contract, tolerance=1e-8, max_column=max_column)
        with pytest.raises(ConvergenceError, match=message):
            price_call_strikes(
                params, contract.spot, contract.rate, contract.maturity,
                np.array([contract.strike]), tolerance=1e-8, max_column=max_column,
            )

    def test_out_of_diamond_continuation_flagged(self):
        params = StableModelParams(alpha=1.8, theta=0.7, sigma=0.25, mu=-0.1)
        result = price_call(params, golden_contract())
        assert not result.diamond_flag
        assert math.isfinite(result.price)

    @settings(deadline=None, max_examples=60)
    @given(
        alpha=ALPHAS,
        beta=BETAS,
        sigma=SIGMAS,
        spot=SPOTS,
        moneyness=MONEYNESS,
        rate=RATES,
        maturity=MATURITIES,
        scale=st.floats(0.5, 20.0, allow_nan=False),
    )
    def test_homogeneity(
        self, alpha, beta, sigma, spot, moneyness, rate, maturity, scale
    ):
        # price(c*S, c*K) = c * price(S, K); scaling the stop tolerance with
        # the contract keeps the truncation point identical on both sides
        params, contract = _draw_setup(
            alpha, beta, sigma, spot, moneyness, rate, maturity
        )
        scaled = OptionContract(
            spot=contract.spot * scale,
            strike=contract.strike * scale,
            rate=rate,
            maturity=maturity,
        )
        base = price_call(params, contract, tolerance=1e-7)
        lifted = price_call(params, scaled, tolerance=1e-7 * scale)
        assert lifted.price == pytest.approx(scale * base.price, rel=1e-10)


class TestPut:
    def test_parity_is_exact_by_construction(self):
        params, contract = golden_params(), golden_contract()
        put_contract = OptionContract(
            spot=contract.spot,
            strike=contract.strike,
            rate=contract.rate,
            maturity=contract.maturity,
            side="put",
        )
        call = price_call(params, contract)
        put = price_put(params, put_contract)
        forward = contract.spot - contract.discounted_strike()
        assert put.price == call.price - forward  # bitwise, no tolerance
        assert put.via_parity
        assert put.columns_used == call.columns_used

    @settings(deadline=None, max_examples=60)
    @given(
        alpha=ALPHAS,
        beta=BETAS,
        sigma=SIGMAS,
        spot=SPOTS,
        moneyness=MONEYNESS,
        rate=RATES,
        maturity=MATURITIES,
    )
    def test_parity_property(
        self, alpha, beta, sigma, spot, moneyness, rate, maturity
    ):
        params, contract = _draw_setup(
            alpha, beta, sigma, spot, moneyness, rate, maturity
        )
        put_contract = OptionContract(
            spot=contract.spot,
            strike=contract.strike,
            rate=rate,
            maturity=maturity,
            side="put",
        )
        call = price_call(params, contract)
        put = price_put(params, put_contract)
        forward = contract.spot - contract.discounted_strike()
        assert put.price == call.price - forward


class TestOneEntryPoint:
    def test_one_function_for_both_sides(self):
        assert price_call is price_put is price
        assert stablepricer.price is price
        assert "price" in stablepricer.__all__

    @settings(deadline=None, max_examples=100)
    @given(
        alpha=st.floats(1.15, 2.0, allow_nan=False),
        beta=st.floats(-1.0, 1.0, allow_nan=False),
        sigma=st.floats(0.05, 0.8, allow_nan=False),
        moneyness=st.floats(0.8, 1.25, allow_nan=False),
        rate=RATES,
        maturity=st.sampled_from([0.25, 0.5, 1.0]),
        side=st.sampled_from(["call", "put"]),
        log_tolerance=st.floats(-8.0, -5.0, allow_nan=False),
    )
    @example(1.6, -1.0, 0.2, 1.0, 0.01, 0.5, "put", -8.0)  # FMLS series
    @example(2.0, 0.0, 0.2, 0.9, 0.02, 1.0, "call", -6.0)  # Black-Scholes
    def test_price_is_a_one_strike_chain(
        self, alpha, beta, sigma, moneyness, rate, maturity, side, log_tolerance
    ):
        # across the diamond, both engines and both sides: the scalar price
        # is the chain's price of its strike, less the forward for a put, bit
        # for bit; where one raises, the other raises the same error
        params = StableModelParams.from_beta(alpha, beta, sigma)
        contract = OptionContract(100.0, 100.0 / moneyness, rate, maturity, side)
        tolerance = 10.0**log_tolerance
        try:
            (call,) = price_call_strikes(
                params, 100.0, rate, maturity, np.array([contract.strike]),
                tolerance=tolerance,
            )
        except ConvergenceError as exc:
            with pytest.raises(ConvergenceError, match=re.escape(str(exc))):
                price(params, contract, tolerance=tolerance)
            return
        result = price(params, contract, tolerance=tolerance)
        if side == "put":
            call -= contract.spot - contract.discounted_strike()
        assert result.price == call
        assert result.via_parity == (side == "put")


class TestBatch:
    def test_matches_scalar(self):
        params = StableModelParams.from_beta(alpha=1.6, beta=-0.4, sigma=0.22)
        spot, rate, maturity = 120.0, 0.015, 0.8
        strikes = np.linspace(100.0, 140.0, 9)
        batch = price_call_strikes(
            params, spot, rate, maturity, strikes, tolerance=1e-7
        )
        for strike, value in zip(strikes, batch):
            contract = OptionContract(
                spot=spot, strike=float(strike), rate=rate, maturity=maturity
            )
            scalar = price_call(params, contract, tolerance=1e-7).price
            assert value == pytest.approx(scalar, rel=1e-7)

    def test_input_validation(self):
        params = golden_params()
        with pytest.raises(DomainError):
            price_call_strikes(params, 100.0, 0.0, 1.0, np.array([]))
        with pytest.raises(DomainError):
            price_call_strikes(params, 100.0, 0.0, 1.0, np.array([-5.0]))
        for max_column in (0, -1, 10.5, True):
            with pytest.raises(DomainError, match="max_column must be an int >= 1"):
                price_call_strikes(
                    params, 100.0, 0.0, 1.0, np.array([95.0]), max_column=max_column
                )
        for tolerance in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError, match="tolerance must be positive"):
                price_call_strikes(
                    params, 100.0, 0.0, 1.0, np.array([95.0]), tolerance=tolerance
                )
        # price and term_table check their column caps in the same way
        contract = OptionContract(100.0, 95.0, 0.0, 1.0)
        with pytest.raises(DomainError, match="max_column must be an int >= 1"):
            price(params, contract, max_column=10.5)
        with pytest.raises(DomainError, match="tolerance must be positive"):
            price(params, contract, tolerance=math.nan)
        for n_max in (2.5, True, -2):
            with pytest.raises(DomainError, match="n_max must be an int >= -1"):
                term_table(params, contract, n_max)
        strikes = np.array([95.0, 100.0, 105.0])
        with pytest.raises(DomainError, match="aligned with strikes"):
            price_call_strikes(params, 100.0, [0.0, 0.01], 1.0, strikes)
        with pytest.raises(DomainError, match="maturity must be positive"):
            price_call_strikes(params, 100.0, 0.0, [1.0, 0.0, 1.0], strikes)
        # exp(-rate*maturity) overflows on the last strike's pair
        with pytest.raises(DomainError, match="discount overflows"):
            _model_calls(
                [params],
                _chain_layout(100.0, [0.01, 0.01, -400.0], [1.0, 1.0, 2.0], strikes),
                1e-4,
            )
        # rate * maturity overflows to +inf, on the one pair or on the
        # last of two; no numpy warning (an error under this suite's filter)
        fmls = StableModelParams.fmls(1.6, 0.2)
        for rates, maturities in (([1e300], [1e10]), ([0.01, 1e300], [1.0, 1e10])):
            with pytest.raises(DomainError, match=r"rate \* maturity must be finite"):
                price_call_strikes(
                    fmls, 100.0, np.array(rates), np.array(maturities),
                    np.full(len(rates), 100.0),
                )
        # exp(709.7) is finite, 100 times it is not, alone or after a good
        # pair; no numpy warning (an error under this suite's filter) first
        for rates in ([-709.7], [0.01, -709.7]):
            with pytest.raises(DomainError, match="discounted strike K"):
                price_call_strikes(
                    params, 100.0, np.array(rates), 1.0, np.full(len(rates), 100.0)
                )
        # spot / strike overflows or underflows to 0, on every strike or one
        for spot, chain_strikes in (
            (1e300, [1e-300]), (1e-300, [1e300]), (1e-300, [1.0, 1e300]),
        ):
            with pytest.raises(DomainError, match="spot / strike leaves float range"):
                price_call_strikes(params, spot, 0.0, 1.0, np.array(chain_strikes))
        # with a bad chain and a bad model or stop rule, the chain is named:
        # the one driver that price shares checks the model and stop rule
        # only once the strikes have been grouped by (rate, maturity)
        unpriceable = StableModelParams(alpha=1.5, theta=0.0, sigma=0.2, mu=0.01)
        for model, tolerance in ((unpriceable, 1e-4), (params, 0.0)):
            with pytest.raises(DomainError, match="strikes and maturity must be"):
                price_call_strikes(
                    model, 100.0, 0.0, 1.0, np.array([-5.0]), tolerance=tolerance
                )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "name, entries",
        [
            ("spot", None), ("strikes", [90.0]), ("rate", None),
            ("rate", [0.01]), ("maturity", None), ("maturity", [0.5]),
        ],
    )
    def test_non_finite_inputs_rejected(self, name, entries, bad):
        # a non-finite scalar, or a non-finite entry after a good one
        inputs = dict(spot=100.0, rate=0.01, maturity=0.5, strikes=[90.0, 110.0])
        inputs[name] = bad if entries is None else entries + [bad]
        with pytest.raises(DomainError, match="finite"):
            price_call_strikes(
                StableModelParams.from_beta(1.7, -0.3, 0.15),
                inputs["spot"],
                inputs["rate"],
                inputs["maturity"],
                np.array(inputs["strikes"]),
            )

    def test_non_convergence_raises(self):
        with pytest.raises(ConvergenceError):
            price_call_strikes(
                golden_params(),
                4300.0,
                0.01,
                1.0,
                np.array([4000.0]),
                tolerance=1e-9,
                max_column=4,
            )


    @settings(deadline=None, max_examples=60)
    @given(
        alpha=ALPHAS,
        beta=BETAS,
        sigma=SIGMAS,
        spot=SPOTS,
        moneyness=st.lists(MONEYNESS, min_size=1, max_size=6),
        rate=RATES,
        maturity=MATURITIES,
    )
    def test_matches_scalar_property(
        self, alpha, beta, sigma, spot, moneyness, rate, maturity
    ):
        tolerance = 1e-8
        setups = [
            _draw_setup(alpha, beta, sigma, spot, mny, rate, maturity)
            for mny in moneyness
        ]
        params = setups[0][0]
        strikes = np.array([contract.strike for _, contract in setups])
        batch = price_call_strikes(
            params, spot, rate, maturity, strikes, tolerance=tolerance
        )
        for value, (_, contract) in zip(batch, setups):
            scalar = price_call(params, contract, tolerance=tolerance).price
            assert abs(value - scalar) <= 10 * tolerance

    def _assert_matches_scalar(self, params, spot, rate, maturity, strikes,
                               tolerance=1e-8, max_column=64):
        batch = price_call_strikes(
            params, spot, rate, maturity, np.array(strikes),
            tolerance=tolerance, max_column=max_column,
        )
        for strike, value in zip(strikes, batch):
            contract = OptionContract(
                spot=spot, strike=strike, rate=rate, maturity=maturity
            )
            scalar = price_call(
                params, contract, tolerance=tolerance, max_column=max_column
            ).price
            assert abs(value - scalar) <= 10 * tolerance
        return batch

    def test_gaussian_member_alternating_zero_columns(self):
        # alpha=2 makes the sine vanish on every odd n; the batch must still
        # reach the Black-Scholes price
        sigma = 0.2
        params = StableModelParams(alpha=2.0, theta=0.0, sigma=sigma, mu=-sigma**2)
        strikes = [80.0, 95.0, 100.0, 110.0, 125.0]
        batch = self._assert_matches_scalar(params, 100.0, 0.02, 0.75, strikes)
        for strike, value in zip(strikes, batch):
            contract = OptionContract(
                spot=100.0, strike=strike, rate=0.02, maturity=0.75
            )
            closed = black_scholes(contract, bs_equivalent_vol(sigma))
            assert value == pytest.approx(closed, abs=1e-6)

    def test_at_the_money_forward(self):
        # rate 0 and K = S give L = 0 exactly (u**0 = 1, every higher power
        # 0) and S - K*exp(-r*tau) = 0, so every even-m term vanishes
        params = StableModelParams.from_beta(alpha=1.7, beta=-0.3, sigma=0.2)
        batch = self._assert_matches_scalar(
            params, 100.0, 0.0, 0.5, [90.0, 100.0, 110.0]
        )
        assert 0.0 < batch[1] < 100.0

    def test_zero_even_payoff_with_rate(self):
        # K*exp(-r*tau) rounds to exactly S here while L is a rounding-level
        # nonzero
        spot, rate, maturity = 100.0, 0.01, 0.25
        strike = spot * math.exp(rate * maturity)
        assert spot - strike * math.exp(-rate * maturity) == 0.0
        params = StableModelParams.from_beta(alpha=1.5, beta=0.4, sigma=0.15)
        self._assert_matches_scalar(
            params, spot, rate, maturity, [strike, 0.9 * strike]
        )

    def test_column_cap_above_64(self):
        # near alpha = 1.2 this contract needs about 77 columns at 1e-8
        params = StableModelParams.from_beta(alpha=1.2077, beta=0.4641, sigma=0.1268)
        strikes = [83.9, 100.0]
        with pytest.raises(ConvergenceError):
            price_call_strikes(params, 100.0, 0.0, 0.5, np.array(strikes),
                               tolerance=1e-8)
        self._assert_matches_scalar(
            params, 100.0, 0.0, 0.5, strikes, max_column=100
        )

    @pytest.mark.parametrize(
        "params",
        [
            StableModelParams.from_beta(alpha=1.6, beta=-0.4, sigma=0.22),
            StableModelParams.fmls(1.6, 0.2),
            StableModelParams(alpha=2.0, theta=0.0, sigma=0.2, mu=-0.04),
        ],
        ids=["lattice", "fmls", "alpha2"],
    )
    def test_chain_equals_one_call_per_pair(self, params):
        # interleaved per-strike maturities and rates: each pair's strikes
        # stop on the column their own call stops on, bit for bit
        rng = np.random.default_rng(7)
        maturities = rng.choice([0.25, 0.5, 1.0], 30)
        rates = rng.choice([0.0, 0.02], 30)
        strikes = rng.uniform(85.0, 120.0, 30)
        chain = price_call_strikes(
            params, 100.0, rates, maturities, strikes, tolerance=1e-8
        )
        by_pair = price_by_pair(
            params, 100.0, rates, maturities, strikes, tolerance=1e-8
        )
        assert np.array_equal(chain, by_pair)
        scalar_rate = price_call_strikes(
            params, 100.0, 0.02, maturities, strikes, tolerance=1e-8
        )
        assert np.array_equal(
            scalar_rate,
            price_by_pair(
                params, 100.0, np.full(30, 0.02), maturities, strikes, tolerance=1e-8
            ),
        )

    @pytest.mark.parametrize(
        "params, maturities, strikes, failed",
        [
            # the far strike of the second pair to appear fails
            (
                StableModelParams(alpha=1.5, theta=-0.4, sigma=0.1, mu=-0.02),
                [0.5, 1.0, 0.5, 1.0, 0.5],
                [100.0, 110.0, 105.0, 300.0, 95.0],
                3,
            ),
            # every pair overflows the shared FMLS tail: the first pair's
            # first strike is named
            (
                StableModelParams.fmls(1.6, 100.0),
                [1.0, 0.5, 1.0],
                [90.0, 100.0, 110.0],
                0,
            ),
        ],
        ids=["lattice", "fmls"],
    )
    def test_chain_failure_names_strike_in_input_order(
        self, params, maturities, strikes, failed
    ):
        args = (params, 100.0, np.full(len(strikes), 0.01), np.array(maturities),
                np.array(strikes))
        with pytest.raises(ConvergenceError) as chain:
            price_call_strikes(*args, tolerance=1e-5)
        with pytest.raises(ConvergenceError) as by_pair:
            price_by_pair(*args, tolerance=1e-5)
        assert chain.value.strike_index == by_pair.value.strike_index == failed
        assert str(chain.value) == str(by_pair.value)

    def test_golden_ladder_bits(self):
        calls = price_call_strikes(
            golden_params(), 4300.0, 0.01, 1.0, np.array(GOLDEN_LADDER_STRIKES),
            tolerance=1e-8,
        )
        assert tuple(calls.tolist()) == GOLDEN_LADDER_CALLS

    def test_small_cap_names_failing_strike(self):
        strikes = np.array([4000.0, 4300.0, 12000.0])
        with pytest.raises(ConvergenceError, match="did not stabilize") as err:
            price_call_strikes(
                golden_params(), 4300.0, 0.01, 1.0, strikes,
                tolerance=1e-9, max_column=4,
            )
        assert err.value.strike_index == 2


# one model of each kind a chain call may mix: the FMLS line, the lattice,
# alpha = 2, and models that fail to price (a lattice that does not
# stabilize, an overflowing FMLS tail, a mu that cannot be priced)
MODELS = st.one_of(
    st.builds(StableModelParams.fmls, ALPHAS, SIGMAS),
    st.builds(StableModelParams.from_beta, ALPHAS, BETAS, SIGMAS),
    st.builds(StableModelParams.from_beta, st.just(2.0), BETAS, SIGMAS),
    st.builds(StableModelParams.from_beta, ALPHAS, BETAS, st.floats(1.0, 3.0)),
    st.builds(StableModelParams.fmls, ALPHAS, st.floats(30.0, 100.0)),
    st.builds(
        StableModelParams, ALPHAS, st.just(0.0), SIGMAS, st.floats(0.001, 0.1)
    ),
)


class TestModelAxis:
    @settings(max_examples=60, deadline=None)
    @given(
        models=st.lists(MODELS, min_size=1, max_size=7),
        quotes=st.lists(
            st.tuples(
                st.floats(60.0, 160.0),
                st.sampled_from([0.0, 0.02]),
                st.sampled_from([0.25, 0.5, 1.0]),
            ),
            min_size=1,
            max_size=12,
        ),
        tolerance=st.sampled_from([1e-5, 1e-8]),
    )
    def test_rows_are_one_model_calls(self, models, quotes, tolerance):
        # on a chain whose (rate, maturity) pairs interleave, each model's
        # row is its own price_call_strikes call, to the bit, and a model
        # that fails carries the error that call raises
        strikes, rates, maturities = (np.array(column) for column in zip(*quotes))
        self._assert_rows_are_one_model_calls(
            models, (100.0, rates, maturities, strikes, tolerance)
        )

    def test_mixed_batch_rows_are_one_model_calls(self):
        # every engine and every way a model fails, in one call on a chain
        # whose pairs interleave
        models = [
            StableModelParams.fmls(1.6, 0.2),
            StableModelParams.from_beta(1.7, -0.3, 0.15),
            StableModelParams.from_beta(2.0, 0.0, 0.2),
            # mu > 0 cannot be priced
            StableModelParams(1.6, 0.0, 0.2, 0.05),
            # converges on the first pair, (0, 0.5), and not on the second
            StableModelParams.fmls(1.6, 4.5),
            # the lattice series overflows
            StableModelParams.from_beta(1.5, 0.3, 1e-6),
            # the scale po**(-1/alpha) overflows
            StableModelParams(1.01, 0.0, 0.2, -1e-320),
            # -mu*tau underflows to 0 at tau = 0.5
            StableModelParams(1.5, 0.0, 0.2, -5e-324),
        ]
        chains = [
            # pairs (0, 0.5), (0.02, 1.0), (0, 0.5)
            ([0.0, 0.02, 0.0], [0.5, 1.0, 0.5], [95.0, 105.0, 110.0]),
            # three pairs, interleaved: A B C A C B
            (
                [0.0, 0.02, 0.01, 0.0, 0.01, 0.02],
                [0.5, 1.0, 0.25, 0.5, 0.25, 1.0],
                [95.0, 105.0, 110.0, 100.0, 90.0, 120.0],
            ),
        ]
        for chain in chains:
            args = (100.0, *map(np.array, chain), 1e-8)
            rows = self._assert_rows_are_one_model_calls(models, args)
            assert [type(row).__name__ for row in rows] == [
                "ndarray", "ndarray", "ndarray", "DomainError",
                "ConvergenceError", "ConvergenceError", "DomainError", "DomainError",
            ]
            assert "did not stabilize" in str(rows[4])
            i = rows[4].strike_index
            assert (chain[0][i], chain[1][i]) == (0.02, 1.0)
            assert "series terms overflowed" in str(rows[5])
            assert "-1/alpha) overflows" in str(rows[6])
            assert "underflows" in str(rows[7])
            # the other rows are the bits of the batch without that model
            without = self._rows(models[:-1], args)
            for row, alone in zip(rows[:3], without):
                assert np.array_equal(row, alone)

    @staticmethod
    def _rows(models, args):
        spot, rates, maturities, strikes, tolerance = args
        return _model_calls(
            models, _chain_layout(spot, rates, maturities, strikes), tolerance
        )

    @classmethod
    def _assert_rows_are_one_model_calls(cls, models, args):
        rows = cls._rows(models, args)
        assert len(rows) == len(models)
        for params, row in zip(models, rows):
            try:
                alone = price_call_strikes(params, *args)
            except (ConvergenceError, DomainError) as exc:
                assert type(row) is type(exc)
                assert str(row) == str(exc)
                assert getattr(row, "strike_index", None) == getattr(
                    exc, "strike_index", None
                )
            else:
                assert isinstance(row, np.ndarray)
                assert np.array_equal(row, alone)
        return rows


def _outcome(value):
    """A kernel outcome as a comparable value: prices as their bytes, a
    PriceResult as its repr, an error as its type, message and strike."""
    if isinstance(value, np.ndarray):
        return value.tobytes()
    if isinstance(value, Exception):
        return type(value), str(value), getattr(value, "strike_index", None)
    return repr(value)


class TestTwoPasses:
    @settings(max_examples=80, deadline=None)
    @given(
        models=st.lists(MODELS, min_size=1, max_size=6),
        quotes=st.lists(
            st.tuples(
                st.floats(60.0, 160.0),
                st.sampled_from([0.0, 0.02, 0.05]),
                st.sampled_from([0.25, 0.5, 1.0, 2.0]),
            ),
            min_size=1,
            max_size=12,
        ),
        tolerance=st.floats(-12.0, -3.0).map(lambda e: 10.0**e),
        max_column=st.integers(1, 100),
    )
    def test_equals_one_full_pass(self, models, quotes, tolerance, max_column):
        # a first pass at half the cap, then the unstopped models at the
        # cap, gives the bits of one pass at the cap: prices, columns used,
        # truncation estimates and errors, on a chain whose pairs interleave
        strikes, rates, maturities = (np.array(column) for column in zip(*quotes))
        layout = _chain_layout(100.0, rates, maturities, strikes)
        contract = OptionContract(100.0, quotes[0][0], quotes[0][1], quotes[0][2])

        def outcomes():
            rows = _model_calls(models, layout, tolerance, max_column)
            results = []
            for params in models:
                try:
                    results.append(price(params, contract, tolerance, max_column))
                except (ConvergenceError, DomainError) as exc:
                    results.append(exc)
            return [_outcome(value) for value in rows + results]

        two_passes = outcomes()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pricer_module, "_first_cap", lambda max_column: max_column)
            assert outcomes() == two_passes

    @staticmethod
    def _counted_builds(monkeypatch):
        """Record each builder call as (builder, cap, sorted po of its models)."""
        builds = []
        for name in ("_LATTICE", "_FMLS"):
            scalars, columns = getattr(pricer_module, name)

            def build(stacked, layout, cap, columns=columns):
                # po = -mu*tau is field 4 of both engines' scalars
                builds.append((columns.__name__, cap, sorted(np.ravel(stacked[4]).tolist())))
                return columns(stacked, layout, cap)

            monkeypatch.setattr(pricer_module, name, (scalars, build))
        return builds

    def test_golden_ladder_builds_once_at_half_the_cap(self, monkeypatch):
        builds = self._counted_builds(monkeypatch)
        models = [golden_params(), StableModelParams.fmls(1.5, 0.25),
                  StableModelParams.from_beta(2.0, 0.0, 0.2)]
        layout = _chain_layout(4300.0, 0.01, 1.0, np.array(GOLDEN_LADDER_STRIKES))
        rows = _model_calls(models, layout, 1e-8)
        assert [name for name, _, _ in builds] == ["_columns", "_fmls_columns"]
        assert {cap for _, cap, _ in builds} == {32}
        assert tuple(rows[0].tolist()) == GOLDEN_LADDER_CALLS

    def test_unstopped_models_build_again_at_the_cap(self, monkeypatch):
        # at strike 140 the alpha = 1.6, sigma = 0.2 models sit at envelope
        # ratio r = (|L| + po) * po**(-1/alpha) of about 2.6 and need 48
        # (lattice) and 43 (FMLS) columns; alpha = 2 at r = 2.5 and the
        # sigma = 0.4 models at r = 1.6 stop within 32
        slow = [StableModelParams.from_beta(1.6, 0.0, 0.2), StableModelParams.fmls(1.6, 0.2)]
        fast = [StableModelParams.from_beta(2.0, 0.0, 0.2),
                StableModelParams.from_beta(1.6, 0.0, 0.4), StableModelParams.fmls(1.6, 0.4)]
        strikes = np.array([100.0, 140.0])
        lattice_po, fmls_po = ([-p.mu * 0.5 for p in models] for models in (
            [slow[0], fast[0], fast[1]], [slow[1], fast[2]]
        ))
        builds = self._counted_builds(monkeypatch)
        rows = _model_calls(slow + fast, _chain_layout(100.0, 0.0, 0.5, strikes), 1e-8)
        assert builds == [
            ("_columns", 32, sorted(lattice_po)),
            ("_fmls_columns", 32, sorted(fmls_po)),
            ("_columns", 64, lattice_po[:1]),
            ("_fmls_columns", 64, fmls_po[:1]),
        ]
        for params, row in zip(slow + fast, rows):
            assert np.array_equal(
                row, price_call_strikes(params, 100.0, 0.0, 0.5, strikes, 1e-8)
            )


class TestNoArbitrage:
    # Only where the call is an expectation, on the FMLS line and at
    # alpha = 2: off that line with alpha < 2 the lattice value is not one
    # and is not convex in strike (most such models, in a probe of 91, break
    # convexity somewhere on the same ladder).
    @settings(max_examples=40, deadline=None)
    @given(
        params=st.one_of(
            st.builds(StableModelParams.fmls, ALPHAS, SIGMAS),
            st.builds(StableModelParams.from_beta, st.just(2.0), BETAS, SIGMAS),
        ),
        rate=RATES,
        maturity=MATURITIES,
    )
    def test_ladder_is_bounded_falling_and_convex(self, params, rate, maturity):
        spot, tolerance = 100.0, 1e-10
        for end in (70.0, 130.0):
            assume(well_convergent(params, OptionContract(spot, end, rate, maturity)))
        strikes = np.arange(70.0, 130.25, 0.5)
        calls = price_call_strikes(
            params, spot, rate, maturity, strikes, tolerance=tolerance
        )
        kd = strikes * math.exp(-rate * maturity)
        assert (np.maximum(spot - kd, 0.0) <= calls).all()
        assert (calls <= spot).all()
        assert (np.diff(calls) <= 0.0).all()
        assert (np.diff(calls, 2) >= -3 * tolerance).all()


class TestEngine:
    @pytest.mark.parametrize(
        "params, engine",
        [
            (StableModelParams.fmls(1.6, 0.2), _FMLS),
            (StableModelParams.from_beta(1.6, -1.0, 0.2), _FMLS),
            # mu recovered from a scale to a few ulps, as calibrate's stable
            # rung does, is still the martingale drift
            (
                StableModelParams(1.6, 1.6 - 2.0, 0.2, mu_fmls(1.6, 0.2) * (1 + 4e-16)),
                _FMLS,
            ),
            (
                StableModelParams(1.6, 1.6 - 2.0, 0.2, mu_fmls(1.6, 0.2) * (1 + 1e-12)),
                _LATTICE,
            ),
            (StableModelParams.from_beta(1.6, -0.99, 0.2), _LATTICE),
            (StableModelParams.fmls(2.0, 0.2), _LATTICE),
            (golden_params(), _LATTICE),
        ],
        # an engine by the name of its column builder
        ids=lambda v: v[1].__name__ if isinstance(v, tuple) else None,
    )
    def test_model_picks_the_series(self, params, engine):
        assert _engine(params) is engine

    def test_reach_comes_from_the_builder(self, monkeypatch):
        # an engine equal to _FMLS but not the same object keeps the FMLS
        # stop's start column, which its builder names, not the driver
        params, tolerance = StableModelParams.fmls(1.6, 0.2), 1e-8
        deep = OptionContract(100.0, 1e-10, 0.0, 1.0)
        with pytest.raises(ConvergenceError) as alone:
            price(params, deep, tolerance)
        engine = pricer_module._engine

        def copied(params):
            scalars, columns = engine(params)
            return (scalars, columns)  # a tuple literal: tuple(t) is t itself

        monkeypatch.setattr(pricer_module, "_engine", copied)
        assert copied(params) == _FMLS and copied(params) is not _FMLS
        with pytest.raises(ConvergenceError) as caught:
            price(params, deep, tolerance)
        assert (str(caught.value), caught.value.strike_index) == (
            str(alone.value), alone.value.strike_index
        )
        with pytest.raises(ConvergenceError, match="a quiet pair counts only from column 73"):
            price(params, OptionContract(100.0, 1e-30, 0.0, 1.0), tolerance=1e-3, max_column=8)

    def test_overflowing_drift_rejected(self):
        # on the FMLS line the engine compares mu with mu_fmls, whose
        # sigma**alpha overflows here
        params = StableModelParams(1.5, -0.5, 1e300, -1.0)
        with pytest.raises(DomainError, match=r"sigma\*\*alpha"):
            price(params, OptionContract(100.0, 100.0, 0.0, 1.0))

    @pytest.mark.parametrize(
        "params, side, engine, finite",
        [
            (StableModelParams.fmls(1.7, 0.15), "call", "fmls", True),
            # off the FMLS line: E[S_T] is infinite, the price a lattice value
            (StableModelParams.from_beta(1.7, -0.3, 0.15), "call", "lattice", False),
            (StableModelParams.fmls(2.0, 0.15), "call", "lattice", True),
            # on the FMLS line with another drift the lattice prices it
            (StableModelParams(1.7, 1.7 - 2.0, 0.15, -0.01), "call", "lattice", True),
            (StableModelParams.fmls(1.7, 0.15), "put", "fmls", True),
        ],
        ids=["fmls", "off-line-lattice", "alpha-two", "on-line-lattice", "parity-put"],
    )
    def test_result_says_what_it_is(self, params, side, engine, finite):
        contract = OptionContract(100.0, 110.0, 0.01, 0.5, side)
        result = price(params, contract)
        assert (result.engine, result.expectation_finite) == (engine, finite)
        assert result.via_parity == (side == "put")

    def test_result_fields_default_for_positional_construction(self):
        result = PriceResult(8.0, 14, 1e-5, True)
        assert (result.via_parity, result.engine, result.expectation_finite) == (
            False, "lattice", False
        )

    def test_engine_choice_stays_in_pricer(self):
        # no other module wires pricer's columns or summation by hand; an
        # option chain keeps its own layout and prices its rounds on it, and
        # the CLI takes the stop rule's defaults from pricer
        package = Path(pricer_module.__file__).parent
        imported = [
            (path.name, alias.name)
            for path in sorted(package.glob("*.py"))
            if path.name != "pricer.py"
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ImportFrom)
            and node.module in ("pricer", "stablepricer.pricer")
            for alias in node.names
            if alias.name.startswith("_")
        ]
        assert imported == [
            ("calibrate.py", "_chain_layout"), ("calibrate.py", "_model_calls"),
            ("cli.py", "_MAX_COLUMN"), ("cli.py", "_TOLERANCE"),
        ]


class TestTermTableErrors:
    def test_put_is_rejected(self):
        contract = OptionContract(4300.0, 4000.0, 0.01, 1.0, "put")
        with pytest.raises(DomainError, match="term_table requires a call contract"):
            term_table(golden_params(), contract, 3)

    def test_overflowing_terms_name_their_column(self):
        # (-mu*tau)**(-1/alpha) is about 1e297 at alpha = 1.01, so the terms
        # of column 2 overflow
        params = StableModelParams(1.01, 0.0, 0.2, -1e-300)
        with pytest.raises(ConvergenceError, match="series terms overflowed at column 2$"):
            term_table(params, golden_contract(), 10)


class TestTermTableCsv:
    def test_layout(self):
        table = term_table(golden_params(), golden_contract(), 3)
        text = term_table_csv(table)
        lines = text.strip().split("\n")
        assert lines[0] == ",-1,0,1,2,3"
        assert len(lines) == 1 + 5 + 1  # header, m = 0..4, cumulative row
        assert lines[-1].startswith("Call,")
        # upper-triangle blanks: m=4 row has entries only in the last column
        cells = lines[5].split(",")
        assert cells[0] == "4"
        assert cells[1:5] == ["", "", "", ""]
        assert cells[5] != ""

    def test_forward_only(self):
        table = term_table(golden_params(), golden_contract(), -1)
        text = term_table_csv(table)
        lines = text.strip().split("\n")
        assert lines[0] == ",-1"
        assert lines[1].split(",")[0] == "0"
        assert lines[-1].startswith("Call,")

    def test_precision_flag(self):
        table = term_table(golden_params(), golden_contract(), 2)
        wide = term_table_csv(table, precision=12)
        narrow = term_table_csv(table, precision=3)
        assert wide != narrow
        assert "215.207087835" in wide
        assert "215" in narrow

    @pytest.mark.parametrize("precision", [-1, 2.5, True, None])
    def test_precision_must_be_a_non_negative_int(self, precision):
        # -1 and 2.5 would otherwise raise "unsupported format character"
        table = term_table(golden_params(), golden_contract(), 2)
        with pytest.raises(DomainError, match="precision must be a non-negative int"):
            term_table_csv(table, precision=precision)
