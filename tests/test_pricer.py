"""Series pricer: golden regression, reference table, and structural laws."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stablepricer.core import (
    ConvergenceError,
    DomainError,
    OptionContract,
    StableModelParams,
)
from stablepricer.reference import black_scholes_call, bs_equivalent_vol
from stablepricer.pricer import (
    TermIndex,
    price_call,
    price_call_strikes,
    price_put,
    residue_term,
    term_table,
    term_table_csv,
)

from hypothesis import assume

from _support import (
    GOLDEN_COLUMNS_USED,
    GOLDEN_COLUMN_SUMS,
    GOLDEN_PRICE,
    REFERENCE_CELLS,
    REFERENCE_CUMULATIVE,
    golden_contract,
    golden_params,
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

    def test_positive_mu_rejected(self):
        params = StableModelParams(alpha=1.5, theta=0.0, sigma=0.2, mu=0.01)
        with pytest.raises(DomainError):
            residue_term(params, golden_contract(), TermIndex(0, 0))
        with pytest.raises(DomainError):
            price_call(params, golden_contract())


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
            closed = black_scholes_call(contract, bs_equivalent_vol(sigma))
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

    def test_small_cap_names_failing_strike(self):
        strikes = np.array([4000.0, 4300.0, 12000.0])
        with pytest.raises(ConvergenceError, match="did not stabilize") as err:
            price_call_strikes(
                golden_params(), 4300.0, 0.01, 1.0, strikes,
                tolerance=1e-9, max_column=4,
            )
        assert err.value.strike_index == 2


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
