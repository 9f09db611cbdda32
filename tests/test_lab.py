"""Tests for density inversion, stable variate generation, and MC pricing.

Oracles used here:
  * closed form at the origin: g(0) = Gamma(1/alpha)*cos(theta*pi/(2*alpha))
    / (alpha*pi), from the Fourier integral with u = k**alpha;
  * the alpha=2 member is N(0, 2) exactly;
  * power-law tails decay like |x|**-(1+alpha), so g(2x)/g(x) ->
    2**-(1+alpha) on the heavy side;
  * 40-digit mpmath power and asymptotic series of the density
    (_support.series_density) out to |x| = 1e4;
  * the risk-neutral drift makes exp(mu*tau)*E[exp(y)] = 1, testable on the
    simulated paths directly.
"""

import math
import os
import sys
import threading
import time

import numpy as np
import pytest
from scipy import stats

from stablepricer import (
    ConvergenceError,
    DomainError,
    OptionContract,
    SamplerConfig,
    density_grid,
    effective_support,
    mc_price_fmls,
    mu_fmls,
    sample_stable,
    stable_density,
)
from stablepricer import lab
from stablepricer.lab import s1_scale_factor

from _support import (
    gaussian_pdf_var2,
    reference_sample_stable,
    sampler_ks_pvalue,
    series_density,
)


class TestDensity:
    @pytest.mark.parametrize(
        "alpha,theta",
        [(1.5, -0.4), (1.3, 0.2), (1.9, -0.1), (2.0, 0.0)],
    )
    def test_origin_closed_form(self, alpha, theta):
        want = (
            math.gamma(1.0 / alpha)
            * math.cos(theta * math.pi / (2.0 * alpha))
            / (alpha * math.pi)
        )
        assert stable_density(alpha, theta, 0.0) == pytest.approx(want, rel=1e-10)

    def test_gaussian_member(self):
        for x in np.linspace(-8.0, 8.0, 41):
            got = stable_density(2.0, 0.0, float(x))
            assert got == pytest.approx(gaussian_pdf_var2(float(x)), abs=1e-10)

    def test_skew_reflection_symmetry(self):
        # g(x; theta) = g(-x; -theta)
        for x in (0.7, 1.7, 4.0, -9.0):
            a = stable_density(1.5, 0.3, x)
            b = stable_density(1.5, -0.3, -x)
            assert a == pytest.approx(b, rel=1e-10)

    def test_power_tail_ratio(self):
        # far out, g(2x)/g(x) approaches 2**-(1+alpha) on both tails
        alpha, theta = 1.5, -0.4
        want = 2.0 ** -(1.0 + alpha)
        for x in (-40.0, 40.0):
            ratio = stable_density(alpha, theta, 2 * x) / stable_density(
                alpha, theta, x
            )
            assert ratio == pytest.approx(want, rel=0.05)

    def test_boundary_theta_kills_right_tail(self):
        # at theta = alpha-2 the right tail decays faster than any power
        alpha = 1.6
        light = stable_density(alpha, alpha - 2.0, 10.0)
        heavy = stable_density(alpha, alpha - 2.0, -10.0)
        assert abs(light) < 1e-12
        assert heavy > 1e-4

    def test_quick_normalization(self):
        alpha, theta = 1.6, -0.3
        support = effective_support(alpha, theta, 1e-7)
        core = np.linspace(-12.0, 12.0, 2401)
        right = np.geomspace(12.0, support, 300)[1:]
        xs = np.concatenate([-right[::-1], core, right])
        mass = float(np.trapezoid(stable_density(alpha, theta, xs), xs))
        assert mass == pytest.approx(1.0, abs=1e-5)

    def test_outside_diamond_rejected(self):
        with pytest.raises(DomainError):
            stable_density(1.5, 0.7, 0.0)

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            density_grid(1.5, 0.0, np.array([0.0, 1.0, 1.0]))
        with pytest.raises(DomainError):
            density_grid(1.5, 0.0, np.array([]))

    def test_non_finite_abscissae_rejected(self):
        for x in (math.nan, math.inf, np.array([0.0, -math.inf])):
            with pytest.raises(DomainError, match="finite"):
                stable_density(1.5, 0.0, x)
        for xs in ([0.0, 1.0, math.inf], [math.nan, 1.0]):
            with pytest.raises(DomainError, match="finite"):
                density_grid(1.5, 0.0, np.array(xs))

    def test_grid_is_one_density_call(self, monkeypatch):
        calls = []
        real = lab.stable_density

        def counting(alpha, theta, x):
            calls.append(x)
            return real(alpha, theta, x)

        monkeypatch.setattr(lab, "stable_density", counting)
        grid = density_grid(1.5, 0.0, np.linspace(-2.0, 2.0, 9))
        assert len(calls) == 1
        assert grid.values.tobytes() == real(1.5, 0.0, grid.abscissae).tobytes()

    def test_grid_csv(self):
        grid = density_grid(1.8, 0.1, np.array([-1.0, 0.0, 1.0]))
        lines = grid.to_csv(precision=8).splitlines()
        assert lines[0] == "abscissa,density"
        assert len(lines) == 4
        assert lines[2].startswith("0,")


class TestContourRule:
    @pytest.mark.parametrize(
        "alpha,theta",
        # all but (1.5, -0.4) lie 5% inside an edge of the diamond
        [(1.05, 0.9025), (1.1, -0.855), (1.5, -0.4), (1.95, 0.0475)],
    )
    def test_matches_series(self, alpha, theta):
        right = np.geomspace(1e-3, 1e4, 200)
        xs = np.concatenate([-right[::-1], [0.0], right])
        np.testing.assert_allclose(
            stable_density(alpha, theta, xs),
            series_density(alpha, theta, xs),
            rtol=1e-8,
            atol=1e-10,
        )

    def test_array_matches_scalar_bit_for_bit(self):
        # near this edge some points settle on 128 nodes and others climb on
        xs = np.linspace(-3.0, 3.0, 61)
        grid = stable_density(1.05, 0.9025, xs)
        scalar = np.array([stable_density(1.05, 0.9025, float(x)) for x in xs])
        assert scalar.tobytes() == grid.tobytes()
        assert stable_density(1.05, 0.9025, xs[::7]).tobytes() == grid[::7].tobytes()

    def test_unsettled_ladder_raises(self):
        # on the lower edge at alpha = 1.01 the ray's sector is 0.016 rad wide
        with pytest.raises(ConvergenceError, match=r"x=0\.5$"):
            stable_density(1.01, 1.01 - 2.0, 0.5)

    def test_rejects_two_dimensional_input(self):
        with pytest.raises(DomainError):
            stable_density(1.5, 0.0, np.zeros((2, 2)))


class TestEffectiveSupport:
    def test_gaussian_width_matches_erfcinv(self):
        from scipy.special import erfcinv

        for mass in np.geomspace(1e-12, 0.5, 40):
            assert effective_support(2.0, 0.0, mass) == pytest.approx(
                2.0 * float(erfcinv(mass)), rel=1e-14
            )

    def test_monotone_in_tail_mass(self):
        loose = effective_support(1.5, -0.4, 1e-4)
        tight = effective_support(1.5, -0.4, 1e-7)
        assert 0.0 < loose < tight

    def test_validation(self):
        with pytest.raises(DomainError):
            effective_support(1.5, -0.4, 0.0)
        with pytest.raises(DomainError):
            effective_support(1.5, 0.9, 1e-6)


class TestSampler:
    def test_config_validation(self):
        with pytest.raises(DomainError):
            SamplerConfig(alpha=0.9, beta=0.0, count=10, seed=0)
        with pytest.raises(DomainError):
            SamplerConfig(alpha=1.5, beta=1.5, count=10, seed=0)
        with pytest.raises(DomainError):
            SamplerConfig(alpha=1.5, beta=0.0, count=0, seed=0)

    def test_deterministic(self):
        cfg = SamplerConfig(alpha=1.6, beta=-0.5, count=5000, seed=42)
        assert np.array_equal(sample_stable(cfg), sample_stable(cfg))
        other = SamplerConfig(alpha=1.6, beta=-0.5, count=5000, seed=43)
        assert not np.array_equal(sample_stable(cfg), sample_stable(other))

    def test_full_blocks_are_partition_independent(self):
        # the first full generator block is identical no matter how many
        # further blocks the call goes on to produce
        short = sample_stable(SamplerConfig(alpha=1.6, beta=-0.5, count=65536, seed=5))
        long = sample_stable(SamplerConfig(alpha=1.6, beta=-0.5, count=130000, seed=5))
        assert np.array_equal(short, long[:65536])

    def test_gaussian_member(self):
        draws = sample_stable(SamplerConfig(alpha=2.0, beta=0.0, count=200_000, seed=7))
        assert float(draws.var()) == pytest.approx(2.0, abs=0.05)
        ks = stats.kstest(draws, stats.norm(scale=math.sqrt(2.0)).cdf)
        assert ks.pvalue > 0.01

    def test_skewed_draws_match_density(self):
        assert sampler_ks_pvalue(1.4, 0.3) > 0.01

    def test_s1_scale_factor_symmetric_case(self):
        assert s1_scale_factor(1.7, 0.0) == 1.0
        assert s1_scale_factor(2.0, -1.0) == 1.0


def _use_cores(monkeypatch, cores: int) -> None:
    """Make lab see `cores` usable cores."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)


def _record_blocks(monkeypatch, record, fail=None):
    """Wrap lab's block generator: record(block) runs on the worker that
    makes the block, and block `fail` raises there."""
    real = lab._block_generator

    def generator(seed, block):
        if block == fail:
            raise RuntimeError(f"block {block} failed")
        record(block)
        return real(seed, block)

    monkeypatch.setattr(lab, "_block_generator", generator)


class TestThreadedSampler:
    # blocks run on one thread per usable core; the bits must be the
    # serial loop's whatever the count of cores
    BLOCK = 1 << 16

    @pytest.mark.parametrize("cores", [1, 2, 3, 4])
    @pytest.mark.parametrize("alpha, beta", [(1.6, -1.0), (1.6, 0.0), (1.6, 0.5), (2.0, 0.0)])
    def test_same_bits_as_serial_loop(self, monkeypatch, cores, alpha, beta):
        # a short switch interval interleaves the workers' Python steps; the
        # counts end in full and in partial rounds, 100000 is the benchmark's
        _use_cores(monkeypatch, cores)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        block = self.BLOCK
        try:
            for count in (
                1, block - 1, block, block + 1, 100_000, 2 * block, 3 * block + 1, 5 * block + 17,
            ):
                config = SamplerConfig(alpha=alpha, beta=beta, count=count, seed=count)
                assert np.array_equal(sample_stable(config), reference_sample_stable(config))
        finally:
            sys.setswitchinterval(interval)

    def test_mc_same_on_one_and_two_cores(self, monkeypatch):
        # and on three, at 1e5 paths as in the benchmark and at 2e5; equal
        # to the payoff statistics of the serial draws, formed with
        # full-size temporaries and numpy's var
        alpha, sigma, seed = 1.7, 0.2, 3
        contract = TestMonteCarlo.CONTRACT
        for paths in (100_000, 200_000):
            results = []
            for cores in (1, 2, 3):
                _use_cores(monkeypatch, cores)
                results.append(mc_price_fmls(alpha, sigma, contract, paths=paths, seed=seed))
            draws = reference_sample_stable(SamplerConfig(alpha, -1.0, paths, seed))
            tau = contract.maturity
            growth = (contract.rate + mu_fmls(alpha, sigma)) * tau
            y = sigma * tau ** (1.0 / alpha) * draws
            payoff = np.maximum(contract.spot * np.exp(growth + y) - contract.strike, 0.0)
            disc = math.exp(-contract.rate * tau)
            serial = (
                disc * float(payoff.mean()),
                disc * math.sqrt(float(payoff.var(ddof=1)) / paths),
            )
            assert results == [serial, serial, serial]

    def test_blocks_split_over_usable_cores(self, monkeypatch):
        # worker j of 3 takes blocks j, j + 3, ...; the caller is worker 0
        _use_cores(monkeypatch, 3)
        makers = {}
        _record_blocks(
            monkeypatch, lambda block: makers.update({block: threading.current_thread()})
        )
        before = threading.active_count()
        sample_stable(SamplerConfig(alpha=1.6, beta=0.0, count=5 * self.BLOCK, seed=0))
        assert threading.active_count() == before
        assert makers[0] is makers[3] is threading.current_thread()
        assert makers[1] is makers[4]
        assert len({makers[0], makers[1], makers[2]}) == 3

    @pytest.mark.parametrize("cores, blocks", [(4, 1), (1, 3)])
    def test_one_block_or_core_runs_on_caller(self, monkeypatch, cores, blocks):
        _use_cores(monkeypatch, cores)
        threads = set()
        _record_blocks(
            monkeypatch,
            lambda block: threads.add((threading.current_thread(), threading.active_count())),
        )
        before = threading.active_count()
        sample_stable(SamplerConfig(alpha=1.6, beta=0.0, count=blocks * self.BLOCK, seed=0))
        assert threads == {(threading.current_thread(), before)}

    @pytest.mark.parametrize("failing", [1, 0])
    def test_worker_exception_raised_after_join(self, monkeypatch, failing):
        # worker 0 (the caller) takes blocks 0 and 2, worker 1 blocks 1 and
        # 3; the failing block's worker stops there, and the other, slowed,
        # still makes both its blocks before the caller raises
        _use_cores(monkeypatch, 2)
        made = []

        def slow(block):
            time.sleep(0.05)
            made.append(block)

        _record_blocks(monkeypatch, slow, fail=failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match=f"block {failing} failed"):
            sample_stable(SamplerConfig(alpha=1.6, beta=0.0, count=4 * self.BLOCK, seed=0))
        assert threading.active_count() == before
        assert sorted(made) == [1 - failing, 3 - failing]

    def test_failed_block_in_another_share_raises_without_hanging(self, monkeypatch):
        # the last round is blocks 0 and 1 (1000 draws), so worker 1's share
        # reaches into block 0, which the caller fails to draw: worker 1 must
        # give up on it rather than wait for it or read it
        _use_cores(monkeypatch, 2)
        _record_blocks(monkeypatch, lambda block: None, fail=0)
        raised = []

        def call():
            try:
                sample_stable(SamplerConfig(alpha=1.6, beta=0.0, count=self.BLOCK + 1000, seed=0))
            except RuntimeError as exc:
                raised.append(str(exc))

        before = threading.active_count()
        caller = threading.Thread(target=call, daemon=True)
        caller.start()
        caller.join(timeout=30)
        assert not caller.is_alive()
        assert raised == ["block 0 failed"]
        assert threading.active_count() == before

    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_shares_partition_each_round(self, workers):
        # equal shares to one element, in order and covering the round; in a
        # full round each is the worker's own block
        first = 3 * workers * self.BLOCK
        for size in {1, workers + 1, self.BLOCK + 1000, workers * self.BLOCK - 1}:
            shares = [lab._share(first, size, j, workers) for j in range(workers)]
            bounds = [first] + [hi for _, hi in shares]
            assert [lo for lo, _ in shares] == bounds[:-1] and bounds[-1] == first + size
            lengths = [hi - lo for lo, hi in shares]
            assert min(lengths) >= 0 and max(lengths) - min(lengths) <= 1
        assert [lab._share(first, workers * self.BLOCK, j, workers) for j in range(workers)] == [
            (first + j * self.BLOCK, first + (j + 1) * self.BLOCK) for j in range(workers)
        ]

    def test_workers_see_callers_error_state(self, monkeypatch):
        # numpy 2 keeps np.errstate in a context variable, which a thread
        # started without the caller's context does not see
        _use_cores(monkeypatch, 2)
        states = {}
        _record_blocks(monkeypatch, lambda block: states.update({block: np.geterr()["over"]}))
        with np.errstate(over="raise"):
            sample_stable(SamplerConfig(alpha=1.6, beta=0.0, count=2 * self.BLOCK, seed=0))
        assert states == {0: "raise", 1: "raise"}


class TestMonteCarlo:
    CONTRACT = OptionContract(spot=100.0, strike=100.0, rate=0.02, maturity=1.0)

    def test_deterministic(self):
        a = mc_price_fmls(1.7, 0.2, self.CONTRACT, paths=20_000, seed=3)
        b = mc_price_fmls(1.7, 0.2, self.CONTRACT, paths=20_000, seed=3)
        assert a == b

    def test_martingale_drift(self):
        # exp(mu*tau) * E[exp(y)] = 1 is what makes the discounted spot a
        # martingale; check it on the simulated paths within 4 SE
        alpha, sigma, tau = 1.7, 0.2, 1.0
        mu = mu_fmls(alpha, sigma)
        draws = sample_stable(
            SamplerConfig(alpha=alpha, beta=-1.0, count=200_000, seed=2)
        )
        growth = np.exp(sigma * tau ** (1.0 / alpha) * draws)
        factor = math.exp(mu * tau) * float(growth.mean())
        se = math.exp(mu * tau) * float(growth.std(ddof=1)) / math.sqrt(growth.size)
        assert abs(factor - 1.0) < 4.0 * se

    def test_gaussian_member_matches_black_scholes(self):
        from stablepricer import black_scholes, bs_equivalent_vol

        mc, se = mc_price_fmls(2.0, 0.15, self.CONTRACT, paths=200_000, seed=3)
        bs = black_scholes(self.CONTRACT, bs_equivalent_vol(0.15))
        assert abs(mc - bs) < 4.0 * se

    def test_put_side_rejected(self):
        put = OptionContract(
            spot=100.0, strike=100.0, rate=0.02, maturity=1.0, side="put"
        )
        with pytest.raises(DomainError):
            mc_price_fmls(1.7, 0.2, put, paths=1000)

    def test_validation(self):
        with pytest.raises(DomainError):
            mc_price_fmls(1.7, 0.2, self.CONTRACT, paths=1)
