"""End-to-end tests of the command-line interface via main(argv).

Checks output formats, exit codes (0 ok / 2 usage-or-domain / 3
non-convergence), --out byte-identity, determinism under fixed seeds, and
the calibrate JSON schema.
"""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import stablepricer
from stablepricer import (
    ConvergenceError,
    DomainError,
    OptionContract,
    StableModelParams,
    beta_to_theta,
    mu_fmls,
    price_call,
    synthetic_chain,
)
from stablepricer.cli import main

from _support import GOLDEN_MU, golden_contract, golden_params

GOLDEN_FLAGS = [
    "--spot", "4300", "--strike", "4000", "--rate", "0.01", "--maturity", "1",
    "--alpha", "1.5", "--theta", "-0.4", "--sigma", "0.25", "--mu", str(GOLDEN_MU),
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_fresh(script: str) -> subprocess.CompletedProcess:
    """Run a script in a new interpreter that imports this checkout's package."""
    src = str(Path(stablepricer.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True,
        timeout=60,  # a hang fails the test instead of stalling the suite
    )


def run_main_fresh(*argv: str) -> subprocess.CompletedProcess:
    """main(argv) in a new interpreter, so that stderr shows any traceback or
    numpy warning."""
    return run_fresh(
        f"import sys\nfrom stablepricer.cli import main\nsys.exit(main({list(argv)!r}))\n"
    )


# the golden market at tau = 0.5, and models there whose -mu*tau rounds to 0
# and whose (-mu*tau)**(-1/alpha) overflows (argparse takes a value in
# exponent form only after "=")
HALF_YEAR = GOLDEN_FLAGS[:7] + ["0.5"]
UNDERFLOW = GOLDEN_FLAGS[8:-2] + ["--mu=-5e-324"]
SCALE_OVERFLOW = ["--alpha", "1.01", "--theta", "0", "--sigma", "0.2", "--mu=-1e-320"]


SCIPY_MODULES = (
    "def scipy_modules():\n"
    "    return [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
)


class TestImports:
    def test_pricing_path_loads_no_scipy(self):
        # neither importing the package nor pricing an option imports scipy
        script = (
            "import sys, stablepricer, stablepricer.cli\n"
            + SCIPY_MODULES
            + "assert not scipy_modules(), scipy_modules()\n"
            "code = stablepricer.cli.main(['price', '--spot', '100', '--strike',"
            " '95', '--rate', '0.02', '--maturity', '1', '--alpha', '2',"
            " '--theta', '0', '--sigma', '0.2', '--mu', '-0.04'])\n"
            "assert code == 0, code\n"
            "assert not scipy_modules(), scipy_modules()\n"
        )
        done = run_fresh(script)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("price=")

    def test_density_lab_loads_no_scipy(self):
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from stablepricer import density_grid, effective_support\n"
            + SCIPY_MODULES
            + "half = effective_support(1.5, -0.4)\n"
            "grid = density_grid(1.5, -0.4, np.linspace(-half, half, 41))\n"
            "assert grid.values.max() > 0.1\n"
            "assert not scipy_modules(), scipy_modules()\n"
        )
        done = run_fresh(script)
        assert done.returncode == 0, done.stderr

    def test_calibrate_runs_without_scipy(self, chain_files):
        # a finder that refuses every scipy import: the whole ladder, up to
        # the stable rung, needs numpy only
        script = (
            "import sys\n"
            "class NoScipy:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name.split('.')[0] == 'scipy':\n"
            "            raise ImportError(f'scipy refused: {name}')\n"
            "sys.meta_path.insert(0, NoScipy())\n"
            "from stablepricer.cli import main\n"
            f"code = main(['calibrate', '--chain', {chain_files[0]!r},"
            " '--model', 'stable', '--starts', '2'])\n"
            "assert code == 0, code\n"
            + SCIPY_MODULES
            + "assert not scipy_modules(), scipy_modules()\n"
        )
        done = run_fresh(script)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["model"] == "AlphaBetaStable"


class TestPrice:
    def test_golden_price(self, capsys):
        code, out, err = run(capsys, "price", *GOLDEN_FLAGS)
        assert code == 0
        assert out.startswith("price=989.541 ")
        assert "columns_used=16" in out
        assert err == ""

    def test_precision_round_trip(self, capsys):
        code, out, _ = run(capsys, "price", *GOLDEN_FLAGS, "--precision", "17")
        assert code == 0
        printed = float(out.split()[0].split("=")[1])
        direct = price_call(golden_params(), golden_contract()).price
        assert printed == pytest.approx(direct, rel=1e-12)

    def test_check_against_closed_form(self, capsys):
        code, out, _ = run(
            capsys, "price",
            "--spot", "100", "--strike", "95", "--rate", "0.02", "--maturity", "1",
            "--alpha", "2", "--theta", "0", "--sigma", "0.2", "--mu", "-0.04",
            "--tol", "1e-9", "--check",
        )
        assert code == 0
        lines = out.splitlines()
        series = float(lines[0].split()[0].split("=")[1])
        closed = float(lines[1].split()[1].split("=")[1])
        assert series == pytest.approx(closed, rel=1e-5)

    def test_check_uses_the_vol_the_series_prices(self, capsys):
        # the series reads sigma only through mu, so off the default drift
        # it is Black-Scholes at vol sqrt(-2*mu), not sigma*sqrt(2)
        code, out, _ = run(
            capsys, "price",
            "--spot", "100", "--strike", "100", "--rate", "0.01", "--maturity", "1",
            "--alpha", "2", "--theta", "0", "--sigma", "0.2", "--mu", "-0.1",
            "--tol", "1e-9", "--check",
        )
        assert code == 0
        lines = out.splitlines()
        series = float(lines[0].split()[0].split("=")[1])
        closed = float(lines[1].split()[1].split("=")[1])
        assert series == pytest.approx(closed, rel=1e-5)
        assert lines[1].endswith(f"(vol={math.sqrt(0.2):.6g})")

    def test_beta_minus_one_prices_the_fmls_expectation(self, capsys):
        # the drift defaults to the martingale value, so the model is FMLS
        code, out, _ = run(
            capsys, "price",
            "--spot", "4300", "--strike", "4000", "--rate", "0.01", "--maturity", "1",
            "--alpha", "1.6", "--beta", "-1", "--sigma", "0.2",
        )
        assert code == 0
        assert out.startswith("price=725.295 ")

    def test_check_skipped_without_closed_form(self, capsys):
        code, out, _ = run(capsys, "price", *GOLDEN_FLAGS, "--check")
        assert code == 0
        assert "no closed form" in out

    def test_put_side(self, capsys):
        code, out, _ = run(capsys, "price", *GOLDEN_FLAGS, "--side", "put",
                           "--precision", "12")
        call_code, call_out, _ = run(capsys, "price", *GOLDEN_FLAGS,
                                     "--precision", "12")
        assert code == call_code == 0
        put = float(out.split()[0].split("=")[1])
        call = float(call_out.split()[0].split("=")[1])
        forward = 4300.0 - 4000.0 * math.exp(-0.01)
        assert call - put == pytest.approx(forward, rel=1e-9)

    def test_missing_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["price", "--spot", "100"])
        assert err.value.code == 2

    def test_theta_beta_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["price", *GOLDEN_FLAGS, "--beta", "-0.5"])
        assert err.value.code == 2

    def test_domain_error_exit_code(self, capsys):
        bad = list(GOLDEN_FLAGS)
        bad[bad.index("1.5")] = "0.9"  # alpha outside (1, 2]
        code, _, err = run(capsys, "price", *bad)
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "flag, value",
        [("--theta", "nan"), ("--spot", "nan"), ("--strike", "inf"),
         ("--sigma", "inf"), ("--mu", "inf"), ("--rate", "nan")],
    )
    def test_non_finite_input_is_domain_error(self, capsys, flag, value):
        flags = list(GOLDEN_FLAGS)
        flags[flags.index(flag) + 1] = value
        code, out, err = run(capsys, "price", *flags)
        assert (code, out) == (2, "")
        assert "finite" in err

    @pytest.mark.parametrize(
        "command, model, error",
        [
            pytest.param("price", UNDERFLOW, "-mu*tau underflows", id="price"),
            pytest.param("table", UNDERFLOW, "-mu*tau underflows", id="table"),
            pytest.param("price", SCALE_OVERFLOW, "(-mu*tau)**(-1/alpha)", id="price-scale"),
            pytest.param("table", SCALE_OVERFLOW, "(-mu*tau)**(-1/alpha)", id="table-scale"),
            # the default drift mu_fmls overflows with sigma**alpha
            pytest.param(
                "price", ["--alpha", "1.5", "--beta", "0", "--sigma", "1e300"],
                "sigma**alpha", id="price-drift",
            ),
            pytest.param(
                "mc", ["--alpha", "1.5", "--sigma", "1e300", "--paths", "100"],
                "sigma**alpha", id="mc-drift",
            ),
        ],
    )
    def test_underflowing_mu_is_domain_error(self, command, model, error):
        # one error line, not a traceback
        extra = ["--nmax", "3"] if command == "table" else []
        done = run_main_fresh(command, *HALF_YEAR, *model, *extra)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.startswith(f"error: {error}")
        assert done.stderr.count("\n") == 1

    def test_discount_overflow_is_domain_error(self, capsys):
        flags = list(GOLDEN_FLAGS)
        flags[flags.index("--rate") + 1] = "-800"
        code, out, err = run(capsys, "price", *flags)
        assert (code, out) == (2, "")
        assert err.startswith("error: rate * maturity") and err.count("\n") == 1

    def test_discounted_strike_overflow_is_domain_error(self):
        done = run_main_fresh(
            "price", "--spot", "100", "--strike", "100", "--rate", "-709.7",
            "--maturity", "1", "--alpha", "1.6", "--beta", "-1", "--sigma", "0.2",
        )
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.startswith("error: discounted strike K")
        assert done.stderr.count("\n") == 1

    def test_overflowing_po_is_domain_error(self):
        # -mu*tau overflows to inf, where the FMLS tail's sum would never stop
        done = run_main_fresh(
            "price", "--spot", "100", "--strike", "100", "--rate", "0",
            "--maturity", "1e200", "--alpha", "1.6", "--beta", "-1", "--sigma", "1e100",
        )
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.startswith("error: -mu*tau overflows at mu=")
        assert done.stderr.count("\n") == 1

    def test_rate_maturity_overflow_is_domain_error(self):
        # rate * maturity is +inf in float arithmetic
        done = run_main_fresh(
            "price", "--spot", "100", "--strike", "100", "--rate", "1e300",
            "--maturity", "1e10", "--alpha", "1.6", "--beta", "-1", "--sigma", "0.2",
        )
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == "error: rate * maturity must be finite, got inf\n"

    def test_negative_precision_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["price", *GOLDEN_FLAGS, "--precision", "-1"])
        assert err.value.code == 2
        assert "--precision" in capsys.readouterr().err

    def test_non_convergence_exit_code(self, capsys):
        code, _, err = run(capsys, "price", *GOLDEN_FLAGS, "--max-column", "3")
        assert code == 3
        assert err.startswith("error: non-convergence:")

    def test_odd_cap_at_alpha_two_exit_code(self, capsys):
        # at alpha = 2 the column after an odd cap is exactly 0; a quiet
        # final column alone does not make the series stable
        flags = [
            "--spot", "4300", "--strike", "4000", "--rate", "0.01",
            "--maturity", "1", "--alpha", "2", "--theta", "0",
            "--sigma", "0.25", "--mu", "-0.0625", "--tol", "1e-8",
        ]
        code, _, err = run(capsys, "price", *flags, "--max-column", "3")
        assert code == 3
        assert "did not stabilize within 3 columns" in err

    def test_outside_diamond_warning(self, capsys):
        flags = list(GOLDEN_FLAGS)
        flags[flags.index("-0.4")] = "-0.7"
        code, out, err = run(capsys, "price", *flags)
        assert code == 0
        assert "outside the Feller-Takayasu diamond" in err


class TestTable:
    def test_layout(self, capsys):
        code, out, _ = run(capsys, "table", *GOLDEN_FLAGS, "--nmax", "3")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == ",-1,0,1,2,3"
        assert lines[1].startswith("0,215.207,37.0068,")
        assert lines[-1].startswith("Call,")

    def test_forward_only(self, capsys):
        code, out, _ = run(capsys, "table", *GOLDEN_FLAGS, "--nmax", "-1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == ",-1"
        assert lines[1] == "0,215.207"

    def test_out_is_byte_identical(self, capsys, tmp_path):
        path = tmp_path / "table.csv"
        code, _, _ = run(capsys, "table", *GOLDEN_FLAGS, "--nmax", "5",
                         "--out", str(path))
        assert code == 0
        code, out, _ = run(capsys, "table", *GOLDEN_FLAGS, "--nmax", "5")
        assert code == 0
        assert path.read_bytes() == out.encode()


class TestCurve:
    BASE = [
        "--spot", "100", "--strike", "100", "--rate", "0.01", "--maturity", "1",
        "--sigma", "0.25",
    ]

    def test_theta_sweep_marks_diamond(self, capsys):
        code, out, _ = run(
            capsys, "curve", *self.BASE, "--alpha", "1.5",
            "--sweep", "theta", "--start", "-0.6", "--stop", "0.6", "--step", "0.3",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "theta,price,in_diamond,status"
        assert len(lines) == 6
        flags = [line.split(",")[2] for line in lines[1:]]
        assert flags == ["false", "true", "true", "true", "false"]
        assert all(line.endswith(",ok") for line in lines[1:])

    def test_alpha_sweep_with_beta(self, capsys):
        code, out, _ = run(
            capsys, "curve", *self.BASE, "--beta", "-0.5",
            "--sweep", "alpha", "--start", "1.4", "--stop", "2.0", "--step", "0.2",
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 5
        prices = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(p > 0.0 for p in prices)

    def test_non_convergent_rows_marked_not_fatal(self, capsys):
        code, out, _ = run(
            capsys, "curve",
            "--spot", "100", "--strike", "100", "--rate", "0.01",
            "--maturity", "0.5", "--sigma", "0.1",
            "--alpha", "1.5", "--theta", "-0.4", "--mu", "-0.02",
            "--sweep", "spot", "--start", "100", "--stop", "500", "--step", "100",
        )
        assert code == 0
        lines = out.splitlines()
        statuses = [line.split(",")[-1] for line in lines[1:]]
        assert statuses[0] == "ok"
        assert "non-convergent" in statuses

    def test_domain_error_rows_marked_not_fatal(self):
        # (-mu*tau)**(-1/alpha) overflows at every alpha of the sweep
        done = run_main_fresh(
            "curve", *HALF_YEAR, *SCALE_OVERFLOW[2:],
            "--sweep", "alpha", "--start", "1.01", "--stop", "1.03", "--step", "0.01",
        )
        assert (done.returncode, done.stderr) == (0, "")
        lines = done.stdout.splitlines()
        assert [line.split(",")[-1] for line in lines[1:]] == ["domain-error"] * 3

    @pytest.mark.parametrize(
        "sweep, flags, build, statuses",
        [
            (
                "theta",
                ["--alpha", "1.5", "--mu", str(GOLDEN_MU), "--start", "-0.6",
                 "--stop", "0.6", "--step", "0.048"],
                lambda x: (StableModelParams(1.5, x, 0.25, GOLDEN_MU), 100.0),
                {"ok"},
            ),
            (
                "alpha",
                ["--beta", "-0.5", "--start", "0.9", "--stop", "2.1",
                 "--step", "0.05"],
                lambda x: (
                    StableModelParams(
                        x, beta_to_theta(x, -0.5), 0.25, mu_fmls(x, 0.25)
                    ),
                    100.0,
                ),
                {"ok", "domain-error"},
            ),
            (
                "spot",
                ["--alpha", "1.5", "--theta", "-0.4", "--mu", "-0.02",
                 "--start", "70", "--stop", "160", "--step", "10"],
                lambda x: (StableModelParams(1.5, -0.4, 0.25, -0.02), x),
                {"ok", "non-convergent"},
            ),
        ],
        ids=["theta", "alpha", "spot"],
    )
    def test_rows_equal_explicit_prices(
        self, capsys, sweep, flags, build, statuses
    ):
        # every row is price_call on the point's model and contract built
        # by hand; a failed build or price marks the row's status
        code, out, _ = run(
            capsys, "curve", *self.BASE, *flags, "--sweep", sweep,
            "--precision", "17",
        )
        assert code == 0
        seen = set()
        for line in out.splitlines()[1:]:
            cells = line.split(",")
            x = float(cells[0])
            try:
                params, spot = build(x)
                result = price_call(
                    params, OptionContract(spot, 100.0, 0.01, 1.0)
                )
            except DomainError:
                expected = [cells[0], "", "", "domain-error"]
            except ConvergenceError:
                expected = [cells[0], "", "", "non-convergent"]
            else:
                flag = str(result.diamond_flag).lower()
                expected = [cells[0], "%.17g" % result.price, flag, "ok"]
            assert cells == expected
            seen.add(cells[3])
        assert seen == statuses

    def test_sweep_validation(self, capsys):
        code, _, err = run(
            capsys, "curve", *self.BASE, "--alpha", "1.5", "--theta", "-0.4",
            "--sweep", "theta", "--start", "0", "--stop", "0.4", "--step", "0.2",
        )
        assert code == 2
        assert "drop --theta/--beta" in err
        code, _, err = run(
            capsys, "curve", *self.BASE, "--alpha", "1.5",
            "--sweep", "theta", "--start", "0", "--stop", "0.4", "--step", "-0.2",
        )
        assert code == 2
        for start, stop, step in [("0", "0.4", "nan"), ("0", "inf", "0.2"),
                                  ("nan", "0.4", "0.2")]:
            code, _, err = run(
                capsys, "curve", *self.BASE, "--alpha", "1.5", "--sweep", "theta",
                "--start", start, "--stop", stop, "--step", step,
            )
            assert code == 2
            assert "must be finite" in err


class TestDensityAndSample:
    def test_density_gaussian_value(self, capsys):
        code, out, _ = run(
            capsys, "density", "--alpha", "2", "--theta", "0",
            "--xmax", "2", "--points", "5",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "abscissa,density"
        center = lines[3].split(",")
        assert center[0] == "0"
        assert float(center[1]) == pytest.approx(1.0 / (2.0 * math.sqrt(math.pi)),
                                                 rel=1e-5)

    def test_density_non_finite_bounds(self, capsys):
        for bounds in (["--xmax", "inf"], ["--xmin", "nan", "--xmax", "2"]):
            code, out, err = run(
                capsys, "density", "--alpha", "1.5", "--theta", "0", *bounds,
                "--points", "5",
            )
            assert code == 2
            assert out == ""
            assert "must be finite" in err

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_density_points_below_one(self, capsys, points):
        code, out, err = run(
            capsys, "density", "--alpha", "1.5", "--theta", "0", "--points", points
        )
        assert (code, out) == (2, "")
        assert err == f"error: --points must be >= 1, got {points}\n"

    def test_sample_deterministic(self, capsys):
        args = ["sample", "--alpha", "1.6", "--beta", "-0.5",
                "--count", "64", "--seed", "42"]
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        lines = out1.splitlines()
        assert lines[0] == "draw"
        assert len(lines) == 65

    def test_sample_seed_changes_output(self, capsys):
        base = ["sample", "--alpha", "1.6", "--beta", "-0.5", "--count", "64"]
        _, out1, _ = run(capsys, *base, "--seed", "1")
        _, out2, _ = run(capsys, *base, "--seed", "2")
        assert out1 != out2


class TestMc:
    FLAGS = [
        "--spot", "100", "--strike", "100", "--rate", "0.02", "--maturity", "1",
        "--alpha", "1.8", "--sigma", "0.2", "--paths", "5000", "--seed", "1",
    ]

    def test_line_format(self, capsys):
        code, out, _ = run(capsys, "mc", *self.FLAGS)
        assert code == 0
        assert re.match(r"^price=[0-9.]+ std_error=[0-9.eE+-]+$", out.strip())

    def test_check_reports_series_gap(self, capsys):
        code, out, _ = run(capsys, "mc", *self.FLAGS, "--check")
        assert code == 0
        lines = out.splitlines()
        assert lines[1].startswith("series=")
        assert "abs_diff_over_se=" in lines[1]

    OUT_OF_THE_MONEY = [
        "--spot", "100", "--strike", "115", "--rate", "0", "--maturity", "0.1",
        "--alpha", "1.9", "--sigma", "0.1", "--paths", "20", "--check",
    ]

    def test_check_with_every_path_out_of_the_money(self):
        # every payoff is 0, so std_error is 0 and the series price is
        # infinitely many standard errors away, with no traceback
        done = run_main_fresh("mc", *self.OUT_OF_THE_MONEY)
        assert (done.returncode, done.stderr) == (0, "")
        lines = done.stdout.splitlines()
        assert lines[0] == "price=0 std_error=0"
        assert lines[1].startswith("series=") and lines[1].endswith(" abs_diff_over_se=inf")

    def test_check_zero_std_error_and_equal_prices(self, capsys, monkeypatch):
        class Zero:
            price = 0.0

        monkeypatch.setattr("stablepricer.cli.fmls_call", lambda *args, **kwargs: Zero)
        code, out, _ = run(capsys, "mc", *self.OUT_OF_THE_MONEY)
        assert (code, out) == (0, "price=0 std_error=0\nseries=0 abs_diff_over_se=0\n")


def write_chain_csv(path, chain):
    lines = ["as_of,spot,rate,maturity,strike,side,market_price"]
    for q in chain.quotes:
        lines.append(
            f"{chain.as_of},{q.spot},{q.rate},{q.maturity},{q.strike},"
            f"{q.side},{q.market_price!r}"
        )
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture(scope="module")
def chain_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("chains")
    scale = 0.25 / math.sqrt(2.0)
    truth = StableModelParams(alpha=2.0, theta=0.0, sigma=scale, mu=-scale * scale)
    paths = []
    for i, spot in enumerate((100.0, 101.0)):
        chain = synthetic_chain(
            truth, spot, 0.01, [0.5, 1.0],
            [0.9 * spot, 0.95 * spot, spot, 1.05 * spot, 1.1 * spot],
            as_of=f"2026-01-0{i + 1}",
        )
        path = root / f"chain_{i}.csv"
        write_chain_csv(path, chain)
        paths.append(str(path))
    return paths


class TestCalibrate:
    def test_single_file_report(self, capsys, chain_files):
        code, out, _ = run(
            capsys, "calibrate", "--chain", chain_files[0],
            "--model", "bs", "--starts", "2",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["model"] == "BS"
        assert payload["quotes"] == 10
        assert payload["sigma"] == pytest.approx(0.25, abs=0.005)
        assert payload["beta_identified"] is False
        assert payload["converged"] is True

    def test_carrwu_reports_beta_minus_one(self, capsys, chain_files):
        code, out, _ = run(
            capsys, "calibrate", "--chain", chain_files[0],
            "--model", "carrwu", "--starts", "2",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["model"] == "CarrWu"
        assert payload["beta"] == -1.0

    def test_calls_only_filters_quotes(self, capsys, chain_files):
        code, out, _ = run(
            capsys, "calibrate", "--chain", chain_files[0],
            "--model", "bs", "--starts", "2", "--calls-only",
        )
        assert code == 0
        assert json.loads(out)["quotes"] == 6  # strikes at/above spot, 2 maturities

    def test_filter_flags_mutually_exclusive(self, chain_files):
        with pytest.raises(SystemExit) as err:
            main(["calibrate", "--chain", chain_files[0], "--model", "bs",
                  "--calls-only", "--puts-only"])
        assert err.value.code == 2

    def test_malformed_csv_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "as_of,spot,rate,maturity,strike,side,market_price\n"
            "d,100,0.01,1.0,95,call,9.1\n"
            "d,100,0.01,oops,95,call,9.1\n"
        )
        code, _, err = run(capsys, "calibrate", "--chain", str(bad), "--model", "bs")
        assert code == 2
        assert "row 3" in err

    @pytest.mark.parametrize("case", ["missing chain", "directory chain", "bad out"])
    def test_file_error_exit_code(self, capsys, tmp_path, case):
        argv = {
            "missing chain": ["calibrate", "--chain", str(tmp_path / "missing.csv"),
                              "--model", "bs"],
            "directory chain": ["calibrate", "--chain", str(tmp_path), "--model", "bs"],
            "bad out": ["density", "--alpha", "2", "--theta", "0", "--points", "5",
                        "--out", str(tmp_path / "no" / "dir" / "x.csv")],
        }[case]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag, value", [("--seed", "-1"), ("--starts", "0")])
    def test_bad_optimizer_setting_exit_code(self, chain_files, flag, value):
        # in a fresh interpreter, so that stderr shows any traceback
        done = run_main_fresh(
            "calibrate", "--chain", chain_files[0], "--model", "bs", flag, value
        )
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1

    def test_multi_file_aggregate(self, capsys, chain_files):
        code, out, _ = run(
            capsys, "calibrate", "--chain", *chain_files,
            "--model", "bs", "--starts", "2",
        )
        assert code == 0
        payload = json.loads(out)
        assert {r["file"] for r in payload["reports"]} == set(chain_files)
        assert set(payload["aggregate"]) == {
            "sigma", "alpha", "beta", "mu", "aggregated_error"
        }
        assert payload["aggregate"]["sigma"]["mean"] == pytest.approx(0.25, abs=0.005)
        assert payload["aggregate"]["sigma"]["std"] >= 0.0

    def test_out_writes_identical_json(self, capsys, chain_files, tmp_path):
        path = tmp_path / "report.json"
        code, _, _ = run(
            capsys, "calibrate", "--chain", chain_files[0],
            "--model", "bs", "--starts", "2", "--out", str(path),
        )
        assert code == 0
        code, out, _ = run(
            capsys, "calibrate", "--chain", chain_files[0],
            "--model", "bs", "--starts", "2",
        )
        assert code == 0
        assert path.read_text() == out
