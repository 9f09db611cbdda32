"""End-to-end tests of the command-line interface via main(argv).

Checks output formats, exit codes (0 ok / 2 usage-or-domain / 3
non-convergence), --out byte-identity, determinism under fixed seeds, and
the calibrate JSON schema.
"""

import importlib
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

# the first stderr line of price and curve when a price is a lattice value at
# alpha < 2, and so not a risk-neutral expectation
LATTICE_WARNING = (
    "warning: the price is a lattice value at alpha < 2, not a risk-neutral "
    "expectation (that needs theta = alpha - 2 and mu = mu_fmls)\n"
)
DIAMOND_WARNING = (
    "warning: (alpha, theta) outside the Feller-Takayasu diamond; "
    "the price is an analytic continuation\n"
)
# a market where from_beta(1.7, -0.3, 0.15), off the FMLS line, prices at 8.0352
OFF_LINE_MARKET = [
    "--spot", "100", "--strike", "110", "--rate", "0.01", "--maturity", "0.5",
    "--sigma", "0.15",
]


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
        # the paper's golden model is off the FMLS line
        assert err == LATTICE_WARNING

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

    @pytest.mark.parametrize(
        "model, out, err",
        [
            (["--alpha", "1.7", "--beta", "-0.3"],
             "price=8.03521 columns_used=14 truncation_estimate=6.54231e-06\n",
             LATTICE_WARNING),
            # on the FMLS line, but not with its martingale drift
            (["--alpha", "1.7", "--beta", "-1", "--mu", "-0.01"],
             "price=2.33464 columns_used=24 truncation_estimate=6.06469e-05\n",
             LATTICE_WARNING),
            (["--alpha", "1.7", "--beta", "-1"],
             "price=2.49914 columns_used=12 truncation_estimate=3.79781e-06\n", ""),
            (["--alpha", "2", "--theta", "0"],
             "price=2.63407 columns_used=12 truncation_estimate=1.33461e-05\n", ""),
            # one warning line: the diamond's says enough
            (["--alpha", "1.7", "--theta", "-0.7"],
             "price=11.8398 columns_used=14 truncation_estimate=8.62312e-06\n",
             DIAMOND_WARNING),
            # the decimal -0.3 is 1 ulp off 1.7 - 2.0, so a second line says so
            (["--alpha", "1.7", "--theta", "-0.3"],
             "price=9.48879 columns_used=14 truncation_estimate=1.46631e-05\n",
             LATTICE_WARNING + "warning: theta = -0.3 is 1 ulp off alpha - 2 = "
             "-0.30000000000000004; --beta -1 sets theta = alpha - 2 exactly\n"),
            (["--alpha", "1.7", "--theta=-0.29999999999999993", "--mu=-0.01"],
             "price=2.33464 columns_used=24 truncation_estimate=6.06469e-05\n",
             LATTICE_WARNING + "warning: theta = -0.29999999999999993 is 2 ulp off alpha - 2 = "
             "-0.30000000000000004; --beta -1 sets theta = alpha - 2 exactly\n"),
            # 5 ulp off is a theta of its own
            (["--alpha", "1.7", "--theta=-0.29999999999999977"],
             "price=9.48879 columns_used=14 truncation_estimate=1.46631e-05\n",
             LATTICE_WARNING),
        ],
        ids=["off-line", "other-drift", "fmls", "alpha-two", "outside-diamond",
             "one-ulp-off", "two-ulp-off-other-drift", "five-ulp-off"],
    )
    def test_warning_when_not_an_expectation(self, model, out, err):
        done = run_main_fresh("price", *OFF_LINE_MARKET, *model)
        assert (done.returncode, done.stdout, done.stderr) == (0, out, err)


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

    @pytest.mark.parametrize(
        "nmax, terms", [("1412", "1000405"), ("1000000000", "500000002500000003")],
        ids=["bound-plus-one", "1e9"],
    )
    def test_too_many_terms_refused(self, nmax, terms):
        # refused before anything is built: the triangle costs about 290
        # bytes a term (70 MB more peak RSS at nmax 700 than at 0)
        done = run_main_fresh("table", *GOLDEN_FLAGS, "--nmax", nmax)
        assert (done.returncode, done.stdout, done.stderr) == (
            2, "", f"error: the table has {terms} terms, more than 1000000\n"
        )

    def test_term_bound_is_the_point_bound(self, capsys, monkeypatch):
        # nmax 2 has 10 terms, the forward term and 9 in the triangle
        monkeypatch.setattr("stablepricer.cli._MAX_POINTS", 10)
        code, out, _ = run(capsys, "table", *GOLDEN_FLAGS, "--nmax", "2")
        assert (code, out.splitlines()[0]) == (0, ",-1,0,1,2")
        code, out, err = run(capsys, "table", *GOLDEN_FLAGS, "--nmax", "3")
        assert (code, out, err) == (2, "", "error: the table has 15 terms, more than 10\n")

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

    @pytest.mark.parametrize(
        "flags, out, err",
        [
            (["--alpha", "1.7", "--sweep", "theta", "--start", "-0.3", "--stop", "0.3",
              "--step", "0.3"],
             "theta,price,in_diamond,status\n-0.3,9.48879,true,ok\n"
             "0,7.37339,true,ok\n0.3,5.52148,true,ok\n",
             LATTICE_WARNING),
            (["--beta", "-1", "--sweep", "alpha", "--start", "1.6", "--stop", "2",
              "--step", "0.2"],
             "alpha,price,in_diamond,status\n1.6,2.51416,true,ok\n"
             "1.8,2.51571,true,ok\n2,2.63407,true,ok\n",
             ""),
            # a fixed decimal theta 1 ulp off alpha - 2 gets price's second
            # line, once per run
            (["--alpha", "1.7", "--theta", "-0.3", "--sweep", "spot", "--start", "90",
              "--stop", "110", "--step", "10"],
             "spot,price,in_diamond,status\n90,4.6456,true,ok\n"
             "100,9.48879,true,ok\n110,12.6148,true,ok\n",
             LATTICE_WARNING + "warning: theta = -0.3 is 1 ulp off alpha - 2 = "
             "-0.30000000000000004; --beta -1 sets theta = alpha - 2 exactly\n"),
            # the sweep's second alpha is 1.6 + 0.1 = 1.7000000000000002,
            # 3 ulps from -0.3 + 2; the note names the first such point
            (["--theta", "-0.3", "--sweep", "alpha", "--start", "1.6", "--stop", "1.8",
              "--step", "0.1"],
             "alpha,price,in_diamond,status\n1.6,13.0988,true,ok\n"
             "1.7,9.48879,false,ok\n1.8,6.80105,false,ok\n",
             LATTICE_WARNING + "warning: theta = -0.3 is 3 ulp off alpha - 2 = "
             "-0.2999999999999998; --beta -1 sets theta = alpha - 2 exactly\n"),
        ],
        ids=["lattice", "expectations", "one-ulp-off", "three-ulps-off-in-an-alpha-sweep"],
    )
    def test_one_warning_per_run(self, flags, out, err):
        done = run_main_fresh("curve", *OFF_LINE_MARKET, *flags)
        assert (done.returncode, done.stdout, done.stderr) == (0, out, err)

    @pytest.mark.parametrize(
        "start, stop, step, count",
        [
            ("-0.5", "0.5", "1e-9", "1000000000"),
            ("0", "1", "1e-6", "1000001"),
            # the span over the step overflows
            ("0", "1", "5e-324", "inf"),
        ],
        ids=["1e9", "bound-plus-one", "overflow"],
    )
    def test_too_many_points_refused(self, start, stop, step, count):
        done = run_main_fresh(
            "curve", *self.BASE, "--alpha", "1.5", "--sweep", "theta",
            f"--start={start}", "--stop", stop, "--step", step,
        )
        assert (done.returncode, done.stdout, done.stderr) == (
            2, "", f"error: the sweep has {count} points, more than 1000000\n"
        )

    def test_point_bound_is_one_constant(self, capsys, monkeypatch):
        monkeypatch.setattr("stablepricer.cli._MAX_POINTS", 3)
        sweep = [*self.BASE, "--alpha", "1.5", "--sweep", "theta", "--start", "0"]
        code, out, _ = run(capsys, "curve", *sweep, "--stop", "0.2", "--step", "0.1")
        assert (code, len(out.splitlines())) == (0, 4)
        code, out, err = run(capsys, "curve", *sweep, "--stop", "0.3", "--step", "0.1")
        assert (code, out, err) == (2, "", "error: the sweep has 4 points, more than 3\n")
        density = ["density", "--alpha", "1.5", "--theta", "0", "--points"]
        code, out, _ = run(capsys, *density, "3")
        assert (code, len(out.splitlines())) == (0, 4)
        code, out, err = run(capsys, *density, "4")
        assert (code, out, err) == (2, "", "error: --points must be <= 3, got 4\n")

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

    @pytest.mark.parametrize(
        "flags, error",
        [
            (["--alpha", "1.5", "--sweep", "theta", "--start", "0.4", "--stop", "0"],
             "--stop must be >= --start"),
            (["--sweep", "theta", "--start", "0", "--stop", "0.4"],
             "--sweep theta requires --alpha"),
            (["--theta", "0", "--sweep", "spot", "--start", "90", "--stop", "110"],
             "--sweep spot requires --alpha"),
            (["--sweep", "alpha", "--start", "1.2", "--stop", "2"],
             "--sweep alpha requires one of --theta or --beta"),
            (["--alpha", "1.5", "--sweep", "spot", "--start", "90", "--stop", "110"],
             "--sweep spot requires one of --theta or --beta"),
        ],
        ids=["stop-below-start", "theta-no-alpha", "spot-no-alpha", "alpha-no-skew",
             "spot-no-skew"],
    )
    def test_sweep_axis_checks(self, capsys, flags, error):
        code, out, err = run(capsys, "curve", *self.BASE, *flags, "--step", "0.2")
        assert (code, out, err) == (2, "", f"error: {error}\n")


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

    def test_density_span_overflow_is_domain_error(self):
        # each bound is finite, but their span overflows; numpy's linspace
        # would warn twice on it, and the grid would not be increasing
        done = run_main_fresh(
            "density", "--alpha", "1.5", "--theta", "0", "--xmax", "1e308", "--points", "3"
        )
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == "error: the span --xmax - --xmin must be finite, got inf\n"
        assert "RuntimeWarning" not in done.stderr

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_density_points_below_one(self, capsys, points):
        code, out, err = run(
            capsys, "density", "--alpha", "1.5", "--theta", "0", "--points", points
        )
        assert (code, out) == (2, "")
        assert err == f"error: --points must be >= 1, got {points}\n"

    @pytest.mark.parametrize("points", ["1000001", "300000000"])
    def test_density_points_above_the_bound(self, points):
        done = run_main_fresh(
            "density", "--alpha", "1.5", "--theta", "0", "--points", points
        )
        assert (done.returncode, done.stdout, done.stderr) == (
            2, "", f"error: --points must be <= 1000000, got {points}\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["sample", "--alpha", "1.5", "--beta", "0", "--count", str(10**15)],
            ["mc", "--spot", "100", "--strike", "100", "--rate", "0", "--maturity", "1",
             "--alpha", "1.6", "--sigma", "0.2", "--paths", str(10**15)],
        ],
        ids=["sample", "mc"],
    )
    def test_unallocatable_count_is_one_error_line(self, argv):
        # 8e15 bytes is beyond a 48-bit address space, so numpy's allocation
        # fails at once on any host
        done = run_main_fresh(*argv)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.startswith("error: out of memory: ")
        assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr

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

    def test_sample_negative_seed_exit_code(self):
        # in a fresh interpreter, so that stderr shows any traceback
        done = run_main_fresh(
            "sample", "--alpha", "1.6", "--beta", "-0.5", "--count", "64", "--seed", "-1"
        )
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == "error: seed must be a non-negative int, got -1\n"

    def test_sample_seed_beyond_64_bits_exit_code(self):
        done = run_main_fresh(
            "sample", "--alpha", "1.6", "--beta", "-0.5", "--count", "64",
            "--seed", str(2**64),
        )
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == f"error: seed must be an int below 2**64, got {2**64}\n"

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

    def test_puts_only_filters_quotes(self, capsys, chain_files):
        code, out, _ = run(
            capsys, "calibrate", "--chain", chain_files[0],
            "--model", "bs", "--starts", "2", "--puts-only",
        )
        assert code == 0
        assert json.loads(out)["quotes"] == 4  # strikes below spot, 2 maturities

    def test_non_convergence_warning(self, capsys, tmp_path, monkeypatch):
        # a Gaussian fit to a stable chain stops above the objective's
        # resolution, so the polish runs, and two Nelder-Mead iterations
        # leave it unfinished
        monkeypatch.setattr(importlib.import_module("stablepricer.calibrate"), "_MAXITER", 2)
        path = tmp_path / "stable.csv"
        write_chain_csv(path, synthetic_chain(
            StableModelParams.from_beta(1.7, -0.3, 0.15), 100.0, 0.01, [0.5, 1.0],
            [90.0, 95.0, 100.0, 105.0, 110.0],
        ))
        code, out, _ = run(
            capsys, "calibrate", "--chain", str(path), "--model", "bs", "--starts", "2",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["converged"] is False
        assert payload["warning"] == "optimizer did not converge"

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

    @pytest.mark.parametrize(
        "row, error",
        [
            (b"caf\xe9,100,0.01,1.0,95,call,9.1\n", "error: chain file is not UTF-8 text: "),
            (b"d,100,0.01,1.0,95,call," + b"9" * 200_000 + b"\n",
             "error: malformed chain file: row 3: field larger than field limit"),
        ],
        ids=["not-utf8", "field-past-csv-limit"],
    )
    def test_unreadable_chain_is_one_error_line(self, tmp_path, row, error):
        # in a fresh interpreter, so that stderr shows any traceback
        path = tmp_path / "chain.csv"
        path.write_bytes(
            b"as_of,spot,rate,maturity,strike,side,market_price\n"
            b"d,100,0.01,1.0,95,call,9.1\n" + row
        )
        done = run_main_fresh("calibrate", "--chain", str(path), "--model", "bs")
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.startswith(error) and done.stderr.count("\n") == 1

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

    def test_byte_order_mark(self, capsys, chain_files, tmp_path):
        # Excel's "CSV UTF-8" starts the file with a UTF-8 byte-order mark
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + Path(chain_files[0]).read_bytes())
        plain, with_mark = (
            run(capsys, "calibrate", "--chain", path, "--model", "bs", "--starts", "2")
            for path in (chain_files[0], str(marked))
        )
        assert plain[0] == 0
        assert with_mark == plain

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
