"""Command-line front end: pricing, term tables, curves, density/sampler
output, Monte-Carlo checks, and chain calibration.

Exit codes: 0 success, 2 usage, domain, file or out-of-memory error, 3
numerical non-convergence.
All numeric output uses 6 significant digits by default (--precision to
override); every command is deterministic given its flags (and --seed).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .calibrate import (
    _SPECS,
    CalibrateConfig,
    calibrate,
    filter_quotes,
    load_chain,
    report_payload,
)
from .core import (
    ConvergenceError,
    DomainError,
    OptionContract,
    StableModelParams,
    beta_to_theta,
    mu_fmls,
)
from .lab import SamplerConfig, density_grid, mc_price_fmls, sample_stable
from .pricer import _MAX_COLUMN, _TOLERANCE, fmls_call, price, term_table, term_table_csv
from .reference import black_scholes

# the most points curve and density price or evaluate in one run
_MAX_POINTS = 10**6

_LATTICE_WARNING = (
    "warning: the price is a lattice value at alpha < 2, not a risk-neutral "
    "expectation (that needs theta = alpha - 2 and mu = mu_fmls)"
)


def _off_the_line(params: StableModelParams) -> str | None:
    """The note for a theta 1 to 4 ulps off alpha - 2, as -0.3 at alpha 1.7."""
    line = params.alpha - 2.0
    ulps = abs(params.theta - line) / math.ulp(line)
    if 0.0 < ulps <= 4.0:
        return (f"warning: theta = {params.theta!r} is {ulps:g} ulp off alpha - 2 = {line!r}; "
                "--beta -1 sets theta = alpha - 2 exactly")
    return None


def _emit(text: str, out_path: str | None) -> None:
    """Write text to stdout, or byte-identically to a file when --out given."""
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", newline="") as handle:
            handle.write(text)


def _fmt(precision: int):
    return lambda x: f"%.{precision}g" % x


def _add_market_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--spot", type=float, required=True, help="underlying price")
    parser.add_argument("--strike", type=float, required=True, help="strike")
    parser.add_argument("--rate", type=float, required=True, help="risk-free rate")
    parser.add_argument(
        "--maturity", type=float, required=True, help="time to expiry in years"
    )


def _add_skew_flags(parser: argparse.ArgumentParser, required: bool = True) -> None:
    group = parser.add_mutually_exclusive_group(required=required)
    group.add_argument("--theta", type=float, help="asymmetry (Feller form)")
    group.add_argument("--beta", type=float, help="skewness (common form)")


def _add_series_flags(parser: argparse.ArgumentParser, max_column: bool = True) -> None:
    parser.add_argument("--tol", type=float, default=_TOLERANCE, help="series tolerance")
    if max_column:
        parser.add_argument("--max-column", type=int, default=_MAX_COLUMN)


def _add_model_flags(parser: argparse.ArgumentParser, sweep: bool = False) -> None:
    """Model flags; for a sweep, alpha and the skew may be the swept axis."""
    parser.add_argument("--alpha", type=float, required=not sweep, help="stability index")
    parser.add_argument("--sigma", type=float, required=True, help="scale parameter")
    _add_skew_flags(parser, required=not sweep)
    parser.add_argument(
        "--mu",
        type=float,
        default=None,
        help="drift correction; defaults to the martingale value mu_fmls(alpha, sigma)",
    )


def _resolve_theta(args: argparse.Namespace) -> float:
    if args.theta is not None:
        return args.theta
    return beta_to_theta(args.alpha, args.beta)


def _params_from_args(args: argparse.Namespace) -> StableModelParams:
    theta = _resolve_theta(args)
    mu = args.mu if args.mu is not None else mu_fmls(args.alpha, args.sigma)
    return StableModelParams(
        alpha=args.alpha, theta=theta, sigma=args.sigma, mu=mu
    )


def _contract_from_args(args: argparse.Namespace, side: str) -> OptionContract:
    return OptionContract(
        spot=args.spot,
        strike=args.strike,
        rate=args.rate,
        maturity=args.maturity,
        side=side,
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_price(args: argparse.Namespace) -> int:
    params = _params_from_args(args)
    contract = _contract_from_args(args, args.side)
    result = price(params, contract, tolerance=args.tol, max_column=args.max_column)
    fmt = _fmt(args.precision)
    print(
        f"price={fmt(result.price)} columns_used={result.columns_used} "
        f"truncation_estimate={fmt(result.truncation_estimate)}"
    )
    if not result.diamond_flag:
        print(
            "warning: (alpha, theta) outside the Feller-Takayasu diamond; "
            "the price is an analytic continuation",
            file=sys.stderr,
        )
    elif result.engine == "lattice" and params.alpha < 2.0:
        print(_LATTICE_WARNING, file=sys.stderr)
        if note := _off_the_line(params):
            print(note, file=sys.stderr)
    if args.check:
        if params.alpha == 2.0 and params.theta == 0.0:
            # the series reads sigma only through mu, so it is Black-Scholes at this vol
            vol = math.sqrt(-2.0 * params.mu)
            reference = black_scholes(contract, vol)
            print(f"check: black_scholes={fmt(reference)} (vol={fmt(vol)})")
        else:
            print("check: no closed form for these parameters; skipped")
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    params = _params_from_args(args)
    contract = _contract_from_args(args, "call")
    table = term_table(params, contract, args.nmax)
    _emit(term_table_csv(table, precision=args.precision), args.out)
    return 0


def cmd_curve(args: argparse.Namespace) -> int:
    if not math.isfinite(args.start + args.stop + args.step):
        raise DomainError("--start, --stop and --step must be finite")
    if args.step <= 0.0:
        raise DomainError(f"--step must be positive, got {args.step}")
    if args.stop < args.start:
        raise DomainError("--stop must be >= --start")
    if args.sweep in ("theta", "spot") and args.alpha is None:
        raise DomainError(f"--sweep {args.sweep} requires --alpha")
    if args.sweep == "theta" and (args.theta is not None or args.beta is not None):
        raise DomainError("--sweep theta fixes the skew axis; drop --theta/--beta")
    if args.sweep in ("alpha", "spot") and args.theta is None and args.beta is None:
        raise DomainError(f"--sweep {args.sweep} requires one of --theta or --beta")
    steps = (args.stop - args.start) / args.step + 1e-9  # inf if the span overflows
    count = math.floor(steps) + 1 if steps < math.inf else steps
    if count > _MAX_POINTS:
        raise DomainError(f"the sweep has {count} points, more than {_MAX_POINTS}")
    fmt = _fmt(args.precision)
    lines = [f"{args.sweep},price,in_diamond,status"]
    lattice, note = False, None
    for i in range(count):
        x = args.start + i * args.step
        point = argparse.Namespace(**{**vars(args), args.sweep: x})
        try:
            params = _params_from_args(point)
            result = price(params, _contract_from_args(point, "call"),
                           tolerance=args.tol, max_column=args.max_column)
            lines.append(
                f"{fmt(x)},{fmt(result.price)},"
                f"{str(result.diamond_flag).lower()},ok"
            )
            if result.engine == "lattice" and point.alpha < 2.0:
                lattice = True
                if note is None and args.theta is not None:
                    note = _off_the_line(params)
        except ConvergenceError:
            lines.append(f"{fmt(x)},,,non-convergent")
        except DomainError:
            lines.append(f"{fmt(x)},,,domain-error")
    _emit("\n".join(lines) + "\n", args.out)
    if lattice:
        print(_LATTICE_WARNING, file=sys.stderr)
    if note:
        print(note, file=sys.stderr)
    return 0


def cmd_density(args: argparse.Namespace) -> int:
    theta = _resolve_theta(args)
    if args.points < 1:
        raise DomainError(f"--points must be >= 1, got {args.points}")
    if args.points > _MAX_POINTS:
        raise DomainError(f"--points must be <= {_MAX_POINTS}, got {args.points}")
    xmin = -args.xmax if args.xmin is None else args.xmin
    if not math.isfinite(args.xmax - xmin):
        raise DomainError(f"the span --xmax - --xmin must be finite, got {args.xmax - xmin!r}")
    grid = density_grid(
        args.alpha, theta, np.linspace(xmin, args.xmax, args.points)
    )
    _emit(grid.to_csv(precision=args.precision), args.out)
    return 0


def cmd_sample(args: argparse.Namespace) -> int:
    config = SamplerConfig(
        alpha=args.alpha, beta=args.beta, count=args.count, seed=args.seed
    )
    draws = sample_stable(config)
    fmt = _fmt(args.precision)
    _emit("draw\n" + "\n".join(fmt(d) for d in draws) + "\n", args.out)
    return 0


def cmd_mc(args: argparse.Namespace) -> int:
    contract = _contract_from_args(args, "call")
    price, std_error = mc_price_fmls(
        args.alpha, args.sigma, contract, paths=args.paths, seed=args.seed
    )
    fmt = _fmt(args.precision)
    print(f"price={fmt(price)} std_error={fmt(std_error)}")
    if args.check:
        series = fmls_call(
            args.alpha, args.sigma, contract, tolerance=args.tol
        ).price
        diff = abs(price - series)
        # std_error is 0 when every path finishes out of the money
        gap = diff / std_error if std_error else (math.inf if diff else 0.0)
        print(f"series={fmt(series)} abs_diff_over_se={fmt(gap)}")
    return 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    config = CalibrateConfig(starts=args.starts, seed=args.seed)
    payloads = []
    for path in args.chain:
        chain = load_chain(path)
        if args.calls_only:
            chain = filter_quotes(chain, "call")
        elif args.puts_only:
            chain = filter_quotes(chain, "put")
        report = calibrate(chain, args.model, config)
        payload = report_payload(report, precision=args.precision)
        if not report.converged:
            payload["warning"] = "optimizer did not converge"
        payloads.append((path, payload))

    if len(payloads) == 1:
        text = json.dumps(payloads[0][1], indent=2) + "\n"
    else:
        reports = [dict(p, file=path) for path, p in payloads]
        aggregate = {}
        for key in ("sigma", "alpha", "beta", "mu", "aggregated_error"):
            values = np.array([p[key] for _, p in payloads], dtype=float)
            fmt = _fmt(args.precision)
            aggregate[key] = {
                "mean": float(fmt(float(np.mean(values)))),
                "std": float(fmt(float(np.std(values)))),
            }
        text = json.dumps({"reports": reports, "aggregate": aggregate}, indent=2)
        text += "\n"
    _emit(text, args.out)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stablepricer",
        description="European option pricing under stable log-price dynamics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("price", help="price one European option")
    _add_market_flags(p)
    _add_model_flags(p)
    p.add_argument("--side", choices=("call", "put"), default="call")
    _add_series_flags(p)
    p.add_argument(
        "--check",
        action="store_true",
        help="cross-check against Black-Scholes at vol sqrt(-2*mu) (alpha=2, theta=0)",
    )

    p = sub.add_parser("table", help="emit the (n, m) term table as CSV")
    _add_market_flags(p)
    _add_model_flags(p)
    p.add_argument("--nmax", type=int, required=True, help="last n-column")

    p = sub.add_parser("curve", help="price along a sweep of theta, alpha or spot")
    _add_market_flags(p)
    _add_model_flags(p, sweep=True)
    p.add_argument("--sweep", choices=("theta", "alpha", "spot"), required=True)
    p.add_argument("--start", type=float, required=True)
    p.add_argument("--stop", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    _add_series_flags(p)

    p = sub.add_parser("density", help="stable density on a grid as CSV")
    p.add_argument("--alpha", type=float, required=True)
    _add_skew_flags(p)
    p.add_argument("--xmin", type=float, default=None)
    p.add_argument("--xmax", type=float, default=10.0)
    p.add_argument("--points", type=int, default=201)

    p = sub.add_parser("sample", help="stable variates as CSV")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("mc", help="Monte-Carlo FMLS call price")
    _add_market_flags(p)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--paths", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)
    _add_series_flags(p, max_column=False)
    p.add_argument(
        "--check",
        action="store_true",
        help="also print the drift-shifted FMLS series price (fmls_call) "
        "and |MC - series| / std_error",
    )

    p = sub.add_parser("calibrate", help="fit model parameters to chain CSVs")
    p.add_argument("--chain", nargs="+", required=True, help="chain CSV path(s)")
    p.add_argument("--model", choices=tuple(_SPECS), required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--calls-only", action="store_true")
    group.add_argument("--puts-only", action="store_true")
    p.add_argument("--starts", type=int, default=CalibrateConfig.starts)
    p.add_argument("--seed", type=int, default=CalibrateConfig.seed)

    # the flags every command ends with; main runs cmd_<command>
    for name, p in sub.choices.items():
        if name not in ("price", "mc"):  # the commands that write through _emit
            written = "JSON" if name == "calibrate" else "CSV"
            p.add_argument("--out", default=None, help=f"write {written} here instead of stdout")
        p.add_argument(
            "--precision",
            type=int,
            default=6,
            help="significant digits for numeric output (default 6)",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.precision < 0:
        parser.error(f"argument --precision: must be >= 0, got {args.precision}")
    try:
        return globals()[f"cmd_{args.command}"](args)
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"error: non-convergence: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
