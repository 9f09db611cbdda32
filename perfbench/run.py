"""Benchmark of stablepricer: three workloads, each a closed loop with one client.

    python3 perfbench/run.py --workload quotes|calibrate|oracles --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
Each run starts fresh processes one after another: SETUP_SAMPLES - 1 that
only set up, then one that sets up and runs.  ``setup_s`` is the median of
their set-up times.  With ``--trace 0`` the run prints the end-to-end
metrics, every time at the machine's nominal speed (``speed.py``); the raw
times go to standard error and the result file.  With ``--trace 1`` it
prints the per-layer metrics from a traced run, in raw times, plus import
and CLI process figures.  The last line of standard output
is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import refs  # noqa: E402

WORKLOADS = ("quotes", "calibrate", "oracles")
SETUP_SAMPLES = 3
CLI_SAMPLES = 3
DEADLINE_S = 175.0  # every run ends within 180 s
# The CLI run prices an alpha = 2 call so that its output can be checked
# against Black-Scholes at volatility sigma*sqrt(2).
CLI_OPTION = dict(spot=100.0, strike=95.0, rate=0.01, maturity=0.5, sigma=0.2)


def _env() -> dict[str, str]:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads  # BLAS pools no larger than the cores we may use
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def _child(args: list[str], deadline: float) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), *args],
        cwd=ROOT, env=_env(), capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark process failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _cli_metrics(deadline: float) -> tuple[dict, bool]:
    """Time whole `stablepricer price` processes and count the modules one loads.

    Also returns whether the printed price matches Black-Scholes."""
    o = CLI_OPTION
    argv = [sys.executable, "-m", "stablepricer.cli", "price", "--spot", str(o["spot"]),
            "--strike", str(o["strike"]), "--rate", str(o["rate"]), "--maturity",
            str(o["maturity"]), "--alpha", "2", "--theta", "0", "--sigma", str(o["sigma"]),
            "--tol", "1e-10", "--precision", "12"]
    times = []
    for _ in range(CLI_SAMPLES):
        t = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, env=_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()), check=True)
        times.append(time.perf_counter() - t)
    price = float(proc.stdout.split()[0].removeprefix("price="))
    expected = refs.bs_call(o["spot"], o["strike"], o["rate"], o["maturity"], o["sigma"] * 2**0.5)
    # -X importtime prints one line per imported module after a header line
    proc = subprocess.run([sys.executable, "-X", "importtime", *argv[1:]], cwd=ROOT, env=_env(),
                          capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()), check=True)
    modules = sum(line.startswith("import time:") for line in proc.stderr.splitlines()) - 1
    metrics = {"cli.price_process_s": (statistics.median(times), "s"), "cli.modules": (modules, "count")}
    return metrics, abs(price - expected) <= 1e-8 * expected


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # on SIGTERM, unwind so that subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isdir(os.path.join(ROOT, "src", "stablepricer")):
        raise SystemExit(f"no stablepricer sources under {ROOT}/src")
    deadline = time.monotonic() + DEADLINE_S

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = [_child(common, deadline) for _ in range(SETUP_SAMPLES - 1)]
    run = _child(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)], deadline)
    setups.append(run)

    metrics = {k: tuple(v) for k, v in run["metrics"].items()}
    correct = run["correct"]
    if args.trace:
        metrics["import.stablepricer_s"] = (statistics.median(s["import_s"] for s in setups), "s")
        metrics["import.modules"] = (run["modules"], "count")
        cli, cli_ok = _cli_metrics(deadline)
        if not cli_ok:
            run["problems"].append("stablepricer price printed a wrong alpha = 2 price")
            correct = False
        metrics.update(cli)
    else:
        metrics["setup_s"] = (statistics.median(s["setup_s"] for s in setups), "s")
        run["raw"]["setup_s"] = statistics.median(s["setup_raw_s"] for s in setups)
        raw = ", ".join(f"{k} {v:.6g}" for k, v in sorted(run["raw"].items()))
        run["notes"].append(f"raw times: {raw}; reference {run['reference_us']:.1f} us")

    for line in run["notes"] + run["problems"]:
        print(line, file=sys.stderr)
    out = {}
    for name, (value, unit) in sorted(metrics.items()):
        # a layer whose wrapped function no longer exists is marked absent
        out[name] = {"value": value, "unit": unit} if value is not None else {"value": None, "unit": unit, "absent": True}
    result = {"correct": correct, "attempted": run["attempted"], "failed": run["failed"], "metrics": out}
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as f:
        json.dump(dict(result, raw=run.get("raw"), notes=run["notes"], problems=run["problems"]), f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
