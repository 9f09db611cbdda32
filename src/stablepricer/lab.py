"""Stable-law numerics lab: density inversion, variate generation, MC pricing.

Everything here is an independent check on the series pricer, built from the
characteristic function alone:

    E[exp(i*k*X)] = exp(-|k|**alpha * exp(i*sign(k)*theta*pi/2))

The orientation is pinned so that theta = alpha-2 gives the light *right*
tail (exponential moments of the log-return exist there, the regime where
risk-neutral Monte-Carlo pricing converges).  Market skewness beta relates
to theta through core.beta_to_theta; a standard skewed variate (the usual
trigonometric transformation, scale 1) equals the Feller-standardized one
times s1_scale_factor(alpha, beta).

The sampler draws blocks and transforms equal shares of them on one thread
per usable core: the same bits on any number of cores, and no setting.
"""

from __future__ import annotations

import contextvars
import functools
import math
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    ConvergenceError,
    DomainError,
    OptionContract,
    _check_alpha,
    _check_beta,
    _check_int,
    _tan_half,
    _usable_cores,
    mu_fmls,
    validate_feller_takayasu,
)

# Draws are produced in fixed-size blocks keyed by (seed, block index) on a
# counter-based generator, so any partition of the workload into streams
# reproduces identical values.
_BLOCK_SIZE = 1 << 16


@dataclass(frozen=True)
class DensityGrid:
    """Density values on an ordered grid, with the parameters echoed."""

    abscissae: np.ndarray
    values: np.ndarray
    alpha: float
    theta: float

    def to_csv(self, precision: int = 6) -> str:
        _check_int("precision", precision, 0)
        fmt = f"%.{precision}g"
        lines = ["abscissa,density"]
        for x, v in zip(self.abscissae, self.values):
            lines.append(f"{fmt % x},{fmt % v}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SamplerConfig:
    """Parameters for the stable variate generator."""

    alpha: float
    beta: float
    count: int
    seed: int

    def __post_init__(self) -> None:
        _check_alpha(self.alpha)
        _check_beta(self.beta)
        _check_int("count", self.count, 1)
        _check_int("seed", self.seed, 0)
        # a Philox key word holds 64 bits: a larger seed would alias a smaller one
        if int(self.seed) >= 2**64:
            raise DomainError(f"seed must be an int below 2**64, got {self.seed!r}")


def _check_diamond(alpha: float, theta: float) -> None:
    if not validate_feller_takayasu(alpha, theta):
        raise DomainError(
            f"theta={theta} outside the diamond for alpha={alpha}; "
            "the density has no probabilistic meaning there"
        )


def stable_density(alpha: float, theta: float, x: float | np.ndarray) -> float | np.ndarray:
    """Density of the standardized stable law at x, a float or a 1-d array.

    Fourier inversion on the ray k = r e^{i phi}, phi = pi (1 + theta)/(4 alpha),
    where the integrand decays without oscillating (README, Density lab).  Each
    point climbs Gauss-Legendre rules of 64, 128, ... nodes until two agree to
    1e-9, and is summed on its own, so an array's values equal the float calls.
    The 64- and 128-node rules share one pass and its per-point set-up, each
    rule summed over its own nodes, so each keeps its bits; finer rules go alone.
    The ladder compares raw values; a value settled below 0 (rounding) is 0.
    A rule is summed as sum w e^{Re z} cos(Im z + phi) = Re[e^{i phi} sum w e^z],
    in real arithmetic, within about 2e-16 of the complex sum (_ray_rule), with
    cos x = 2/(1 + t*t) - 1 from t = tan(x/2), which numpy vectorises (_cos).
    """
    _check_diamond(alpha, theta)
    x = np.asarray(x, dtype=float)
    if x.ndim > 1 or not np.isfinite(x).all():
        raise DomainError("density abscissae must be a finite float or 1-d array")
    xs = np.atleast_1d(x)
    out, todo = np.empty(xs.size), np.arange(xs.size)
    coarse, fine = _ray_rule(alpha, theta, xs, 64, 128)
    for finer in (256, 512, 1024, None):
        settled = np.abs(fine - coarse) <= 1e-9
        out[todo[settled]] = np.maximum(fine[settled], 0.0)  # a density is never < 0
        todo, coarse = todo[~settled], fine[~settled]
        if todo.size == 0:
            return float(out[0]) if x.ndim == 0 else out
        if finer:
            (fine,) = _ray_rule(alpha, theta, xs[todo], finer)
    raise ConvergenceError(
        f"density rules of 512 and 1024 nodes disagree at x={float(xs[todo[0]])!r}"
    )


def _ray_rule(alpha: float, theta: float, xs: np.ndarray, *nodes: int) -> np.ndarray:
    """One row per rule of `nodes` in r = R u**3 on [0, R] at each point, x < 0 by
    g(x; theta) = g(-x; -theta).  The rules' nodes lie side by side in one pass, and
    each point's terms of a rule are summed in their own row and columns.

    The density is (R/pi) Re[e^{i phi} sum_j w_j e^{z_j}], and as |e^{i phi}| = 1,
    Re[e^{i phi} sum w e^z] = sum w e^{Re z} cos(Im z + phi): one real exp and one
    cosine of the half angle (Im z + phi)/2 (_cos) per node, and no complex number."""
    side = np.where(xs < 0.0, -theta, theta)
    phi = np.pi * (1.0 + side) / (4.0 * alpha)
    tilt = np.pi * (1.0 - side) / 4.0  # alpha phi - side pi/2
    # the exponent is z = i |x| e^{i phi} r - e^{i tilt} r**alpha
    grow_re, grow_im = -np.abs(xs) * np.sin(phi), np.abs(xs) * np.cos(phi)
    tilt_re, tilt_im = np.cos(tilt), np.sin(tilt)
    # each term of Re z passes -40 at its own cut, so their sum by the nearer
    cut = 40.0 / np.maximum(-grow_re, 40.0 * (tilt_re / 40.0) ** (1.0 / alpha))
    u, w = _gauss_legendre(*nodes)
    u_alpha, cut_alpha = u**alpha, cut**alpha  # r**alpha = R**alpha (u**3)**alpha
    lin_re, lin_im = grow_re * cut, grow_im * cut * 0.5  # Im z / 2: halving is exact
    pow_re, pow_im = tilt_re * cut_alpha, tilt_im * cut_alpha * 0.5
    sums = np.empty((len(nodes), xs.size))
    rows = max(1, (1 << 16) // u.size)  # points per block of at most 2**16 terms
    blocks = np.empty((3, min(rows, xs.size), u.size))
    cols = [slice(end - n, end) for n, end in zip(nodes, np.cumsum(nodes))]
    for i in range(0, xs.size, rows):
        b, (re, im, tmp) = slice(i, i + rows), blocks[:, : xs.size - i]
        np.multiply(lin_re[b, None], u, out=re)
        re -= np.multiply(pow_re[b, None], u_alpha, out=tmp)
        np.multiply(lin_im[b, None], u, out=im)
        im -= np.multiply(pow_im[b, None], u_alpha, out=tmp)
        im += phi[b, None] * 0.5
        np.exp(re, out=re)
        re *= _cos(im)
        re *= w
        sums[:, b] = [re[:, c].sum(axis=1) for c in cols]
    return cut * sums / np.pi


def _cos(x: np.ndarray) -> np.ndarray:
    """Overwrite x = y/2 with cos y = 2/(1 + t*t) - 1, t = tan(x), and return it:
    within 3.3e-16 of np.cos for |y| <= 1e4 and -1 at tan's poles, in a quarter
    of its time where numpy vectorises float64 tan (README, Density lab)."""
    np.tan(x, out=x)
    x *= x
    x += 1.0
    np.divide(2.0, x, out=x)
    x -= 1.0
    return x


@functools.cache
def _gauss_legendre(*nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """u**3 at the rules' nodes on [0, 1], side by side, and the weights times dr/du / R."""
    u, w = np.concatenate([np.polynomial.legendre.leggauss(n) for n in nodes], axis=1)
    return ((u + 1.0) / 2.0) ** 3, 0.375 * (u + 1.0) ** 2 * w


def density_grid(alpha: float, theta: float, abscissae: np.ndarray) -> DensityGrid:
    """Evaluate stable_density on an ordered grid of points, in one call."""
    xs = np.asarray(abscissae, dtype=float)
    if xs.ndim != 1 or xs.size == 0:
        raise DomainError("abscissae must be a non-empty 1-d array")
    if np.any(np.diff(xs) <= 0.0):
        raise DomainError("abscissae must be strictly increasing")
    vals = stable_density(alpha, theta, xs)
    return DensityGrid(abscissae=xs, values=vals, alpha=alpha, theta=theta)


def effective_support(alpha: float, theta: float, tail_mass: float = 1e-7) -> float:
    """Half-width L such that the mass outside [-L, L] is below tail_mass.

    Uses the power-law tail bound C/(alpha*L**alpha) with
    C = (2*Gamma(1+alpha)/pi) * sin(pi*alpha/2) * cos(pi*theta/2); near
    alpha=2 the Gaussian width takes over.
    """
    _check_diamond(alpha, theta)
    if not (0.0 < tail_mass < 1.0):
        raise DomainError(f"tail_mass must lie in (0, 1), got {tail_mass}")
    # 2 erfcinv(tail_mass) by Newton's method on log(erfc(y)), concave, from
    # sqrt(-log(tail_mass)), at or above the root as erfc(y) <= exp(-y*y)
    y = math.sqrt(-math.log(tail_mass))
    for _ in range(6):
        log_erfc = math.log(math.erfc(y))
        y += (log_erfc - math.log(tail_mass)) * math.exp(y * y + log_erfc) * math.sqrt(math.pi) / 2
    gaussian_l = 2.0 * y
    if alpha == 2.0:  # the diamond is theta = 0 here, and sin(pi) is not 0 in floats
        return gaussian_l
    coeff = (
        2.0
        * math.gamma(1.0 + alpha)
        / math.pi
        * math.sin(math.pi * alpha / 2.0)
        * math.cos(math.pi * theta / 2.0)
    )
    power_l = (coeff / (alpha * tail_mass)) ** (1.0 / alpha)
    return max(gaussian_l, power_l)


def s1_scale_factor(alpha: float, beta: float) -> float:
    """Scale relating the standard skewed variate to the Feller-standard one."""
    _check_alpha(alpha)
    _check_beta(beta)
    bt = beta * _tan_half(alpha)
    return (1.0 + bt * bt) ** (1.0 / (2.0 * alpha))


def _block_generator(seed: int, block_index: int) -> np.random.Generator:
    key = np.array([int(seed), block_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _share(first: int, size: int, worker: int, workers: int) -> tuple[int, int]:
    """A worker's equal share [lo, hi) of the round of `size` draws from `first`."""
    return first + size * worker // workers, first + size * (worker + 1) // workers


def sample_stable(config: SamplerConfig) -> np.ndarray:
    """I.i.d. standard stable draws via the trigonometric transformation.

    X = scale * sin(alpha*(U+B)) / cos(U)**(1/alpha)
          * (cos(U - alpha*(U+B)) / W)**((1-alpha)/alpha)
    with U uniform on (-pi/2, pi/2), W unit exponential,
    B = atan(beta*tan(pi*alpha/2))/alpha and scale = s1_scale_factor.
    sin x = 2t/(1 + t*t) and cos x (_cos) come from t = tan(x/2), which numpy
    vectorises: a draw moves by about 3e-16/cos relative where a cos nears 0.

    Of W threads, one per usable core, worker j draws blocks j, j + W, ...
    and in each round of W blocks transforms the j-th of W equal shares: its
    own block in a full round, in the last also draws of other workers.  The
    transform is element by element, so the bits are the same on any number
    of cores; the calling thread is worker 0, alone on one block or core.
    """
    alpha, beta, count = config.alpha, config.beta, config.count
    b = math.atan(beta * _tan_half(alpha)) / alpha
    scale = s1_scale_factor(alpha, beta)
    inv_alpha = 1.0 / alpha
    exp_w = (1.0 - alpha) / alpha
    out = np.empty(count)
    blocks = -(-count // _BLOCK_SIZE)
    workers = min(blocks, _usable_cores())
    width = min(count, _BLOCK_SIZE)
    half = max(1, width // 2)
    # allocated here, since a worker thread's malloc arena would keep it: per
    # worker the exponentials of the block it drew last and two temporaries
    scratch = np.empty((workers, width + 2 * half))
    drawn = [threading.Event() for _ in range(blocks)]
    failures: list[BaseException | None] = [None] * workers

    def transform(worker: int, block: int, lo: int, hi: int) -> None:
        # per element the operations of the formula above, in place
        for i in range(lo, hi, half):
            u = out[i : min(i + half, hi)]
            au, c = (scratch[worker, j : j + u.size] for j in (width, width + half))
            u -= 0.5
            u *= math.pi
            np.add(u, b, out=au)
            au *= alpha
            au *= 0.5
            u *= 0.5  # _cos takes half angles, and so does tan below
            _cos(np.subtract(u, au, out=c))
            c /= scratch[block % workers, i - block * _BLOCK_SIZE :][: u.size]
            c **= exp_w
            _cos(u)
            u **= inv_alpha
            c /= u
            np.tan(au, out=au)
            np.multiply(au, au, out=u)
            u += 1.0
            au *= 2.0 * scale
            au /= u
            np.multiply(au, c, out=u)

    def share(worker: int) -> None:
        try:
            for first in range(0, count, workers * _BLOCK_SIZE):
                own = first // _BLOCK_SIZE + worker
                if own < blocks:
                    gen = _block_generator(config.seed, own)
                    x = gen.random(out=out[own * _BLOCK_SIZE : (own + 1) * _BLOCK_SIZE])
                    gen.standard_exponential(out=scratch[worker, : x.size])
                    drawn[own].set()
                lo, hi = _share(first, min(count - first, workers * _BLOCK_SIZE), worker, workers)
                # the worker's own block, when in its share, is the last one there
                for block in reversed(range(lo // _BLOCK_SIZE, -(-hi // _BLOCK_SIZE))):
                    if block != own:
                        drawn[block].wait()
                        if failures[block % workers] is not None:  # the caller raises it
                            return
                    start = block * _BLOCK_SIZE
                    transform(worker, block, max(lo, start), min(hi, start + _BLOCK_SIZE))
        except BaseException as exc:
            failures[worker] = exc
        finally:  # so that no worker waits on a block this one will never draw
            for block in range(worker, blocks, workers):
                drawn[block].set()

    # numpy 2 keeps its error state in a context variable, which a new
    # thread does not inherit
    threads = [
        threading.Thread(target=contextvars.copy_context().run, args=(share, worker))
        for worker in range(1, workers)
    ]
    for thread in threads:
        thread.start()
    share(0)
    for thread in threads:
        thread.join()
    for exc in failures:
        if exc is not None:
            raise exc
    return out


def mc_price_fmls(
    alpha: float,
    sigma: float,
    contract: OptionContract,
    paths: int = 1_000_000,
    seed: int = 0,
) -> tuple[float, float]:
    """Monte-Carlo call price in the maximal-negative-skew regime.

    The log-return is (r + mu)*tau + sigma*tau**(1/alpha)*L with L a
    standard beta=-1 stable draw and mu = mu_fmls(alpha, sigma), which is
    exactly the drift that makes the discounted spot a martingale (the
    expectation converges only in this regime).  Returns (price, std_error).
    """
    _check_alpha(alpha)
    if contract.side != "call":
        raise DomainError("mc_price_fmls prices call contracts")
    _check_int("paths", paths, 2)
    mu = mu_fmls(alpha, sigma)
    # the draws become the payoffs in place, with no full-size temporary
    payoff = sample_stable(
        SamplerConfig(alpha=alpha, beta=-1.0, count=paths, seed=seed)
    )
    tau = contract.maturity
    payoff *= sigma * tau ** (1.0 / alpha)
    payoff += (contract.rate + mu) * tau
    np.exp(payoff, out=payoff)
    payoff *= contract.spot
    payoff -= contract.strike
    np.maximum(payoff, 0.0, out=payoff)
    mean = payoff.mean()
    # the sample variance as payoff.var(ddof=1) forms it, from squared deviations
    payoff -= mean
    payoff *= payoff
    var = float(payoff.sum()) / (paths - 1)
    if not math.isfinite(var):
        warnings.warn("payoff sample variance is non-finite; std_error unreliable")
    disc = math.exp(-contract.rate * tau)
    return disc * float(mean), disc * math.sqrt(var / paths)
