"""Reference values computed apart from stablepricer, for the benchmark's checks.

Nothing here imports the package under test.  Each function is a different
method, or the same formula in other arithmetic, so that a fault in the
program does not reappear in its reference:

* Black-Scholes with ``math.erfc`` (the ``alpha = 2`` member);
* the Lewis (2001) Fourier integral for FMLS calls, by adaptive quadrature;
* the paper's lattice double series summed in 50-digit ``mpmath``;
* the stable density from its convergent power series near the origin and
  its asymptotic series in the tails, both in ``mpmath``.
"""

from __future__ import annotations

import cmath
import math


def fmls_mu(alpha: float, sigma: float) -> float:
    """Martingale drift sigma**alpha * sec(pi*alpha/2) of the FMLS model."""
    return sigma**alpha / math.cos(math.pi * alpha / 2.0)


def bs_call(spot: float, strike: float, rate: float, tau: float, vol: float) -> float:
    """Black-Scholes call S*N(d1) - K*exp(-r*tau)*N(d2), N from math.erfc."""
    sq = vol * math.sqrt(tau)
    d1 = (math.log(spot / strike) + rate * tau) / sq + sq / 2.0
    d2 = d1 - sq
    cdf = lambda z: 0.5 * math.erfc(-z / math.sqrt(2.0))  # noqa: E731
    return spot * cdf(d1) - strike * math.exp(-rate * tau) * cdf(d2)


def put_from_call(call: float, spot: float, strike: float, rate: float, tau: float) -> float:
    return call - (spot - strike * math.exp(-rate * tau))


def lewis_fmls_call(
    alpha: float, sigma: float, spot: float, strike: float, rate: float, tau: float
) -> float:
    """FMLS call by the Lewis integral.

    C = S - sqrt(S*K*exp(-r*tau))/pi * int_0^inf Re[e^{iuk} phi(u - i/2)] / (u^2 + 1/4) du
    with k = ln(S/K) + r*tau and phi(z) = exp(i*z*mu*tau - mu*tau*(i*z)**alpha).
    """
    from scipy import integrate

    mu = fmls_mu(alpha, sigma)
    k = math.log(spot / strike) + rate * tau

    def integrand(u: float) -> float:
        z = u - 0.5j
        phi = cmath.exp(1j * z * mu * tau - mu * tau * (1j * z) ** alpha)
        return (cmath.exp(1j * u * k) * phi).real / (u * u + 0.25)

    value, _ = integrate.quad(
        integrand, 0.0, math.inf, epsabs=1e-13, epsrel=1e-13, limit=500
    )
    return spot - math.sqrt(spot * strike * math.exp(-rate * tau)) / math.pi * value


def lattice_series_mp(
    alpha: float,
    theta: float,
    mu: float,
    spot: float,
    strike: float,
    rate: float,
    tau: float,
    dps: int = 50,
) -> tuple[float, float]:
    """The paper's lattice double series for a call, summed in mpmath.

    C = (alpha-theta)/(2 alpha) (S - Kd)
        + 1/(alpha pi) sum_{n>=0} sum_{m=0}^{n+1} sin(pi (alpha-theta)(n+1)/(2 alpha))
          Gamma((n+1)/alpha) (S - (-1)^m Kd) L^{n+1-m} (-mu tau)^{m-(n+1)/alpha}
          / (m! (n+1-m)!)
    with Kd = K exp(-r tau) and L = ln(S/K) + r tau.  Returns the sum and the
    sum of absolute terms, which bounds the rounding a float64 sum can make.
    """
    import mpmath as mp

    with mp.workdps(dps):
        a, th, mu_ = mp.mpf(alpha), mp.mpf(theta), mp.mpf(mu)
        s, kd = mp.mpf(spot), mp.mpf(strike) * mp.exp(-mp.mpf(rate) * tau)
        lm = mp.log(s / strike) + mp.mpf(rate) * tau
        po = -mu_ * tau
        total = (a - th) / (2 * a) * (s - kd)
        abs_sum = abs(total)
        negligible = mp.mpf(10) ** (-30)
        quiet = 0
        for n in range(0, 600):
            head = mp.sin(mp.pi * (a - th) * (n + 1) / (2 * a)) * mp.gamma((n + 1) / a)
            head /= a * mp.pi
            column = mp.mpf(0)
            for m in range(n + 2):
                p = n + 1 - m
                term = head * (s - (-1) ** m * kd) * lm**p
                term *= po ** (m - mp.mpf(n + 1) / a)
                term /= mp.factorial(m) * mp.factorial(p)
                column += term
                abs_sum += abs(term)
            total += column
            quiet = quiet + 1 if abs(column) < negligible else 0
            if quiet == 2:
                return float(total), float(abs_sum)
    raise ArithmeticError("lattice reference series did not settle in 600 columns")


def gaussian_var2_pdf(x: float) -> float:
    """N(0, 2) density: the alpha = 2 member of the Feller-standard family."""
    return math.exp(-x * x / 4.0) / (2.0 * math.sqrt(math.pi))


# Where each density series is used.  The power series cancels badly far
# from the origin; the asymptotic series needs the Gaussian-like core to be
# negligible, which holds beyond |x| = 15 (exp(-15**2/4) ~ 4e-25).
CORE_HALF_WIDTH = 4.0
TAIL_START = 15.0


def stable_density_mp(alpha: float, theta: float, x: float) -> float | None:
    """Feller-standard stable density at x, or None where no series applies.

    Characteristic function exp(-|k|**alpha * exp(i sign(k) theta pi/2)).
    Near the origin:  g(x) = 1/(alpha pi) Re sum_{n>=0} (ix)^n/n! Gamma((n+1)/alpha)
    e^{i pi theta (n+1)/(2 alpha)}.  For x > 0 large:
    g(x) ~ 1/pi sum_{j>=1} (-1)^{j+1}/j! Gamma(alpha j + 1) sin(pi j (alpha-theta)/2)
    x^{-(alpha j + 1)}, and g(-x; theta) = g(x; -theta).
    """
    import mpmath as mp

    if abs(x) <= CORE_HALF_WIDTH:
        # digits needed to absorb cancellation: the largest term's magnitude
        peak, n = 0.0, 0
        log_x = math.log(abs(x)) if x != 0.0 else -math.inf
        while True:
            mag = math.lgamma((n + 1) / alpha) - math.lgamma(n + 1)
            if x != 0.0:
                mag += n * log_x
            elif n > 0:
                break
            peak = max(peak, mag)
            if n > 10 and mag < peak - 120.0:
                break
            n += 1
        with mp.workdps(40 + int(peak / math.log(10.0))):
            a, th, xv = mp.mpf(alpha), mp.mpf(theta), mp.mpf(x)
            total = mp.mpf(0)
            for k in range(n + 1):
                phase = mp.expjpi(th * (k + 1) / (2 * a))
                total += (1j * xv) ** k / mp.factorial(k) * mp.gamma((k + 1) / a) * phase
            return float(mp.re(total) / (a * mp.pi))
    if abs(x) >= TAIL_START:
        th = theta if x > 0.0 else -theta
        with mp.workdps(30):
            a, xv = mp.mpf(alpha), mp.mpf(abs(x))
            total = mp.mpf(0)
            smallest = mp.inf
            for j in range(1, 400):
                # stop on the size of the term without its sine factor, which
                # vanishes (up to rounding) at every j for theta = alpha - 2
                size = mp.gamma(a * j + 1) / mp.factorial(j) * xv ** (-(a * j + 1))
                if size > smallest:
                    break  # the asymptotic series has started to diverge
                smallest = size
                total += (-1) ** (j + 1) * mp.sin(mp.pi * j * (a - th) / 2) * size
                if size < mp.mpf(10) ** (-20) * max(abs(total), mp.mpf(10) ** (-10)):
                    break
            if smallest > mp.mpf(10) ** (-12) * max(abs(total), mp.mpf(10) ** (-6)):
                return None
            return float(total / mp.pi)
    return None
