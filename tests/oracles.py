"""Independent reference implementations used to freeze expected test values.

Everything here is deliberately written on a different path from the library:
pure-python loops and scans instead of vectorized rank arithmetic, and
adaptive quadrature of the bivariate normal (2-D over the explicit density,
or 1-D over the conditional CDF) instead of the library's Owen's T closed
form.
"""

import math
import warnings

from scipy.integrate import IntegrationWarning, dblquad, quad
from scipy.special import ndtr

QUAD_LOW = -8.5  # univariate tail mass below this is ~1e-17


def scan_quantile(sample, u):
    """Smallest sample value whose ECDF reaches u, by linear scan; u=0 -> min."""
    values = sorted(sample)
    t = len(values)
    if u == 0:
        return values[0]
    for v in values:
        count = 0
        for s in sample:
            if s <= v:
                count += 1
        if count / t >= u:
            return v
    return values[-1]


def loop_cumulative(r1, r2, u, v):
    """Double-loop indicator count of the empirical copula at (u, v)."""
    q1 = scan_quantile(r1, u)
    q2 = scan_quantile(r2, v)
    hits = 0
    for a, b in zip(r1, r2):
        if a <= q1 and b <= q2:
            hits += 1
    return hits / len(r1)


def loop_density_counts(r1, r2, m):
    """Per-cell membership counts by scanning quantile edges per observation."""
    edges1 = [scan_quantile(r1, i / m) for i in range(1, m + 1)]
    edges2 = [scan_quantile(r2, j / m) for j in range(1, m + 1)]
    counts = [[0] * m for _ in range(m)]
    for a, b in zip(r1, r2):
        i = next(k for k in range(m) if a <= edges1[k])
        j = next(k for k in range(m) if b <= edges2[k])
        counts[i][j] += 1
    return counts


def bvn_density(x, y, c):
    omc2 = 1.0 - c * c
    z = (x * x - 2.0 * c * x * y + y * y) / (2.0 * omc2)
    return math.exp(-z) / (2.0 * math.pi * math.sqrt(omc2))


def bvn_cdf_dblquad(x, y, c, tol=1e-10):
    """2-D adaptive quadrature of the bivariate normal density."""
    if x <= QUAD_LOW or y <= QUAD_LOW:
        return 0.0
    value, _err = dblquad(
        lambda yy, xx: bvn_density(xx, yy, c),
        QUAD_LOW,
        x,
        QUAD_LOW,
        y,
        epsabs=tol,
        epsrel=tol,
    )
    return value


def bvn_cdf_quad(x, y, c):
    """Scalar bivariate normal CDF by 1-D adaptive quadrature.

    Integrates the conditional CDF,
    P(X <= x, Y <= y) = integral_{-inf}^{min(x, y)} phi(t) Phi((max(x, y) - c t) / sqrt(1 - c^2)) dt,
    with the closed forms at c = +/-1 and truncation beyond +/-40. Accurate to
    ~1e-12 away from |c| -> 1; near c = -1 the integrand's turnover is too
    sharp for it (about 6e-4 off at (0.5, 0.5, -0.99999)).
    """
    if c == 1.0:
        return float(min(ndtr(x), ndtr(y)))
    if c == -1.0:
        return float(max(ndtr(x) + ndtr(y) - 1.0, 0.0))
    a, b = (x, y) if x <= y else (y, x)
    if a <= -40.0:
        return 0.0
    if b >= 40.0:
        return float(ndtr(a))
    scale = math.sqrt((1.0 - c) * (1.0 + c))

    def integrand(t):
        return math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi) * float(ndtr((b - c * t) / scale))

    upper = min(a, 40.0)
    points = None
    if c != 0.0 and -40.0 < b / c < upper:
        # the conditional CDF turns over here when |c| is close to 1
        points = [b / c]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        value, _err = quad(
            integrand, -40.0, upper, epsabs=1e-12, epsrel=1e-10, limit=200, points=points
        )
    return min(max(value, 0.0), 1.0)
