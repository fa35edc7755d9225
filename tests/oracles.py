"""Independent reference implementations used to freeze expected test values.

Everything here is deliberately written on a different path from the library:
pure-python loops and scans instead of vectorized rank arithmetic, an ECDF
object with a quantile function (``EmpiricalDistribution``, ``ecdf`` and
``quantile``) whose edges bin exactly as ``quantile_bins`` does, adaptive
quadrature of the bivariate normal (2-D over the explicit density, or 1-D
over the conditional CDF) and Owen's T closed form (the kernel the library
used before its Gauss-Legendre one) instead of the library's Gauss-Legendre
rule, and a row-at-a-time price parser that fills a dense assets x timestamps panel,
and a per-session previous-tick search over that panel, instead of the
library's column-wise ingest into per-asset quote runs, a session mask that
counts weekdays from the epoch and removes holidays in a separate pass instead
of the library's ``np.is_busday``, CSV writers that format one row at a
time and join the whole text in memory instead of the library's streamed
writers over string columns, a Gaussian panel sampler that builds its
result from two temporaries instead of scaling the noise array in place, and
a mean Gaussian grid that evaluates every distinct correlation in one call
and sums the stack instead of the library's blocks, and window reports
composed one window at a time, from per-pair scan counts and one Gaussian
call per window, instead of the library's one-call binning and one Gaussian
call over all windows.

Four helpers at the end are not alternative paths but test references and
data that the library does not ship: the Gaussian copula density (the
integrand of a 2-D quadrature check), a seeded bivariate normal sampler, the
elementwise rank transform, and a seeded Student t panel sampler, whose
copula has the lower tail dependence a Gaussian one lacks.
"""

import math
import warnings
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np
from scipy.integrate import IntegrationWarning, dblquad, quad
from scipy.special import ndtr, ndtri, owens_t

from copuladyn import gaussian, taildep
from copuladyn.copula import CopulaGrid
from copuladyn.ingest import PriceDataError, ReturnMatrix

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


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Sorted view of a one dimensional sample with its ECDF levels.

    Attributes
    ----------
    sorted_sample : ndarray
        The sample in non-decreasing order.
    levels : ndarray
        ECDF plateau heights ``k / T`` for ``k = 1 .. T``; ``levels[k]`` is the
        ECDF evaluated at ``sorted_sample[k]``.

    Instances are immutable and safe to share across threads.
    """

    sorted_sample: np.ndarray
    levels: np.ndarray = field(repr=False)

    @classmethod
    def from_sample(cls, series) -> "EmpiricalDistribution":
        sample = np.asarray(series, dtype=float)
        if sample.ndim != 1:
            raise ValueError("sample must be one dimensional")
        if sample.size == 0:
            raise ValueError("sample must not be empty")
        if not np.all(np.isfinite(sample)):
            raise ValueError("sample values must be finite")
        size = sample.size
        # stable, so equal values (0.0 and -0.0) keep their input order
        return cls(
            sorted_sample=np.sort(sample, kind="stable"),
            levels=np.arange(1, size + 1) / size,
        )

    @property
    def size(self) -> int:
        return self.sorted_sample.size


def ecdf(dist: EmpiricalDistribution, x):
    """Evaluate the empirical CDF at ``x`` (scalar or array).

    Returns #{t : sample[t] <= x} / T, the max-rank convention for ties.
    """
    pos = np.searchsorted(dist.sorted_sample, x, side="right")
    out = pos / dist.size
    if np.isscalar(x):
        return float(out)
    return out


def quantile(dist: EmpiricalDistribution, u):
    """Generalized inverse of the ECDF at ``u`` in [0, 1] (scalar or array).

    For 0 < u <= 1 returns the smallest sample value whose ECDF is >= u.
    At u = 0 the defining set is empty and the sample minimum is returned,
    keeping the function total and monotone on [0, 1].

    The comparison is done against the stored ECDF levels k/T with the same
    float semantics used by :func:`ecdf`, so ``ecdf(dist, quantile(dist, u)) >= u``
    holds exactly.
    """
    u_arr = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(u_arr)) or np.any(u_arr < 0.0) or np.any(u_arr > 1.0):
        raise ValueError("quantile level must lie in [0, 1]")
    idx = np.searchsorted(dist.levels, u_arr, side="left")
    # levels[-1] == 1.0, so idx can only reach size for u > 1; clamp defensively
    idx = np.minimum(idx, dist.size - 1)
    out = dist.sorted_sample[idx]
    if np.isscalar(u):
        return float(out)
    return out


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


def bvn_cdf_owens_t(x, y, correlation):
    """Bivariate normal CDF through Owen's T function, vectorised.

    Owen's (1956) reduction to two Owen's T functions, with h = min(x, y) and
    k = max(x, y) so the result is exactly symmetric in (x, y):

        Phi2 = Phi(h)/2 + Phi(k)/2 - T(h, a_h) - T(k, a_k) - beta,
        a_h = (k - c h) / (h sqrt(1 - c^2)),  a_k = (h - c k) / (k sqrt(1 - c^2)),

    where beta = 1/2 when h < 0 <= k and 0 otherwise. At h = k = 0 the limit
    1/4 + asin(c) / (2 pi) is used; c = +/-1 use the closed forms, and
    arguments beyond +/-40 are truncated. Broadcasts; all-scalar input gives
    a float.
    """
    c = np.asarray(correlation, dtype=float)
    if not np.all((c >= -1.0) & (c <= 1.0)):
        raise ValueError("correlation must lie in [-1, 1]")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.isnan(x).any() or np.isnan(y).any():
        raise ValueError("arguments must not be NaN")
    # adding +0.0 turns -0.0 into +0.0, so a zero argument gets a = +/-inf with
    # the sign of the other argument, and T(0, +/-inf) = +/-1/4
    h = np.minimum(x, y) + 0.0
    k = np.maximum(x, y) + 0.0
    h, k, c = np.broadcast_arrays(h, k, c)
    phi_h = ndtr(h)
    phi_k = ndtr(k)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.sqrt((1.0 - c) * (1.0 + c))
        a_h = (k - c * h) / (h * scale)
        a_k = (h - c * k) / (k * scale)
        owen = (
            0.5 * phi_h
            + 0.5 * phi_k
            - owens_t(h, a_h)
            - owens_t(k, a_k)
            - np.where((h < 0.0) & (k >= 0.0), 0.5, 0.0)
        )
    out = np.select(
        [c == 1.0, c == -1.0, h <= -40.0, k >= 40.0, (h == 0.0) & (k == 0.0)],
        [
            phi_h,
            np.maximum(phi_h + phi_k - 1.0, 0.0),
            0.0,
            phi_h,
            0.25 + np.arcsin(c) / (2.0 * math.pi),
        ],
        np.clip(owen, 0.0, 1.0),
    )
    return float(out) if out.ndim == 0 else out


def parse_price_rows(reader, calendar):
    """Dense panel from ``csv.reader`` rows, converting and checking one row at a time.

    The record has ``PricePanel``'s derived ``timestamps`` (the sorted union of
    in-session quote times) and ``prices`` (assets x timestamps, NaN where an
    asset has no quote), plus ``asset_ids``, ``calendar`` and ``excluded_count``.

    Rows are validated in file order (field count, symbol, timestamp, price),
    then per-symbol timestamps are checked in file order against the last
    in-session quote seen for that symbol, and each quote is placed by its own
    ``searchsorted`` into the panel.
    """
    try:
        header = next(reader)
    except StopIteration:
        raise PriceDataError("empty input: missing header row") from None
    if [h.strip() for h in header] != ["timestamp", "symbol", "price"]:
        raise PriceDataError("line 1: header must be 'timestamp,symbol,price'")

    raw_ts = []
    raw_sym = []
    raw_px = []
    lines = []
    for row in reader:
        if not row:
            continue
        # the physical line the record ends on; a quoted field may span lines
        lineno = reader.line_num
        if len(row) != 3:
            raise PriceDataError(f"line {lineno}: expected 3 fields, got {len(row)}")
        ts_text, symbol, price_text = (f.strip() for f in row)
        if not symbol:
            raise PriceDataError(f"line {lineno}: empty symbol")
        try:
            ts = np.datetime64(ts_text, "s")
        except ValueError:
            ts = np.datetime64("NaT")
        if np.isnat(ts):  # numpy reads "" and "NaT" as NaT, which is no timestamp
            raise PriceDataError(f"line {lineno}: unparseable timestamp {ts_text!r}")
        try:
            price = float(price_text)
        except ValueError:
            raise PriceDataError(f"line {lineno}: unparseable price {price_text!r}") from None
        if not np.isfinite(price) or price <= 0.0:
            raise PriceDataError(f"line {lineno}: price must be strictly positive, got {price_text}")
        raw_ts.append(ts)
        raw_sym.append(symbol)
        raw_px.append(price)
        lines.append(lineno)

    if not raw_ts:
        raise PriceDataError("input contains no data rows")

    ts_arr = np.array(raw_ts, dtype="datetime64[s]")
    keep = calendar.in_session_mask(ts_arr)
    excluded = int(np.count_nonzero(~keep))
    if not keep.any():
        raise PriceDataError("all rows fall outside trading sessions")

    symbols = sorted({raw_sym[k] for k in range(len(raw_sym)) if keep[k]})
    sym_index = {s: k for k, s in enumerate(symbols)}
    panel_ts = np.unique(ts_arr[keep])
    prices = np.full((len(symbols), panel_ts.size), np.nan)
    last_seen = {}
    for k in range(len(raw_ts)):
        if not keep[k]:
            continue
        sym = raw_sym[k]
        prev = last_seen.get(sym)
        if prev is not None and raw_ts[k] <= prev:
            raise PriceDataError(
                f"line {lines[k]}: timestamps for symbol {sym!r} must be strictly increasing"
            )
        last_seen[sym] = raw_ts[k]
        col = int(np.searchsorted(panel_ts, raw_ts[k]))
        prices[sym_index[sym], col] = raw_px[k]

    return SimpleNamespace(
        asset_ids=symbols,
        timestamps=panel_ts,
        prices=prices,
        calendar=calendar,
        excluded_count=excluded,
    )


def weekday_session_mask(calendar, timestamps):
    """In-session mask from a weekday count and a separate holiday pass.

    A day is a weekday when its day count since 1970-01-01 (a Thursday), plus
    three, is below five modulo seven; holidays are then removed with
    ``np.isin``. Clock bounds are inclusive, in whole minutes of the day.
    """
    ts = timestamps.astype("datetime64[s]")
    days = ts.astype("datetime64[D]")
    seconds = (ts - days).astype("timedelta64[s]").astype(np.int64)
    open_s = calendar.open_time.hour * 3600 + calendar.open_time.minute * 60
    close_s = calendar.close_time.hour * 3600 + calendar.close_time.minute * 60
    weekday = (days.astype(np.int64) + 3) % 7
    mask = (weekday < 5) & (seconds >= open_s) & (seconds <= close_s)
    if calendar.holidays:
        mask &= ~np.isin(days, np.array(sorted(calendar.holidays), dtype="datetime64[D]"))
    return mask


def session_returns(panel, interval):
    """ReturnMatrix built one session at a time.

    Within each session, the last panel timestamp at or before each endpoint
    is found first, then each asset's last quoted column up to it by a running
    maximum over quoted column indices.
    """
    if interval <= 0:
        raise PriceDataError("interval must be positive")
    session_minutes = panel.calendar.session_minutes
    if interval > session_minutes:
        raise PriceDataError(
            f"interval {interval} min exceeds the {session_minutes} min session"
        )
    per_session = session_minutes // interval
    n_assets = len(panel.asset_ids)

    day_of = panel.timestamps.astype("datetime64[D]")
    open_delta = np.timedelta64(
        panel.calendar.open_time.hour * 3600 + panel.calendar.open_time.minute * 60, "s"
    )
    step = np.timedelta64(interval * 60, "s")

    out_cols = []
    out_ts = []
    out_days = []
    for day in np.unique(day_of):
        lo = int(np.searchsorted(day_of, day, side="left"))
        hi = int(np.searchsorted(day_of, day, side="right"))
        sess_ts = panel.timestamps[lo:hi]
        sess_px = panel.prices[:, lo:hi]
        endpoints = day.astype("datetime64[s]") + open_delta + np.arange(per_session + 1) * step
        pos = np.searchsorted(sess_ts, endpoints, side="right") - 1
        valid = ~np.isnan(sess_px)
        col_idx = np.where(valid, np.arange(sess_ts.size)[None, :], -1)
        last_valid = np.maximum.accumulate(col_idx, axis=1)
        grid = np.full((n_assets, per_session + 1), np.nan)
        have_quote = pos >= 0
        if have_quote.any():
            lv = last_valid[:, pos[have_quote]]
            resolved = lv >= 0
            gathered = np.take_along_axis(sess_px, np.maximum(lv, 0), axis=1)
            grid[:, have_quote] = np.where(resolved, gathered, np.nan)
        endpoint_ok = ~np.isnan(grid).any(axis=0)
        col_ok = endpoint_ok[:-1] & endpoint_ok[1:]
        if not col_ok.any():
            continue
        prev = grid[:, :-1][:, col_ok]
        nxt = grid[:, 1:][:, col_ok]
        out_cols.append((nxt - prev) / prev)
        out_ts.append(endpoints[1:][col_ok])
        out_days.append(np.full(int(col_ok.sum()), day, dtype="datetime64[D]"))

    if not out_cols:
        raise PriceDataError("no complete return intervals could be formed")
    return ReturnMatrix(
        asset_ids=list(panel.asset_ids),
        interval=int(interval),
        returns=np.hstack(out_cols),
        timestamps=np.concatenate(out_ts),
        session_dates=np.concatenate(out_days),
    )


def price_csv_text(matrix, calendar, base_price=100.0, scale=1e-3):
    """Text of ``synth.write_price_csv``, by a row loop over numpy scalars."""
    per_session = {}
    for d in matrix.session_dates:
        key = d.item()
        per_session[key] = per_session.get(key, 0) + 1
    open_delta = np.timedelta64(
        calendar.open_time.hour * 3600 + calendar.open_time.minute * 60, "s"
    )
    step = np.timedelta64(matrix.interval * 60, "s")

    factors = 1.0 + scale * matrix.returns
    if np.any(factors <= 0.0):
        raise ValueError("scale too large: price path would cross zero")
    k = matrix.n_assets
    starts = base_price * (1.0 + np.arange(k, dtype=float) / 10.0)
    paths = np.empty((k, matrix.n_observations + 1))
    paths[:, 0] = starts
    np.cumprod(factors, axis=1, out=paths[:, 1:])
    paths[:, 1:] *= starts[:, None]

    lines = ["timestamp,symbol,price"]
    col = 0
    for day in sorted(per_session):
        n_cols = per_session[day]
        day64 = np.datetime64(day, "D").astype("datetime64[s]")
        endpoints = day64 + open_delta + np.arange(n_cols + 1) * step
        # endpoint e of this session corresponds to path column col + e
        for e, stamp in enumerate(endpoints):
            iso = str(stamp.astype("datetime64[s]"))
            for a in range(k):
                lines.append(f"{iso},{matrix.asset_ids[a]},{float(paths[a, col + e])!r}")
        col += n_cols
    return "\n".join(lines) + "\n"


def grid_csv_text(grid, permille=False):
    """Text of ``copula.write_grid_csv``, by a cell loop over numpy scalars."""
    m = grid.resolution
    lines = []
    header = "i,j,u_hi,v_hi,density,cumulative"
    if permille:
        header += ",density_permille"
    lines.append(header)
    for i in range(1, m + 1):
        u_hi = i / m
        for j in range(1, m + 1):
            v_hi = j / m
            dens = float(grid.density[i - 1, j - 1])
            cum = float(grid.cumulative[i, j])
            row = f"{i},{j},{u_hi!r},{v_hi!r},{dens!r},{cum!r}"
            if permille:
                row += f",{dens * 1000.0!r}"
            lines.append(row)
    return "\n".join(lines) + "\n"


def difference_csv_text(diff):
    """Text of ``gaussian.write_difference_csv``, by a cell loop over Python floats."""
    m = diff.resolution
    values = np.asarray(diff.values, dtype=float).tolist()
    lines = ["i,j,u_hi,v_hi,d_permille"]
    for i in range(1, m + 1):
        u_hi = i / m
        row = values[i - 1]
        for j in range(1, m + 1):
            lines.append(f"{i},{j},{u_hi!r},{j / m!r},{row[j - 1] * 1000.0!r}")
    return "\n".join(lines) + "\n"


def relation_csv_text(reports):
    """Text of ``taildep.write_relation_csv``, by a loop over (window, alpha) rows."""
    lines = ["window_start,window_end,mean_corr,alpha,lambda_lower,lambda_upper,lambda_gauss"]
    for rep in reports:
        start, end = rep.window_start.isoformat(), rep.window_end.isoformat()
        span = f"{start},{end},{rep.mean_correlation!r}"
        for alpha, lower, upper, gauss in zip(
            np.asarray(rep.tail.alphas, dtype=float).tolist(),
            np.asarray(rep.tail.lower, dtype=float).tolist(),
            np.asarray(rep.tail.upper, dtype=float).tolist(),
            np.asarray(rep.gaussian_tail.lower, dtype=float).tolist(),
        ):
            lines.append(f"{span},{alpha!r},{lower!r},{upper!r},{gauss!r}")
    return "\n".join(lines) + "\n"


def tail_curve_csv_text(curve):
    """Text of ``taildep.write_tail_curve_csv``, by a loop over alpha rows."""
    lines = ["alpha,lambda_lower,lambda_upper"]
    for alpha, lower, upper in zip(curve.alphas, curve.lower, curve.upper):
        lines.append(f"{float(alpha)!r},{float(lower)!r},{float(upper)!r}")
    return "\n".join(lines) + "\n"


def equicorrelated_gaussian(k, t, c, seed):
    """The K x T panel ``synth.sample_panel`` draws for the gaussian kind with c >= 0.

    One common factor plus idiosyncratic noise, drawn in that order and
    combined into a fresh array from two K x T temporaries.
    """
    rng = np.random.default_rng(seed)
    common = rng.standard_normal(t)
    noise = rng.standard_normal((k, t))
    return math.sqrt(c) * common[None, :] + math.sqrt(1.0 - c) * noise


def one_call_gaussian_density(corr, resolution):
    """(density, cumulative) of ``gaussian.average_gaussian_density``, from one
    ``gaussian_copula_cdf`` call over every distinct correlation and one
    ``sum(axis=0)`` over each weighted stack."""
    unique, counts = gaussian._distinct_correlations(corr)
    cumulative = gaussian._node_cumulative(unique[:, None, None], resolution)
    density = gaussian._cell_masses(cumulative)
    weights = counts[:, None, None]
    n_pairs = int(counts.sum())
    return (density * weights).sum(axis=0) / n_pairs, (cumulative * weights).sum(axis=0) / n_pairs


def window_reports_by_pair(matrix, window_days, resolution, alphas, upper_convention="literal"):
    """``taildep.windowed_reports``, one window at a time: each window's counts are
    ``loop_density_counts`` summed over its pairs i < j, and its Gaussian tails come from
    one ``gaussian_copula_cdf`` call over its own distinct rounded correlations."""
    windows = taildep.partition_windows(matrix, window_days)
    if matrix.n_assets < 2:
        raise ValueError("need at least two assets to form pairs")
    m = resolution
    reports = []
    for window in windows:
        rows = window.returns.tolist()
        counts = np.zeros((m, m), dtype=np.int64)
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                counts += np.array(loop_density_counts(rows[i], rows[j], m), dtype=np.int64)
        n_pairs = len(rows) * (len(rows) - 1) // 2
        total = n_pairs * window.n_observations
        cumulative = np.zeros((m + 1, m + 1))
        cumulative[1:, 1:] = counts.cumsum(axis=0).cumsum(axis=1) / total
        grid = CopulaGrid(m, counts / total, cumulative, total, n_pairs)
        corr = taildep.pearson_matrix(window)
        tail = taildep.tail_curve(grid, alphas, upper_convention=upper_convention)
        unique, pair_counts = gaussian._distinct_correlations(corr)
        a = tail.alphas[:, None]
        cop = gaussian.gaussian_copula_cdf(a, a, unique)
        gauss = (pair_counts * cop).sum(axis=1) / int(pair_counts.sum())
        start, end = window.period
        reports.append(taildep.WindowReport(
            start, end, taildep.mean_correlation(corr), tail,
            taildep.TailCurve(tail.alphas, gauss, gauss.copy()), window.n_observations, grid))
    return reports


def gaussian_copula_density(u, v, correlation: float):
    """Gaussian copula density on the open square (0, 1)^2 for |c| < 1.

    Equals the bivariate normal density over the product of the marginal
    densities at the normal quantiles; at u = v = 1/2 this is 1/sqrt(1 - c^2).
    """
    c = float(correlation)
    if not -1.0 <= c <= 1.0:
        raise ValueError("correlation must lie in [-1, 1]")
    if abs(c) == 1.0:
        raise ValueError("density requires |correlation| < 1")
    u_arr = np.asarray(u, dtype=float)
    v_arr = np.asarray(v, dtype=float)
    if np.any(u_arr <= 0.0) or np.any(u_arr >= 1.0) or np.any(v_arr <= 0.0) or np.any(v_arr >= 1.0):
        raise ValueError("density arguments must lie strictly inside (0, 1)")
    x = ndtri(u_arr)
    y = ndtri(v_arr)
    omc2 = (1.0 - c) * (1.0 + c)
    # form x*y before scaling so swapping u and v is bit-exact
    cross = x * y
    exponent = (c * c * (x * x + y * y) - 2.0 * c * cross) / (2.0 * omc2)
    out = np.exp(-exponent) / math.sqrt(omc2)
    return float(out) if (np.isscalar(u) and np.isscalar(v)) else out


def sample_bivariate_gaussian(c: float, n: int, seed: int):
    """n draws of a standard bivariate normal pair with correlation c.

    Uses the conditional decomposition y = c x + sqrt(1 - c^2) z; at c = 1 the
    second series equals the first exactly.
    """
    c = float(c)
    if not -1.0 <= c <= 1.0:
        raise ValueError("correlation must lie in [-1, 1]")
    if n < 1:
        raise ValueError("need at least one draw")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    z = rng.standard_normal(n)
    y = c * x + math.sqrt((1.0 - c) * (1.0 + c)) * z
    return x, y


def rank_transform(series) -> np.ndarray:
    """Map each observation to its ECDF value, elementwise.

    Output values lie on the grid {1/T, 2/T, ..., 1}; tied observations share
    the rank of the highest member of the tie group. The transform depends only
    on the ordering of the input, so any strictly increasing map applied to the
    series leaves the output unchanged.
    """
    sample = np.asarray(series, dtype=float)
    if sample.ndim != 1 or sample.size == 0:
        raise ValueError("series must be a non-empty one dimensional array")
    if not np.all(np.isfinite(sample)):
        raise ValueError("series values must be finite")
    ordered = np.sort(sample)
    return np.searchsorted(ordered, sample, side="right") / sample.size


def student_t_panel(k: int, t: int, rho: float, nu: float, seed: int) -> np.ndarray:
    """K x T draws of an equicorrelated multivariate Student t with shape rho and nu
    degrees of freedom.

    Column t is Z_t * sqrt(nu / W_t): Z_t holds K normals with correlation rho
    (one common factor plus noise), and the chi-square draw W_t with nu degrees
    of freedom is shared by all assets. Each pair then has the t copula with
    (rho, nu); for nu > 2 its Pearson correlation is rho.
    """
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    normals = math.sqrt(rho) * rng.standard_normal(t)
    normals = normals + math.sqrt(1.0 - rho) * rng.standard_normal((k, t))
    return normals * np.sqrt(nu / rng.chisquare(nu, t))
