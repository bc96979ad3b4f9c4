"""Statistical diagnostics: unit-root test, partial autocorrelation,
rank-sum comparison, two-cluster structure, cubic trend fit.

Everything here is pure numpy and the standard library; regressions go
through QR rather than normal equations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    DegenerateData,
    EmptySample,
    LagTooLarge,
    RankDeficient,
    SeriesTooShort,
    SingularRegression,
)

# Response-surface constants for the Dickey-Fuller t distribution with a
# constant term and a single unit root (MacKinnon 1994, 2010 revision).
# p = Phi(polynomial(tau)); small-p polynomial applies below TAU_STAR_C.
TAU_MAX_C = 2.74
TAU_MIN_C = -18.83
TAU_STAR_C = -1.61
TAU_C_SMALLP = (2.1659, 1.4412, 3.8269e-2)
TAU_C_LARGEP = (1.7339, 9.3202e-1, -1.2745e-1, -1.0368e-2)


def norm_sf(x: float) -> float:
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def mackinnon_pvalue(stat: float) -> float:
    """Approximate p-value of the ADF t statistic (constant-only case)."""
    if stat > TAU_MAX_C:
        return 1.0
    if stat < TAU_MIN_C:
        return 0.0
    coefs = TAU_C_SMALLP if stat <= TAU_STAR_C else TAU_C_LARGEP
    poly = 0.0
    for c in reversed(coefs):
        poly = poly * stat + c
    # Phi(poly) as the upper tail of -poly: 1 + erf cancels for poly < 0
    return norm_sf(-poly)


def _qr(X: np.ndarray):
    """Reduced QR of a full-rank design; raises SingularRegression."""
    q, r = np.linalg.qr(X)
    diag = np.abs(np.diag(r))
    if diag.min() <= 1e-12 * max(diag.max(), 1.0):
        raise SingularRegression("design matrix is rank deficient")
    return q, r


def _qr_lstsq(X: np.ndarray, y: np.ndarray):
    """Least squares through QR; returns (beta, residuals, R)."""
    q, r = _qr(X)
    beta = np.linalg.solve(r, q.T @ y)
    resid = y - X @ beta
    return beta, resid, r


class Stationarity(str, Enum):
    STATIONARY = "stationary"
    NON_STATIONARY = "non-stationary"


@dataclass(frozen=True)
class AdfResult:
    statistic: float
    p_value: float
    n_lags_used: int
    alpha: float

    @property
    def conclusion(self) -> Stationarity:
        return (Stationarity.STATIONARY if self.p_value < self.alpha
                else Stationarity.NON_STATIONARY)


def _adf_design(y: np.ndarray, k: int, offset: int):
    """Rows t = offset..end of: dy_t ~ [y_{t-1}, dy_{t-1}..dy_{t-k}, 1]."""
    dy = np.diff(y)
    t = np.arange(offset, len(dy))
    cols = [y[t]]  # y_{t-1} relative to dy index t
    for i in range(1, k + 1):
        cols.append(dy[t - i])
    cols.append(np.ones(len(t)))
    return np.column_stack(cols), dy[t]


def adf_test(y, max_lags: int | None = None, alpha: float = 0.05) -> AdfResult:
    """Augmented Dickey-Fuller unit-root test, constant-only regression.

    The null is a unit root (non-stationary); rejection at `alpha` concludes
    stationarity. Lag order is chosen by AIC up to `max_lags`, which
    defaults to floor(12 * (n/100)^(1/4)).

    The p-value comes from the MacKinnon response-surface approximation,
    constants embedded above.
    """
    y = np.asarray(y, dtype=float)
    n = len(y)
    if n < 20:
        raise SeriesTooShort(f"need >= 20 observations, got {n}")
    if max_lags is None:
        max_lags = int(12.0 * (n / 100.0) ** 0.25)
    max_lags = max(0, min(max_lags, (n - 1) // 2 - 2))

    # lag selection on the common trimmed sample
    best = (math.inf, 0)
    for k in range(max_lags + 1):
        X, target = _adf_design(y, k, max_lags)
        _, resid, _ = _qr_lstsq(X, target)
        nobs = len(target)
        ssr = float(resid @ resid)
        aic = nobs * math.log(ssr / nobs) + 2.0 * (k + 2)
        if aic < best[0]:
            best = (aic, k)
    k = best[1]

    X, target = _adf_design(y, k, k)
    beta, resid, r = _qr_lstsq(X, target)
    nobs, ncols = X.shape
    sigma2 = float(resid @ resid) / (nobs - ncols)
    rinv = np.linalg.solve(r, np.eye(ncols))
    se = math.sqrt(sigma2 * float((rinv @ rinv.T)[0, 0]))
    stat = float(beta[0] / se)
    return AdfResult(stat, mackinnon_pvalue(stat), k, alpha)


def _residualize(targets, condition):
    """Residuals of each target after OLS on the conditioning block plus
    constant. The block is factored once and shared by the targets."""
    n = len(condition)
    X = np.column_stack([condition, np.ones(n)]) if condition.size \
        else np.ones((n, 1))
    q, r = _qr(X)
    return [y - X @ np.linalg.solve(r, q.T @ y) for y in targets]


def pacf(y, max_lag: int) -> np.ndarray:
    """Partial autocorrelation by the regression (residual) method.

    Entry k is the Pearson correlation between y_t and y_{t-k} after both
    are regressed on the intervening lags, so entry 1 is exactly the lag-1
    Pearson autocorrelation. Entry 0 is 1 by convention.
    """
    y = np.asarray(y, dtype=float)
    n = len(y)
    if max_lag >= n / 4:
        raise LagTooLarge(f"max_lag {max_lag} must be < n/4 = {n / 4:g}")
    out = np.empty(max_lag + 1)
    out[0] = 1.0
    for k in range(1, max_lag + 1):
        t = np.arange(k, n)
        target = y[t]
        oldest = y[t - k]
        inter = np.column_stack([y[t - i] for i in range(1, k)]) \
            if k > 1 else np.empty((len(t), 0))
        r_t, r_o = _residualize((target, oldest), inter)
        out[k], _ = pearson(r_t, r_o)
    return out


def pacf_durbin_levinson(y, max_lag: int) -> np.ndarray:
    """Partial autocorrelation via the Durbin-Levinson recursion on the
    sample autocovariance (independent cross-check of `pacf`)."""
    y = np.asarray(y, dtype=float)
    n = len(y)
    if max_lag >= n / 4:
        raise LagTooLarge(f"max_lag {max_lag} must be < n/4 = {n / 4:g}")
    yc = y - y.mean()
    gamma = np.array([yc[: n - k] @ yc[k:] for k in range(max_lag + 1)]) / n

    out = np.empty(max_lag + 1)
    out[0] = 1.0
    phi = np.zeros((max_lag + 1, max_lag + 1))
    v = gamma[0]
    for k in range(1, max_lag + 1):
        acc = gamma[k] - sum(phi[k - 1, j] * gamma[k - j] for j in range(1, k))
        phi[k, k] = acc / v
        for j in range(1, k):
            phi[k, j] = phi[k - 1, j] - phi[k, k] * phi[k - 1, k - j]
        v = v * (1.0 - phi[k, k] ** 2)
        out[k] = phi[k, k]
    return out


def pearson(x, y):
    """Pearson correlation with a zero-variance flag.

    Returns (r, degenerate). When either input has zero variance the
    correlation is undefined; it is reported as 0.0 with the flag set.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xc = x - x.mean()
    yc = y - y.mean()
    sx = math.sqrt(float(xc @ xc))
    sy = math.sqrt(float(yc @ yc))
    if sx == 0.0 or sy == 0.0:
        return 0.0, True
    return float((xc @ yc) / (sx * sy)), False


class MwuMethod(str, Enum):
    EXACT_PERMUTATION = "exact_permutation"
    NORMAL_APPROX = "normal_approx"


@dataclass(frozen=True)
class MwuResult:
    u_statistic: float
    p_value: float
    method: MwuMethod
    null_mean: float
    null_sd: float


EXACT_THRESHOLD_MAX = 12  # keeps the exact count's table small


def _midranks(x):
    """(midranks of x, size of each tie group in sorted order).

    Tied values share the mean of their ordinal ranks, as scipy's
    ``rankdata`` gives them. NaNs sort last and form one group, as in
    ``np.unique``; any NaN makes every rank NaN, as ``rankdata`` does.
    """
    order = np.argsort(x, kind="stable")
    s = x[order]
    first = np.r_[True, s[1:] != s[:-1]]     # s[i] starts a tie group
    has_nan = np.isnan(s[-1])
    if has_nan:
        first[np.searchsorted(s, np.nan) + 1:] = False
    bounds = np.append(np.flatnonzero(first), len(s))
    ranks = np.full(len(s), np.nan)
    if not has_nan:
        dense = np.cumsum(first)
        ranks[order] = 0.5 * (bounds[dense] + bounds[dense - 1] + 1)
    return ranks, np.diff(bounds)


def mwu_test(a, b, exact_threshold: int = 12) -> MwuResult:
    """One-tailed Mann-Whitney U test of H1: `a` is shifted right of `b`.

    Small samples (min size <= exact_threshold, at most 12) use the exact
    permutation null of the rank sum, counted over subsets of the pooled
    midranks (Mann & Whitney 1947). Larger samples use the normal
    approximation with tie and continuity corrections.
    """
    if not 0 <= exact_threshold <= EXACT_THRESHOLD_MAX:
        raise ValueError(f"exact_threshold {exact_threshold} not in "
                         f"[0, {EXACT_THRESHOLD_MAX}]")
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n1, n2 = len(a), len(b)
    if n1 == 0 or n2 == 0:
        raise EmptySample("both samples must be nonempty")

    pooled = np.concatenate([a, b])
    ranks, counts = _midranks(pooled)
    u_obs = float(ranks[:n1].sum() - n1 * (n1 + 1) / 2.0)

    n = n1 + n2
    null_mean = n1 * n2 / 2.0
    tie_term = float(((counts ** 3 - counts).sum()) / (n * (n - 1))) if n > 1 else 0.0
    null_sd = math.sqrt(n1 * n2 / 12.0 * ((n + 1) - tie_term))

    if min(n1, n2) <= exact_threshold:
        if math.isnan(u_obs):  # a NaN made every midrank NaN
            return MwuResult(u_obs, math.nan, MwuMethod.EXACT_PERMUTATION,
                             null_mean, null_sd)
        # midranks are multiples of 1/2, so doubled ranks are integers;
        # ways[j, s] counts the j-subsets of the pool with doubled rank
        # sum s (exact in float64 below 2**53)
        r2 = np.rint(2.0 * ranks).astype(np.int64)
        k = min(n1, n2)
        top = int(np.sort(r2)[n - k:].sum())
        ways = np.zeros((k + 1, top + 1))
        ways[0, 0] = 1.0
        for r in r2:
            ways[1:, r:] += ways[:-1, :top + 1 - r]
        s_obs = int(r2[:n1].sum())
        if k == n1:
            count = ways[k, s_obs:].sum()
        else:  # S_a >= s_obs  <=>  S_b <= total - s_obs
            count = ways[k, :int(r2.sum()) - s_obs + 1].sum()
        return MwuResult(u_obs, float(count / math.comb(n, k)),
                         MwuMethod.EXACT_PERMUTATION, null_mean, null_sd)

    if null_sd == 0.0:
        return MwuResult(u_obs, 1.0, MwuMethod.NORMAL_APPROX, null_mean, 0.0)
    z = (u_obs - null_mean - 0.5) / null_sd
    return MwuResult(u_obs, norm_sf(z), MwuMethod.NORMAL_APPROX,
                     null_mean, null_sd)


@dataclass(frozen=True)
class KmeansResult:
    labels: np.ndarray
    centroids: np.ndarray          # (2, 2), ordered by first coordinate
    correlations: tuple            # per-cluster Pearson r of the two columns
    inertia: float


def _kmeans_once(points, rng):
    n = len(points)
    # k-means++ seeding for k = 2
    c0 = points[rng.integers(n)]
    d2 = np.sum((points - c0) ** 2, axis=1)
    total = d2.sum()
    if total <= 0:
        raise DegenerateData("all points identical")
    c1 = points[rng.choice(n, p=d2 / total)]
    centroids = np.vstack([c0, c1])

    labels = np.zeros(n, dtype=int)
    for _ in range(100):
        dists = np.linalg.norm(points[:, None, :] - centroids[None], axis=2)
        new_labels = dists.argmin(axis=1)
        for cluster in (0, 1):
            members = points[new_labels == cluster]
            if len(members) == 0:  # re-seed an empty cluster at the farthest point
                far = np.argmax(dists.min(axis=1))
                centroids[cluster] = points[far]
                new_labels[far] = cluster
            else:
                centroids[cluster] = members.mean(axis=0)
        if np.array_equal(new_labels, labels):
            labels = new_labels
            break
        labels = new_labels
    inertia = float(np.sum((points - centroids[labels]) ** 2))
    return labels, centroids, inertia


def kmeans2(points, seed: int = 0, n_restarts: int = 10) -> KmeansResult:
    """Two-cluster k-means with k-means++ seeding and restarts.

    Returns labels (ordered so cluster 0 has the smaller first-coordinate
    centroid), the centroids, and the per-cluster Pearson correlation of
    the two columns.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 2:
        raise DegenerateData("expected an (n, 2) matrix")
    if len(points) < 4:
        raise DegenerateData("need at least 4 points")
    if np.all(points == points[0]):
        raise DegenerateData("all points identical")

    rng = np.random.default_rng(seed)
    best = None
    for _ in range(max(1, n_restarts)):
        labels, centroids, inertia = _kmeans_once(points, rng)
        if best is None or inertia < best[2]:
            best = (labels, centroids, inertia)
    labels, centroids, inertia = best

    order = np.lexsort((centroids[:, 1], centroids[:, 0]))
    remap = np.empty(2, dtype=int)
    remap[order] = np.arange(2)
    labels = remap[labels]
    centroids = centroids[order]

    corrs = []
    for cluster in (0, 1):
        members = points[labels == cluster]
        if len(members) < 2:
            corrs.append(0.0)
        else:
            r, _ = pearson(members[:, 0], members[:, 1])
            corrs.append(r)
    return KmeansResult(labels, centroids, tuple(corrs), inertia)


def polyfit_cubic(x, y) -> np.ndarray:
    """Least-squares cubic fit, coefficients ordered constant..cubic.

    Solved by QR on the column-scaled Vandermonde design, never by normal
    equations.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(np.unique(x)) < 4:
        raise RankDeficient("need at least 4 distinct x values")
    V = np.vander(x, 4, increasing=True)
    scale = np.linalg.norm(V, axis=0)
    try:
        beta, _, _ = _qr_lstsq(V / scale, y)
    except SingularRegression as exc:
        raise RankDeficient(str(exc)) from None
    return beta / scale
