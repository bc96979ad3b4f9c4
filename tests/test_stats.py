import itertools
import math

import numpy as np
import pytest
from scipy.special import erfc, ndtr
from scipy.stats import mannwhitneyu, rankdata

from spotvol import (
    adf_test,
    kmeans2,
    mwu_test,
    pacf,
    pacf_durbin_levinson,
    pearson,
    polyfit_cubic,
)
from spotvol.errors import (
    DegenerateData,
    EmptySample,
    LagTooLarge,
    RankDeficient,
    SeriesTooShort,
    SingularRegression,
)
from spotvol.stats import (
    MwuMethod,
    Stationarity,
    _adf_design,
    _midranks,
    TAU_C_SMALLP,
    _qr_lstsq,
    mackinnon_pvalue,
    norm_sf,
)


# ---------------------------------------------------------------- normal tails

def test_normal_sf_matches_scipy_special():
    # the standard library's erfc against scipy's: to 1e-14 relative down
    # to 1e-20 and 1e-13 down to 1e-300
    x = np.linspace(-40.0, 40.0, 8001)
    z = x / math.sqrt(2.0)
    sf = np.array([norm_sf(v) for v in x.tolist()])
    ref_erfc = erfc(z)
    rel = np.abs(2.0 * sf - ref_erfc) / np.where(ref_erfc > 0, ref_erfc, 1.0)
    assert np.all(rel[ref_erfc >= 1e-20] <= 1e-14)
    assert np.all(rel[ref_erfc >= 1e-300] <= 1e-13)


# ---------------------------------------------------------------- ADF

def test_mackinnon_pvalue_lower_tail_keeps_its_digits():
    # Phi(poly) computed as 1 + erf cancels to 0.0 below about 1e-16
    def poly(stat):
        return sum(c * stat ** i for i, c in enumerate(TAU_C_SMALLP))

    def rel(a, b):
        return abs(a - b) / abs(b)

    assert rel(mackinnon_pvalue(-10.0), 1.9e-17) < 0.05
    assert rel(mackinnon_pvalue(-10.0), ndtr(poly(-10.0))) < 1e-13
    assert rel(mackinnon_pvalue(-8.0), norm_sf(-poly(-8.0))) < 1e-14
    assert rel(mackinnon_pvalue(-8.0), ndtr(poly(-8.0))) < 1e-13


def test_adf_random_walks_fail_to_reject():
    hits = 0
    for seed in range(5):
        rng = np.random.default_rng(1000 + seed)
        walk = np.cumsum(rng.standard_normal(500))
        if adf_test(walk).p_value > 0.05:
            hits += 1
    assert hits >= 4


def test_adf_white_noise_rejects():
    hits = 0
    for seed in range(5):
        rng = np.random.default_rng(2000 + seed)
        noise = rng.standard_normal(500)
        if adf_test(noise).p_value < 0.01:
            hits += 1
    assert hits >= 4


def test_adf_trend_stress_no_crash():
    rng = np.random.default_rng(0)
    y = np.linspace(0, 10, 300) + 1e-3 * rng.standard_normal(300)
    res = adf_test(y)
    assert math.isfinite(res.statistic)
    assert 0.0 <= res.p_value <= 1.0


def test_adf_constant_shift_invariance():
    rng = np.random.default_rng(4)
    y = np.cumsum(rng.standard_normal(400))
    a = adf_test(y)
    b = adf_test(y + 1e4)
    assert abs(a.statistic - b.statistic) < 1e-8
    assert a.n_lags_used == b.n_lags_used


def _adf_lag_reference(y, max_lags):
    """The per-lag AIC search that `adf_test`'s one QR replaced: one fit
    per candidate lag on the common trimmed sample."""
    best = (math.inf, 0)
    for k in range(max_lags + 1):
        X, target = _adf_design(y, k, max_lags)
        _, resid, _ = _qr_lstsq(X, target)
        nobs = len(target)
        aic = nobs * math.log(float(resid @ resid) / nobs) + 2.0 * (k + 2)
        if aic < best[0]:
            best = (aic, k)
    return best[1]


@pytest.mark.parametrize("max_lags", [None, 0, 1, 5, 12, 40])
def test_adf_lag_search_matches_per_lag_loop(max_lags):
    for seed in range(25):
        rng = np.random.default_rng(500 + seed)
        n = int(rng.integers(60, 400))
        phi = rng.uniform(-0.6, 1.0)
        y = np.empty(n)
        y[0] = rng.standard_normal()
        for t in range(1, n):
            y[t] = phi * y[t - 1] + rng.standard_normal()
        res = adf_test(y, max_lags)
        lags = int(12.0 * (n / 100.0) ** 0.25) if max_lags is None else max_lags
        assert res.n_lags_used == _adf_lag_reference(y, lags), (seed, n, phi)


def test_adf_lag_search_at_the_clamp():
    # a lag bound far past (n - 1) // 2 - 2 searches up to the clamp, as
    # the per-lag loop does
    y = np.cumsum(np.random.default_rng(6).standard_normal(300))
    res = adf_test(y, 10 ** 5)
    assert res.n_lags_used == _adf_lag_reference(y, (300 - 1) // 2 - 2)
    assert math.isfinite(res.statistic)


def test_adf_conclusion_and_errors():
    rng = np.random.default_rng(9)
    res = adf_test(rng.standard_normal(300))
    assert res.conclusion is Stationarity.STATIONARY
    assert (res.p_value < res.alpha) == (res.conclusion is Stationarity.STATIONARY)
    with pytest.raises(SeriesTooShort):
        adf_test(np.ones(10))


# ---------------------------------------------------------------- PACF

def test_pacf_white_noise_within_band():
    # the 2/sqrt(n) band covers ~95% of lags; aggregate over realizations
    # so the binomial wobble of a single series cannot flip the verdict
    inside = total = 0
    for seed in (21, 22, 23, 24, 25):
        rng = np.random.default_rng(seed)
        y = rng.standard_normal(1000)
        vals = pacf(y, 20)
        band = 2.0 / math.sqrt(len(y))
        inside += int(np.sum(np.abs(vals[1:]) < band))
        total += 20
    assert inside / total >= 0.89


def test_pacf_ar1_cutoff():
    rng = np.random.default_rng(35)
    n = 2000
    y = np.empty(n)
    y[0] = rng.standard_normal()
    for t in range(1, n):
        y[t] = 0.6 * y[t - 1] + rng.standard_normal()
    vals = pacf(y, 10)
    assert 0.55 < vals[1] < 0.65
    assert np.all(np.abs(vals[2:]) < 0.05)


def test_pacf_lag1_equals_pearson():
    rng = np.random.default_rng(5)
    y = np.cumsum(rng.standard_normal(300))
    vals = pacf(y, 3)
    r, _ = pearson(y[1:], y[:-1])
    assert abs(vals[1] - r) < 1e-10


def test_pacf_agrees_with_durbin_levinson():
    rng = np.random.default_rng(14)
    n = 1500
    y = np.empty(n)
    y[0] = rng.standard_normal()
    for t in range(1, n):
        y[t] = 0.5 * y[t - 1] + rng.standard_normal()
    a = pacf(y, 12)
    b = pacf_durbin_levinson(y, 12)
    assert np.max(np.abs(a[1:] - b[1:])) < 0.01


def _pacf_two_qr(y, max_lag):
    """The regression-method PACF with one QR per target: the intervening
    lags are factored twice per lag, once for each regression."""
    n = len(y)
    out = np.empty(max_lag + 1)
    out[0] = 1.0
    for k in range(1, max_lag + 1):
        t = np.arange(k, n)
        X = np.column_stack([y[t - i] for i in range(1, k)] + [np.ones(len(t))])
        _, r_t, _ = _qr_lstsq(X, y[t])
        _, r_o, _ = _qr_lstsq(X, y[t - k])
        out[k], _ = pearson(r_t, r_o)
    return out


def test_pacf_equals_two_qr_reference():
    rng = np.random.default_rng(8)
    e = rng.standard_normal(1200)
    ar = np.empty_like(e)
    ar[0] = e[0]
    for t in range(1, len(e)):
        ar[t] = 0.7 * ar[t - 1] + e[t]
    days = np.arange(len(e))
    for y in (e, ar, np.cumsum(e), 50.0 + 0.01 * days + np.sin(days / 7.0) + e):
        assert np.array_equal(pacf(y, 42), _pacf_two_qr(y, 42))


def test_pacf_rank_deficient_block():
    # a constant series makes every lag column parallel to the constant
    with pytest.raises(SingularRegression):
        pacf(np.full(100, 3.0), 5)


def test_pacf_lag_too_large():
    with pytest.raises(LagTooLarge):
        pacf(np.arange(40.0), 10)
    with pytest.raises(LagTooLarge):
        pacf_durbin_levinson(np.arange(40.0), 10)


# ---------------------------------------------------------------- MWU

@pytest.mark.parametrize("x", [
    np.random.default_rng(4).standard_normal(50),              # untied
    np.random.default_rng(5).integers(0, 6, 50).astype(float),  # tied
    np.full(9, 2.5),                                           # all equal
    np.array([3.0]),
])
def test_midranks_match_rankdata(x):
    ranks, counts = _midranks(x)
    assert np.array_equal(ranks, rankdata(x))
    assert np.array_equal(counts, np.unique(x, return_counts=True)[1])


def test_midranks_nan_propagates():
    ranks, counts = _midranks(np.array([2.0, np.nan, 1.0, np.nan, 2.0]))
    assert np.isnan(ranks).all()
    assert counts.tolist() == [1, 2, 2]  # the NaNs form one group


def test_mwu_nan_input():
    # NaN makes every midrank NaN: both branches return NaN u and p
    a = np.r_[np.arange(20.0), np.nan]
    res = mwu_test(a, np.arange(20.0) + 0.5)
    assert np.isnan(res.u_statistic) and np.isnan(res.p_value)
    assert res.method is MwuMethod.NORMAL_APPROX
    assert res.null_sd == math.sqrt(21 * 20 / 12.0 * 42)
    for x, y in (([1.0, 2.0, np.nan], [3.0, 4.0, 5.0]),
                 ([1.0, 2.0, 3.0], [np.nan, np.nan])):
        res = mwu_test(x, y)
        assert np.isnan(res.u_statistic) and np.isnan(res.p_value)
        assert res.method is MwuMethod.EXACT_PERMUTATION
        assert res.null_mean == len(x) * len(y) / 2.0


def test_mwu_paper_null_parameters():
    rng = np.random.default_rng(0)
    a = rng.standard_normal(144)
    b = rng.standard_normal(144)
    res = mwu_test(a, b)
    assert res.null_mean == 10368.0
    assert res.null_sd == pytest.approx(math.sqrt(144 * 144 * 289 / 12.0))
    assert res.null_sd == pytest.approx(706.68, abs=0.01)
    assert res.method is MwuMethod.NORMAL_APPROX


def test_mwu_identical_samples_half():
    rng = np.random.default_rng(8)
    a = rng.standard_normal(20)
    res = mwu_test(a, a.copy(), exact_threshold=0)
    assert res.p_value == pytest.approx(0.5, abs=0.05)


def test_mwu_exact_enumeration_extremes():
    low, high = [1.0, 2.0, 3.0], [4.0, 5.0, 6.0]
    res = mwu_test(low, high)
    assert res.method is MwuMethod.EXACT_PERMUTATION
    assert res.u_statistic == 0.0
    assert res.p_value == 1.0
    rev = mwu_test(high, low)
    assert rev.u_statistic == 9.0
    assert rev.p_value == pytest.approx(1.0 / 20.0)
    # the criterion-10 shape: 12 folds against 12, every baseline worse
    sep = mwu_test(np.arange(12.0) + 12.0, np.arange(12.0))
    assert sep.p_value == 1.0 / math.comb(24, 12)


def _enumerated_p(a, b):
    """Independent enumeration of the permutation null of the rank sum."""
    n1, n = len(a), len(a) + len(b)
    ranks = rankdata(np.concatenate([a, b]))
    obs = ranks[:n1].sum()
    count = sum(1 for c in itertools.combinations(range(n), n1)
                if ranks[list(c)].sum() >= obs - 1e-9)
    return count / math.comb(n, n1)


def test_mwu_exact_enumeration_oracle():
    rng = np.random.default_rng(77)
    a, b = rng.standard_normal(5), rng.standard_normal(4)
    assert mwu_test(a, b).p_value == _enumerated_p(a, b)
    # 13 integers in 0..3 tie, so some midranks are half-integers
    a, b = rng.integers(0, 4, 7).astype(float), rng.integers(0, 4, 6).astype(float)
    assert mwu_test(a, b).p_value == _enumerated_p(a, b)
    assert mwu_test(b, a).p_value == _enumerated_p(b, a)


def test_mwu_normal_vs_exact_agreement():
    rng = np.random.default_rng(99)
    deltas = []
    for _ in range(10):
        a = rng.standard_normal(8)
        b = rng.standard_normal(8)
        exact = mwu_test(a, b, exact_threshold=12)
        approx = mwu_test(a, b, exact_threshold=0)
        assert exact.method is MwuMethod.EXACT_PERMUTATION
        assert approx.method is MwuMethod.NORMAL_APPROX
        deltas.append(abs(exact.p_value - approx.p_value))
    assert max(deltas) < 0.02


def test_mwu_exact_counting_matches_scipy():
    # C(26, 12) subsets: far beyond enumeration, still counted exactly
    rng = np.random.default_rng(13)
    for n1, n2 in ((12, 14), (14, 12)):
        a, b = rng.standard_normal(n1), rng.standard_normal(n2)
        res = mwu_test(a, b, exact_threshold=12)
        assert res.method is MwuMethod.EXACT_PERMUTATION
        ref = mannwhitneyu(a, b, method="exact", alternative="greater").pvalue
        assert res.p_value == pytest.approx(ref, rel=1e-12, abs=1e-15)


def test_mwu_exact_threshold_bounds():
    with pytest.raises(ValueError):
        mwu_test([1.0, 2.0], [3.0], exact_threshold=13)
    with pytest.raises(ValueError):
        mwu_test([1.0, 2.0], [3.0], exact_threshold=-1)


def test_mwu_empty():
    with pytest.raises(EmptySample):
        mwu_test([], [1.0])


# ---------------------------------------------------------------- K-means

def test_kmeans_separated_blobs():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((40, 2))
    b = rng.standard_normal((40, 2)) + 100.0
    points = np.vstack([a, b])
    res = kmeans2(points, seed=0)
    assert np.all(res.labels[:40] == 0)
    assert np.all(res.labels[40:] == 1)
    assert res.centroids[0][0] < res.centroids[1][0]


def test_kmeans_identical_points():
    with pytest.raises(DegenerateData):
        kmeans2(np.ones((10, 2)), seed=0)
    with pytest.raises(DegenerateData):
        kmeans2(np.ones((3, 2)), seed=0)


def test_kmeans_linear_cluster_correlation():
    x = np.linspace(0, 1, 30)
    linear = np.column_stack([x, 2.0 * x + 1.0])
    far = np.column_stack([x + 100.0, -3.0 * (x + 100.0)])
    res = kmeans2(np.vstack([linear, far]), seed=1)
    assert abs(res.correlations[0] - 1.0) < 1e-12
    assert abs(res.correlations[1] + 1.0) < 1e-12


def test_kmeans_deterministic():
    rng = np.random.default_rng(6)
    pts = rng.standard_normal((60, 2))
    a = kmeans2(pts, seed=9)
    b = kmeans2(pts, seed=9)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.centroids, b.centroids)


# ---------------------------------------------------------------- polyfit

def test_polyfit_exact_cubic():
    x = np.linspace(-3, 3, 25)
    y = 2.0 + 3.0 * x - x ** 2 + 0.5 * x ** 3
    coeffs = polyfit_cubic(x, y)
    assert np.allclose(coeffs, [2.0, 3.0, -1.0, 0.5], atol=1e-8)


def test_polyfit_constant():
    x = np.linspace(0, 5, 12)
    coeffs = polyfit_cubic(x, np.full(12, 7.5))
    assert coeffs[0] == pytest.approx(7.5, abs=1e-9)
    assert np.allclose(coeffs[1:], 0.0, atol=1e-9)


def test_polyfit_residual_orthogonality():
    rng = np.random.default_rng(11)
    x = rng.uniform(-20, 35, 200)
    y = rng.standard_normal(200) * 50 + 0.01 * x ** 3
    coeffs = polyfit_cubic(x, y)
    V = np.vander(x, 4, increasing=True)
    resid = y - V @ coeffs
    scaled = V / np.linalg.norm(V, axis=0)
    assert np.max(np.abs(scaled.T @ resid)) < 1e-6


def test_polyfit_rank_deficient():
    with pytest.raises(RankDeficient):
        polyfit_cubic(np.array([1.0, 1.0, 2.0, 2.0, 3.0]), np.ones(5))


# ---------------------------------------------------------------- pearson

def test_pearson_flags_zero_variance():
    r, flag = pearson(np.ones(10), np.arange(10.0))
    assert r == 0.0 and flag
    r2, flag2 = pearson(np.arange(10.0), 2 * np.arange(10.0))
    assert abs(r2 - 1.0) < 1e-12 and not flag2
