"""Drift detector tests with independent statistical oracles."""

from __future__ import annotations

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import kolmogorov as scipy_kolmogorov
from scipy.stats import ks_2samp

from ecdrive import drift
from ecdrive import (
    SlidingWindow,
    confidence_gate,
    fit,
    ks_two_sample,
    median_bandwidth,
    mmd_permutation,
    predict,
    predict_windows,
)


def rbf_block(a, b, bandwidth):
    """Kernel block from squared coordinate differences, added one feature at a time."""
    d2 = np.zeros((a.shape[0], b.shape[0]))
    for k in range(a.shape[1]):
        diff = a[:, k, None] - b[None, :, k]
        d2 += diff * diff
    return np.exp(-d2 / (2.0 * bandwidth * bandwidth))


def cross_sum(k_xy):
    """Sum of an x-y kernel block as the detector adds it: per y column, then across."""
    return np.array([column.sum() for column in k_xy.T]).sum()


def loop_mmd_permutation(kernel, n, n_perm, seed):
    """Oracle: one unbiased MMD^2 per permutation, each from its own index gather."""

    def mmd2(idx_x, idx_y):
        k_xx = kernel[np.ix_(idx_x, idx_x)]
        k_yy = kernel[np.ix_(idx_y, idx_y)]
        k_xy = kernel[np.ix_(idx_x, idx_y)]
        a, b = idx_x.size, idx_y.size
        term_xx = (k_xx.sum() - np.trace(k_xx)) / (a * (a - 1))
        term_yy = (k_yy.sum() - np.trace(k_yy)) / (b * (b - 1))
        return float(term_xx + term_yy - 2.0 * (cross_sum(k_xy) / (a * b)))

    total = kernel.shape[0]
    observed = mmd2(np.arange(n), np.arange(n, total))
    rng = np.random.default_rng(seed)
    exceed = 0
    for _ in range(n_perm):
        perm = rng.permutation(total)
        exceed += mmd2(perm[:n], perm[n:]) >= observed - 1e-12
    return observed, (1 + exceed) / (1 + n_perm)


def block_mmd_test(x, y, bandwidth, n_perm, seed):
    """Oracle: the whole-window test, every kernel block of the window evaluated anew.

    A copy of the batched test as it ran before the sliding window: the
    masks and the reference-pair sums come from the same draws and
    reductions as at ``fit``, the x-y and y-y blocks from scratch and every
    permutation's sums from mask-times-kernel block products. The observed
    x-y sum adds per-column sums, in the window's summation order.
    """
    n, m = x.shape[0], y.shape[0]
    rng = np.random.default_rng(seed)
    in_x = np.zeros((n_perm, n + m))
    for row in in_x:
        row[rng.permutation(n + m)[:n]] = 1.0

    def rowdot(a, b):
        return np.einsum("ij,ij->i", a, b)

    def offdiag_mean(k):
        return (k.sum() - np.trace(k)) / (k.shape[0] * (k.shape[0] - 1))

    k_xx = rbf_block(x, x, bandwidth)
    a_x, a_y = in_x[:, :n], in_x[:, n:]
    b_x, b_y = 1.0 - a_x, 1.0 - a_y
    ak_xx = a_x @ k_xx
    ref_aa = rowdot(ak_xx, a_x) - a_x @ np.diag(k_xx)
    ref_bb = rowdot(b_x @ k_xx, b_x) - b_x @ np.diag(k_xx)
    ref_ab = rowdot(ak_xx, b_x)

    k_xy = rbf_block(x, y, bandwidth)
    k_yy = rbf_block(y, y, bandwidth)
    observed = float(offdiag_mean(k_xx) + offdiag_mean(k_yy) - 2.0 * (cross_sum(k_xy) / (n * m)))
    ak_xy, bk_xy = a_x @ k_xy, b_x @ k_xy
    ak_yy, bk_yy = a_y @ k_yy, b_y @ k_yy
    diag = np.diag(k_yy)
    sum_aa = ref_aa + 2.0 * rowdot(ak_xy, a_y) + rowdot(ak_yy, a_y) - a_y @ diag
    sum_bb = ref_bb + 2.0 * rowdot(bk_xy, b_y) + rowdot(bk_yy, b_y) - b_y @ diag
    sum_ab = ref_ab + rowdot(ak_xy, b_y) + rowdot(bk_xy, a_y) + rowdot(ak_yy, b_y)
    permuted = sum_aa / (n * (n - 1)) + sum_bb / (m * (m - 1)) - 2.0 * sum_ab / (n * m)
    exceed = int(np.count_nonzero(permuted >= observed - drift.TIE_TOLERANCE))
    return observed, (1 + exceed) / (1 + n_perm)


def sliding_stream(n_ref, window, d, seed):
    """A reference and a stream of 4 windows' length that shifts halfway.

    The kind of data cycles with the seed: plain normal draws; draws rounded
    to one decimal (exact ties and repeated rows); a constant reference with
    a few odd stream rows (every kernel entry ties, as on an empty road);
    and stream rows copied from the reference beside a constant feature.
    """
    rng = np.random.default_rng(seed)
    ref = rng.normal(size=(n_ref, d))
    stream = rng.normal(size=(4 * window, d))
    stream[2 * window:] += 0.5
    kind = seed % 4
    if kind == 1:
        ref, stream = np.round(ref, 1), np.round(stream, 1)
    elif kind == 2:
        ref[:] = 1.0
        stream[:] = 1.0
        stream[rng.integers(0, stream.shape[0], size=3), 0] = 2.0
    elif kind == 3:
        stream[::3] = ref[rng.integers(0, n_ref, size=stream[::3].shape[0])]
        if d > 1:
            ref[:, -1] = stream[:, -1] = 0.25
    return ref, stream


def brute_force_ks(a, b) -> float:
    """Oracle: evaluate both empirical CDFs at every sample point."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    grid = np.concatenate([a, b])
    best = 0.0
    for g in grid:
        fa = float((a <= g).mean())
        fb = float((b <= g).mean())
        best = max(best, abs(fa - fb))
    return best


def per_feature_ks(ref, win):
    """Oracle: one concatenate and two searchsorted per feature, unmemoized Q."""
    kolmogorov_sf = drift._kolmogorov_sf.__wrapped__
    stats, p_values = [], []
    for a, b in zip(np.sort(ref, axis=0).T, np.sort(win, axis=0).T):
        n_a, n_b = a.size, b.size
        grid = np.concatenate([a, b])
        cdf_a = np.searchsorted(a, grid, side="right") / n_a
        cdf_b = np.searchsorted(b, grid, side="right") / n_b
        stat = float(np.max(np.abs(cdf_a - cdf_b)))
        stats.append(stat)
        p_values.append(kolmogorov_sf(stat * math.sqrt(n_a * n_b / (n_a + n_b))))
    return np.array(stats), np.array(p_values)


def merged_ks_rows(ref, sample):
    """Oracle: each row of ``ref`` and ``sample`` merged in one stable sort.

    The batched KS test as it ran before windows stored reference ranks:
    both CDFs are read from running counts at the last position of each run
    of equal merged values, with the detector's memoized Q.
    """
    n_a, n_b = ref.shape[1], sample.shape[1]
    merged = np.concatenate([ref, sample], axis=1)
    order = np.argsort(merged, axis=1, kind="stable")
    values = np.sort(merged, axis=1)
    cnt_a = np.cumsum(order < n_a, axis=1)
    cnt_b = np.arange(1, n_a + n_b + 1) - cnt_a
    gap = np.abs(cnt_a / n_a - cnt_b / n_b)
    gap[:, :-1][values[:, :-1] == values[:, 1:]] = 0.0
    stats = gap.max(axis=1)
    root_n_eff = math.sqrt(n_a * n_b / (n_a + n_b))
    p_values = np.array([drift._kolmogorov_sf(d * root_n_eff) for d in stats.tolist()])
    return stats, p_values


# window values with exact ties, signed zeros and integers among other floats
KS_VALUES = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0, 3.0]) | st.floats(-3.0, 3.0)


class TestKsStatistic:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_one_sort_d_equals_merged_oracle(self, data):
        d = data.draw(st.integers(1, 4))
        ref = data.draw(arrays(np.float64, (data.draw(st.integers(1, 30)), d),
                               elements=KS_VALUES))
        m = data.draw(st.integers(1, 20))
        windows = data.draw(arrays(np.float64, (3, m, d), elements=KS_VALUES))
        # ranks counted directly, independent of the detector's search keys
        ranks = np.array([
            np.concatenate([(ref[None, :, :] <= win[:, None, :]).sum(axis=1).T,
                            (ref[None, :, :] < win[:, None, :]).sum(axis=1).T]) / len(ref)
            for win in windows
        ])
        steps = drift._ks_steps(d, m)
        batch = drift._ks_statistic(ranks, steps)
        for win, block, stats in zip(windows, ranks, batch):
            expected, _ = merged_ks_rows(ref.T, win.T)
            assert stats.tolist() == expected.tolist()
            assert drift._ks_statistic(block, steps).tolist() == expected.tolist()


class TestKsTwoSample:
    def test_identical_samples(self):
        stat, p = ks_two_sample([1, 2, 3, 4, 5], [1, 2, 3, 4, 5])
        assert stat == 0.0
        assert p == 1.0

    def test_disjoint_supports(self):
        stat, _ = ks_two_sample([0, 0, 0, 0], [1, 1, 1, 1])
        assert stat == 1.0

    def test_shifted_integers(self):
        stat, _ = ks_two_sample([1, 2, 3, 4], [2, 3, 4, 5])
        assert stat == 0.25
        assert stat == brute_force_ks([1, 2, 3, 4], [2, 3, 4, 5])

    def test_empty_input_raises(self):
        with pytest.raises(ValueError):
            ks_two_sample([], [1.0])

    def test_oracle_equivalence_on_random_pairs(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            n_a = int(rng.integers(3, 50))
            n_b = int(rng.integers(3, 50))
            a = rng.normal(size=n_a)
            b = rng.normal(loc=rng.uniform(-1.5, 1.5), size=n_b)
            stat, p = ks_two_sample(a, b)
            assert stat == brute_force_ks(a, b)
            n_eff = n_a * n_b / (n_a + n_b)
            assert p == pytest.approx(
                float(scipy_kolmogorov(stat * math.sqrt(n_eff))), abs=1e-6
            )

    def test_equals_merged_oracle(self):
        rng = np.random.default_rng(88)
        pairs = [
            ([0.0, -0.0, 1.0], [-0.0]),
            ([2.0] * 6, [2.0] * 4),
            ([2.0] * 6, [3.0]),
            ([1.0, 2.0, 2.0, 3.0], [2.0, 2.0]),
        ]
        for _ in range(200):
            a = np.round(rng.normal(size=int(rng.integers(1, 40))), int(rng.integers(0, 3)))
            b = np.round(rng.normal(size=int(rng.integers(1, 40))), int(rng.integers(0, 3)))
            pairs += [(a, b), (a, b[:1]), (a, np.concatenate([b, a[:3]]))]
        for a, b in pairs:
            stats, p_values = merged_ks_rows(np.reshape(a, (1, -1)), np.reshape(b, (1, -1)))
            assert ks_two_sample(a, b) == (stats[0], p_values[0])

    @settings(max_examples=60, deadline=None)
    @given(
        a=st.lists(st.floats(-50, 50), min_size=1, max_size=30),
        b=st.lists(st.floats(-50, 50), min_size=1, max_size=30),
    )
    def test_symmetry_and_range(self, a, b):
        stat_ab, p_ab = ks_two_sample(a, b)
        stat_ba, p_ba = ks_two_sample(b, a)
        assert stat_ab == stat_ba
        assert p_ab == p_ba
        assert 0.0 <= stat_ab <= 1.0
        assert 0.0 <= p_ab <= 1.0

    @settings(max_examples=40, deadline=None)
    @given(
        # coarse grid keeps exp() strictly increasing in float arithmetic
        a=st.lists(st.integers(-50, 50).map(lambda i: i / 10.0), min_size=2, max_size=25),
        b=st.lists(st.integers(-50, 50).map(lambda i: i / 10.0), min_size=2, max_size=25),
    )
    def test_invariant_under_monotone_transform(self, a, b):
        stat, _ = ks_two_sample(a, b)
        stat_t, _ = ks_two_sample(np.exp(np.asarray(a)), np.exp(np.asarray(b)))
        assert stat == pytest.approx(stat_t, abs=1e-12)


class TestDetector:
    def test_fit_basic(self):
        rng = np.random.default_rng(0)
        det = fit(rng.normal(size=(200, 15)), method="ks", alpha=0.05, window=40)
        assert det.n_ref == 200
        assert det.n_features == 15

    def test_too_few_reference_samples(self):
        with pytest.raises(ValueError):
            fit(np.zeros((10, 15)))

    @pytest.mark.parametrize("window", [10.5, 12.0, True])
    def test_window_must_be_an_integer(self, window):
        # 10.5 was accepted here and made the SlidingWindow raise a TypeError
        with pytest.raises(ValueError, match=f"window must be an integer, got {window!r}"):
            fit(np.zeros((40, 3)), window=window)

    @pytest.mark.parametrize("n_perm", [20.5, 30.0, True])
    def test_n_perm_must_be_an_integer(self, n_perm):
        with pytest.raises(ValueError, match=f"n_perm must be an integer, got {n_perm!r}"):
            fit(np.random.default_rng(0).normal(size=(40, 3)), method="mmd", window=10,
                n_perm=n_perm)
        # a numpy integer is an integer
        fit(np.random.default_rng(0).normal(size=(40, 3)), method="mmd", window=np.int64(10),
            n_perm=np.int64(20))

    def test_degenerate_mmd_bandwidth_falls_back(self):
        det = fit(np.ones((40, 15)), method="mmd")
        assert det.bandwidth == 1.0
        assert median_bandwidth(np.ones((5, 3))) == 1.0

    def test_predict_rejects_an_array(self):
        rng = np.random.default_rng(0)
        det = fit(rng.normal(size=(100, 4)), window=40)
        with pytest.raises(TypeError, match="predict_windows"):
            predict(det, rng.normal(size=(40, 4)))

    def test_window_equal_to_reference_is_null(self):
        rng = np.random.default_rng(1)
        ref = rng.normal(size=(40, 6))
        det = fit(ref, method="ks", window=40)
        report = predict_windows(det, ref)[0]
        assert not report.is_drift
        np.testing.assert_array_equal(report.statistic, np.zeros(6))
        np.testing.assert_array_equal(report.p_values, np.ones(6))

    def test_predict_does_not_mutate_detector(self):
        rng = np.random.default_rng(2)
        ref = rng.normal(size=(60, 3))
        det = fit(ref, window=20)
        before = det.reference.copy()
        predict_windows(det, rng.normal(size=(20, 3)))
        np.testing.assert_array_equal(det.reference, before)
        with pytest.raises(ValueError):
            det.reference[0, 0] = 99.0

    def test_bootstrap_windows_rarely_flag(self):
        # windows of rows duplicated from the reference's own empirical values
        flags = 0
        trials = 200
        for t in range(trials):
            rng = np.random.default_rng(t)
            ref = rng.normal(size=(200, 15))
            win = ref[rng.integers(0, 200, size=40)]
            det = fit(ref, method="ks", alpha=0.05, window=40, seed=t)
            flags += predict_windows(det, win)[0].is_drift
        assert flags / trials <= 0.05 + 0.03

    def test_mean_shift_power(self):
        detected = 0
        trials = 50
        for t in range(trials):
            rng = np.random.default_rng(t)
            ref = rng.normal(size=(200, 15))
            win = rng.normal(size=(40, 15))
            win[:, 0] += 3.0
            win[:, 3] += 3.0
            det = fit(ref, method="ks", alpha=0.05, window=40, seed=t)
            detected += predict_windows(det, win)[0].is_drift
        assert detected / trials >= 0.95


class TestBatchedKs:
    @pytest.mark.parametrize("n_ref, window", [(200, 40), (30, 10), (57, 13)])
    def test_predict_matches_per_feature_loop(self, n_ref, window):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            decimals = seed % 3  # 0 and 1 decimals give many ties
            ref = np.round(rng.normal(size=(n_ref, 15)), decimals)
            win = np.round(rng.normal(loc=rng.uniform(-1.0, 1.0), size=(window, 15)), decimals)
            ref[:, 1] = win[:, 1] = 0.0  # constant in both samples
            ref[:, 2] = 1.0  # constant in the reference only
            ref[:, 3], win[:, 3] = 7.0, 8.0  # two different constants
            report = predict_windows(fit(ref, window=window, seed=seed), win)[0]
            stats, p_values = per_feature_ks(ref, win)
            assert report.statistic.tolist() == stats.tolist()
            assert report.p_values.tolist() == p_values.tolist()
            assert report.is_drift == bool(p_values.min() < 0.05 / 15)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_predict_matches_scipy(self, data):
        n_ref = data.draw(st.integers(30, 60))
        window = data.draw(st.integers(10, 20))
        n_features = data.draw(st.integers(1, 4))
        # a coarse integer grid mixed with arbitrary floats makes ties likely
        values = st.one_of(st.integers(-3, 3).map(float), st.floats(-50, 50))
        ref = data.draw(arrays(np.float64, (n_ref, n_features), elements=values))
        win = data.draw(arrays(np.float64, (window, n_features), elements=values))
        report = predict_windows(fit(ref, window=window), win)[0]
        n_eff = n_ref * window / (n_ref + window)
        for j in range(n_features):
            stat = report.statistic[j]
            assert stat == ks_2samp(ref[:, j], win[:, j], method="asymp").statistic
            assert report.p_values[j] == pytest.approx(
                float(scipy_kolmogorov(stat * math.sqrt(n_eff))), abs=1e-12
            )

    def test_fit_stores_feature_major_sorted_reference(self):
        ref = np.random.default_rng(3).normal(size=(50, 4))
        keys = fit(ref, window=10)._ref_keys
        assert keys.shape == (4, 50) and keys.flags.c_contiguous
        assert keys.dtype == np.complex128
        np.testing.assert_array_equal(keys.real, np.repeat(np.arange(4.0)[:, None], 50, axis=1))
        np.testing.assert_array_equal(keys.imag, np.sort(ref, axis=0).T)
        flat = keys.ravel()
        assert np.all(flat[:-1] <= flat[1:])
        with pytest.raises(ValueError):
            keys[0, 0] = 0.0
        assert fit(ref, method="mmd", window=10)._ref_keys is None


class TestMmd:
    def test_identical_inputs_near_zero(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(15, 4))
        mmd2, p = mmd_permutation(x, x.copy(), bandwidth=median_bandwidth(x),
                                  n_perm=100, seed=0)
        assert mmd2 <= 1e-9
        assert p >= 0.5

    def test_identical_inputs_p_large_over_seeds(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(12, 3))
        ps = [
            mmd_permutation(x, x.copy(), bandwidth=1.0, n_perm=100, seed=s)[1]
            for s in range(10)
        ]
        assert float(np.mean(ps)) >= 0.5

    def test_constant_samples_closed_form(self):
        x = np.zeros((20, 5))
        y = np.zeros((20, 5))
        y[:, 0] = 10.0
        mmd2, _ = mmd_permutation(x, y, bandwidth=1.0, n_perm=100, seed=0)
        assert mmd2 == pytest.approx(2.0 * (1.0 - math.exp(-50.0)), abs=1e-6)

    def test_p_value_grid(self):
        rng = np.random.default_rng(7)
        grid = {k / 101 for k in range(1, 102)}
        for s in range(5):
            _, p = mmd_permutation(rng.normal(size=(10, 2)),
                                   rng.normal(size=(12, 2)),
                                   bandwidth=1.0, n_perm=100, seed=s)
            assert any(abs(p - g) < 1e-12 for g in grid)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_exact_ties_count_as_exceeding(self, seed):
        # one odd row among identical ones: MMD^2 is exactly 0 under every
        # permutation, so every permuted statistic ties the observed one
        x = np.zeros((200, 15))
        y = np.zeros((40, 15))
        y[0, 0] = 1.0
        mmd2, p = mmd_permutation(x, y, bandwidth=1.0, n_perm=100, seed=seed)
        assert mmd2 == 0.0
        assert p == 1.0

    @pytest.mark.parametrize("n, m, d", [(30, 10, 1), (45, 12, 3), (60, 20, 15), (17, 9, 4)])
    def test_matches_per_permutation_loop(self, n, m, d):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(n, d))
            y = rng.normal(loc=0.1 * (seed % 4), size=(m, d))
            bandwidth = median_bandwidth(x)
            got = mmd_permutation(x, y, bandwidth=bandwidth, n_perm=40, seed=seed)
            # one kernel over the stacked sample: each entry depends only on
            # its two rows, so it equals the entry of the block it falls in
            stacked = np.vstack([x, y])
            kernel = rbf_block(stacked, stacked, bandwidth)
            assert got == loop_mmd_permutation(kernel, n, 40, seed)

    def test_validation_errors(self):
        x = np.zeros((5, 2))
        with pytest.raises(ValueError):
            mmd_permutation(x, np.zeros((5, 3)), bandwidth=1.0)
        with pytest.raises(ValueError):
            mmd_permutation(x, x, bandwidth=1.0, n_perm=5)
        with pytest.raises(ValueError):
            mmd_permutation(np.zeros((0, 2)), x, bandwidth=1.0)

    @pytest.mark.parametrize("x_rows, y_rows", [(5, 1), (1, 5)])
    def test_one_row_sample_rejected(self, x_rows, y_rows):
        # the unbiased estimator divides by n (n - 1): one row gave NaN and p = 1/101
        with pytest.raises(ValueError, match="at least 2 rows"):
            mmd_permutation(np.zeros((x_rows, 2)), np.ones((y_rows, 2)), bandwidth=1.0)


class TestMmdDetector:
    def _detector(self, seed=0):
        rng = np.random.default_rng(seed)
        return fit(rng.normal(size=(200, 15)), method="mmd", window=40, seed=seed), rng

    def test_predict_matches_mmd_permutation(self):
        for seed in range(4):
            det, rng = self._detector(seed)
            for shift in (0.0, 0.3, 1.0):
                win = rng.normal(loc=shift, size=(40, 15))
                report = predict_windows(det, win)[0]
                mmd2, p = mmd_permutation(det.reference, win, det.bandwidth,
                                          det.n_perm, det.rng_seed)
                assert report.statistic.tolist() == [mmd2]
                assert report.p_values.tolist() == [p]
                assert report.is_drift == (p < det.alpha)

    def test_repeated_predict_is_identical(self):
        det, rng = self._detector()
        win = rng.normal(loc=0.5, size=(40, 15))
        first, second = predict_windows(det, win)[0], predict_windows(det, win)[0]
        np.testing.assert_array_equal(first.statistic, second.statistic)
        np.testing.assert_array_equal(first.p_values, second.p_values)
        assert first.is_drift == second.is_drift

    def test_cached_arrays_are_read_only(self):
        det, _ = self._detector()
        cached = [value for value in vars(det._mmd).values() if isinstance(value, np.ndarray)]
        assert len(cached) == 5
        for array in cached:
            with pytest.raises(ValueError):
                array[(0,) * array.ndim] = 1.0


class TestDerivedState:
    """A detector derives its KS keys, its MMD terms and an MMD bandwidth of
    ``None`` from its reference and settings."""

    @pytest.mark.parametrize("method", ["ks", "mmd"])
    def test_a_detector_built_from_fit_settings_equals_fit(self, method):
        rng = np.random.default_rng(4)
        ref = rng.normal(size=(50, 4))
        fitted = fit(ref, method=method, alpha=0.1, window=12, seed=3, n_perm=30)
        built = drift.DriftDetector(ref, method, 0.1, 12, 3, n_perm=30)
        assert built.bandwidth == fitted.bandwidth
        assert (built.bandwidth is None) == (method == "ks")
        if method == "ks":
            assert built._mmd is None and fitted._mmd is None
            pairs = [(built._ref_keys, fitted._ref_keys)]
        else:
            assert built._ref_keys is None and fitted._ref_keys is None
            pairs = [(getattr(built._mmd, f.name), getattr(fitted._mmd, f.name))
                     for f in dataclasses.fields(fitted._mmd)]
        for got, want in pairs:
            np.testing.assert_array_equal(got, want)
            if isinstance(got, np.ndarray):
                assert not got.flags.writeable
        win = rng.normal(size=(12, 4))
        got, want = predict_windows(built, win)[0], predict_windows(fitted, win)[0]
        assert got.statistic.tolist() == want.statistic.tolist()
        assert got.p_values.tolist() == want.p_values.tolist()

    def test_mmd_permutation_keeps_its_bandwidth(self):
        rng = np.random.default_rng(8)
        x, y = rng.normal(size=(30, 3)), rng.normal(loc=0.2, size=(10, 3))
        bandwidth = 0.37 * median_bandwidth(x)
        got = mmd_permutation(x, y, bandwidth=bandwidth, n_perm=40, seed=2)
        stacked = np.vstack([x, y])
        kernel = rbf_block(stacked, stacked, bandwidth)
        assert got == loop_mmd_permutation(kernel, 30, 40, 2)
        assert got != mmd_permutation(x, y, bandwidth=median_bandwidth(x), n_perm=40, seed=2)

    @pytest.mark.parametrize("name", ["_ref_keys", "_mmd"])
    def test_derived_state_is_no_constructor_parameter(self, name):
        with pytest.raises(TypeError, match=name):
            drift.DriftDetector(np.zeros((40, 3)), "ks", 0.05, 10, 0, **{name: None})

    @pytest.mark.parametrize("method", ["KS", "foo"])
    def test_an_unknown_method_is_rejected_at_construction(self, method):
        with pytest.raises(ValueError, match=f"unknown method {method!r}"):
            drift.DriftDetector(np.zeros((40, 3)), method, 0.05, 10, 0)

    def test_fit_matches_the_method_in_any_case(self):
        assert fit(np.zeros((40, 3)), method="KS", window=10).method == "ks"
        assert fit(np.zeros((40, 3)), method="Mmd", window=10).method == "mmd"

    def test_an_mmd_fit_computes_one_distance_matrix(self, monkeypatch):
        real_sq_dists = drift._sq_dists
        calls = []

        def counting_sq_dists(a, b):
            calls.append((a.shape, b.shape))
            return real_sq_dists(a, b)

        monkeypatch.setattr(drift, "_sq_dists", counting_sq_dists)
        fit(np.random.default_rng(0).normal(size=(40, 3)), method="mmd", window=10)
        assert calls == [((40, 3), (40, 3))]


class TestSlidingWindow:
    # 210 x 40 x-y kernel entries exceed numpy's 8192-element reduction
    # buffer, past which a whole block would sum in another order
    SHAPES = [(200, 40, 15), (30, 10, 1), (57, 13, 4), (45, 12, 3), (210, 40, 3)]

    @pytest.mark.parametrize("n_ref, window, d", SHAPES)
    def test_mmd_matches_block_test_while_sliding(self, n_ref, window, d):
        for seed in range(8):
            ref, stream = sliding_stream(n_ref, window, d, seed)
            det = fit(ref, method="mmd", window=window, seed=seed)
            ring = SlidingWindow(det)
            for t, row in enumerate(stream):
                ring.push(row)
                assert ring.full == (t >= window - 1)
                if not ring.full:
                    continue
                report = predict(det, ring)
                mmd2, p = block_mmd_test(det.reference, stream[t - window + 1:t + 1],
                                         det.bandwidth, det.n_perm, det.rng_seed)
                assert report.statistic.tolist() == [mmd2]
                assert report.p_values.tolist() == [p]
                assert report.is_drift == (p < det.alpha)

    @pytest.mark.parametrize("n_ref, window, d", SHAPES)
    def test_ks_report_equals_predict_on_the_slot_ordered_array(self, n_ref, window, d):
        for seed in range(4):
            ref, stream = sliding_stream(n_ref, window, d, seed)
            det = fit(ref, window=window, seed=seed)
            ring = SlidingWindow(det)
            slots = np.empty((window, d))
            for t, row in enumerate(stream):
                ring.push(row)
                slots[t % window] = row
                if not ring.full:
                    continue
                report = predict(det, ring)
                for expected in (predict_windows(det, slots)[0],
                                 predict_windows(det, stream[t - window + 1:t + 1])[0]):
                    assert report.statistic.tolist() == expected.statistic.tolist()
                    assert report.p_values.tolist() == expected.p_values.tolist()
                    assert report.is_drift == expected.is_drift

    @pytest.mark.parametrize("n_ref, window, d", SHAPES[:4])
    def test_ks_equals_merged_oracle_while_sliding(self, n_ref, window, d):
        # seeds 0-3 cycle through the kinds of sliding_stream; seed 4 adds
        # signed zeros, which compare equal to each other
        for seed in range(5):
            ref, stream = sliding_stream(n_ref, window, d, seed)
            if seed == 4:
                ref[::2, 0], ref[1::2, 0] = 0.0, -0.0
                stream[::3, 0], stream[1::3, 0] = -0.0, 0.0
            det = fit(ref, window=window, seed=seed)
            ref_sorted = np.sort(ref, axis=0).T
            ring = SlidingWindow(det)
            for t, row in enumerate(stream):
                ring.push(row)
                if not ring.full:
                    continue
                block = stream[t - window + 1:t + 1]
                stats, p_values = merged_ks_rows(ref_sorted, block.T)
                # the ring ranked one sample per push; the array is ranked as one block
                for report in (predict(det, ring), predict_windows(det, block)[0]):
                    assert report.statistic.tolist() == stats.tolist()
                    assert report.p_values.tolist() == p_values.tolist()
                    assert report.is_drift == bool(p_values.min() < det.alpha / d)

    @pytest.mark.parametrize("method", ["ks", "mmd"])
    def test_errors(self, method):
        rng = np.random.default_rng(0)
        det = fit(rng.normal(size=(40, 3)), method=method, window=10)
        ring = SlidingWindow(det)
        for shape in [(4,), (2,), (1, 3), ()]:
            with pytest.raises(ValueError, match="sample must have shape"):
                ring.push(np.zeros(shape))
        for _ in range(9):
            ring.push(rng.normal(size=3))
        with pytest.raises(ValueError, match="holds 9 of 10 samples"):
            predict(det, ring)
        ring.push(rng.normal(size=3))
        other = fit(rng.normal(size=(40, 3)), method=method, window=10)
        with pytest.raises(ValueError, match="another detector"):
            predict(other, ring)
        predict(det, ring)

    @pytest.mark.parametrize("method", ["ks", "mmd"])
    def test_fill_equals_pushing_every_sample(self, method):
        # stops one apart, less than a window apart and more than a window apart
        ref, stream = sliding_stream(57, 13, 4, 1)
        det = fit(ref, method=method, window=13, seed=1, n_perm=30)
        expected = slid_reports(det, stream)
        ring, pushed = SlidingWindow(det), []
        real_push = ring.push
        ring.push = lambda row: pushed.append(row) or real_push(row)
        passed = 0
        for stop in (5, 13, 14, 20, 40, 41, 52):
            ring.fill(stream, stop)
            assert len(pushed) == stop - max(passed, stop - 13)
            passed = stop
            pushed.clear()
            assert ring.full is (stop >= 13)
            if ring.full:
                report = predict(det, ring)
                assert report.statistic.tolist() == expected[stop - 13].statistic.tolist()
                assert report.p_values.tolist() == expected[stop - 13].p_values.tolist()
        with pytest.raises(ValueError, match="stop 51 lies before the 52 samples passed"):
            ring.fill(stream, 51)
        # a stop past the samples would leave the window on an earlier one
        with pytest.raises(ValueError, match="stop 15 lies past the 12 samples"):
            SlidingWindow(det).fill(stream[:12], 15)


def slid_reports(detector, stream):
    """The report of every full window, pushed one sample at a time."""
    ring, reports = SlidingWindow(detector), []
    for row in stream:
        ring.push(row)
        if ring.full:
            reports.append(predict(detector, ring))
    return reports


class TestPredictWindows:
    @pytest.mark.parametrize("method", ["ks", "mmd"])
    @pytest.mark.parametrize("n_ref, window, d", TestSlidingWindow.SHAPES[:4])
    def test_equals_the_sliding_window_bit_for_bit(self, method, n_ref, window, d):
        # seeds 0-3 cycle through the kinds of sliding_stream (ties, a
        # constant reference); then signed zeros, integer values and a
        # stream equal to the constant reference
        for seed in range(7):
            ref, stream = sliding_stream(n_ref, window, d, seed)
            if seed == 4:
                ref[::2, 0], ref[1::2, 0] = 0.0, -0.0
                stream[::3, 0], stream[1::3, 0] = -0.0, 0.0
            elif seed == 5:
                ref, stream = np.floor(2.0 * ref), np.floor(2.0 * stream)
            elif seed == 6:
                ref[:], stream[:] = 3.0, 3.0
            det = fit(ref, method=method, window=window, seed=seed, n_perm=30)
            expected = slid_reports(det, stream)
            reports = predict_windows(det, stream)
            assert len(reports) == len(expected) == len(stream) - window + 1
            # a batch monitor tests every window, and a streaming monitor of
            # the same detector, pushed sample by sample, takes each report
            # from their shared memo and gives them all again at the end;
            # each keeps the very samples it was pushed
            rows = list(stream)
            batching = drift.Monitor(det, False)
            assert [batching.push(row) for row in rows] == [None] * len(rows)
            batch = batching.reports()
            streaming = drift.Monitor(det, True)
            pushed = [streaming.push(row) for row in rows]
            for given in (pushed, streaming.reports()):
                assert all(a is b for a, b in zip(given, batch, strict=True))
            for monitor in (batching, streaming):
                assert all(a is b for a, b in zip(monitor.samples, rows, strict=True))
            assert batch[: window - 1] == [None] * (window - 1)
            for report, want in zip(reports + batch[window - 1 :], expected * 2, strict=True):
                assert report.statistic.tolist() == want.statistic.tolist()
                assert report.p_values.tolist() == want.p_values.tolist()
                assert report.is_drift is want.is_drift
                assert report.threshold_used == want.threshold_used

    @pytest.mark.parametrize("method", ["ks", "mmd"])
    def test_picked_windows_equal_their_full_reports(self, method):
        # 4 windows of 13 samples are 40 full windows; the picks leave gaps
        # narrower and wider than a window and span two blocks for KS
        for seed in range(4):
            ref, stream = sliding_stream(57, 13, 4, seed)
            det = fit(ref, method=method, window=13, seed=seed, n_perm=30)
            expected = slid_reports(det, stream)
            for starts in ([0], [39], [2, 3, 5, 30], list(range(0, 40, 3)), list(range(1, 40))):
                reports = predict_windows(det, stream, starts)
                assert len(reports) == len(starts)
                for report, start in zip(reports, starts):
                    want = expected[start]
                    assert report.statistic.tolist() == want.statistic.tolist()
                    assert report.p_values.tolist() == want.p_values.tolist()
                    assert report.is_drift is want.is_drift
            assert predict_windows(det, stream, []) == []

    @pytest.mark.parametrize("starts", [[-1], [40], [3, 3], [5, 2], [[1, 2]]])
    def test_picked_windows_must_ascend_within_the_full_ones(self, starts):
        det = fit(np.random.default_rng(0).normal(size=(40, 3)), window=10)
        with pytest.raises(ValueError, match="starts must ascend strictly"):
            predict_windows(det, np.zeros((49, 3)), starts)

    @pytest.mark.parametrize("starts", [[0.7, 2.9], [True], [0, 1.0]])
    def test_picked_windows_must_be_integers(self, starts):
        # [0.7, 2.9] tested windows 0 and 2, and [True] window 1
        det = fit(np.random.default_rng(0).normal(size=(40, 3)), window=10)
        with pytest.raises(ValueError, match="starts must be integers"):
            predict_windows(det, np.zeros((49, 3)), starts)

    @pytest.mark.parametrize("method", ["ks", "mmd"])
    def test_report_arrays_are_read_only(self, method):
        ref, stream = sliding_stream(45, 12, 3, 0)
        det = fit(ref, method=method, window=12, n_perm=30)
        for report in (predict_windows(det, stream)[3], slid_reports(det, stream)[3]):
            for array in (report.p_values, report.statistic):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 0.5

    @pytest.mark.parametrize("method, size, threshold", [
        ("ks", 3, 0.1 / 3), ("mmd", 1, 0.1),
    ])
    def test_reports_hold_what_the_report_rule_says(self, method, size, threshold):
        ref, stream = sliding_stream(45, 12, 3, 5)
        det = fit(ref, method=method, alpha=0.1, window=12, n_perm=30)
        assert drift.report_rule(method, 0.1, 3) == (size, threshold)
        for reports in (predict_windows(det, stream), slid_reports(det, stream)):
            assert any(r.is_drift for r in reports) and not all(r.is_drift for r in reports)
            for report in reports:
                assert report.threshold_used == threshold
                assert report.p_values.size == report.statistic.size == size
                assert report.is_drift == (min(report.p_values.tolist()) < threshold)
                for array in (report.p_values, report.statistic):
                    with pytest.raises(ValueError, match="read-only"):
                        array[0] = 0.5

    def test_spans_several_blocks_of_windows(self):
        # 200 samples are 161 windows, blocks of at most 40 windows each
        rng = np.random.default_rng(3)
        det = fit(rng.normal(size=(60, 5)), window=40)
        stream = np.round(rng.normal(size=(200, 5)), 1)
        stream[100:] += 1.0
        reports = predict_windows(det, stream)
        expected = slid_reports(det, stream)
        assert [r.statistic.tolist() for r in reports] == [
            r.statistic.tolist() for r in expected]
        assert [r.is_drift for r in reports] == [r.is_drift for r in expected]
        assert any(r.is_drift for r in reports) and not all(r.is_drift for r in reports)

    @pytest.mark.parametrize("method", ["ks", "mmd"])
    def test_shorter_than_a_window_gives_no_report(self, method):
        rng = np.random.default_rng(0)
        det = fit(rng.normal(size=(40, 3)), method=method, window=10)
        assert predict_windows(det, rng.normal(size=(9, 3))) == []
        assert len(predict_windows(det, rng.normal(size=(10, 3)))) == 1

    @pytest.mark.parametrize("shape", [(20, 4), (20,), (2, 20, 3)])
    def test_wrong_shape_raises(self, shape):
        det = fit(np.random.default_rng(0).normal(size=(40, 3)), window=10)
        with pytest.raises(ValueError, match="samples must have shape"):
            predict_windows(det, np.zeros(shape))


def median_of_all_distances(sq_dists):
    """Oracle: the median of the square roots of every off-diagonal entry."""
    iu = np.triu_indices(sq_dists.shape[0], k=1)
    med = float(np.median(np.sqrt(sq_dists[iu])))
    return med if med > 0.0 else 1.0


class TestMedianBandwidth:
    def test_equals_the_median_of_all_distances(self):
        rng = np.random.default_rng(11)
        for trial in range(300):
            n, d = int(rng.integers(2, 70)), int(rng.integers(1, 6))
            reference = rng.normal(size=(n, d))
            kind = trial % 3
            if kind == 1:  # duplicate rows
                reference[rng.integers(0, n, size=n // 2)] = reference[0]
            elif kind == 2:  # coarse values: many equal distances
                reference = np.round(reference, 1)
            sq = drift._sq_dists(reference, reference)
            assert drift._median_distance(sq) == median_of_all_distances(sq)
            assert median_bandwidth(reference) == median_of_all_distances(sq)

    def test_degenerate_references_fall_back_to_one(self):
        assert median_bandwidth(np.ones((40, 3))) == 1.0
        assert median_bandwidth(np.ones((1, 3))) == 1.0
        reference = np.random.default_rng(0).normal(size=(40, 3))
        reference[5, 1] = np.nan
        assert median_bandwidth(reference) == 1.0


class TestConfidenceGate:
    def test_below_threshold_escalates(self):
        assert confidence_gate(0.30, 0.50) is True

    def test_boundary_is_strict(self):
        assert confidence_gate(0.50, 0.50) is False

    def test_above_threshold_stays(self):
        assert confidence_gate(0.90, 0.50) is False

    def test_tau_out_of_range(self):
        with pytest.raises(ValueError):
            confidence_gate(0.5, 1.5)


class TestReportRule:
    @pytest.mark.parametrize("method, expected", [
        ("ks", (15, 0.05 / 15)), ("KS", (15, 0.05 / 15)), ("mmd", (1, 0.05)), ("Mmd", (1, 0.05)),
    ])
    def test_size_and_threshold_of_each_method_in_any_case(self, method, expected):
        assert drift.report_rule(method, 0.05, 15) == expected

    def test_unknown_method_raises(self):
        with pytest.raises(ValueError, match="unknown method 'residual'"):
            drift.report_rule("residual", 0.05, 15)

    def test_fit_and_the_offload_config_read_the_one_method_list(self):
        from ecdrive import OffloadConfig

        ref = np.random.default_rng(0).normal(size=(40, 3))
        for method in drift.METHODS:
            fit(ref, method=method.upper(), window=10, n_perm=20)
            OffloadConfig(method=method.upper()).validate()
        with mock.patch.object(drift, "METHODS", ("ks",)):
            with pytest.raises(ValueError, match="unknown method 'mmd'"):
                fit(ref, method="mmd", window=10)
        with mock.patch("ecdrive.orchestrator.METHODS", ("ks",)):
            with pytest.raises(ValueError, match="unknown detector method 'mmd'"):
                OffloadConfig(method="mmd").validate()
