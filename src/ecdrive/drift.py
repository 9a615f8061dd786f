"""Distribution-drift detection over feature windows, plus the confidence gate.

Two detectors are provided behind one interface: per-feature two-sample
Kolmogorov-Smirnov tests with a Bonferroni-corrected threshold (default),
and an RBF-kernel MMD permutation test with the median-heuristic bandwidth.

KS p-values are asymptotic: p = Q(D * sqrt(n_eff)) where Q is the Kolmogorov
survival function and n_eff = n_a * n_b / (n_a + n_b). Window sizes of 40+
make the approximation adequate and avoid exact-distribution combinatorics.
The reference is frozen, so each window sample is ranked against it once,
when it enters: a detector stores the sorted reference as complex keys
``feature + 1j * value``, and one ``searchsorted`` per side gives, for every
feature, the fractions of reference values at or below and strictly below
the entering value; a whole array of samples is ranked as one block the
same way. The two fractions are stacked, 2 x n_features rows per window,
and a window test sorts only those ranks, once; the window's values are
never needed (see :func:`_ks_statistic`). ``ks_two_sample`` tests its
``b`` as the one window of a one-feature detector. D lies on a lattice of
multiples of 1 / (n_a * n_b), so its values recur from window to window
and Q is memoized in a bounded cache.

Where no decision waits for a window's report, :func:`predict_windows`
tests the windows of a whole sequence at once, every one or a chosen
subset: KS ranks all samples with one ``searchsorted`` per side and runs
the window test over blocks of the chosen windows gathered from those
ranks, each block copied to be sorted; MMD fills one window and
tests it where a window is chosen.
Its reports are those of a :class:`SlidingWindow` pushed sample by sample,
bit for bit. A report depends only on the window's samples in order, so
the :class:`Monitor` objects of one fitted detector, which give each step's
report, share one memo keyed by the tuple of a window's sample bytes,
oldest first (in order: the MMD permutations depend on each sample's age),
and test only the windows it misses. A monitor keeps the ``samples`` it is
pushed: a streaming monitor's ``push(sample)`` tests the window the sample
completes in its own :class:`SlidingWindow`, and ``reports()`` tests the
distinct windows left in one :func:`predict_windows` batch. Report arrays
are read-only, as reports are shared.

The MMD test uses the unbiased MMD^2 estimator (Gretton et al., "A Kernel
Two-Sample Test", JMLR 2012). A squared distance adds the squared
coordinate differences one feature at a time, never through BLAS, so the
observed statistic does not depend on the BLAS build, a row's distance to
itself is exactly 0 and every self-kernel is exactly 1. Its permutations
are drawn once per fitted detector, in ``default_rng(seed)`` order, so
every window is tested against the same permutations. A detector derives
its own test state from its settings: it computes the reference's squared
distances once, for the median-heuristic bandwidth (taken when its
``bandwidth`` is ``None``; a KS detector's stays ``None``) and the
reference-reference kernel block, and reduces that block to
per-permutation sums. A :class:`SlidingWindow` takes one sample at a
time: ``push`` evaluates only the kernel entries of the sample that enters
(its column against the reference and its row against the window) and
keeps the terms a test needs, and ``predict`` combines them, so no kernel
entry is evaluated twice. ``predict`` tests only such a window; an array
of samples is tested with :func:`predict_windows`. A permuted statistic
counts as reaching the observed one when it is at least
``observed - TIE_TOLERANCE``, so exact ties are not decided by rounding.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

# A permuted MMD^2 counts as reaching the observed one when it is within this
# margin below it: ties are exact in real arithmetic (e.g. on constant
# features) and rounding of kernel sums (about N * eps) must not break them.
TIE_TOLERANCE = 1e-12

#: the detector methods, matched in any case
METHODS = ("ks", "mmd")


def report_rule(method: str, alpha: float, n_features: int) -> tuple[int, float]:
    """``(size, threshold)`` of a drift report: one p-value and one D per
    feature against the Bonferroni ``alpha / n_features`` for KS, one
    p-value and one MMD^2 against ``alpha`` for MMD. A report flags drift
    iff its least p-value lies below the threshold."""
    method = method.lower()
    if method == "ks":
        return n_features, alpha / n_features
    if method == "mmd":
        return 1, alpha
    raise ValueError(f"unknown method {method!r}")


@dataclass(frozen=True)
class DriftReport:
    """Outcome of one drift test on a sliding window.

    ``p_values`` is per-feature for KS and a single-element array for MMD;
    ``statistic`` is the per-feature KS D or the unbiased MMD^2 estimate.
    ``is_drift`` holds iff min(p_values) < threshold_used.
    """

    is_drift: bool
    p_values: np.ndarray
    statistic: np.ndarray
    threshold_used: float


@dataclass(frozen=True)
class DriftDetector:
    """Immutable detector state: frozen reference sample, test settings (a
    ``method`` of :data:`METHODS`) and the test state derived from them.

    For KS, ``_ref_keys`` is the reference sorted per feature, one
    contiguous row per feature (n_features x n_ref), as complex keys
    ``feature + 1j * value``. numpy orders complex numbers by real part,
    then imaginary part, so the flattened array is sorted and one
    ``searchsorted`` ranks a value against every feature's reference at
    once. The comparison is the float one (-0.0 equals 0.0). KS has no
    kernel, so ``bandwidth`` stays ``None``. For MMD, one matrix of the
    reference's squared distances gives a ``bandwidth`` of ``None`` its
    median-heuristic value, and ``_mmd`` (:func:`_mmd_reference`).
    """

    reference: np.ndarray
    method: str
    alpha: float
    window: int
    rng_seed: int
    n_perm: int = 100
    bandwidth: float | None = None
    _ref_keys: np.ndarray | None = field(init=False, repr=False)
    _mmd: _MmdReference | None = field(init=False, repr=False)

    def __post_init__(self) -> None:
        keys = mmd = None
        if self.method == "ks":
            keys = _ks_keys(self.reference)
        elif self.method == "mmd":
            sq_dists = _sq_dists(self.reference, self.reference)
            if self.bandwidth is None:
                object.__setattr__(self, "bandwidth", _median_distance(sq_dists))
            mmd = _mmd_reference(sq_dists, self.window, self.bandwidth, self.n_perm, self.rng_seed)
        else:
            raise ValueError(f"unknown method {self.method!r}")
        object.__setattr__(self, "_ref_keys", keys)
        object.__setattr__(self, "_mmd", mmd)

    @property
    def n_ref(self) -> int:
        return self.reference.shape[0]

    @property
    def n_features(self) -> int:
        return self.reference.shape[1]

    @functools.cached_property
    def _memo(self) -> dict[tuple[bytes, ...], DriftReport]:
        """The reports of the windows its monitors tested, by window key."""
        return {}


@functools.lru_cache(maxsize=4096)
def _kolmogorov_sf(lam: float) -> float:
    """Survival function of the Kolmogorov distribution, Q(lam).

    Uses the theta-function form for small lam and the alternating series
    for large lam; both converge to well below 1e-10 in their regimes.
    """
    if lam <= 0.0:
        return 1.0
    if lam < 1.18:
        # Q = 1 - sqrt(2 pi)/lam * sum exp(-(2j-1)^2 pi^2 / (8 lam^2))
        t = math.pi * math.pi / (8.0 * lam * lam)
        cdf = (math.sqrt(2.0 * math.pi) / lam) * (
            math.exp(-t) + math.exp(-9.0 * t) + math.exp(-25.0 * t) + math.exp(-49.0 * t)
        )
        return max(0.0, min(1.0, 1.0 - cdf))
    total = 0.0
    for j in range(1, 101):
        term = math.exp(-2.0 * j * j * lam * lam)
        total += -term if j % 2 == 0 else term
        if term < 1e-16:
            break
    return max(0.0, min(1.0, 2.0 * total))


def _ks_steps(d: int, m: int) -> np.ndarray:
    """The window CDF steps a KS test of d features over m values subtracts
    from stacked ranks: (k + 1) / m in rows [:d] and k / m in rows [d:],
    for k = 0..m-1."""
    steps = np.empty((2 * d, m))
    steps[:d] = np.arange(1, m + 1) / m
    steps[d:] = np.arange(m) / m
    return steps


def _ks_statistic(ranks: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """KS D of each feature of a window against its reference, from ranks.

    ``ranks`` stacks, for each of the window's m values of d features, the
    fractions of the n reference values at or below it, #{ref <= x} / n, in
    rows [:d], and strictly below it, #{ref < x} / n, in rows [d:]; leading
    axes hold further windows. ``steps`` is ``_ks_steps(d, m)``. Both
    fractions never decrease as x grows, so sorting each row on its own
    pairs them in the order of the values, which are never needed. With
    k = 0..m-1 along the sorted rows, D is the largest of the gaps
    |at_k - (k+1)/m| at the last index of each run of equal (at, below)
    pairs and |below_k - k/m| at the first index of each run. One sort of
    the 2d rows and one comparison of neighbours find the runs.

    Runs of equal pairs give the same D as runs of equal values. Equal
    values share a pair. Distinct values x < y that share a pair have no
    reference value in [x, y]: one in [x, y) would count in #{ref < y} but
    not in #{ref < x}, and y would count in #{ref <= y} but not in
    #{ref <= x}. So they lie strictly between the same two neighbouring
    reference values, and a run of pairs that holds several distinct
    values has at = below = A/n throughout. Over such a run, from index i
    to j, its runs of equal values contribute gaps |fl(A/n) - fl(k/m)| for
    some k in [i, j+1], always including k = i and k = j+1. ``fl(k/m)`` and
    the rounded difference are monotone in k, so the absolute gap is
    largest at one of those two ends, which the run of pairs contributes
    too.

    D then equals, bit for bit, the D of merging the window with the
    reference: the largest gap |#{ref <= u}/n - #{win <= u}/m| over the
    values u of both samples, computed with these float expressions. The
    gaps at the last index of each run of equal values are those at the
    window values. Between two neighbouring window values w < w' (or
    before the first, or after the last), #{win <= u}/m is a constant c,
    and #{ref <= u} ranges over the integers A from #{ref <= w} to
    #{ref < w'}. ``A / n - c`` rounds monotonically in A, so its absolute
    value is largest at one end: at #{ref <= w}, the gap at w; at
    #{ref < w'}, the gap at the first index of the run of w', which is the
    gap at the largest reference value below w' (or, with none, equals the
    gap at w, or is 0 before the first window value). After the last window
    value the other end is A = n with c = 1, a gap of 0.
    """
    d = ranks.shape[-2] // 2
    # a C-ordered copy: a block of windows may be a strided view
    gaps = np.array(ranks, order="C")
    gaps.sort(axis=-1)
    same = gaps[..., 1:] == gaps[..., :-1]
    same_pair = same[..., :d, :] & same[..., d:, :]
    np.subtract(gaps, steps, out=gaps)
    np.abs(gaps, out=gaps)
    # keep the at-gap at each run's last index and the below-gap at its first
    np.copyto(gaps[..., :d, :-1], 0.0, where=same_pair)
    np.copyto(gaps[..., d:, 1:], 0.0, where=same_pair)
    largest = gaps.max(axis=-1)
    return np.maximum(largest[..., :d], largest[..., d:])


def _ks_query(rows: np.ndarray) -> np.ndarray:
    """The search keys ``feature + 1j * value`` of one sample (d values) or
    of an array of them (... x d), features along the last axis."""
    query = np.empty(rows.shape, dtype=np.complex128)
    query.real = np.arange(rows.shape[-1])
    query.imag = rows
    return query


def _ks_keys(reference: np.ndarray) -> np.ndarray:
    """The KS search keys of a reference (n x d): each feature's values
    sorted, one contiguous row per feature (see :class:`DriftDetector`)."""
    return _readonly(np.ascontiguousarray(_ks_query(np.sort(reference, axis=0)).T))


def _ks_p_values(stats: np.ndarray, n_a: int, n_b: int) -> np.ndarray:
    """Q(D * sqrt(n_eff)) of every D in ``stats``, in its shape, each
    looked up in the bounded memo of :func:`_kolmogorov_sf`."""
    lams = stats * math.sqrt(n_a * n_b / (n_a + n_b))
    return np.array(list(map(_kolmogorov_sf, lams.ravel().tolist()))).reshape(stats.shape)


def ks_two_sample(a, b) -> tuple[float, float]:
    """Two-sample KS test: exact sup-CDF-difference statistic, asymptotic p.

    Ties are handled by evaluating both empirical CDFs just after every
    merged sample point. ``b`` is tested as the one window of
    :func:`predict_windows` of a one-feature KS detector fitted to ``a``,
    so exactly as ``predict`` tests a window.
    """
    a = np.asarray(a, dtype=np.float64).reshape(-1, 1)
    b = np.asarray(b, dtype=np.float64).reshape(-1, 1)
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be non-empty")
    # alpha sets only the report's drift flag, which is not returned
    detector = DriftDetector(a, "ks", 0.05, b.shape[0], 0)
    report = predict_windows(detector, b)[0]
    return float(report.statistic[0]), float(report.p_values[0])


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of a and of b.

    Each entry adds the squared coordinate differences one feature at a
    time, in feature order, as :class:`SlidingWindow` does, so no entry
    goes through BLAS and a row's distance to an equal row is exactly 0.
    """
    out = np.zeros((a.shape[0], b.shape[0]))
    diff = np.empty_like(out)
    for k in range(a.shape[1]):
        np.subtract.outer(a[:, k], b[:, k], out=diff)
        np.multiply(diff, diff, out=diff)
        out += diff
    return out


def _median_distance(sq_dists: np.ndarray) -> float:
    """Median off-diagonal distance of a square matrix of squared
    distances; 1.0 when degenerate (no pairs, a NaN, or a median of 0).

    Only the middle order statistics of the squared distances are found
    and square-rooted: ``sqrt`` is monotone, so they are the middle order
    statistics of the distances, and their mean is ``np.median`` of the
    distances bit for bit. One ``np.partition`` places the upper middle
    one; the lower one is the largest element before it (numpy partitions
    at several indices far more slowly than at one).
    """
    n = sq_dists.shape[0]
    flat = sq_dists[np.arange(n)[:, None] < np.arange(n)]
    if flat.size == 0:
        return 1.0
    half = flat.size // 2
    part = np.partition(flat, half)
    middle = [part[:half].max(), part[half]] if flat.size % 2 == 0 else [part[half]]
    med = float(np.mean(np.sqrt(middle)))
    # a NaN sorts after every number, so it lies at or after index half
    return med if med > 0.0 and not np.isnan(part[half:].max()) else 1.0


def median_bandwidth(reference: np.ndarray) -> float:
    """Median pairwise Euclidean distance of the rows; 1.0 when degenerate."""
    return _median_distance(_sq_dists(reference, reference))


def _rbf(sq_dists: np.ndarray, bandwidth: float, out: np.ndarray | None = None) -> np.ndarray:
    """RBF kernel entries exp(-d^2 / (2 bandwidth^2)) of squared distances d^2."""
    out = np.divide(sq_dists, -2.0 * bandwidth * bandwidth, out=out)
    return np.exp(out, out=out)


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two matrices of one shape."""
    return np.einsum("ij,ij->i", a, b)


def _check_count(name: str, value, least: int) -> None:
    """Reject a non-integer (a bool is not one) or one below ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}")


def _readonly(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@dataclass(frozen=True)
class _MmdReference:
    """The parts of the permutation test that depend only on the reference.

    With z = [x; y] the stacked sample (n reference rows, then a window of
    m, oldest sample first), row i of the 0/1 masks ``[a_x, a_y]`` marks
    the rows permutation i assigns to the x side; b = 1 - a marks the y
    side. A permuted MMD^2 weighs its x-x, y-y and x-y kernel sums by
    u = 1/(n(n-1)), v = 1/(m(m-1)) and -w = -2/(nm). Every self-kernel is
    exactly 1, so the x-x and y-y sums leave out n and m self-pairs under
    every permutation. The sums over pairs of reference rows are fixed, so
    ``ref_part`` holds each permutation's weighted reference-pair sums,
    with -u n for the x side's self-pairs. With S = a_x K_xy, c the column
    sums of K_xy and K = K_yy, the rest is linear in the window's kernel
    blocks:

        x-x  2 rowdot(S, a) + rowdot(aK, a)
        y-y  2 (sum c - a.c - rowsum(S) + rowdot(S, a))
             + sum K - 2 rowsum(aK) + rowdot(aK, a) - m
        x-y  rowsum(S) - 2 rowdot(S, a) + a.c + rowsum(aK) - rowdot(aK, a)

    Collected per term, a permuted MMD^2 is ``ref_part``
    + rowdot(S, xy_weights^T) + rowdot(aK, yy_weights) + col_weight a.c
    + const_weight (2 sum c + sum K - m). ``xy_weights`` is stored
    transposed (m x n_perm), one row per window position, as the window
    stores S. ``term_xx`` is the observed statistic's x-x term.
    """

    term_xx: np.float64
    a_x: np.ndarray
    a_y: np.ndarray
    ref_part: np.ndarray
    xy_weights: np.ndarray
    yy_weights: np.ndarray
    col_weight: float
    const_weight: float


def _mmd_reference(
    sq_dists: np.ndarray, window: int, bandwidth: float, n_perm: int, seed: int
) -> _MmdReference:
    """Draw the permutations and reduce the reference kernel block once,
    from the reference's squared distances."""
    _check_count("n_perm", n_perm, 20)
    n = sq_dists.shape[0]
    total = n + window
    rng = np.random.default_rng(seed)
    in_x = np.zeros((n_perm, total))
    for row in in_x:
        row[rng.permutation(total)[:n]] = 1.0
    k_xx = _rbf(sq_dists, bandwidth)
    a_x, a_y = in_x[:, :n], in_x[:, n:]
    b_x = 1.0 - a_x
    ak_xx = a_x @ k_xx
    sum_aa = _rowdot(ak_xx, a_x) - n
    sum_bb = _rowdot(b_x @ k_xx, b_x)
    sum_ab = _rowdot(ak_xx, b_x)
    u, v, w = 1.0 / (n * (n - 1)), 1.0 / (window * (window - 1)), 2.0 / (n * window)
    return _MmdReference(
        term_xx=(k_xx.sum() - n) / (n * (n - 1)),
        a_x=_readonly(np.ascontiguousarray(a_x)),
        a_y=_readonly(np.ascontiguousarray(a_y)),
        ref_part=_readonly(u * sum_aa + v * sum_bb - w * sum_ab),
        xy_weights=_readonly(np.ascontiguousarray((2.0 * (u + v + w) * a_y - (2.0 * v + w)).T)),
        yy_weights=_readonly((u + v + w) * a_y - (2.0 * v + w)),
        col_weight=-(2.0 * v + w),
        const_weight=v,
    )


class SlidingWindow:
    """The last ``detector.window`` samples of one episode, kept in a ring.

    ``push`` writes a sample over the oldest one; the window is ``full``
    once ``detector.window`` samples have been pushed. For the KS detector
    ``push`` keeps only the entering sample's ranks against the reference:
    per feature, the fractions of reference values at or below it and
    strictly below it, found with two ``searchsorted`` calls over the
    detector's complex keys and stored as one column of the stacked rank
    buffer (2 n_features x window: the at-or-below rows, then the
    strictly-below rows), so a window test sorts only that buffer and never
    touches the reference or the values; slot order does not matter to KS.
    For the MMD detector the reference and the ring are stored
    feature-major too, side by side, and ``push`` evaluates the kernel
    entries of the sample that enters against both at once: the squared
    differences of each feature, added one feature at a time (as
    ``_sq_dists`` adds them, without BLAS), so its entry against itself is
    exactly 1. It keeps the sum of its column against the reference,
    ``a_x @ column`` for every permutation (one contiguous row per slot)
    and its row and column in the window-window block; the column itself
    is not kept. A window test then reads these terms only, so no kernel
    entry is evaluated twice. Each slot s of these caches is stored at s
    and at s + window, so the window, oldest sample first, is a plain
    slice from the oldest sample's slot.
    """

    def __init__(self, detector: DriftDetector):
        n, m, d = detector.n_ref, detector.window, detector.n_features
        self.detector = detector
        self.pushed = 0
        if detector.method == "ks":
            self._ranks = np.zeros((2 * d, m))
            self._steps = _ks_steps(d, m)
            self._keys = detector._ref_keys.ravel()
            self._offsets = np.tile(np.arange(d) * n, 2)
            return
        # reference columns, then the ring; zeros keep unfilled slots finite
        self._stacked = np.zeros((d, n + m))
        self._stacked[:, :n] = detector.reference.T
        self._rows = self._stacked[:, n:].T
        self._diffs = np.empty((d, n + m))
        self._kernel = np.empty(n + m)
        self._k_yy = np.empty((2 * m, 2 * m))
        self._col_sums = np.empty(2 * m)
        self._ak_xy = np.empty((2 * m, detector.n_perm))

    @property
    def full(self) -> bool:
        return self.pushed >= self.detector.window

    def push(self, sample) -> None:
        """Add one sample, replacing the oldest once the window is full."""
        row = np.asarray(sample, dtype=np.float64)
        if row.shape != (self.detector.n_features,):
            raise ValueError(
                f"sample must have shape ({self.detector.n_features},), got {row.shape}"
            )
        slot = self.pushed % self.detector.window
        self.pushed += 1
        if self.detector.method == "ks":
            self._ranks[:, slot] = self._rank(_ks_query(row))
        else:
            self._rows[slot] = row
            self._store_kernel_terms(slot, row)

    def fill(self, samples, stop: int) -> None:
        """Push the samples of ``samples[stop - window:stop]`` the window
        has not yet seen, for a sequence it alone fills, ``stop`` never
        falling. ``pushed`` counts the samples passed, pushed or skipped."""
        if stop < self.pushed:
            raise ValueError(f"stop {stop} lies before the {self.pushed} samples passed")
        if stop > len(samples):
            raise ValueError(f"stop {stop} lies past the {len(samples)} samples")
        self.pushed = max(self.pushed, stop - self.detector.window)
        for row in samples[self.pushed : stop]:
            self.push(row)

    def _rank(self, query: np.ndarray) -> np.ndarray:
        """Stacked ranks of samples against the KS reference, from their
        search keys ``query`` (d per sample along the last axis; see
        :func:`_ks_query`): per sample, #{ref <= value} / n for the d
        features, then #{ref < value} / n, along the last axis. One
        ``searchsorted`` per side ranks every sample."""
        counts = np.concatenate(
            (self._keys.searchsorted(query, side="right"),
             self._keys.searchsorted(query, side="left")),
            axis=-1,
        )
        counts -= self._offsets
        return counts / self.detector.n_ref

    def _store_kernel_terms(self, slot: int, row: np.ndarray) -> None:
        detector = self.detector
        n, m = detector.n_ref, detector.window
        diffs = np.subtract(self._stacked, row[:, None], out=self._diffs)
        np.multiply(diffs, diffs, out=diffs)
        # a reduction over the outer axis adds the features in order
        kernel = np.add.reduce(diffs, axis=0, out=self._kernel)
        _rbf(kernel, detector.bandwidth, out=kernel)
        column = kernel[:n]
        self._col_sums[slot] = self._col_sums[slot + m] = column.sum()
        np.dot(detector._mmd.a_x, column, out=self._ak_xy[slot])
        self._ak_xy[slot + m] = self._ak_xy[slot]
        k_yy = self._k_yy
        k_yy[slot, :m] = k_yy[slot, m:] = kernel[n:]
        k_yy[slot + m] = k_yy[:, slot] = k_yy[:, slot + m] = k_yy[slot]


def _mmd_test(window: SlidingWindow) -> tuple[float, float]:
    """Observed unbiased MMD^2 of a full window and its permutation p-value.

    The observed x-y sum adds the window's per-slot column sums, oldest
    sample first; the y-y sum is taken over a C-contiguous copy of the
    window's block, laid out oldest sample first. Every self-kernel is
    exactly 1, so the off-diagonal sums subtract n and m. The permuted
    statistics combine the cached terms with the weights of
    :class:`_MmdReference`.
    """
    detector = window.detector
    reference = detector._mmd
    n, m = detector.n_ref, detector.window
    oldest = window.pushed % m
    ages = slice(oldest, oldest + m)
    col_sums = window._col_sums[ages]
    k_yy = window._k_yy[ages, ages].copy()
    total_xy = col_sums.sum()
    offdiag_yy = k_yy.sum() - m
    observed = float(
        reference.term_xx + offdiag_yy / (m * (m - 1)) - 2.0 * (total_xy / (n * m))
    )

    a = reference.a_y
    permuted = (
        reference.ref_part
        + np.einsum("ji,ji->i", window._ak_xy[ages], reference.xy_weights)
        + _rowdot(a @ k_yy, reference.yy_weights)
        + reference.col_weight * (a @ col_sums)
        + reference.const_weight * (2.0 * total_xy + offdiag_yy)
    )
    exceed = int(np.count_nonzero(permuted >= observed - TIE_TOLERANCE))
    return observed, (1 + exceed) / (1 + a.shape[0])


def mmd_permutation(
    x: np.ndarray,
    y: np.ndarray,
    bandwidth: float,
    n_perm: int = 100,
    seed: int = 0,
) -> tuple[float, float]:
    """Unbiased MMD^2 with RBF kernel and a label-permutation p-value.

    kernel k(u, v) = exp(-||u - v||^2 / (2 bandwidth^2));
    p = (1 + #{permuted mmd^2 >= observed - TIE_TOLERANCE}) / (1 + n_perm),
    where permutation i assigns ``default_rng(seed).permutation(N)[:n]``
    (the i-th draw) to the x side. Each sample needs at least 2 rows.
    y is tested as the one window of :func:`predict_windows` over x, so
    exactly as ``predict`` tests a window.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    if x.size == 0 or y.size == 0:
        raise ValueError("both samples must be non-empty")
    if x.shape[0] < 2 or y.shape[0] < 2:
        # the unbiased estimator divides by n * (n - 1)
        raise ValueError(f"both samples need at least 2 rows, got {x.shape[0]} and {y.shape[0]}")
    if x.shape[1] != y.shape[1]:
        raise ValueError(f"column counts differ: {x.shape[1]} vs {y.shape[1]}")
    # alpha sets only the report's drift flag, which is not returned
    detector = DriftDetector(x, "mmd", 0.05, y.shape[0], seed, n_perm, bandwidth)
    report = predict_windows(detector, y)[0]
    return float(report.statistic[0]), float(report.p_values[0])


def fit(
    reference,
    method: str = "ks",
    alpha: float = 0.05,
    window: int = 40,
    seed: int = 0,
    n_perm: int = 100,
) -> DriftDetector:
    """Freeze a reference sample into a detector.

    Requires at least 30 reference vectors of a consistent dimension. The
    detector derives its test state from a read-only copy of the reference
    (see :class:`DriftDetector`); an MMD detector takes the
    median-heuristic bandwidth.
    """
    ref = np.asarray(reference, dtype=np.float64)
    if ref.ndim != 2:
        raise ValueError("reference must be a 2-D sample (rows = vectors)")
    if ref.shape[0] < 30:
        raise ValueError(f"need at least 30 reference samples, got {ref.shape[0]}")
    method = method.lower()
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0, 1)")
    _check_count("window", window, 10)
    return DriftDetector(_readonly(ref.copy()), method, alpha, window, seed, n_perm)


def predict(detector: DriftDetector, window: SlidingWindow) -> DriftReport:
    """Test one window of samples against the frozen reference.

    ``window`` is a full :class:`SlidingWindow` built for this detector;
    :func:`predict_windows` tests the windows of an array of samples.
    KS: per-feature tests, all at once from the reference ranks the window
    stored at ``push`` (KS does not depend on sample order): only those
    ranks are sorted, and D is bit-identical to merging the window with
    the reference (see :func:`_ks_statistic`); p-values come from the
    memoized Q.
    MMD: single permutation test over the window's cached kernel terms.
    The drift flag and threshold are those of :func:`report_rule`.
    """
    if not isinstance(window, SlidingWindow):
        raise TypeError(
            f"window must be a SlidingWindow, got {type(window).__name__};"
            " test an array of samples with predict_windows"
        )
    if window.detector is not detector:
        raise ValueError("window was built for another detector")
    if not window.full:
        raise ValueError(f"window holds {window.pushed} of {detector.window} samples")

    if detector.method == "ks":
        stats = _ks_statistic(window._ranks, window._steps)
        p_values = _ks_p_values(stats, detector.n_ref, detector.window)
        return _reports(detector, stats[None], p_values[None])[0]

    mmd2, p_value = _mmd_test(window)
    return _reports(detector, [[mmd2]], [[p_value]])[0]


def predict_windows(detector: DriftDetector, samples, starts=None) -> list[DriftReport]:
    """Test full windows of a sequence of samples against the reference.

    ``samples`` holds T samples in order (T x n_features); window t holds
    samples t..t+window-1. ``starts`` picks the windows to test, in strictly
    ascending order, and defaults to every full window. Report i is the
    report ``predict`` gives for window ``starts[i]``, bit for bit, as a
    :class:`SlidingWindow` pushed the samples one by one would give it; a
    sequence shorter than the window has no full window.
    KS ranks all T samples with one ``searchsorted`` per side, views the
    windows of the stacked ranks with ``sliding_window_view`` and gathers
    the picked ones in blocks of at most ``window`` windows, which bounds
    the copy :func:`_ks_statistic` sorts; each D's p-value comes from the
    bounded memo of Q, as in ``predict``.
    MMD fills one :class:`SlidingWindow` up to each picked window
    (:meth:`SlidingWindow.fill`) and tests it. A window's report does not
    depend on the samples before it, so the samples that no picked window
    holds are never pushed.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 2 or samples.shape[1] != detector.n_features:
        raise ValueError(
            f"samples must have shape (T, {detector.n_features}), got {samples.shape}"
        )
    m = detector.window
    full = max(len(samples) - m + 1, 0)
    starts = np.arange(full) if starts is None else np.asarray(starts)
    if starts.size and starts.dtype.kind not in "iu":  # a bool is not an index
        raise ValueError(f"starts must be integers, got {starts.dtype}")
    starts = starts.astype(np.intp)  # an unsigned diff would wrap
    if starts.ndim != 1 or (
        len(starts) and (starts[0] < 0 or starts[-1] >= full or np.any(np.diff(starts) <= 0))
    ):
        raise ValueError(f"starts must ascend strictly within the {full} full windows")
    # for KS the window only ranks the samples and holds the steps
    window = SlidingWindow(detector)
    if detector.method == "mmd":
        reports = []
        for start in starts.tolist():
            window.fill(samples, start + m)
            reports.append(predict(detector, window))
        return reports
    if not len(starts):
        return []
    # windows x 2d x m, a view: window t holds the ranks of samples t..t+m-1
    windows = np.lib.stride_tricks.sliding_window_view(
        window._rank(_ks_query(samples)), m, axis=0
    )
    stats = np.concatenate([
        _ks_statistic(windows[starts[i : i + m]], window._steps)
        for i in range(0, len(starts), m)
    ])
    return _reports(detector, stats, _ks_p_values(stats, detector.n_ref, m))


def _reports(detector: DriftDetector, stats, p_values) -> list[DriftReport]:
    """The reports of windows from their statistics and p-values (windows x
    the report size, each its own array, made read-only here), against the
    threshold of :func:`report_rule`: drift iff min p < threshold."""
    stats = _readonly(np.asarray(stats, dtype=np.float64))
    p_values = _readonly(np.asarray(p_values, dtype=np.float64))
    _, threshold = report_rule(detector.method, detector.alpha, detector.n_features)
    flags = (p_values.min(axis=1) < threshold).tolist()
    return [
        DriftReport(is_drift=flag, p_values=p, statistic=stat, threshold_used=threshold)
        for flag, p, stat in zip(flags, p_values, stats)
    ]


class Monitor:
    """The drift report of each step of one episode. ``samples`` holds the
    samples it was pushed, the newest last: a streaming monitor gives each
    report as its window fills, every monitor all of them."""

    def __init__(self, detector: DriftDetector, streaming: bool):
        self.detector = detector
        self.window = SlidingWindow(detector) if streaming else None
        self.samples: list[np.ndarray] = []
        self._keys: list[bytes] = []  # the bytes of each sample
        self._given: list[DriftReport] = []  # the report of each window pushed

    def push(self, sample: np.ndarray) -> DriftReport | None:
        """Add the newest sample, a float64 array. Returns the report of the
        window it completes; ``None`` before the first full window and if
        the monitor does not stream."""
        self.samples.append(sample)
        self._keys.append(sample.tobytes())
        if self.window is None or len(self.samples) < self.detector.window:
            return None
        key = tuple(self._keys[-self.detector.window :])
        report = self.detector._memo.get(key)
        if report is None:
            # the window is brought up to date only for a test
            self.window.fill(self.samples, len(self.samples))
            report = self.detector._memo[key] = predict(self.detector, self.window)
        self._given.append(report)
        return report

    def reports(self) -> list[DriftReport | None]:
        """Every step's report: ``None`` until the first window fills, then
        its window's. The distinct windows neither pushed nor in the memo
        are tested in one :func:`predict_windows` batch."""
        memo, m, given, each = self.detector._memo, self.detector.window, self._given, self._keys
        keys = [tuple(each[t : t + m]) for t in range(len(given), len(each) - m + 1)]
        missing: dict[tuple, int] = {}  # key -> its first window, ascending
        for start, key in enumerate(keys, len(given)):
            if key not in memo:
                missing.setdefault(key, start)
        if missing:
            tested = predict_windows(self.detector, self.samples, list(missing.values()))
            memo.update(zip(missing, tested))
        return [None] * min(len(each), m - 1) + given + [memo[key] for key in keys]


def confidence_gate(decision_confidence: float, tau: float) -> bool:
    """Escalate iff the edge confidence falls strictly below tau."""
    if not (0.0 <= tau <= 1.0):
        raise ValueError("tau must lie in [0, 1]")
    return decision_confidence < tau
