"""Distribution-drift detection over feature windows, plus the confidence gate.

Two detectors are provided behind one interface: per-feature two-sample
Kolmogorov-Smirnov tests with a Bonferroni-corrected threshold (default),
and an RBF-kernel MMD permutation test with the median-heuristic bandwidth.

KS p-values are asymptotic: p = Q(D * sqrt(n_eff)) where Q is the Kolmogorov
survival function and n_eff = n_a * n_b / (n_a + n_b). Window sizes of 40+
make the approximation adequate and avoid exact-distribution combinatorics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


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
    """Immutable detector state: frozen reference sample plus test settings."""

    reference: np.ndarray
    method: str
    alpha: float
    window: int
    rng_seed: int
    n_perm: int = 100
    bandwidth: float = 1.0
    _ref_sorted: np.ndarray = field(default=None, repr=False)

    @property
    def n_ref(self) -> int:
        return self.reference.shape[0]

    @property
    def n_features(self) -> int:
        return self.reference.shape[1]


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


def _ks_sorted(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """KS statistic and asymptotic p-value of two sorted, non-empty samples."""
    n_a, n_b = a.size, b.size
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / n_a
    cdf_b = np.searchsorted(b, grid, side="right") / n_b
    stat = float(np.max(np.abs(cdf_a - cdf_b)))
    n_eff = n_a * n_b / (n_a + n_b)
    return stat, _kolmogorov_sf(stat * math.sqrt(n_eff))


def ks_two_sample(a, b) -> tuple[float, float]:
    """Two-sample KS test: exact sup-CDF-difference statistic, asymptotic p.

    Ties are handled by evaluating both empirical CDFs just after every
    merged sample point.
    """
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be non-empty")
    return _ks_sorted(a, b)


def median_bandwidth(reference: np.ndarray) -> float:
    """Median pairwise Euclidean distance of the rows; 1.0 when degenerate."""
    n = reference.shape[0]
    sq = np.sum(reference * reference, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * reference @ reference.T
    iu = np.triu_indices(n, k=1)
    med = float(np.median(np.sqrt(np.maximum(d2[iu], 0.0))))
    return med if med > 0.0 else 1.0


def _mmd2_from_kernel(kernel: np.ndarray, idx_x: np.ndarray, idx_y: np.ndarray) -> float:
    """Unbiased MMD^2 of a label partition, reusing the full kernel matrix."""
    n, m = idx_x.size, idx_y.size
    k_xx = kernel[np.ix_(idx_x, idx_x)]
    k_yy = kernel[np.ix_(idx_y, idx_y)]
    k_xy = kernel[np.ix_(idx_x, idx_y)]
    term_xx = (k_xx.sum() - np.trace(k_xx)) / (n * (n - 1))
    term_yy = (k_yy.sum() - np.trace(k_yy)) / (m * (m - 1))
    term_xy = k_xy.sum() / (n * m)
    return float(term_xx + term_yy - 2.0 * term_xy)


def mmd_permutation(
    x: np.ndarray,
    y: np.ndarray,
    bandwidth: float,
    n_perm: int = 100,
    seed: int = 0,
) -> tuple[float, float]:
    """Unbiased MMD^2 with RBF kernel and a label-permutation p-value.

    kernel k(u, v) = exp(-||u - v||^2 / (2 bandwidth^2));
    p = (1 + #{permuted mmd^2 >= observed}) / (1 + n_perm).
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    if x.size == 0 or y.size == 0:
        raise ValueError("both samples must be non-empty")
    if x.shape[1] != y.shape[1]:
        raise ValueError(f"column counts differ: {x.shape[1]} vs {y.shape[1]}")
    if n_perm < 20:
        raise ValueError("n_perm must be >= 20")
    z = np.vstack([x, y])
    sq = np.sum(z * z, axis=1)
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * z @ z.T, 0.0)
    kernel = np.exp(-d2 / (2.0 * bandwidth * bandwidth))
    n = x.shape[0]
    total = n + y.shape[0]
    observed = _mmd2_from_kernel(kernel, np.arange(n), np.arange(n, total))
    rng = np.random.default_rng(seed)
    exceed = 0
    for _ in range(n_perm):
        perm = rng.permutation(total)
        stat = _mmd2_from_kernel(kernel, perm[:n], perm[n:])
        if stat >= observed:
            exceed += 1
    p_value = (1 + exceed) / (1 + n_perm)
    return observed, p_value


def fit(
    reference,
    method: str = "ks",
    alpha: float = 0.05,
    window: int = 40,
    seed: int = 0,
    n_perm: int = 100,
) -> DriftDetector:
    """Freeze a reference sample into a detector.

    Requires at least 30 reference vectors of a consistent dimension. For
    the MMD method the median-heuristic bandwidth is precomputed here.
    """
    ref = np.asarray(reference, dtype=np.float64)
    if ref.ndim != 2:
        raise ValueError("reference must be a 2-D sample (rows = vectors)")
    if ref.shape[0] < 30:
        raise ValueError(f"need at least 30 reference samples, got {ref.shape[0]}")
    method = method.lower()
    if method not in ("ks", "mmd"):
        raise ValueError(f"unknown method {method!r}")
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0, 1)")
    if window < 10:
        raise ValueError("window must be >= 10")
    ref = ref.copy()
    ref.setflags(write=False)
    ref_sorted = np.sort(ref, axis=0)
    ref_sorted.setflags(write=False)
    bandwidth = median_bandwidth(ref) if method == "mmd" else 1.0
    return DriftDetector(
        reference=ref,
        method=method,
        alpha=alpha,
        window=window,
        rng_seed=seed,
        n_perm=n_perm,
        bandwidth=bandwidth,
        _ref_sorted=ref_sorted,
    )


def predict(detector: DriftDetector, window_samples) -> DriftReport:
    """Test one window of samples against the frozen reference.

    KS: per-feature tests, drift iff min p < alpha / n_features (Bonferroni).
    MMD: single permutation test, drift iff p < alpha.
    """
    win = np.asarray(window_samples, dtype=np.float64)
    if win.ndim != 2 or win.shape[0] != detector.window:
        raise ValueError(
            f"window must contain exactly {detector.window} samples, got {win.shape}"
        )
    if win.shape[1] != detector.n_features:
        raise ValueError("window dimension does not match the reference")

    if detector.method == "ks":
        columns = zip(detector._ref_sorted.T, np.sort(win.T))
        stats, p_values = map(np.array, zip(*(_ks_sorted(r, w) for r, w in columns)))
        threshold = detector.alpha / detector.n_features
        return DriftReport(
            is_drift=bool(p_values.min() < threshold),
            p_values=p_values,
            statistic=stats,
            threshold_used=threshold,
        )

    mmd2, p_value = mmd_permutation(
        detector.reference,
        win,
        bandwidth=detector.bandwidth,
        n_perm=detector.n_perm,
        seed=detector.rng_seed,
    )
    return DriftReport(
        is_drift=bool(p_value < detector.alpha),
        p_values=np.array([p_value]),
        statistic=np.array([mmd2]),
        threshold_used=detector.alpha,
    )


def confidence_gate(decision_confidence: float, tau: float) -> bool:
    """Escalate iff the edge confidence falls strictly below tau."""
    if not (0.0 <= tau <= 1.0):
        raise ValueError("tau must lie in [0, 1]")
    return decision_confidence < tau
