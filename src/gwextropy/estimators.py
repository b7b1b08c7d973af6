"""Empirical estimators of the cumulative weighted extropies for power
weights w(x) = x^m.

Both estimators share the same skeleton: sum over consecutive order
statistics of (x_{i+1}^{m+1} - x_i^{m+1}) times a squared CDF weight,
scaled by -1/(2(m+1)). The step estimator plugs in the empirical CDF value
i/n (past) or its survival complement (residual). The kernel estimator
plugs in a smoothed CDF instead, evaluated at the midpoint of each cell
(x_i + x_{i+1})/2; the midpoint convention makes the h -> 0 limit agree
with the step estimator exactly instead of stalling at the half-mass value
the smoothed CDF takes at a data point.

Both sums run only between order statistics, so the residual variant leaves
out the [0, x_{1:n}) segment where the empirical survival is 1. That small
negative bias vanishes as n grows; ``include_head`` adds the omitted term
-x_{1:n}^{m+1}/(2(m+1)) for callers who want it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BandwidthError, DomainError, InsufficientDataError
from .measures import PAST, RESIDUAL
from .quadrature import _scipy_extension

STEP = "step"
KERNEL = "kernel"
GAUSSIAN = "gaussian"
EPANECHNIKOV = "epanechnikov"
SILVERMAN = "silverman"

_KERNEL_BLOCK = 1 << 16  # kernel values smoothed_cdf computes at once

_ndtr = None  # the standard normal CDF ufunc, looked up on first Gaussian use


@dataclass(frozen=True)
class EstimatorConfig:
    """Estimator settings: variant, weight exponent, style, kernel, bandwidth."""

    variant: str
    m: float = 1.0
    style: str = STEP
    kernel: str = GAUSSIAN
    bandwidth: float | str = SILVERMAN

    def __post_init__(self):
        if self.variant not in (PAST, RESIDUAL):
            raise DomainError(f"variant must be past or residual, got {self.variant!r}")
        if not 0 < self.m < np.inf:
            raise DomainError(f"weight exponent m must be finite and > 0, got {self.m!r}")
        if self.style not in (STEP, KERNEL):
            raise DomainError(f"style must be step or kernel, got {self.style!r}")
        if self.kernel not in (GAUSSIAN, EPANECHNIKOV):
            raise DomainError(f"kernel must be gaussian or epanechnikov, got {self.kernel!r}")
        if isinstance(self.bandwidth, str):
            if self.bandwidth != SILVERMAN:
                raise BandwidthError(f"unknown bandwidth rule {self.bandwidth!r}")
        elif not 0 < self.bandwidth < np.inf:
            raise BandwidthError(f"bandwidth must be finite and positive, got {self.bandwidth!r}")


def _observations(sample, m: float) -> np.ndarray:
    values = getattr(sample, "values", sample)
    arr = np.sort(np.asarray(values, dtype=float).ravel())
    if arr.size < 2:
        raise InsufficientDataError(f"need at least 2 observations, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise DomainError("observations must be finite")
    if arr[0] < 0:
        raise DomainError(f"power weights need nonnegative observations, got {arr[0]}")
    # arr is sorted, so x^(m+1) is largest at its last entry; a Python float
    # power raises where numpy's would warn and return inf.
    try:
        float(arr[-1]) ** (m + 1.0)
    except OverflowError:
        raise DomainError(
            f"x^(m+1) overflows for m = {m!r} at the largest observation {float(arr[-1])!r}"
        ) from None
    return arr


def _plug_in(
    values: np.ndarray, cdf: np.ndarray, cfg: EstimatorConfig, include_head: bool
) -> float:
    """Cell sum of the shared skeleton, given the CDF value of each cell."""
    m = cfg.m
    weights = cdf**2 if cfg.variant == PAST else (1.0 - cdf) ** 2
    powers = values ** (m + 1.0)
    diffs = powers[1:] - powers[:-1]
    total = float(-(diffs @ weights) / (2.0 * (m + 1.0)))
    if include_head and cfg.variant == RESIDUAL:
        total += float(-(values[0] ** (m + 1.0)) / (2.0 * (m + 1.0)))
    return total


def step_estimate(sample, cfg: EstimatorConfig, include_head: bool = False) -> float:
    """Plug-in estimate using the empirical CDF."""
    values = _observations(sample, cfg.m)
    n = values.size
    return _plug_in(values, np.arange(1, n, dtype=float) / n, cfg, include_head)


def _integrated_kernel(kernel: str):
    global _ndtr
    if kernel == GAUSSIAN:
        if _ndtr is None:
            # scipy.special.ndtr itself, taken from its extension module so
            # that scipy.special's package init never runs.
            try:
                _ndtr = _scipy_extension("special", "_special_ufuncs").ndtr
            except (ImportError, AttributeError):  # scipy before ndtr moved there
                from scipy.special import ndtr as _ndtr
        return _ndtr

    def epanechnikov_cdf(t):
        t = np.clip(np.asarray(t, float), -1.0, 1.0)
        return 0.5 + 0.75 * t - 0.25 * t**3

    return epanechnikov_cdf


def smoothed_cdf(sample, kernel: str, h: float, x):
    """Kernel-smoothed CDF: mean over observations of L((x - X_j)/h)."""
    if not 0 < h < np.inf:
        raise BandwidthError(f"bandwidth must be finite and positive, got {h!r}")
    if kernel not in (GAUSSIAN, EPANECHNIKOV):
        raise DomainError(f"kernel must be gaussian or epanechnikov, got {kernel!r}")
    data = np.asarray(getattr(sample, "values", sample), dtype=float).ravel()
    if data.size == 0:
        raise InsufficientDataError("need at least 1 observation for a smoothed CDF")
    L = _integrated_kernel(kernel)
    x_arr = np.asarray(x, dtype=float)

    def row_means(points):
        return np.mean(L((points[..., np.newaxis] - data) / h), axis=-1)

    # Blocks of evaluation points keep memory at O(max(_KERNEL_BLOCK, n)), not
    # O(len(x) * n). Each point's row reduces on its own, so the block size
    # does not change a bit of the result.
    rows = max(1, _KERNEL_BLOCK // data.size)
    points = x_arr.ravel()
    blocks = [row_means(points[i : i + rows]) for i in range(0, max(points.size, 1), rows)]
    out = np.concatenate(blocks).reshape(x_arr.shape)
    if np.ndim(x) == 0:
        return float(out)
    return out


def bandwidth_silverman(sample) -> float:
    """Reference rule h = 1.06 * s * n^(-1/5) with the n-1 standard deviation."""
    values = getattr(sample, "values", sample)
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size < 2:
        raise InsufficientDataError(f"need at least 2 observations, got {arr.size}")
    s = float(np.std(arr, ddof=1))
    if s <= 0.0:
        raise BandwidthError("sample standard deviation is zero; supply a numeric bandwidth")
    return 1.06 * s * arr.size ** (-0.2)


def resolve_bandwidth(sample, cfg: EstimatorConfig) -> float:
    if isinstance(cfg.bandwidth, str):
        return bandwidth_silverman(sample)
    return float(cfg.bandwidth)


def kernel_estimate(sample, cfg: EstimatorConfig, include_head: bool = False) -> float:
    """Plug-in estimate using the kernel-smoothed CDF at cell midpoints."""
    values = _observations(sample, cfg.m)
    h = resolve_bandwidth(values, cfg)
    midpoints = 0.5 * (values[1:] + values[:-1])
    return _plug_in(values, smoothed_cdf(values, cfg.kernel, h, midpoints), cfg, include_head)


def estimate(sample, cfg: EstimatorConfig, include_head: bool = False) -> float:
    """Dispatch on cfg.style."""
    if cfg.style == STEP:
        return step_estimate(sample, cfg, include_head)
    return kernel_estimate(sample, cfg, include_head)
