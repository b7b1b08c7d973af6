"""Reference values for the benchmark's output checks.

Nothing here imports gwextropy. The closed forms, the replicate key
derivation, the sampler stream and the estimator formulas are written out
again from their definitions, so a fast but wrong library result fails its
check instead of agreeing with itself. All measures use the power weight
w(x) = x^m unless a function says otherwise.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

THEOREM_TABLE = Path(__file__).with_name("theorem_table.json")

_MASK64 = (1 << 64) - 1


def _log_beta(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def uniform_srs(m: float, n: int, variant: str) -> float:
    """Standard uniform, SRS: the single factor is 1/(m+3) (past) or B(m+1, 3) (residual)."""
    factor = 1.0 / (m + 3.0) if variant == "past" else math.exp(_log_beta(m + 1.0, 3.0))
    return -0.5 * factor**n


def uniform_maxrssu(m: float, n: int) -> float:
    """Standard uniform, maxRSSU: E[u^(2i+m)] = 1/(2i+m+1)."""
    return -0.5 * math.prod(1.0 / (2.0 * i + m + 1.0) for i in range(1, n + 1))


def uniform_minrssu(m: float, n: int) -> float:
    """Standard uniform, minRSSU: E[(1-u)^(2i) u^m] = B(m+1, 2i+1)."""
    return -0.5 * math.exp(sum(_log_beta(m + 1.0, 2.0 * i + 1.0) for i in range(1, n + 1)))


def exp_minrssu(rate: float, m: float, n: int) -> float:
    """Exponential(rate), minRSSU: factor i is Gamma(m+1) / (2 i rate)^(m+1)."""
    logs = (math.lgamma(m + 1.0) - (m + 1.0) * math.log(2.0 * i * rate) for i in range(1, n + 1))
    return -0.5 * math.exp(sum(logs))


def powersurv_minrssu(b: float, m: float, n: int) -> float:
    """Survival (1-x)^b, minRSSU: factor i is B(m+1, 2ib+1)."""
    return -0.5 * math.exp(sum(_log_beta(m + 1.0, 2.0 * i * b + 1.0) for i in range(1, n + 1)))


def powersurv_single(b: float, m: float, variant: str) -> float:
    """Survival (1-x)^b, one draw: with t^b = 1-u the factor is int (1-t^b)^2 (1-t)^m dt
    (past) or int t^(2b) (1-t)^m dt (residual)."""
    beta = lambda a: math.exp(_log_beta(a, m + 1.0))  # noqa: E731
    if variant == "past":
        return -0.5 * (beta(1.0) - 2.0 * beta(b + 1.0) + beta(2.0 * b + 1.0))
    return -0.5 * beta(2.0 * b + 1.0)


def exp_expdecay_maxrssu(rate: float, a: float, n: int) -> float:
    """Exponential(rate), weight e^(-a x), past maxRSSU (n=1 is the single past
    measure): factor i is B(2i+1, a/rate) / rate."""
    s = a / rate
    return -0.5 * math.exp(sum(_log_beta(2.0 * i + 1.0, s) - math.log(rate) for i in range(1, n + 1)))


def uniform_const_srs(c: float, width: float, n: int) -> float:
    """Uniform on an interval of the given width, weight c, past SRS: factor c*width/3."""
    return -0.5 * (c * width / 3.0) ** n


def exp_const_minrssu(rate: float, c: float, n: int) -> float:
    """Exponential(rate), weight c, residual minRSSU: factor i is c / (2 i rate)."""
    return -0.5 * math.prod(c / (2.0 * i * rate) for i in range(1, n + 1))


def expm1_of_exp_residual(rate: float) -> float:
    """Y = e^X - 1 with X ~ Exponential(rate), weight y, residual single measure.

    The u-space integrand is ((1-u)^(1-2/rate) - (1-u)^(1-1/rate)) / rate,
    finite only for rate > 1.
    """
    if rate <= 1.0:
        return -math.inf
    return -0.5 / rate * (1.0 / (2.0 - 2.0 / rate) - 1.0 / (2.0 - 1.0 / rate))


def replicate_key(base_seed: int, r: int) -> int:
    """splitmix64 finalizer of base_seed + (r+1) * golden ratio constant."""
    z = (int(base_seed) + (r + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def exp_quantile(rate: float):
    return lambda u: -np.log1p(-u) / rate


def powersurv_quantile(b: float):
    return lambda u: -np.expm1(np.log1p(-u) / b)


def sample_raw(quantile, design: str, n: int, key: int) -> np.ndarray:
    """The draw order of one sample: Philox keyed by ``key``, 53-bit uniforms
    centred in their cells, one uniform per unit, inverse CDF of the unit's
    extreme law."""
    gen = np.random.Generator(np.random.Philox(key=key))
    ints = gen.integers(0, 1 << 53, size=n, dtype=np.uint64)
    u = (ints.astype(np.float64) + 0.5) * 2.0**-53
    i = np.arange(1, n + 1, dtype=float)
    if design == "minRSSU":
        u = -np.expm1(np.log1p(-u) / i)
    elif design == "maxRSSU":
        u = np.exp(np.log(u) / i)
    return quantile(u)


def _cdf_weights(cdf, variant: str):
    return cdf**2 if variant == "past" else (1.0 - cdf) ** 2


def _cell_sums(x: np.ndarray, m: float, weights: np.ndarray) -> np.ndarray:
    powers = x ** (m + 1.0)
    return -np.sum((powers[..., 1:] - powers[..., :-1]) * weights, axis=-1) / (2.0 * (m + 1.0))


def step_estimates(x: np.ndarray, m: float, variant: str) -> np.ndarray:
    """Step estimator on sorted rows of x (last axis): empirical CDF i/n between
    consecutive order statistics."""
    n = x.shape[-1]
    return _cell_sums(x, m, _cdf_weights(np.arange(1, n) / n, variant))


def _integrated_kernel(kernel: str, t: np.ndarray) -> np.ndarray:
    if kernel == "gaussian":
        from scipy.special import erfc

        return 0.5 * erfc(-t / math.sqrt(2.0))
    t = np.clip(t, -1.0, 1.0)
    return 0.5 + 0.75 * t - 0.25 * t**3


def kernel_estimates(x: np.ndarray, m: float, variant: str, kernel: str, chunk_elems: int = 1 << 20):
    """Kernel estimator on sorted rows of x (last axis): Silverman bandwidth,
    smoothed CDF at cell midpoints. The smoothed CDF is built a block of
    midpoints at a time so memory stays near ``chunk_elems`` doubles."""
    x = np.atleast_2d(x)
    rows, n = x.shape
    dev = x - x.mean(axis=1, keepdims=True)
    h = 1.06 * np.sqrt(np.sum(dev * dev, axis=1) / (n - 1)) * n**-0.2
    mid = 0.5 * (x[:, 1:] + x[:, :-1])
    cdf = np.empty_like(mid)
    step = max(1, chunk_elems // (rows * n))
    for lo in range(0, n - 1, step):
        t = (mid[:, lo : lo + step, None] - x[:, None, :]) / h[:, None, None]
        cdf[:, lo : lo + step] = _integrated_kernel(kernel, t).mean(axis=2)
    return _cell_sums(x, m, _cdf_weights(cdf, variant))


def theorem_table() -> list[list]:
    """Stored (theorem_id, subject, passed, inconclusive) rows of the default suite."""
    return json.loads(THEOREM_TABLE.read_text(encoding="utf-8"))


def rel_error(value: float, ref: float) -> float:
    if value == ref:
        return 0.0
    return abs(value - ref) / abs(ref)
