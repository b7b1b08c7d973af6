"""Seeded Monte-Carlo sampling for SRS, minRSSU, and maxRSSU designs.

The generator is numpy's counter-based Philox keyed directly by the 64-bit
seed, so samples are reproducible bit for bit across platforms and across
evaluation orders. Replicate r of a study derives its own key from
(base_seed, r) by the splitmix64 finalizer, which is injective in r, so
replicates may be generated in any order or in parallel.

Unit i of a one-cycle RSSU design is the extreme of a set of size i:
minRSSU keeps Z_i = min of i draws, maxRSSU keeps Y_i = max of i draws. The
default route uses the inverse-CDF shortcut with a single uniform per unit:
Z_i = Q(1-(1-u)^{1/i}) and Y_i = Q(u^{1/i}) carry exactly the marginal laws
of the minimum and maximum. The literal route (one uniform per set member,
then reduce) is kept behind a flag for cross-checks; the two routes spend
the stream differently, so they match in law, not draw for draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .distributions import Distribution
from .errors import DomainError
from .measures import MAX_RSSU, MIN_RSSU, SRS

DESIGNS = (SRS, MIN_RSSU, MAX_RSSU)

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


@dataclass(frozen=True, eq=False)
class Sample:
    """One generated sample: ascending values plus the original draw order."""

    values: np.ndarray
    design: str
    n: int
    seed: int
    raw_order: np.ndarray


def derive_seed(base_seed: int, r: int) -> int:
    """Key for replicate r: splitmix64 finalizer of base_seed + (r+1)*golden.

    The pre-mix step is a bijection of r modulo 2^64 (the golden-ratio
    constant is odd) and the finalizer is invertible, so distinct replicate
    indices always get distinct keys.
    """
    if r < 0:
        raise DomainError(f"replicate index must be >= 0, got {r}")
    z = (int(base_seed) + (r + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=int(seed) & _MASK64))


def _uniforms(gen: np.random.Generator, count: int) -> np.ndarray:
    # (k + 1/2) / 2^53 over k < 2^53, so quantile functions are never
    # evaluated at 0 or 1. k + 1/2 rounds to 2^53 for k = 2^53 - 1 alone,
    # which the cap takes to the largest double below 1.
    ints = gen.integers(0, 1 << 53, size=count, dtype=np.uint64)
    u = ints + 0.5
    u *= 2.0**-53
    return np.minimum(u, 1.0 - 2.0**-53, out=u)


def draw_design(
    d: Distribution, design: str, n: int, seed: int, literal_extremes: bool = False
) -> Sample:
    """One sample of size n under the given design, deterministic in seed."""
    if design not in DESIGNS:
        raise DomainError(f"unknown design {design!r}")
    if not (isinstance(n, int) and n >= 1):
        raise DomainError(f"sample size must be a positive integer, got {n!r}")
    if n > np.iinfo(np.intp).max // 8:
        raise DomainError(f"sample size {n} is too large: its float64 uniforms exceed numpy's array size limit")
    gen = _generator(seed)

    if design == SRS:
        raw = np.asarray(d.quantile(_uniforms(gen, n)), float)
    elif literal_extremes:
        raw = np.empty(n, dtype=float)
        for i in range(1, n + 1):
            draws = np.asarray(d.quantile(_uniforms(gen, i)), float)
            raw[i - 1] = draws.min() if design == MIN_RSSU else draws.max()
    else:
        u = _uniforms(gen, n)
        i = np.arange(1, n + 1, dtype=float)
        if design == MIN_RSSU:
            levels = -np.expm1(np.log1p(-u) / i)
        else:
            levels = np.exp(np.log(u) / i)
        raw = np.asarray(d.quantile(levels), float)

    values = np.sort(raw)
    # The sort puts -inf first and nan last, so the two ends decide.
    for end in (values[0], values[-1]):
        if not math.isfinite(end):
            name = d.label or d.family_tag
            raise DomainError(f"{design} draw from {name} gave {float(end)!r}; every draw must be finite")
    return Sample(values=values, design=design, n=n, seed=int(seed), raw_order=raw)


def replicate(
    d: Distribution,
    design: str,
    n: int,
    base_seed: int,
    replicates: int,
    literal_extremes: bool = False,
) -> Iterator[Sample]:
    """Independent reproducible samples; replicate r is keyed by derive_seed(base_seed, r)."""
    if not (isinstance(replicates, int) and replicates >= 1):
        raise DomainError(f"replicate count must be a positive integer, got {replicates!r}")
    for r in range(replicates):
        yield draw_design(d, design, n, derive_seed(base_seed, r), literal_extremes)
