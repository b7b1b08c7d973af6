"""Seeded design sampling: determinism, stream derivation, distributional fidelity."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import gwextropy as gx
from gwextropy.errors import DomainError
from gwextropy.sampling import _generator, _uniforms, derive_seed

from conftest import ks_distance


def test_fixed_seed_is_bitwise_reproducible():
    for design in (gx.SRS, gx.MIN_RSSU, gx.MAX_RSSU):
        a = gx.draw_design(gx.exponential(1.0), design, 6, 987)
        b = gx.draw_design(gx.exponential(1.0), design, 6, 987)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.raw_order, b.raw_order)
        assert a.design == design and a.n == 6 and a.seed == 987


def test_sample_invariants():
    s = gx.draw_design(gx.uniform(), gx.MAX_RSSU, 5, 42)
    assert len(s.values) == 5
    assert np.array_equal(s.values, np.sort(s.raw_order))


def test_srs_n1_is_first_uniform_through_quantile():
    d = gx.exponential(2.0)
    s = gx.draw_design(d, gx.SRS, 1, 77)
    u = _uniforms(_generator(77), 1)[0]
    assert s.values[0] == gx.quantile(d, u)


def test_distinct_seeds_differ():
    a = gx.draw_design(gx.uniform(), gx.SRS, 8, 1)
    b = gx.draw_design(gx.uniform(), gx.SRS, 8, 2)
    assert not np.array_equal(a.values, b.values)


def test_derive_seed_injective_on_range():
    derived = {derive_seed(42, r) for r in range(1000)}
    assert len(derived) == 1000
    assert derive_seed(42, 0) != derive_seed(43, 0)
    with pytest.raises(DomainError):
        derive_seed(42, -1)


def test_replicate_matches_draw_design():
    samples = list(gx.replicate(gx.uniform(), gx.MIN_RSSU, 3, 42, 2))
    assert len(samples) == 2
    for r, sample in enumerate(samples):
        direct = gx.draw_design(gx.uniform(), gx.MIN_RSSU, 3, derive_seed(42, r))
        assert np.array_equal(sample.raw_order, direct.raw_order)


def test_n_zero_rejected():
    with pytest.raises(DomainError):
        gx.draw_design(gx.uniform(), gx.SRS, 0, 1)


def test_uniform_draws_stay_interior():
    s = gx.draw_design(gx.uniform(), gx.SRS, 50_000, 3)
    assert np.all(s.values > 0.0) and np.all(s.values < 1.0)


def test_uniforms_stay_below_one_at_the_largest_integer():
    class Stub:
        def integers(self, low, high, size, dtype):
            return np.array([0, 2**52, 2**53 - 2, 2**53 - 1], dtype=dtype)

    ints = np.array([0, 2**52, 2**53 - 2], dtype=np.uint64)
    u = _uniforms(Stub(), 4)
    # every other integer keeps the float of (k + 1/2) 2^-53
    assert u[:3].tolist() == ((ints.astype(np.float64) + 0.5) * 2.0**-53).tolist()
    assert u[3] == np.nextafter(1.0, 0.0)
    assert np.all(np.isfinite(gx.exponential(1.0).quantile(u)))


def test_extreme_means(rssu_pools):
    # E[Z_i] = 1/(i+1) and E[Y_i] = i/(i+1) for uniform parents
    z = rssu_pools[gx.MIN_RSSU]
    y = rssu_pools[gx.MAX_RSSU]
    assert abs(z[:, 1].mean() - 1 / 3) < 0.005
    assert abs(y[:, 2].mean() - 3 / 4) < 0.005
    for i in (1, 2, 3):
        assert abs(z[:, i - 1].mean() - 1 / (i + 1)) < 0.005
        assert abs(y[:, i - 1].mean() - i / (i + 1)) < 0.005


def test_extreme_laws_by_kolmogorov_distance(rssu_pools):
    z = rssu_pools[gx.MIN_RSSU]
    y = rssu_pools[gx.MAX_RSSU]
    for i in (1, 2, 3):
        assert ks_distance(z[:, i - 1], lambda x, i=i: 1 - (1 - x) ** i) < 0.01
        assert ks_distance(y[:, i - 1], lambda x, i=i: x**i) < 0.01


def test_literal_route_matches_shortcut_law():
    # the i-draw route must produce the same marginal law as the one-uniform
    # shortcut; compare empirical CDFs of Z_3 across disjoint seed streams
    reps = 20_000
    lit = np.array(
        [s.raw_order[2] for s in gx.replicate(gx.uniform(), gx.MIN_RSSU, 3, 1001, reps, literal_extremes=True)]
    )
    assert ks_distance(lit, lambda x: 1 - (1 - x) ** 3) < 0.015
    fast = np.array(
        [s.raw_order[2] for s in gx.replicate(gx.uniform(), gx.MIN_RSSU, 3, 2002, reps)]
    )
    # two-sample Kolmogorov distance, crude bound for 20k vs 20k
    pooled = np.sort(np.concatenate([lit, fast]))
    f_lit = np.searchsorted(np.sort(lit), pooled, side="right") / reps
    f_fast = np.searchsorted(np.sort(fast), pooled, side="right") / reps
    assert np.max(np.abs(f_lit - f_fast)) < 0.025


def test_literal_route_reproducible():
    a = gx.draw_design(gx.uniform(), gx.MAX_RSSU, 4, 5, literal_extremes=True)
    b = gx.draw_design(gx.uniform(), gx.MAX_RSSU, 4, 5, literal_extremes=True)
    assert np.array_equal(a.raw_order, b.raw_order)
    # and differs from the shortcut stream (consumes i uniforms per unit)
    c = gx.draw_design(gx.uniform(), gx.MAX_RSSU, 4, 5)
    assert not np.array_equal(a.raw_order, c.raw_order)


def test_exponential_samples_nonnegative():
    s = gx.draw_design(gx.exponential(0.5), gx.MIN_RSSU, 10, 9)
    assert np.all(s.values >= 0.0)


def test_input_checks_name_the_bad_argument():
    with pytest.raises(DomainError, match=r"^unknown design 'single'$"):
        gx.draw_design(gx.uniform(), "single", 3, 1)
    with pytest.raises(DomainError, match=r"^replicate count must be a positive integer, got 0$"):
        next(gx.replicate(gx.uniform(), gx.SRS, 3, 1, 0))


@pytest.mark.parametrize("literal", [False, True])
@pytest.mark.parametrize("design", [gx.SRS, gx.MIN_RSSU, gx.MAX_RSSU])
def test_a_sample_too_large_for_an_array_is_a_domain_error(design, literal):
    # 10**20 float64s exceed numpy's intp byte count, so this fails before allocating
    message = "sample size 100000000000000000000 is too large: its float64 uniforms exceed numpy's array size limit"
    with pytest.raises(DomainError, match=f"^{message}$"):
        gx.draw_design(gx.uniform(), design, 10**20, 1, literal)
