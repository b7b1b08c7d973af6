"""Panel prefetch: a node-map miss fills the map with the pairs of the whole
QUADPACK panel from one array evaluation, for families whose array evaluation
gives bit for bit the floats of the one-node path."""

import warnings

import numpy as np
import pytest

import gwextropy as gx
from gwextropy import distributions, measures, quadrature
from gwextropy.errors import DomainError, IntegrandError
from gwextropy.measures import MAX_RSSU, MIN_RSSU, PAST, PLAIN, RESIDUAL, SRS, MeasureSpec, measure_report
from gwextropy.weights import eval_weight

from conftest import fresh_outcome, outcome

# ~24k levels: an even grid plus geometric runs into both endpoints.
LEVELS = np.unique(
    np.concatenate(
        [
            np.linspace(0.0, 1.0, 16386)[1:-1],
            np.geomspace(1e-300, 0.5, 4000),
            1.0 - np.geomspace(1e-16, 0.5, 4000),
        ]
    )
)

EXACT_DISTS = [
    "uniform:0,1", "uniform:1,3", "uniform:-2,0.5", "exp:1", "exp:2.5", "exp:1.01",
    "transform:exp_minus_one(uniform:0,1)", "transform:exp_minus_one(exp:1)",
    "transform:identity(exp:2)", "transform:identity(transform:exp_minus_one(exp:1.01))",
    "powersurv:0.7", "powersurv:2", "powersurv:2.718",
    "transform:exp_minus_one(powersurv:2)", "transform:identity(powersurv:0.7)",
]
EXACT_WEIGHTS = [
    "power:1", "power:0.5", "power:2.5", "power:4", "const:1", "const:0", "expdecay:0.7", "expdecay:3",
]


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.uint64)


def one_node_at_a_time(d):
    """Q(u) and f(Q(u)) as the one-node path of the integrand computes them."""
    q = [d.quantile(u) for u in LEVELS.tolist()]
    f = [float(d.pdf_at_quantile(u)) for u in LEVELS.tolist()]
    return q, f


def test_levels_reach_both_endpoints():
    assert LEVELS.size > 20_000 and LEVELS[0] == 1e-300 and LEVELS[-1] == 1.0 - 1e-16
    assert np.all((LEVELS > 0.0) & (LEVELS < 1.0))


@pytest.mark.parametrize("dist", EXACT_DISTS)
def test_array_evaluation_is_bit_identical_for_each_prefetched_distribution(dist):
    d = gx.parse_distribution(dist)
    assert d in distributions._ARRAY_EXACT
    with np.errstate(all="ignore"):
        q, f = one_node_at_a_time(d)
        assert np.array_equal(bits(d.quantile(LEVELS)), bits(q))
        assert np.array_equal(bits(d.pdf_at_quantile(LEVELS)), bits(f))


@pytest.mark.parametrize("weight", EXACT_WEIGHTS)
def test_array_evaluation_is_bit_identical_for_each_prefetched_weight(weight):
    w = gx.parse_weight(weight)
    assert w in distributions._ARRAY_EXACT
    # the points the integrand feeds the weight: quantiles of the distributions above
    for dist in ("uniform:0,1", "exp:1", "transform:exp_minus_one(exp:1)"):
        d = gx.parse_distribution(dist)
        with np.errstate(all="ignore"):
            x = d.quantile(LEVELS[::2])
            scalar = [eval_weight(w, d.quantile(u)) for u in LEVELS[::2].tolist()]
            assert np.array_equal(bits(eval_weight(w, x)), bits(scalar)), dist


def test_power_survival_density_differs_on_arrays_so_the_pin_has_teeth():
    # The density b (1-u)^(1-1/b) takes numpy's scalar power one node at a
    # time. numpy's array power loop rounds differently: at b = 2 it takes
    # sqrt for the exponent 1/2 (the scalar power does not) on every platform,
    # and at b = 0.7 it differs where the loop is SIMD code, as with AVX-512.
    # So the library's array density applies the scalar power per element.
    b = 2.0
    d = gx.power_survival(b)
    _, f = one_node_at_a_time(d)
    raw = b * (1.0 - LEVELS) ** (1.0 - 1.0 / b)
    assert np.sum(bits(raw) != bits(f)) > 0
    assert np.array_equal(bits(d.pdf_at_quantile(LEVELS)), bits(f))
    assert d in distributions._ARRAY_EXACT


def test_only_the_factories_mark_a_family_for_the_prefetch():
    exact = distributions._ARRAY_EXACT
    ps = gx.power_survival(0.7)
    families = ("uniform:0,1", "exp:1", "powersurv:0.7", "transform:identity(powersurv:2)")
    assert all(gx.parse_distribution(text) in exact for text in families)
    assert gx.custom(lambda u: u, lambda u: np.ones_like(u), 0.0, 1.0) not in exact
    own = gx.Transformation("identity", gx.IDENTITY.psi, gx.IDENTITY.psi_prime, gx.IDENTITY.psi_inverse)
    assert gx.transform(gx.exponential(1.0), own) not in exact
    e = gx.exponential(1.0)
    direct = gx.Distribution(
        e.family_tag, 0.0, np.inf, ps.cdf, ps.pdf, ps.quantile, ps.pdf_at_quantile, (1.0,), "direct"
    )
    assert direct not in exact and gx.transform(direct, gx.IDENTITY) not in exact
    p = gx.power_weight(1.0)
    assert gx.custom_weight(p.eval) not in exact
    direct_weight = gx.WeightFunction(p.eval, p.family_tag, p.monotonicity_hint, p.params, p.label)
    assert direct_weight not in exact


def _registry_cases():
    """The closed-form registry's inputs, plus the divergent transform probes."""
    unif = gx.uniform()
    cases = []
    for m in (0.25, 1.0, 3.7):
        w = gx.power_weight(m)
        for n in (1, 4):
            cases += [
                (unif, w, MeasureSpec(PAST, SRS, n)),
                (unif, w, MeasureSpec(RESIDUAL, SRS, n)),
                (unif, w, MeasureSpec(PAST, MAX_RSSU, n)),
                (unif, w, MeasureSpec(RESIDUAL, MIN_RSSU, n)),
                (gx.exponential(0.5), w, MeasureSpec(RESIDUAL, MIN_RSSU, n)),
                (gx.exponential(2.0), w, MeasureSpec(RESIDUAL, MIN_RSSU, n)),
                (gx.power_survival(0.7), w, MeasureSpec(RESIDUAL, MIN_RSSU, n)),
            ]
    for dist in ("transform:exp_minus_one(exp:1)", "transform:exp_minus_one(exp:1.01)"):
        cases.append((gx.parse_distribution(dist), gx.power_weight(1.0), MeasureSpec(RESIDUAL)))
    return cases


def _recorded_nodes(evaluate):
    """The u sequence QUADPACK passes to each integrand that evaluate() integrates."""
    qagse, calls = quadrature._qagse, []

    def recording(f, *args):
        calls.append([])

        def g(u):
            calls[-1].append(u)
            return f(u)

        return qagse(g, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quadrature, "_qagse", recording)
        evaluate()
    return calls


def test_panels_are_rebuilt_from_their_centre_and_the_map_leaves_the_node_order():
    rebuilt = panels = 0
    for d, w, spec in _registry_cases():
        fresh = _recorded_nodes(lambda: fresh_outcome(d, w, spec))
        shared = _recorded_nodes(lambda: outcome(lambda: measure_report(d, w, spec)))
        assert shared == fresh
        for seq in fresh:
            assert len(seq) % 21 == 0
            for i in range(0, len(seq), 21):
                predicted = quadrature._panel_nodes(seq[i])
                panels += 1
                rebuilt += predicted.tolist() == seq[i : i + 21]
    assert panels > 500 and rebuilt >= 0.99 * panels, (rebuilt, panels)


def test_panel_nodes_are_the_centre_then_the_gauss_then_the_kronrod_abscissae():
    xgk = np.array(quadrature._XGK)
    # the last two lie below 2^-1000; at 2^-1060, hlgth xgk(j) is subnormal
    panels = (0.5, 0.5), (0.75, 0.25), (3 * 2.0**-40, 2.0**-40), (2.0**-1010, 2.0**-1010)
    for centre, hlgth in panels + ((3 * 2.0**-1060, 2.0**-1060),):
        gauss = np.column_stack([centre - hlgth * xgk[1::2], centre + hlgth * xgk[1::2]]).ravel()
        kronrod = np.column_stack([centre - hlgth * xgk[0::2], centre + hlgth * xgk[0::2]]).ravel()
        expected = [centre] + gauss.tolist() + kronrod.tolist()
        assert quadrature._panel_nodes(centre).tolist() == expected
    # 0.1 is no centre dqagse bisects to (its lowest set bit is 2^-55), but it
    # still gets the 21 points of the panel its lowest bit implies
    hlgth = 2.0**-55
    around = quadrature._panel_nodes(0.1)
    assert around[0] == 0.1 and around.tolist() == (0.1 + hlgth * quadrature._PANEL_OFFSETS).tolist()


@pytest.mark.parametrize("dist", ["exp:1", "powersurv:0.7", "transform:exp_minus_one(powersurv:2)"])
@pytest.mark.parametrize("kind", [measures.IntegrandKind(measures.PHI_I, 2), measures.IntegrandKind(measures.DELTA_GWJ)])
def test_a_miss_that_is_no_panel_centre_gives_the_one_node_value(dist, kind):
    # 1 - 2^-53 is where a node rounding onto 1.0 is snapped to; neither it
    # nor 0.1 is the centre of a panel dqagse evaluates
    d, w = gx.parse_distribution(dist), gx.power_weight(1.5)
    for u in (1.0 - 2.0**-53, 0.1):
        nodes = {}
        with np.errstate(all="ignore"):
            alone = measures.make_integrand(d, w, kind)(u)
            shared = measures.make_integrand(d, w, kind, nodes=nodes)(u)
        # the miss filled the map from one array evaluation around u
        assert u in nodes and len(nodes) > 1, u
        assert bits(shared) == bits(alone), u


def test_every_panel_of_a_pole_is_rebuilt_down_to_subnormal_depth():
    # dqagse bisects towards the pole of 1/u until roundoff stops it (ier = 3),
    # so its deepest panels have half-lengths far below 2^-1000
    nodes = []

    def f(u):
        nodes.append(u)
        return 1.0 / u

    q = quadrature
    _, _, info, ier = q._qagse(f, 0.0, 1.0, (), 1, q.DEFAULT_ABS_TOL, q.DEFAULT_REL_TOL, q.DEFAULT_MAX_SUBDIVISIONS)
    assert ier == 3 and len(nodes) == 21 * (2 * info["last"] - 1)
    centres = nodes[::21]
    # the panel [0, 2h] is centred at h, so a centre below 2^-1000 is such a panel
    assert min(centres) < 2.0**-1000
    for i, centre in enumerate(centres):
        assert quadrature._panel_nodes(centre).tolist() == nodes[21 * i : 21 * i + 21], i


def test_a_panel_whose_array_evaluation_raises_is_tried_once(monkeypatch):
    # -a x overflows on its way to a finite w(Q) at every node of the one panel
    d, w, spec = gx.exponential(1.0), gx.exp_decay_weight(1e308), MeasureSpec(RESIDUAL)
    panel_nodes, calls = quadrature._panel_nodes, []

    def counting(centre):
        calls.append(centre)
        return panel_nodes(centre)

    def run(evaluate):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = evaluate()
        return result, [(str(c.message), c.category, c.filename, c.lineno) for c in caught]

    monkeypatch.setattr(measures, "_panel_nodes", counting)
    shared = run(lambda: outcome(lambda: measure_report(d, w, spec)))
    assert len(calls) == 1 and shared[0][2][0][2] == 1
    assert shared == run(lambda: fresh_outcome(d, w, spec))


@pytest.mark.parametrize(
    "dist, weight, spec",
    [
        ("exp:1e-310", "expdecay:1", MeasureSpec(PAST)),
        ("exp:5e-324", "const:1", MeasureSpec(RESIDUAL, MIN_RSSU, 2)),
        ("exp:5e-324", "power:1", MeasureSpec(RESIDUAL, MIN_RSSU, 2)),
        # w(Q) ends finite although -a x overflows on its way: numpy warns
        ("exp:1", "expdecay:1e308", MeasureSpec(RESIDUAL)),
        ("uniform:1,3", "expdecay:1e308", MeasureSpec(PLAIN)),
        ("uniform:0,1e308", "const:1", MeasureSpec(PAST, SRS, 2)),
        # the density overflows
        ("powersurv:0.01", "power:1", MeasureSpec(PLAIN)),
    ],
)
def test_warnings_and_errors_come_from_the_same_nodes_as_without_the_prefetch(dist, weight, spec):
    d, w = gx.parse_distribution(dist), gx.parse_weight(weight)

    def run(evaluate):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                result = evaluate()
            except (DomainError, IntegrandError) as exc:
                result = (type(exc).__name__, str(exc))
        return result, [(str(c.message), c.category, c.filename, c.lineno) for c in caught]

    fresh = run(lambda: fresh_outcome(d, w, spec))
    shared = run(lambda: outcome(lambda: measure_report(d, w, spec)))
    assert shared == fresh
    if weight != "const:1":
        assert fresh[1], "the case should make numpy warn"
