"""Weight function evaluation, validity guards, and grid monotonicity verdicts."""

import pytest

import gwextropy as gx
from gwextropy.errors import DomainError, ParseError, WeightValidityError


def test_eval_closed_cases():
    assert gx.eval_weight(gx.power_weight(1.0), 3.0) == pytest.approx(3.0)
    assert gx.eval_weight(gx.power_weight(2.0), 0.5) == pytest.approx(0.25)
    assert gx.eval_weight(gx.constant_weight(1.0), 7.0) == pytest.approx(1.0)


def test_power_weight_rejects_negative_argument():
    with pytest.raises(DomainError):
        gx.eval_weight(gx.power_weight(2.0), -0.1)


def test_custom_weight_must_stay_nonnegative():
    w = gx.custom_weight(lambda x: x - 10.0, label="dips")
    assert gx.eval_weight(w, 11.0) == pytest.approx(1.0)
    with pytest.raises(WeightValidityError):
        gx.eval_weight(w, 1.0)


def test_monotone_verdicts():
    assert gx.check_monotone_weight(gx.exp_decay_weight(1.0), 0.0, 10.0, 101) == "decreasing"
    assert gx.check_monotone_weight(gx.power_weight(1.0), 0.0, 10.0, 101) == "increasing"
    parabola = gx.custom_weight(lambda x: (x - 1.0) ** 2, label="parabola")
    assert gx.check_monotone_weight(parabola, 0.0, 2.0, 101) == "neither"


def test_flat_weight_counts_as_decreasing():
    # a constant satisfies every weakly-decreasing hypothesis
    assert gx.check_monotone_weight(gx.constant_weight(2.0), 0.0, 1.0) == "decreasing"
    assert gx.check_monotone_weight(gx.exp_decay_weight(0.5), 0.0, 5.0) == "decreasing"
    assert gx.check_monotone_weight(gx.power_weight(1.0), 0.0, 5.0) == "increasing"


def test_verdict_agrees_with_hint():
    for w in (gx.power_weight(2.0), gx.exp_decay_weight(0.5), gx.constant_weight(1.0)):
        if w.monotonicity_hint != "unknown":
            assert gx.check_monotone_weight(w, 0.0, 5.0) == w.monotonicity_hint


def test_parse_weight():
    assert gx.parse_weight("power:2").params == (2.0,)
    assert gx.parse_weight("const:0.5").params == (0.5,)
    assert gx.parse_weight("expdecay:1").params == (1.0,)
    for bad in ("", "power:", "power:-1", "poweroops:1", "const:-3"):
        with pytest.raises(ParseError):
            gx.parse_weight(bad)
