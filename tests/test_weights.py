"""Weight function evaluation, validity guards, and grid monotonicity verdicts."""

import re

import numpy as np
import pytest

import gwextropy as gx
from gwextropy.errors import DomainError, ParseError, WeightValidityError


def test_eval_closed_cases():
    assert gx.eval_weight(gx.power_weight(1.0), 3.0) == pytest.approx(3.0)
    assert gx.eval_weight(gx.power_weight(2.0), 0.5) == pytest.approx(0.25)
    assert gx.eval_weight(gx.constant_weight(1.0), 7.0) == pytest.approx(1.0)


def test_power_weight_rejects_negative_argument():
    w = gx.power_weight(2.0)
    for x in (-0.1, np.asarray(-0.1), np.array([1.0, -0.1])):
        with pytest.raises(DomainError):
            gx.eval_weight(w, x)
    assert gx.eval_weight(w, -0.0) == 0.0


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


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), -0.5])
def test_invalid_values_raise_on_scalar_and_array_paths(bad):
    w = gx.custom_weight(lambda x: x, label="identity")
    message = f"weight 'identity' produced an invalid value {bad!r} (must be finite and >= 0)"
    for x in (bad, np.float64(bad), np.asarray(bad), np.array([1.0, bad, 2.0])):
        with pytest.raises(WeightValidityError, match=f"^{re.escape(message)}$"):
            gx.eval_weight(w, x)


def test_builtin_weights_reject_non_finite_values():
    for w, x in ((gx.power_weight(2.0), float("nan")), (gx.power_weight(2.0), float("inf")),
                 (gx.exp_decay_weight(1.0), float("-inf"))):
        for arg in (x, np.array([x])):
            with pytest.raises(WeightValidityError, match="produced an invalid value"):
                gx.eval_weight(w, arg)


def test_eval_weight_returns_float_for_scalars_and_arrays_for_arrays():
    weights = (gx.power_weight(2.0), gx.power_weight(0.5), gx.constant_weight(3.0),
               gx.exp_decay_weight(0.7), gx.custom_weight(lambda x: 1.0 / (1.0 + np.asarray(x))))
    for w in weights:
        for x in (0.5, np.float64(0.5), np.asarray(0.5), 2):
            assert type(gx.eval_weight(w, x)) is float
        for x in (np.array([0.5, 2.0]), [0.5, 2.0]):
            out = gx.eval_weight(w, x)
            assert isinstance(out, np.ndarray) and out.shape == (2,)
            assert out.tolist() == [gx.eval_weight(w, 0.5), gx.eval_weight(w, 2)]


@pytest.mark.parametrize(
    "fn, shown",
    [(lambda x: "1.5", "'1.5'"), (lambda x: [x, x], "[1.0, 1.0]"), (lambda x: None, "None"),
     (lambda x: 1 + 2j, "(1+2j)"), (lambda x: np.asarray("2"), "array('2', dtype='<U1')")],
)
def test_directly_built_weight_must_return_a_real_number_for_a_scalar(fn, shown):
    # a WeightFunction built without custom_weight gets the same checks and
    # messages: strings are not read as numbers, and a sequence has a shape
    w = gx.WeightFunction(fn, "custom", label="direct")
    message = f"weight 'direct' produced a non-numeric value {shown}"
    if shown == "[1.0, 1.0]":
        message = "weight 'direct' produced shape (2,) for an input of shape ()"
    with pytest.raises(WeightValidityError, match=f"^{re.escape(message)}$"):
        gx.eval_weight(w, 1.0)


def _direct(fn, label):
    return gx.WeightFunction(fn, "custom", label=label)


@pytest.mark.parametrize("build", [gx.custom_weight, _direct])
@pytest.mark.parametrize(
    "fn, x, shown",
    [
        (lambda x: "1.5", 1.0, "'1.5'"),
        (lambda x: "1.5", np.zeros(2), "'1.5'"),
        (lambda x: np.array(["1.5"] * len(x)), np.zeros(2), "array(['1.5', '1.5'], dtype='<U3')"),
        (lambda x: np.full(np.shape(x), None), np.zeros(2), "array([None, None], dtype=object)"),
        (lambda x: [1.0, [2.0]], np.zeros(2), "[1.0, [2.0]]"),
    ],
)
def test_non_numeric_outputs_raise_one_message_however_the_weight_is_built(build, fn, x, shown):
    w = build(fn, label="odd")
    message = f"weight 'odd' produced a non-numeric value {shown}"
    with pytest.raises(WeightValidityError, match=f"^{re.escape(message)}$"):
        gx.eval_weight(w, x)


def test_custom_weight_returns_the_callable_unwrapped():
    fn = lambda x: np.exp(-np.asarray(x, float))  # noqa: E731
    w = gx.custom_weight(fn, "decreasing", "e")
    assert w.eval is fn
    assert (w.family_tag, w.monotonicity_hint, w.label) == ("custom", "decreasing", "e")


def test_directly_built_weight_accepts_real_numbers_and_0d_numeric_arrays():
    for out in (2, True, np.float32(2.5), np.int64(3), np.asarray(4), np.asarray(4.5, np.float32)):
        value = gx.eval_weight(gx.WeightFunction(lambda x, out=out: out, "custom"), 1.0)
        assert type(value) is float and value == float(out)


@pytest.mark.parametrize(
    "fn, x, message",
    [
        (lambda x: [x, x], 1.0, "weight 'bad' produced shape (2,) for an input of shape ()"),
        (lambda x: 2.0, np.linspace(0.0, 1.0, 4), "weight 'bad' produced shape () for an input of shape (4,)"),
        (lambda x: [x, x], np.linspace(0.0, 1.0, 4), "weight 'bad' produced shape (2, 4) for an input of shape (4,)"),
        (lambda x: "a", 1.0, "weight 'bad' produced a non-numeric value 'a'"),
        (lambda x: "a", np.linspace(0.0, 1.0, 4), "weight 'bad' produced a non-numeric value 'a'"),
    ],
)
def test_malformed_custom_outputs_raise_weight_validity_errors(fn, x, message):
    w = gx.custom_weight(fn, label="bad")
    with pytest.raises(WeightValidityError, match=f"^{re.escape(message)}$"):
        gx.eval_weight(w, x)
    if np.ndim(x):
        with pytest.raises(WeightValidityError, match=f"^{re.escape(message)}$"):
            gx.check_monotone_weight(w, 0.0, 1.0, len(x))
