"""Property tests over the spec grammar: any string built from its tokens
parses or raises ParseError, and a measure command on specs that parse ends
in a documented exit code.

Kept apart from the other modules so that without hypothesis installed only
this module fails to collect.
"""

import contextlib
import io

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gwextropy.cli import run_command
from gwextropy.distributions import TRANSFORMATIONS, parse_distribution
from gwextropy.errors import ParseError
from gwextropy.weights import parse_weight

numbers = st.sampled_from(["nan", "inf", "-inf", "-0", "0", "5e-324", "1e308", "-1e308", "0.5", "1", "2", "-1"])
DIST_FAMILIES = (("uniform", 2), ("exp", 1), ("powersurv", 1))
WEIGHT_FAMILIES = (("power", 1), ("const", 1), ("expdecay", 1))


def _family(head, arity, broken):
    """head:a,b with arity numbers; when broken, also near misses: a separator
    wrong or missing, or a number too few or too many."""
    colon, comma, count = st.just(":"), st.just(","), st.just(arity)
    if broken:
        colon |= st.sampled_from(["", ","])
        comma |= st.sampled_from([":", ""])
        count = st.integers(arity - 1, arity + 1)
    args = count.flatmap(lambda k: st.lists(numbers, min_size=k, max_size=k))
    return st.builds(lambda c, a, k: head + c + k.join(a), colon, args, comma)


def _dists(broken):
    heads = DIST_FAMILIES + ((("norm", 1),) if broken else ())
    names = st.sampled_from(sorted(TRANSFORMATIONS))
    close = st.just(")")
    if broken:
        names |= st.sampled_from(["nope", ""])
        close |= st.sampled_from(["", "))"])
    return st.recursive(
        st.one_of(*(_family(head, arity, broken) for head, arity in heads)),
        lambda inner: st.builds(lambda name, spec, end: f"transform:{name}({spec}{end}", names, inner, close),
        max_leaves=3,
    )


def _weights(broken):
    heads = WEIGHT_FAMILIES + ((("nope", 1),) if broken else ())
    return st.one_of(*(_family(head, arity, broken) for head, arity in heads))


# loose strings of tokens, so broken orders of the grammar's pieces reach the parsers too
token_soup = st.lists(
    st.sampled_from([head for head, _ in DIST_FAMILIES + WEIGHT_FAMILIES] + ["transform", *TRANSFORMATIONS])
    | numbers
    | st.sampled_from([":", ",", "(", ")", ""]),
    max_size=7,
).map("".join)


def _parses(parse, text):
    try:
        # extreme parameters overflow inside numpy; its warnings are expected here
        with np.errstate(all="ignore"):
            parse(text)
    except ParseError:
        return False
    return True


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(text=token_soup | _dists(broken=True) | _weights(broken=True))
def test_token_strings_parse_or_raise_parse_error(text):
    _parses(parse_distribution, text)
    _parses(parse_weight, text)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    dist=_dists(broken=False),
    weight=_weights(broken=False),
    variant=st.sampled_from(["past", "residual"]),
    design=st.sampled_from(["single", "srs", "minrssu", "maxrssu"]),
    n=st.integers(1, 3),
)
@example(dist="uniform:-1e308,1e308", weight="const:1", variant="past", design="single", n=1)
@example(dist="exp:5e-324", weight="const:1", variant="residual", design="minrssu", n=2)
@example(dist="uniform:0,1e308", weight="const:1", variant="past", design="srs", n=2)
@example(dist="exp:1e308", weight="power:1e308", variant="residual", design="minrssu", n=3)
def test_measure_on_specs_that_parse_ends_in_an_exit_code(dist, weight, variant, design, n):
    if not (_parses(parse_distribution, dist) and _parses(parse_weight, weight)):
        return
    argv = ["measure", "--dist", dist, "--weight", weight, "--variant", variant, "--design", design, "--n", str(n)]
    with np.errstate(all="ignore"), contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = run_command(argv)
    assert code in (0, 2, 3)
