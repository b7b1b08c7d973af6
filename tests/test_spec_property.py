"""Property tests over the spec grammar: any string built from its tokens
parses or raises ParseError, and the measure, simulate, estimate and converge
commands on grammar-built arguments end in a documented exit code and print
only valid JSON (non-finite numbers as strings, never NaN or Infinity).

Kept apart from the other modules so that without hypothesis installed only
this module fails to collect.
"""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gwextropy.cli import run_command
from gwextropy.distributions import TRANSFORMATIONS, exponential, parse_distribution, power_survival, transform, uniform
from gwextropy.errors import DomainError, InvalidTransformationError, ParseError
from gwextropy.weights import constant_weight, exp_decay_weight, parse_weight, power_weight

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


FACTORIES = {
    "uniform": (uniform, 2, parse_distribution),
    "exp": (exponential, 1, parse_distribution),
    "powersurv": (power_survival, 1, parse_distribution),
    "power": (power_weight, 1, parse_weight),
    "const": (constant_weight, 1, parse_weight),
    "expdecay": (exp_decay_weight, 1, parse_weight),
}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    family=st.sampled_from(sorted(FACTORIES)),
    params=st.lists(st.floats(allow_nan=False), min_size=2, max_size=2),
    wrap=st.sampled_from([None, *sorted(TRANSFORMATIONS)]),
)
@example(family="exp", params=[1.2345678, 0.0], wrap=None)
@example(family="uniform", params=[1e16, 1e16 + 2], wrap="identity")
@example(family="uniform", params=[-0.0, 0.1], wrap="exp_minus_one")
@example(family="power", params=[1.2345678, 0.0], wrap=None)
@example(family="power", params=[123456789.0, 0.0], wrap=None)
@example(family="const", params=[0.1234567, 0.0], wrap=None)
@example(family="expdecay", params=[1e308, 0.0], wrap=None)
def test_a_label_parses_back_to_the_distribution_it_names(family, params, wrap):
    # weights too: a transform wraps distributions only
    build, arity, parse = FACTORIES[family]
    try:
        # extreme parameters overflow inside numpy; its warnings are expected here
        with np.errstate(all="ignore"):
            base = build(*params[:arity])
            named = base if wrap is None or parse is parse_weight else transform(base, TRANSFORMATIONS[wrap])
            rebuilt_base, rebuilt = parse(base.label), parse(named.label)
    except (DomainError, InvalidTransformationError):
        return
    assert [p.hex() for p in rebuilt_base.params] == [p.hex() for p in base.params]
    assert rebuilt_base.label == base.label and rebuilt.label == named.label


def _reject_constant(token):
    raise ValueError(f"{token} is not a JSON number")


def _run(argv, prints_json=False):
    """run_command in process: it must end in exit code 0, 2 or 3, and JSON
    output must parse with NaN and Infinity rejected."""
    out, err = io.StringIO(), io.StringIO()
    with np.errstate(all="ignore"), contextlib.redirect_stdout(out):
        with contextlib.redirect_stderr(err):
            code = run_command(argv)
    assert code in (0, 2, 3)
    if prints_json and code == 0:
        json.loads(out.getvalue(), parse_constant=_reject_constant)


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
    _run(argv, prints_json=True)


DESIGNS = st.sampled_from(["srs", "minrssu", "maxrssu"])
VARIANTS = st.sampled_from(["past", "residual"])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    dist=_dists(broken=False),
    design=DESIGNS,
    n=st.sampled_from(["-1", "0", "1", "2", "7", "30", "x"]),
    seed=st.sampled_from(["0", "7", "-1", "18446744073709551616"]),
    literal=st.booleans(),
)
@example(dist="exp:5e-324", design="minrssu", n="7", seed="0", literal=True)
def test_simulate_ends_in_an_exit_code(dist, design, n, seed, literal):
    argv = ["simulate", "--dist", dist, "--design", design, "--n", n, f"--seed={seed}"]
    _run(argv + ["--literal-extremes"] * literal)


@pytest.fixture(scope="module")
def observations(tmp_path_factory):
    return tmp_path_factory.mktemp("estimate") / "observations.csv"


# observation files: an optional header, then plain or indexed rows (a row
# that is no number among them), or one value repeated; may be empty
rows = st.lists(st.tuples(st.booleans(), numbers | st.just("x")), max_size=6).map(
    lambda pairs: [f"{i},{v}" if indexed else v for i, (indexed, v) in enumerate(pairs, 1)]
)
constant = st.tuples(numbers, st.integers(2, 4)).map(lambda pair: [pair[0]] * pair[1])
csv_text = st.builds(
    lambda head, body: "".join(line + "\n" for line in head + body),
    st.sampled_from([[], ["value"], ["i,value"]]),
    rows | constant,
)


# a well-formed estimate; the explicit examples below change one or two flags
PROBE = dict(text="1\n2\n4\n", variant="past", m="1", style="step", kernel="gaussian")
PROBE |= dict(bandwidth="silverman", head=False)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    text=csv_text,
    variant=VARIANTS,
    m=numbers,
    style=st.sampled_from(["step", "kernel"]),
    kernel=st.sampled_from(["gaussian", "epanechnikov"]),
    bandwidth=numbers | st.sampled_from(["silverman", "wide"]),
    head=st.booleans(),
)
@example(**(PROBE | {"m": "inf"}))
@example(**(PROBE | {"m": "1e308"}))
@example(**(PROBE | {"style": "kernel", "bandwidth": "1e-320", "head": True}))
@example(**(PROBE | {"text": ""}))
def test_estimate_ends_in_an_exit_code_and_prints_valid_json(
    observations, text, variant, m, style, kernel, bandwidth, head
):
    observations.write_text(text)
    argv = ["estimate", "--input", str(observations), "--variant", variant, f"--m={m}"]
    argv += ["--style", style, "--kernel", kernel, f"--bandwidth={bandwidth}"]
    argv += ["--include-head"] * head
    _run(argv, prints_json=True)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    dist=_dists(broken=False),
    m=numbers,
    variant=VARIANTS,
    design=DESIGNS,
    sizes=st.lists(st.sampled_from(["2", "5", "50", "1", "-3", "x", ""]), min_size=1, max_size=3),
    seeds=st.integers(-1, 3),
    seed=st.sampled_from(["0", "-5", "18446744073709551616"]),
)
@example(dist="exp:1", m="1", variant="past", design="srs", sizes=["5"], seeds=0, seed="0")
def test_converge_ends_in_an_exit_code(dist, m, variant, design, sizes, seeds, seed):
    argv = ["converge", "--dist", dist, f"--m={m}", "--variant", variant, "--design", design]
    _run(argv + [f"--sizes={','.join(sizes)}", "--seeds", str(seeds), f"--seed={seed}"])
