"""Generated CLI inputs: grammar-shaped expressions with arbitrary integer
arguments (0, small values and 13-digit values alike) must end in a report
(exit 0) or a clean refusal (exit 2), never in an exception."""
import re

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from amalgam.cli import main
from amalgam.expressions import SYNTAX

# three small values (0 among them) to every 13-digit one
small = st.integers(0, 9)
ints = st.one_of(small, small, small, st.integers(10**12, 10**13 - 1))
homs = st.recursive(
    st.sampled_from(["id", "proj", "embed"]),
    lambda inner: st.builds(lambda g, f: f"compose({g},{f})", inner, inner),
    max_leaves=3,
)


def ring_grammar(ints):
    """Ring expressions of the calculator's grammar with integer arguments drawn from `ints`."""
    elems = st.lists(ints, max_size=3).map(lambda xs: ",".join(map(str, xs)))
    modules = st.recursive(
        st.one_of(st.just("regular"), ints.map(lambda n: f"resfield({n})")),
        lambda inner: st.builds(lambda m, e: f"quotmod({m};{e})", inner, elems),
        max_leaves=3,
    )
    zmods = ints.map(lambda n: f"zmod({n})")
    return st.recursive(
        st.one_of(zmods, zmods, zmods, st.builds(lambda p, k, t: f"tpa({p},{k},{t})", ints, ints, ints)),
        lambda inner: st.one_of(
            st.builds(lambda a, b: f"product({a},{b})", inner, inner),
            st.builds(lambda r, e: f"quot({r};{e})", inner, elems),
            st.builds(lambda r, m: f"trivext({r};{m})", inner, modules),
            st.builds(lambda r, e: f"dup({r};{e})", inner, elems),
            st.builds(lambda a, b, h, e: f"amalg({a},{b},{h};{e})", inner, inner, homs, elems),
        ),
        max_leaves=3,
    )


rings = ring_grammar(ints)


def test_ring_grammar_emits_every_constructor():
    # the generator is written by hand, apart from SYNTAX; a constructor it
    # never emits goes unfuzzed
    seen = set()

    @settings(derandomize=True, max_examples=300, database=None)
    @given(text=rings)
    def collect(text):
        seen.update(re.findall(r"[a-z]+", text))

    collect()
    missing = {name for table in SYNTAX.values() for name in table} - seen
    assert not missing, f"ring_grammar never emits {sorted(missing)}"


@settings(
    derandomize=True,
    max_examples=200,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(text=rings)
def test_props_on_generated_expressions_exits_cleanly(text, capsys):
    code = main(["props", text, "--max-ring-size", "64"])
    err = capsys.readouterr().err
    assert code in (0, 2), (text, code, err)
    assert "Traceback" not in err


# content-oracle degrees: negative (a usage error), small (the oracle runs
# or its pair budget refuses) and 13-digit (refused before any power)
degrees = st.one_of(st.integers(-10**13, -1), st.integers(0, 2), st.integers(10**12, 10**13 - 1))
oracle_rings = st.one_of(
    st.integers(1, 8).map(lambda n: f"zmod({n})"),
    st.sampled_from(["tpa(2,1,2)", "trivext(zmod(4);resfield(1))"]),
)


@settings(
    derandomize=True,
    max_examples=60,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(text=oracle_rings, degree=degrees)
def test_props_with_generated_oracle_degrees_exits_cleanly(text, degree, capsys):
    code = main(["props", text, "--oracle-degree", str(degree)])
    err = capsys.readouterr().err
    assert code in (0, 2), (text, degree, code, err)
    assert "Traceback" not in err
