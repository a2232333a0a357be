"""Generated CLI inputs: grammar-shaped expressions with arbitrary integer
arguments (0, small values and 13-digit values alike) must end in a report
(exit 0) or a clean refusal (exit 2), never in an exception.  Arbitrary
text, and grammar strings one token away from well-formed, may also end in
a violation (exit 1), but never in a traceback."""
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


# -- arbitrary text ------------------------------------------------------------

# each command takes the text as its expression; argparse refuses a text
# that reads as an option with a usage message and SystemExit(2)
FUZZ_COMMANDS = (("props",), ("encode",), ("verify", "lemma-2.2"))
TOKEN_RE = re.compile(r"\d+|[A-Za-z_]\w*|[(),;]")
# lone surrogates drawn on their own: the default alphabet leaves out category Cs
any_text = st.text(st.one_of(st.characters(), st.characters(categories=["Cs"])), max_size=40)
vocabulary = st.sampled_from(
    [name for table in SYNTAX.values() for name in table] + ["(", ")", ",", ";", "0", "1", "2", "4", "9"]
)


@st.composite
def one_token_off(draw):
    """A `ring_grammar` string with one token inserted, deleted, or swapped
    with another."""
    tokens = TOKEN_RE.findall(draw(ring_grammar(small)))
    i = draw(st.integers(0, len(tokens) - 1))
    edit = draw(st.sampled_from(["insert", "delete", "swap"]))
    if edit == "insert":
        tokens.insert(i, draw(vocabulary))
    elif edit == "delete":
        del tokens[i]
    else:
        j = draw(st.integers(0, len(tokens) - 1))
        tokens[i], tokens[j] = tokens[j], tokens[i]
    return "".join(tokens)


def assert_exits_cleanly(capsys, text):
    for command in FUZZ_COMMANDS:
        try:
            code = main([*command, text, "--max-ring-size", "64"])
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert code in (0, 1, 2), (command, text, code, err)
        assert "Traceback" not in err, (command, text, err)
        # echoed input is escaped, so both streams encode as strict UTF-8
        out.encode("utf-8")
        err.encode("utf-8")


@settings(
    derandomize=True,
    max_examples=150,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(text=st.one_of(any_text, one_token_off()))
def test_arbitrary_text_exits_cleanly(text, capsys):
    assert_exits_cleanly(capsys, text)


def test_text_one_byte_past_the_limit_is_refused(capsys):
    text = "zmod(" + "1" * (64 * 1024 - 5) + ")"
    assert len(text.encode("utf-8")) == 64 * 1024 + 1
    for command in FUZZ_COMMANDS:
        assert main([*command, text, "--max-ring-size", "64"]) == 2
        assert capsys.readouterr().err == (
            "parse error: expression text exceeds 64 KiB (line 1, column 1; expected: shorter input)\n"
        )
