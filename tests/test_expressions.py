from pathlib import Path

import pytest

import amalgam.expressions
from amalgam.errors import CapExceededError, EvaluationError, NotAnIdealError, NotLocalError, ParseError
from amalgam.expressions import (
    AmalgExpr,
    ComposeHomExpr,
    EmbedHomExpr,
    Evaluator,
    IdHomExpr,
    ProjHomExpr,
    QuotExpr,
    ResfieldExpr,
    TrivextExpr,
    ZmodExpr,
    parse,
)
from amalgam.properties import is_arithmetical, is_gaussian

ROOT = Path(__file__).resolve().parents[1]


ROUND_TRIP_CASES = [
    "zmod(4)",
    "tpa(2,2,3)",
    "product(zmod(2),zmod(3))",
    "quot(zmod(8);2)",
    "quot(zmod(8);)",
    "trivext(zmod(4);resfield(1))",
    "trivext(zmod(4);quotmod(regular;2))",
    "trivext(zmod(4);quotmod(regular;))",
    "dup(zmod(4);2)",
    "amalg(zmod(4),trivext(zmod(4);resfield(1)),embed;1,4)",
    "amalg(zmod(2),quot(trivext(zmod(2);regular);1),compose(proj,embed);1)",
]


@pytest.mark.parametrize("text", ROUND_TRIP_CASES)
def test_parse_print_round_trip(text):
    expr = parse(text)
    assert parse(expr.unparse()) == expr
    assert expr.unparse() == text


def test_parse_accepts_whitespace():
    assert parse(" dup( zmod( 4 ) ; 2 ) ") == parse("dup(zmod(4);2)")


RING_NAMES = ("zmod", "tpa", "product", "quot", "trivext", "dup", "amalg")

# id: (text, str(exc), line, column, expected), recorded from the
# hand-written parser that `SYNTAX` replaced
PINNED_DIAGNOSTICS = {
    "unknown-ring": ("mystery(3)", "unknown ring constructor 'mystery' (line 1, column 1; expected: zmod, tpa, product, quot, trivext, dup, amalg)", 1, 1, RING_NAMES),
    "unknown-module": ("trivext(zmod(4);mystery)", "unknown module constructor 'mystery' (line 1, column 17; expected: regular, resfield, quotmod)", 1, 17, ("regular", "resfield", "quotmod")),
    "unknown-hom": ("amalg(zmod(4),zmod(4),mystery;1)", "unknown hom constructor 'mystery' (line 1, column 23; expected: id, proj, embed, compose)", 1, 23, ("id", "proj", "embed", "compose")),
    "empty": ("", "unexpected token '' (line 1, column 1; expected: zmod, tpa, product, quot, trivext, dup, amalg)", 1, 1, RING_NAMES),
    "missing-open": ("zmod 4)", "unexpected token '4' (line 1, column 6; expected: ()", 1, 6, ("(",)),
    "missing-comma": ("tpa(2,1 3)", "unexpected token '3' (line 1, column 9; expected: ,)", 1, 9, (",",)),
    "missing-semicolon": ("dup(zmod(4))", "unexpected token ')' (line 1, column 12; expected: ;)", 1, 12, (";",)),
    "missing-semicolon-after-hom": ("amalg(zmod(4),zmod(4),id 1)", "unexpected token '1' (line 1, column 26; expected: ;)", 1, 26, (";",)),
    "missing-close": ("zmod(4", "unexpected token '' (line 1, column 7; expected: ))", 1, 7, (")",)),
    "elems-trailing-comma": ("quot(zmod(8);2,)", "unexpected token ')' (line 1, column 16; expected: INT)", 1, 16, ("INT",)),
    "zmod-0": ("zmod(0)", "zmod argument must be >= 1 (line 1, column 1; expected: INT >= 1)", 1, 1, ("INT >= 1",)),
    "resfield-0": ("trivext(zmod(4);resfield(0))", "resfield argument must be >= 1 (line 1, column 17; expected: INT >= 1)", 1, 17, ("INT >= 1",)),
    "5000-digits": ("zmod(" + "9" * 5000 + ")", "integer literal of 5000 digits is too long (line 1, column 6; expected: shorter INT)", 1, 6, ("shorter INT",)),
    "too-deep": ("product(" * 101 + "zmod(2)", "expression nests deeper than 100 levels (line 1, column 808; expected: shallower nesting)", 1, 808, ("shallower nesting",)),
    "trailing": ("zmod(4) trailing", "trailing input 'trailing' (line 1, column 9; expected: end of input)", 1, 9, ("end of input",)),
    "bad-character": ("zmod(4) @", "unexpected character '@' (line 1, column 9; expected: INT, NAME, punctuation)", 1, 9, ("INT", "NAME", "punctuation")),
    "multi-line": ("dup(zmod(4);\n  2,\n  x)", "unexpected token 'x' (line 3, column 3; expected: INT)", 3, 3, ("INT",)),
}


def test_parse_diagnostics():
    for case, (text, message, line, column, expected) in PINNED_DIAGNOSTICS.items():
        with pytest.raises(ParseError) as err:
            parse(text)
        assert (str(err.value), err.value.line, err.value.column, err.value.expected) == (
            message, line, column, expected
        ), case


def test_every_perfbench_label_round_trips():
    rows = (ROOT / "perfbench" / "labels.tsv").read_text().splitlines()[1:]
    assert len(rows) > 2000
    for row in rows:
        label = row.split("\t")[0]
        expr = parse(label)
        assert expr.unparse() == label
        assert parse(expr.unparse()) == expr


def test_parse_size_limit():
    with pytest.raises(ParseError):
        parse("zmod(" + "1" * (70 * 1024) + ")")


def test_evaluate_ring_and_instance():
    ring = Evaluator().ring(parse("quot(zmod(4);2)"))
    assert ring.size == 2
    inst = Evaluator().instance(parse("dup(zmod(4);2)"))
    assert inst.ring.size == 8
    with pytest.raises(EvaluationError):
        Evaluator().instance(parse("zmod(4)"))


def test_empty_element_list_is_the_zero_ideal():
    assert Evaluator().ring(parse("quot(zmod(8);)")).same_tables(Evaluator().ring(parse("zmod(8)")))
    assert Evaluator().ring(parse("trivext(zmod(4);quotmod(regular;))")).same_tables(
        Evaluator().ring(parse("trivext(zmod(4);regular)"))
    )


def test_empty_quotmod_label_reparses():
    # the quotient by the zero submodule keeps its empty generator list
    for text in ("trivext(zmod(4);quotmod(regular;))", "trivext(tpa(2,1,3);quotmod(resfield(2);))"):
        ring = Evaluator().ring(parse(text))
        assert ring.label == text
        assert Evaluator().ring(parse(ring.label)).same_tables(ring)


def test_j_zero_catalog_labels_reparse(catalog):
    # instances along J = 0 print an empty generator list
    ev = Evaluator()
    specs = [spec for spec in catalog.specs if "j-zero" in spec.tags]
    assert specs
    for spec in specs:
        assert ev.ring(parse(spec.label)).same_tables(spec.build().ring), spec.label


def test_evaluator_memoizes_shared_subexpressions():
    ev = Evaluator()
    base = ev.ring(ZmodExpr(4))
    quot = ev.ring(QuotExpr(ZmodExpr(4), (2,)))
    inst = ev.instance(AmalgExpr(ZmodExpr(4), QuotExpr(ZmodExpr(4), (2,)), ProjHomExpr(), (1,)))
    assert inst.base is base
    assert inst.target is quot


def test_embed_hom_resolution():
    inst = Evaluator().instance(parse("amalg(zmod(4),trivext(zmod(4);resfield(1)),embed;1,4)"))
    assert inst.f.label == "embed"
    assert is_gaussian(inst.ring) and not is_arithmetical(inst.ring)


def test_compose_hom_resolution():
    # the quotient ideal <(0,1)> misses the embedded copy, so this composite
    # is still injective
    inst = Evaluator().instance(parse(
        "amalg(zmod(2),quot(trivext(zmod(2);regular);1),compose(proj,embed);1)"
    ))
    assert inst.f.is_injective
    assert inst.ring.size == inst.base.size * len(inst.j)

    # quotient by <(2,0)> kills the embedded 2, making the composite lossy
    lossy = Evaluator().instance(parse(
        "amalg(zmod(4),quot(trivext(zmod(4);resfield(1));4),compose(proj,embed);1)"
    ))
    assert not lossy.f.is_injective
    assert lossy.f.kernel().members == {0, 2}

    # embed after proj: Z/4 -> Z/4/(2) -> (Z/4/(2)) |x F2
    ev = Evaluator()
    expr = AmalgExpr(
        ZmodExpr(4),
        TrivextExpr(QuotExpr(ZmodExpr(4), (2,)), ResfieldExpr(1)),
        ComposeHomExpr(EmbedHomExpr(), ProjHomExpr()),
        (1,),
    )
    inst2 = ev.instance(expr)
    assert not inst2.f.is_injective


def test_hom_resolution_errors():
    for text, message in [
        ("amalg(zmod(4),zmod(8),id;2)", "id hom requires equal-size rings"),
        ("amalg(zmod(4),zmod(8),proj;2)", "proj hom requires a quot(...) target"),
        ("amalg(zmod(4),zmod(8),embed;2)", "embed hom requires a trivext(...) target"),
        ("amalg(zmod(4),quot(zmod(8);4),compose(proj,embed);2)", "embed hom requires a trivext(...) target"),
        ("amalg(zmod(4),trivext(zmod(2);regular),embed;1)", "embed hom source does not match the extension base"),
        ("amalg(zmod(2),quot(zmod(8);4),proj;1)", "proj hom source does not match the quotient base"),
        ("trivext(zmod(6);resfield(1))", "trivext(zmod(6);resfield(1)) is not an amalgamation expression"),
    ]:
        with pytest.raises(EvaluationError) as err:
            Evaluator().instance(parse(text))
        assert str(err.value) == message, text


def test_ideal_generator_out_of_range_is_refused_by_the_ideal_layer():
    # the Evaluator hands generators to `ideal_generated`, which names the first bad one
    for text in ("dup(zmod(4);9)", "quot(zmod(4);1,9,5)"):
        with pytest.raises(NotAnIdealError) as err:
            Evaluator().ring(parse(text))
        assert str(err.value) == "generator index 9 out of range for zmod(4) (size 4)", text


def test_nested_compose_checks_the_source_at_its_innermost_hom():
    for hom in ("compose(id,proj)", "compose(id,compose(id,proj))"):
        with pytest.raises(EvaluationError) as err:
            Evaluator().instance(parse(f"amalg(zmod(4),quot(zmod(8);4),{hom};2)"))
        assert str(err.value) == "proj hom source does not match the quotient base", hom


def test_hom_returns_the_source_expression_it_peeled():
    ev = Evaluator()
    target = parse("quot(trivext(quot(zmod(8);4);regular);2)")
    for hexpr, source_expr in (
        (IdHomExpr(), target),
        (ProjHomExpr(), target.ring),
        (ComposeHomExpr(ProjHomExpr(), EmbedHomExpr()), target.ring.ring),
        (ComposeHomExpr(ProjHomExpr(), ComposeHomExpr(EmbedHomExpr(), ProjHomExpr())), target.ring.ring.ring),
    ):
        peeled, f = ev.hom(hexpr, target)
        assert peeled == source_expr, hexpr
        assert f.source is ev.ring(source_expr) and f.target is ev.ring(target)
        assert f.label == hexpr.unparse()


def test_non_amalgamation_is_refused_before_it_is_evaluated():
    ev = Evaluator()
    with pytest.raises(EvaluationError, match="is not an amalgamation expression"):
        ev.instance(parse("tpa(2,1,12)"))
    assert ev._rings == {} and ev._instances == {}


def test_quot_proj_identity_hom():
    inst = Evaluator().instance(parse("amalg(zmod(4),quot(zmod(4);2),proj;1)"))
    assert not inst.f.is_injective
    assert inst.f.kernel().members == {0, 2}

    same = Evaluator().instance(parse("amalg(zmod(4),zmod(4),id;2)"))
    assert same.ring.size == 8


@pytest.fixture
def module_builds(monkeypatch):
    """Calls of the regular and resfield module constructors, by name."""
    calls = {"ring_as_module": 0, "vspace_over_residue": 0}
    for name in calls:
        built = getattr(amalgam.expressions, name)

        def counted(*args, name=name, built=built, **kwargs):
            calls[name] += 1
            return built(*args, **kwargs)

        monkeypatch.setattr(amalgam.expressions, name, counted)
    return calls


@pytest.mark.parametrize(
    "text, cap, message",
    [
        ("trivext(zmod(2);resfield(12))", 4096, "trivext(zmod(2);resfield(12)) would have 8192 elements, cap is 4096"),
        ("trivext(zmod(11);resfield(1))", 100, "trivext(zmod(11);resfield(1)) would have 121 elements, cap is 100"),
        ("trivext(zmod(11);regular)", 100, "trivext(zmod(11);regular) would have 121 elements, cap is 100"),
    ],
)
def test_trivext_past_the_cap_is_refused_before_its_module_is_built(module_builds, text, cap, message):
    with pytest.raises(CapExceededError) as exc:
        Evaluator(size_cap=cap).ring(parse(text))
    assert str(exc.value) == message
    assert module_builds == {"ring_as_module": 0, "vspace_over_residue": 0}


@pytest.mark.parametrize(
    "text, cap, error, message, builds",
    [
        # the module alone is past the cap: resfield's own refusal
        ("trivext(zmod(2);resfield(13))", 4096, CapExceededError,
         "resfield(13) over zmod(2) would have 2^13 elements, cap is 4096", (0, 1)),
        # a non-local base: resfield's locality refusal
        ("trivext(zmod(6);resfield(5))", 100, NotLocalError, "resfield over zmod(6) needs a local base ring", (0, 1)),
        # a quotmod's size needs its module: built, then refused
        ("trivext(zmod(11);quotmod(regular;))", 100, CapExceededError,
         "trivext(zmod(11);quotmod(regular;)) would have 121 elements, cap is 100", (1, 0)),
    ],
)
def test_trivext_refusals_that_need_the_module_keep_their_order(module_builds, text, cap, error, message, builds):
    with pytest.raises(error) as exc:
        Evaluator(size_cap=cap).ring(parse(text))
    assert str(exc.value) == message
    assert (module_builds["ring_as_module"], module_builds["vspace_over_residue"]) == builds
