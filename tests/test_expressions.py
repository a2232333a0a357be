import pytest

from amalgam.errors import EvaluationError, ParseError
from amalgam.expressions import (
    AmalgExpr,
    ComposeHomExpr,
    EmbedHomExpr,
    Evaluator,
    ProjHomExpr,
    QuotExpr,
    ResfieldExpr,
    TrivextExpr,
    ZmodExpr,
    parse,
)
from amalgam.properties import is_arithmetical, is_gaussian


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


def test_parse_diagnostics():
    with pytest.raises(ParseError) as err:
        parse("dup(zmod(4))")
    assert err.value.line == 1 and err.value.column == 12
    assert ";" in err.value.expected

    with pytest.raises(ParseError):
        parse("zmod(0)")
    with pytest.raises(ParseError):
        parse("mystery(3)")
    with pytest.raises(ParseError):
        parse("zmod(4) trailing")
    with pytest.raises(ParseError):
        parse("zmod(4) @")


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
    with pytest.raises(EvaluationError):
        Evaluator().instance(parse("amalg(zmod(4),zmod(8),id;2)"))
    with pytest.raises(EvaluationError):
        Evaluator().instance(parse("amalg(zmod(4),zmod(8),proj;2)"))
    with pytest.raises(EvaluationError):
        Evaluator().instance(parse("amalg(zmod(4),trivext(zmod(2);regular),embed;1)"))
    with pytest.raises(EvaluationError):
        Evaluator().ring(parse("trivext(zmod(6);resfield(1))"))
    with pytest.raises(EvaluationError):
        Evaluator().instance(parse("dup(zmod(4);9)"))


def test_quot_proj_identity_hom():
    inst = Evaluator().instance(parse("amalg(zmod(4),quot(zmod(4);2),proj;1)"))
    assert not inst.f.is_injective
    assert inst.f.kernel().members == {0, 2}

    same = Evaluator().instance(parse("amalg(zmod(4),zmod(4),id;2)"))
    assert same.ring.size == 8
