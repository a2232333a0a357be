"""Generated rings and instances: every ring that a grammar-shaped
expression with small arguments builds (cap 64) re-parses from its label
to identical tables, passes the exhaustive axioms and the report's
hierarchy self-check, and, when it is an amalgamation, agrees with the
product-embedding oracle.  On local rings of at most 16 elements the
degree-1 content oracle agrees with the Gaussian verdict."""
from hypothesis import given, settings
from hypothesis import strategies as st

from amalgam.errors import AmalgamError
from amalgam.expressions import AmalgExpr, DupExpr, Evaluator, parse
from amalgam.properties import gaussian_check, gaussian_content_oracle, property_report
from oracles import product_embedding_check
from test_cli_generated import ring_grammar, small

rings = ring_grammar(small)
elems = st.lists(small, max_size=3).map(lambda xs: ",".join(map(str, xs)))
# B is A's own ring and f its identity: named dup(A;J), which must re-parse
self_amalgs = st.builds(lambda r, e: f"amalg({r},{r},id;{e})", rings, elems)


@settings(derandomize=True, max_examples=1000, deadline=None, database=None)
@given(text=st.one_of(rings, self_amalgs))
def test_generated_rings_and_instances(text):
    ev = Evaluator(64)
    try:
        expr = parse(text)
        ring = ev.ring(expr)
    except AmalgamError:  # a clean refusal, which test_cli_generated covers
        return
    again = Evaluator(64).ring(parse(ring.label))
    assert again.same_tables(ring), (text, ring.label)
    ring.validate()
    property_report(ring)
    if isinstance(expr, (DupExpr, AmalgExpr)):
        assert product_embedding_check(ev.instance(expr)), text
    if ring.is_local and ring.size <= 16:
        assert gaussian_content_oracle(ring, 1)[0] == gaussian_check(ring)[0], text
