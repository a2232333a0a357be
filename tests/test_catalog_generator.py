"""The frozen catalog text against the family generator it came from.

`build_catalog` builds only the labels of `amalgam.catalog.CATALOG_RINGS`;
the generator in `catalog_generator.py` re-derives that list, and these
tests hold what the generator's dedupe once enforced inside the package.
"""
from pathlib import Path

import pytest

import amalgam.catalog
import amalgam.expressions
from amalgam.catalog import CATALOG_RINGS
from amalgam.cli import main
from amalgam.errors import CapExceededError
from amalgam.expressions import Evaluator, TrivextExpr, parse
from amalgam.harness import build_catalog
from catalog_generator import (
    SMALL_PARAMS,
    TINY_PARAMS,
    CatalogParams,
    _table_key,
    catalog_digest,
    generate,
    generated_catalog,
    render,
)

REGENERATE = "run `PYTHONPATH=src python tests/catalog_generator.py | diff src/amalgam/catalog.py -`"

# catalog digests of the small test catalogs, recorded when the generator
# still ran inside the package
SMALL_DIGESTS = {
    SMALL_PARAMS: ("a7d072e74ccd6955f9b6f4d4eeb3a8c07ee20322fedf99ed6d41d80acceceb1e", 54, 678),
    TINY_PARAMS: ("4566f025d26610ed9e49f849f6084c15ac38bd79542feebf71a7ce559f20580e", 10, 29),
}


def test_generator_rederives_the_frozen_list(catalog):
    exprs, rings = generate()
    assert [ring.label for ring in rings] == list(CATALOG_RINGS), REGENERATE
    assert [expr.unparse() for expr in exprs] == list(CATALOG_RINGS), REGENERATE
    for generated, built in zip(rings, catalog.rings, strict=True):
        # element names are spelled from the expression, which unparses
        # alike; test_cli's encode digest pins them
        assert generated.same_tables(built), generated.label
    text = Path(amalgam.catalog.__file__).read_text(encoding="utf-8")
    assert render(list(CATALOG_RINGS)) == text, REGENERATE


def test_every_label_parses_and_unparses_to_itself(catalog):
    assert len(CATALOG_RINGS) == len(catalog.rings) == 158
    for label, expr, ring in zip(CATALOG_RINGS, catalog.ring_exprs, catalog.rings, strict=True):
        assert parse(label).unparse() == expr.unparse() == ring.label == label


def test_no_two_labels_give_the_same_tables(catalog):
    keys = {_table_key(ring.size, ring.zero, ring.one, ring.add, ring.mul) for ring in catalog.rings}
    assert len(keys) == len(catalog.rings)


@pytest.mark.parametrize("params", list(SMALL_DIGESTS), ids=["small", "tiny"])
def test_small_catalogs_keep_their_digests(params):
    catalog = generated_catalog(params)
    assert (catalog_digest(catalog), len(catalog.rings), len(catalog.specs)) == SMALL_DIGESTS[params]


def test_catalog_builds_only_the_listed_rings(monkeypatch):
    calls = []
    real = amalgam.expressions.trivial_extension

    def counted(base, module, size_cap):
        calls.append(base.label)
        return real(base, module, size_cap)

    monkeypatch.setattr(amalgam.expressions, "trivial_extension", counted)
    catalog = build_catalog()
    assert len(calls) == sum(isinstance(expr, TrivextExpr) for expr in catalog.ring_exprs) == 48


def _outcome(build):
    try:
        return catalog_digest(build())
    except CapExceededError as exc:
        return f"refused: {exc}"


@pytest.mark.parametrize("cap", [1, 16, 17, 64, 100, 128, 255, 4096])
def test_cap_ends_the_frozen_build_as_it_ends_the_generator(cap, catalog):
    frozen = _outcome(lambda: build_catalog(size_cap=cap))
    assert frozen == _outcome(lambda: generated_catalog(CatalogParams(size_cap=cap)))
    # the largest catalog ring has 169 elements
    assert frozen.startswith("refused: ") == (cap < max(ring.size for ring in catalog.rings))


def test_search_under_a_small_cap_exits_2_with_the_refusal(capsys):
    assert main(["search", "--machine", "--max-ring-size", "100"]) == 2
    err = capsys.readouterr().err
    assert "trivext(zmod(11);resfield(1)) would have 121 elements, cap is 100" in err
    # the same refusal as building the label alone under that cap
    with pytest.raises(CapExceededError, match=r"would have 121 elements, cap is 100"):
        Evaluator(size_cap=100).ring(parse("trivext(zmod(11);resfield(1))"))
