"""The family generator behind `amalgam.catalog.CATALOG_RINGS`.

The package reads its catalog as frozen expression text; this module is the
construction that text came from.  Rings come from bounded families of the
expression grammar: Z/n, truncated polynomial algebras, binary products of
small bases, trivial extensions in two generations, and quotients of every
ring small enough.  A ring whose tables are already listed is dropped, and a
quotient candidate is dropped by its coset tables before its ring is built.
`CatalogParams` holds the family bounds, the instance bound the small test
catalogs filter their specs by, and the size cap.

    PYTHONPATH=src python tests/catalog_generator.py | diff src/amalgam/catalog.py -

prints the data module for the default bounds and shows how it differs from
the committed one.  A catalog change is made here and committed as that
output, reviewed as a diff; `test_catalog_generator.py` fails until the two
agree.
"""
from __future__ import annotations

import dataclasses
import hashlib
import sys
from dataclasses import dataclass

import numpy as np

import amalgam.harness as harness
from amalgam.expressions import (
    Evaluator,
    ModuleExpr,
    ProductExpr,
    QuotExpr,
    QuotmodExpr,
    RegularExpr,
    ResfieldExpr,
    RingExpr,
    TpaExpr,
    TrivextExpr,
    ZmodExpr,
)
from amalgam.ideals import all_ideals, ideal_product
from amalgam.modules import FiniteModule
from amalgam.properties import is_local
from amalgam.rings import DEFAULT_SIZE_CAP, FiniteRing, coset_tables, tpa_monomial_count


@dataclass(frozen=True)
class CatalogParams:
    """Generation parameters; identical parameters give identical catalogs."""

    zmod_max: int = 16
    tpa_carrier_max: int = 64
    product_max: int = 64
    trivext_max: int = 256
    quotient_base_max: int = 32
    instance_max: int = 256
    size_cap: int = DEFAULT_SIZE_CAP


# the small catalogs that tests sweep in place of the default one
SMALL_PARAMS = CatalogParams(
    zmod_max=9, tpa_carrier_max=8, product_max=16, trivext_max=32, quotient_base_max=8, instance_max=64
)
TINY_PARAMS = CatalogParams(
    zmod_max=4, tpa_carrier_max=4, product_max=4, trivext_max=8, quotient_base_max=4, instance_max=8
)


def _tpa_parameter_sweep(carrier_max: int) -> list[TpaExpr]:
    out = []
    for p in (2, 3, 5, 7):
        for k in (1, 2, 3):
            for t in (2, 3, 4, 5, 6):
                if p ** tpa_monomial_count(k, t) <= carrier_max:
                    out.append(TpaExpr(p, k, t))
    return out


def _table_key(size: int, zero: int, one: int, add: np.ndarray, mul: np.ndarray) -> bytes:
    """The generator's identity of a ring: its size, zero, one and tables, all
    in `rings.TABLE_DTYPE` (a quotient candidate's coset tables as well)."""
    return np.array([size, zero, one], dtype="<u4").tobytes() + add.tobytes() + mul.tobytes()


def generate(params: CatalogParams | None = None) -> tuple[list[RingExpr], list[FiniteRing]]:
    """The catalog's ring expressions and rings, in catalog order, built
    under `params.size_cap` (a ring past it raises `CapExceededError`)."""
    p = params or CatalogParams()
    ev = Evaluator(size_cap=p.size_cap)

    rings: list[FiniteRing] = []
    exprs: list[RingExpr] = []
    seen: set[bytes] = set()

    def add_expr(expr: RingExpr) -> None:
        ring = ev.ring(expr)
        key = _table_key(ring.size, ring.zero, ring.one, ring.add, ring.mul)
        if key not in seen:
            seen.add(key)
            rings.append(ring)
            exprs.append(expr)

    # base rings
    for n in range(1, p.zmod_max + 1):
        add_expr(ZmodExpr(n))
    for te in _tpa_parameter_sweep(p.tpa_carrier_max):
        add_expr(te)

    # binary products of small bases
    product_pool = [ZmodExpr(n) for n in range(2, 10)] + [TpaExpr(2, 1, 2)]
    for i, left in enumerate(product_pool):
        for right in product_pool[i:]:
            if ev.ring(left).size * ev.ring(right).size <= p.product_max:
                add_expr(ProductExpr(left, right))

    # trivial extensions, two generations
    def extend(base_expr: RingExpr, module_expr: ModuleExpr) -> None:
        base = ev.ring(base_expr)
        if base.size * ev.module(module_expr, base).size <= p.trivext_max:
            add_expr(TrivextExpr(base_expr, module_expr))

    for expr, ring in list(zip(exprs, rings)):
        m = is_local(ring)
        if m is not None and ring.size > 1:
            if ring.size**2 <= 64:
                extend(expr, RegularExpr())
            extend(expr, ResfieldExpr(1))
            field_size = ring.size // len(m)
            if ring.size * field_size**2 <= 32:
                extend(expr, ResfieldExpr(2))
            msq = ideal_product(m, m)
            if not msq.is_zero:  # m is nilpotent, so m^2 = m only when m = 0
                if ring.size * (ring.size // len(msq)) <= 64:
                    extend(expr, QuotmodExpr(RegularExpr(), msq.generators()))
        elif m is None and 1 < ring.size <= 8:
            extend(expr, RegularExpr())

    for expr, ring in list(zip(exprs, rings)):
        if isinstance(expr, TrivextExpr) and ring.size <= 16 and ring.is_local:
            extend(expr, ResfieldExpr(1))

    # quotients of everything small enough; a candidate whose coset tables
    # are already listed is dropped before its ring is built
    for expr, ring in list(zip(exprs, rings)):
        if ring.size > p.quotient_base_max:
            continue
        for ideal in all_ideals(ring):
            if ideal.is_whole or ideal.is_zero:
                continue
            size, add, mul, _, zero, one = coset_tables(ring, ideal)[2]
            if _table_key(size, zero, one, add, mul) not in seen:
                add_expr(QuotExpr(expr, ideal.generators()))

    return exprs, rings


def catalog_labels(params: CatalogParams | None = None) -> list[str]:
    return [ring.label for ring in generate(params)[1]]


def generated_catalog(params: CatalogParams) -> harness.Catalog:
    """`harness.build_catalog` over the generated labels, its specs cut to
    |A| * |J| <= params.instance_max (looked up at each call, so a tracer's
    rebinding of the name sees the build)."""
    catalog = harness.build_catalog(catalog_labels(params), params.size_cap)
    specs = [spec for spec in catalog.specs if spec.base.size * len(spec.j) <= params.instance_max]
    return dataclasses.replace(catalog, specs=specs)


def trivext_modules(catalog: harness.Catalog) -> list[FiniteModule]:
    """The module E of each trivext(A;E) ring of the catalog, in its order."""
    ev = Evaluator(size_cap=catalog.size_cap)
    exprs = [expr for expr in catalog.ring_exprs if isinstance(expr, TrivextExpr)]
    return [ev.module(expr.module, ev.ring(expr.ring)) for expr in exprs]


def catalog_digest(catalog: harness.Catalog) -> str:
    """sha256 over the catalog's ring labels, then its spec labels with their
    tags, in catalog order."""
    h = hashlib.sha256()
    for ring in catalog.rings:
        h.update(ring.label.encode() + b"\n")
    for spec in catalog.specs:
        h.update(f"{spec.label}\t{','.join(spec.tags)}\n".encode())
    return h.hexdigest()


def render(labels: list[str]) -> str:
    """The text of `src/amalgam/catalog.py` listing the labels."""
    lines = "".join(f'    "{label}",\n' for label in labels)
    return MODULE_HEADER + "CATALOG_RINGS = (\n" + lines + ")\n"


MODULE_HEADER = '''\
"""The catalog's rings as expression text, one label a line, in catalog order.

`harness.build_catalog` parses and builds each label; its instances pair
these rings with the homs of `harness.CATALOG_HOMS` and their proper ideals.
The list is data, generated by `tests/catalog_generator.py` from bounded
families of the grammar; a tier-1 test re-derives it, in order and
table-identical.  To change the catalog, change the generator, review
what it changes with

    PYTHONPATH=src python tests/catalog_generator.py | diff src/amalgam/catalog.py -

and write its output over this file (through a temporary file: the package
imports this module).
"""

'''


if __name__ == "__main__":
    sys.stdout.write(render(catalog_labels()))
