"""Every ring and module table is `TABLE_DTYPE` (uint16), read-only and
C-contiguous, and the constructors' tables at the default cap of 4,096
elements equal int64 references built from broadcasting formulas.

A flat index such as x * n + y passes 2^16 at that size, so a product of a
uint16 entry and a Python int, which NumPy 2 keeps in uint16, would wrap
there; each reference is compared one block of rows at a time.
"""
import numpy as np
import pytest

from amalgam.amalgamation import amalgamate
from amalgam.expressions import Evaluator, parse
from amalgam.harness import EXAMPLES
from amalgam.ideals import ideal_generated
from amalgam.rings import TABLE_DTYPE, FiniteRing, RingHom, truncated_poly_algebra, zmod
from catalog_generator import trivext_modules

N = 4096
ROWS = 512


def truncated_clmul(x, y):
    """x * y in F_2[t]/(t^12), each element the bit vector of its coefficients."""
    out = np.zeros(np.broadcast_shapes(x.shape, y.shape), dtype=np.int64)
    for i in range(12):
        out ^= ((x >> i) & 1) * (y << i)
    return out & (N - 1)


def zmod_formula(x, y):
    return (x + y) % N, (x * y) % N


def tpa_formula(x, y):
    return x ^ y, truncated_clmul(x, y)


def product_formula(x, y):
    (xa, xb), (ya, yb) = np.divmod(x, 64), np.divmod(y, 64)
    return ((xa + ya) % 64) * 64 + (xb + yb) % 64, ((xa * ya) % 64) * 64 + (xb * yb) % 64


def trivext_regular_formula(x, y):
    (a1, e1), (a2, e2) = np.divmod(x, 64), np.divmod(y, 64)
    return ((a1 + a2) % 64) * 64 + (e1 + e2) % 64, ((a1 * a2) % 64) * 64 + (a1 * e2 + a2 * e1) % 64


def trivext_resfield_formula(x, y):
    # zmod(4) acts on F_2^10 through its residue field: a.e = (a mod 2) e
    (a1, e1), (a2, e2) = np.divmod(x, 1024), np.divmod(y, 1024)
    cross = ((a1 % 2) * e2) ^ ((a2 % 2) * e1)
    return ((a1 + a2) % 4) * 1024 + (e1 ^ e2), ((a1 * a2) % 4) * 1024 + cross


def amalgamation_formula(x, y):
    # element a * 2048 + p is (a, a + j_p), j_p = t * (the p-th member of (t)),
    # so it is the tpa element b = a + 2p
    def to_b(z):
        return z // 2048 + 2 * (z % 2048)

    def from_b(b):
        return (b & 1) * 2048 + (b >> 1)

    add, mul = tpa_formula(to_b(x), to_b(y))
    return from_b(add), from_b(mul)


def tpa_amalgamation() -> FiniteRing:
    """zmod(2) |><| (t) in tpa(2,1,12) along the unit map: |J| = 2,048, J^2 != 0."""
    target = truncated_poly_algebra(2, 1, 12)
    base = zmod(2)
    unit = RingHom(base, target, [0, 1], label="unit")
    return amalgamate(base, target, unit, ideal_generated(target, [2])).ring


AT_THE_CAP = {
    "zmod(4096)": (lambda: zmod(N), zmod_formula),
    "tpa(2,1,12)": (lambda: truncated_poly_algebra(2, 1, 12), tpa_formula),
    "product(zmod(64),zmod(64))": (lambda: Evaluator().ring(parse("product(zmod(64),zmod(64))")), product_formula),
    "trivext(zmod(64);regular)": (lambda: Evaluator().ring(parse("trivext(zmod(64);regular)")), trivext_regular_formula),
    "trivext(zmod(4);resfield(10))": (
        lambda: Evaluator().ring(parse("trivext(zmod(4);resfield(10))")),
        trivext_resfield_formula,
    ),
    "amalg(zmod(2),tpa(2,1,12),unit;2)": (tpa_amalgamation, amalgamation_formula),
}


@pytest.mark.parametrize("label", list(AT_THE_CAP))
def test_tables_at_the_cap_match_int64_formulas(label):
    build, formula = AT_THE_CAP[label]
    ring = build()
    assert ring.size == N
    y = np.arange(N, dtype=np.int64)[None, :]
    for start in range(0, N, ROWS):
        x = np.arange(start, start + ROWS, dtype=np.int64)[:, None]
        add, mul = formula(x, y)
        assert (ring.add[start : start + ROWS] == add).all(), f"{label}: addition rows from {start}"
        assert (ring.mul[start : start + ROWS] == mul).all(), f"{label}: multiplication rows from {start}"
    ring.validate()


def assert_table_dtype(obj) -> None:
    tables = (obj.add, obj.mul, obj.neg) if isinstance(obj, FiniteRing) else (obj.add, obj.action)
    for table in tables:
        assert table.dtype == TABLE_DTYPE, obj
        assert table.flags.c_contiguous and not table.flags.writeable, obj


def test_every_catalog_and_example_table_is_table_dtype(catalog):
    for ring in catalog.rings:
        assert_table_dtype(ring)
    for module in trivext_modules(catalog):
        assert_table_dtype(module)
    first_spec_of_tag = {}
    for spec in catalog.specs:
        for tag in spec.tags:
            first_spec_of_tag.setdefault(tag, spec)
    assert first_spec_of_tag
    for spec in first_spec_of_tag.values():
        inst = spec.build(catalog.size_cap)
        assert_table_dtype(inst.ring)
        assert_table_dtype(inst.fimage_plus_j)
    for case in EXAMPLES.values():
        for text in filter(None, (case.expression, case.replacement)):
            inst = Evaluator().instance(parse(text))
            assert_table_dtype(inst.ring)
            assert_table_dtype(inst.fimage_plus_j)
