import hashlib

import numpy as np
import pytest

import amalgam.rings
from amalgam.errors import (
    CapExceededError,
    HomomorphismError,
    StructureError,
)
from amalgam.expressions import ComposeHomExpr, Evaluator, IdHomExpr, ProjHomExpr, parse
from amalgam.ideals import ideal_generated, maximal_ideals
from amalgam.rings import (
    TABLE_DTYPE,
    FiniteRing,
    RingHom,
    _is_symmetric,
    _monomials,
    hom_identity,
    product,
    quotient,
    tpa_names,
    truncated_poly_algebra,
    zmod,
)
from catalog_generator import _tpa_parameter_sweep


def test_zmod_small_arithmetic():
    z4 = zmod(4)
    assert z4.mul[2, 2] == 0
    z6 = zmod(6)
    assert z6.mul[2, 3] == 0
    assert np.flatnonzero(z6.units_mask).tolist() == [1, 5]


def test_zmod_zero_ring():
    z1 = zmod(1)
    assert z1.size == 1
    assert z1.zero == z1.one


def test_zmod_rejects_bad_sizes():
    with pytest.raises(ValueError):
        zmod(0)
    with pytest.raises(CapExceededError):
        zmod(5000)


@pytest.mark.parametrize("n", list(range(1, 41)) + [4096])
def test_zmod_tables_match_the_formula(n):
    ring = zmod(n)
    x = np.arange(n, dtype=np.int64)
    assert (ring.add == (x[:, None] + x[None, :]) % n).all()
    assert (ring.mul == (x[:, None] * x[None, :]) % n).all()
    assert (ring.neg == (-x) % n).all()
    assert (ring.zero, ring.one) == (0, 1 % n)


def test_tpa_truncation():
    t = truncated_poly_algebra(2, 1, 3)
    assert t.size == 8
    x = tpa_names(2, 1, 3).index("x")
    xsq = tpa_names(2, 1, 3).index("x^2")
    assert t.mul[x, x] == xsq
    assert t.mul[x, xsq] == t.zero  # degree 3 vanishes


def test_tpa_two_variables_degree_two():
    t = truncated_poly_algebra(2, 2, 2)
    assert t.size == 8
    x = tpa_names(2, 2, 2).index("x")
    y = tpa_names(2, 2, 2).index("y")
    assert t.mul[x, x] == t.zero
    assert t.mul[x, y] == t.zero
    assert t.mul[y, y] == t.zero


def test_tpa_pair_ideal_square_size():
    # independent closure oracle over the constructed tables: span of the
    # pairwise products of <x,y> members
    t = truncated_poly_algebra(2, 2, 3)
    assert t.size == 64
    x, y = tpa_names(2, 2, 3).index("x"), tpa_names(2, 2, 3).index("y")
    pair = ideal_generated(t, [x, y])
    products = {int(t.mul[a, b]) for a in pair.indices for b in pair.indices}
    span = set(products)
    changed = True
    while changed:
        changed = False
        for a in list(span):
            for b in list(span):
                s = int(t.add[a, b])
                if s not in span:
                    span.add(s)
                    changed = True
    assert len(span) == 8


def test_tpa_order_one_is_the_prime_field_for_any_k():
    # every monomial but 1 has degree >= 1, so no k-long sequence is needed
    huge, one = truncated_poly_algebra(2, 10**12, 1), truncated_poly_algebra(2, 1, 1)
    assert huge.label == "tpa(2,1000000000000,1)"
    assert huge.same_tables(one) and (huge.neg == one.neg).all()
    assert tpa_names(2, 10**12, 1) == tpa_names(2, 1, 1) == ["0", "1"]


def _tpa_by_formula(p, k, t):
    """add and mul of tpa(p,k,t) from the coefficient vectors, entry by
    entry: digit-wise sums mod p, and sum_{ij} x_i y_j on the monomial of
    mono_i * mono_j when its degree is below t, reduced mod p."""
    monos = [()] if t == 1 else _monomials(k, t)
    m, pos = len(monos), {e: i for i, e in enumerate(monos)}
    size = p**m
    radix = p ** np.arange(m, dtype=np.int64)
    digits = (np.arange(size, dtype=np.int64)[:, None] // radix) % p
    add = ((digits[:, None, :] + digits[None, :, :]) % p) @ radix
    coef = np.zeros((size, size, m), dtype=np.int64)
    for i, ei in enumerate(monos):
        for j, ej in enumerate(monos):
            s = tuple(a + b for a, b in zip(ei, ej))
            if sum(s) < t:
                coef[:, :, pos[s]] += digits[:, None, i] * digits[None, :, j]
    return add, (coef % p) @ radix


TPA_BY_FORMULA = [(te.p, te.k, te.t) for te in _tpa_parameter_sweep(64)] + [(2, 2, 1), (5, 2, 2), (7, 1, 3), (2, 5, 2)]


@pytest.mark.parametrize("p,k,t", TPA_BY_FORMULA)
def test_tpa_tables_match_the_formula(p, k, t):
    ring = truncated_poly_algebra(p, k, t)
    add, mul = _tpa_by_formula(p, k, t)
    assert (ring.add == add).all() and (ring.mul == mul).all()
    assert ring.add.dtype == ring.mul.dtype == TABLE_DTYPE


# sha256 of add.tobytes() + mul.tobytes() in int32, as the entry-by-entry
# formula gives them; the tables are widened to int32 before hashing
TPA_DIGESTS = {
    (2, 1, 12): "c29075d525a8b79f3933dc34fcc6ba3eb11b37448c79b1528c2cb231a02aca8d",
    (3, 1, 7): "21b4a115b2835c6296b3a315c1842b3b6346f0b78acae2a85ccc92f1d05ac382",
}


@pytest.mark.parametrize("p,k,t", sorted(TPA_DIGESTS))
def test_large_tpa_tables_match_the_formula_digest(p, k, t):
    ring = truncated_poly_algebra(p, k, t)
    tables = ring.add.astype(np.int32).tobytes() + ring.mul.astype(np.int32).tobytes()
    assert hashlib.sha256(tables).hexdigest() == TPA_DIGESTS[p, k, t]


def test_tpa_rejects_non_prime():
    with pytest.raises(ValueError):
        truncated_poly_algebra(4, 1, 2)


def test_product_identity_and_zero_divisors():
    p = product(zmod(2), zmod(3))
    assert p.size == 6
    assert p.one == 1 * 3 + 1
    q = product(zmod(4), zmod(4))
    two_zero = 2 * 4 + 0
    zero_two = 0 * 4 + 2
    assert q.mul[two_zero, zero_two] == q.zero


def test_product_with_zero_ring():
    p = product(zmod(1), zmod(5))
    assert p.size == 5


def test_product_encoding_round_trip():
    ev, expr = Evaluator(), parse("product(zmod(3),tpa(2,1,2))")
    a, b, p = ev.ring(expr.left), ev.ring(expr.right), ev.ring(expr)
    left, right, names = ev.element_names(expr.left), ev.element_names(expr.right), ev.element_names(expr)
    for idx in range(p.size):
        ia, ib = idx // b.size, idx % b.size
        assert names[idx] == f"({left[ia]},{right[ib]})"
        assert ia * b.size + ib == idx
        assert p.mul[idx, idx] == a.mul[ia, ia] * b.size + b.mul[ib, ib]


def test_quotient_of_zmod4():
    z4 = zmod(4)
    q, proj = quotient(z4, ideal_generated(z4, [2]))
    assert q.size == 2
    assert proj.map.tolist() == [0, 1, 0, 1]


def test_quotient_by_zero_and_whole():
    z4 = zmod(4)
    q0, proj0 = quotient(z4, ideal_generated(z4, []))
    assert q0.size == 4 and proj0.is_injective
    qa, _ = quotient(z4, ideal_generated(z4, [1]))
    assert qa.size == 1


def test_quotient_counts_and_kernel():
    z12 = zmod(12)
    ideal = ideal_generated(z12, [4])
    q, proj = quotient(z12, ideal)
    assert q.size * len(ideal) == z12.size
    assert proj.kernel().members == ideal.members
    assert proj.is_surjective


def test_hom_validation():
    z4, z2 = zmod(4), zmod(2)
    proj = RingHom(z4, z2, [0, 1, 0, 1])
    assert proj.map.tolist() == [0, 1, 0, 1]
    with pytest.raises(HomomorphismError):
        RingHom(z4, z4, [0, 2, 0, 2])  # x -> 2x is not unital


def test_identity_shortcut_leaves_other_maps_fully_validated():
    z6 = zmod(6)
    assert hom_identity(z6).map.tolist() == list(range(6))
    # fixes 0 and 1, so only the table comparison rejects it
    with pytest.raises(HomomorphismError):
        RingHom(z6, z6, [0, 1, 3, 2, 4, 5])
    # the identity index map between two ring objects is validated in full
    assert RingHom(z6, zmod(6), range(6)).map.tolist() == list(range(6))
    with pytest.raises(HomomorphismError):
        RingHom(zmod(4), product(zmod(2), zmod(2)), range(4))


def test_hom_compose_identity_law():
    # compose(proj,id) and compose(id,proj) resolve to the projection itself
    ev = Evaluator()
    target_expr = parse("quot(zmod(4);2)")
    z4 = ev.ring(target_expr.ring)
    _, proj = ev.hom(ProjHomExpr(), target_expr, z4)
    for hexpr in (ComposeHomExpr(ProjHomExpr(), IdHomExpr()), ComposeHomExpr(IdHomExpr(), ProjHomExpr())):
        _, composed = ev.hom(hexpr, target_expr, z4)
        assert (composed.map == proj.map).all() and composed.target is proj.target


def test_units_idempotents():
    assert np.flatnonzero(zmod(4).units_mask).tolist() == [1, 3]
    assert zmod(6).idempotent_list == (0, 1, 3, 4)


def test_primitive_idempotents_oracle():
    # brute-force oracle: minimal nonzero idempotents under e*f = f ordering
    z6 = zmod(6)
    idem = [e for e in range(6) if z6.mul[e, e] == e and e != 0]
    minimal = [
        e for e in idem if all(f == e or z6.mul[e, f] != f for f in idem)
    ]
    assert list(z6.primitive_idempotent_list) == minimal == [3, 4]


def test_factor_local_sizes():
    assert sorted(f.size for f, _ in zmod(6).local_factor_maps()) == [2, 3]
    z4 = zmod(4)
    facs = z4.local_factor_maps()
    assert len(facs) == 1 and facs[0][0] is z4  # a local ring is its own factor
    assert z4.local_factors is None and z4.is_local
    p = product(zmod(4), zmod(2))
    assert sorted(f.size for f, _ in p.local_factor_maps()) == [2, 4]


def test_factor_local_zero_ring():
    assert zmod(1).local_factors == () == zmod(1).local_factor_maps()
    assert not zmod(1).is_local


def test_factor_reconstruction_bijection():
    for ring in (zmod(6), zmod(12), product(zmod(2), zmod(2)), product(zmod(4), zmod(9))):
        factors = ring.local_factor_maps()
        sizes = [f.size for f, _ in factors]
        images = set()
        for x in range(ring.size):
            images.add(tuple(int(proj[x]) for _, proj in factors))
        assert len(images) == ring.size == int(np.prod(sizes))
        for x in range(ring.size):
            for y in range(ring.size):
                s = int(ring.add[x, y])
                p = int(ring.mul[x, y])
                for fac, proj in factors:
                    assert proj[s] == fac.add[proj[x], proj[y]]
                    assert proj[p] == fac.mul[proj[x], proj[y]]


def test_localize_at_max():
    # the i-th maximal ideal is the kernel of the i-th factor's residue map
    def factor_of(ring, m):
        (pair,) = [pair for pair, mx in zip(ring.local_factor_maps(), maximal_ideals(ring)) if mx == m]
        return pair[0]

    z6 = zmod(6)
    assert factor_of(z6, ideal_generated(z6, [2])).size == 2
    z4 = zmod(4)
    assert factor_of(z4, ideal_generated(z4, [2])) is z4
    p = product(zmod(2), zmod(2))
    assert factor_of(p, ideal_generated(p, [1])).size == 2  # {(0,0),(0,1)}
    for ring in (z6, z4, p, zmod(12), product(zmod(4), zmod(9))):
        for (factor, proj), m in zip(ring.local_factor_maps(), maximal_ideals(ring)):
            assert (m.mask == ~factor.units_mask[proj]).all()
    assert ideal_generated(z6, []) not in maximal_ideals(z6)


def test_validate_catches_broken_tables():
    z4 = zmod(4)
    bad_mul = z4.mul.copy()
    bad_mul.flags.writeable = True
    bad_mul[2, 3] = 1
    bad_mul[3, 2] = 1
    with pytest.raises(StructureError):
        FiniteRing(4, z4.add, bad_mul, z4.neg, 0, 1, "broken")


def _zmod_tables(n):
    ring = zmod(n)
    return ring, ring.add.copy(), ring.mul.copy()


# entries in off-diagonal tiles, ragged ones among them at 513 and 1,100
@pytest.mark.parametrize(
    "n,row,col", [(513, 2, 512), (513, 512, 3), (1100, 600, 1050), (1100, 1099, 7), (2048, 100, 1800), (2048, 1900, 513)]
)
def test_one_asymmetric_entry_in_an_off_diagonal_tile(n, row, col):
    ring, add, mul = _zmod_tables(n)
    assert row // amalgam.rings._TILE != col // amalgam.rings._TILE
    add[row, col] = (add[row, col] + 1) % n  # rows 0 and 1 and the pairs (x, -x) stay intact
    with pytest.raises(StructureError, match="^addition is not commutative$"):
        FiniteRing(n, add, ring.mul, ring.neg, 0, 1, "broken")
    mul[row, col] = (mul[row, col] + 1) % n
    with pytest.raises(StructureError, match="^multiplication is not commutative$"):
        FiniteRing(n, ring.add, mul, ring.neg, 0, 1, "broken")


@pytest.mark.parametrize("tile", [1, 3])
def test_small_tiles_give_the_one_tile_result(monkeypatch, tile):
    tables = [zmod(n).mul for n in (2, 7, 10)] + [truncated_poly_algebra(2, 2, 2).add]
    for table in tables:
        n = table.shape[0]
        for row, col in [(r, c) for r in range(n) for c in range(n) if r != c]:
            broken = table.copy()
            broken[row, col] = (broken[row, col] + 1) % n
            results = []
            for width in (1 << 30, tile):
                monkeypatch.setattr(amalgam.rings, "_TILE", width)
                results.append((_is_symmetric(table), _is_symmetric(broken)))
            assert results[0] == results[1] == (True, False), (n, row, col)


def test_validate_passes_on_constructions():
    for ring in (zmod(9), truncated_poly_algebra(3, 1, 3), product(zmod(2), zmod(5))):
        ring.validate()


def test_hom_witness_reported():
    z4 = zmod(4)
    try:
        RingHom(z4, z4, [0, 2, 0, 2])
    except HomomorphismError as exc:
        assert "f(1)" in str(exc)
    else:  # pragma: no cover
        pytest.fail("expected HomomorphismError")
