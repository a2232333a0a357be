import numpy as np
import pytest

from amalgam.errors import (
    CapExceededError,
    HomomorphismError,
    MixedRingError,
    NotMaximalError,
    StructureError,
)
from amalgam.ideals import ideal_generated
from amalgam.rings import (
    FiniteRing,
    factor_local,
    hom,
    hom_compose,
    hom_identity,
    idempotents,
    localize_at_max,
    primitive_idempotents,
    product,
    quotient,
    truncated_poly_algebra,
    units,
    zmod,
)


def test_zmod_small_arithmetic():
    z4 = zmod(4)
    assert z4.mul[2, 2] == 0
    z6 = zmod(6)
    assert z6.mul[2, 3] == 0
    assert units(z6) == {1, 5}


def test_zmod_zero_ring():
    z1 = zmod(1)
    assert z1.size == 1
    assert z1.zero == z1.one


def test_zmod_rejects_bad_sizes():
    with pytest.raises(ValueError):
        zmod(0)
    with pytest.raises(CapExceededError):
        zmod(5000)


def test_tpa_truncation():
    t = truncated_poly_algebra(2, 1, 3)
    assert t.size == 8
    x = t.element_names.index("x")
    xsq = t.element_names.index("x^2")
    assert t.mul[x, x] == xsq
    assert t.mul[x, xsq] == t.zero  # degree 3 vanishes


def test_tpa_two_variables_degree_two():
    t = truncated_poly_algebra(2, 2, 2)
    assert t.size == 8
    x = t.element_names.index("x")
    y = t.element_names.index("y")
    assert t.mul[x, x] == t.zero
    assert t.mul[x, y] == t.zero
    assert t.mul[y, y] == t.zero


def test_tpa_pair_ideal_square_size():
    # independent closure oracle over the constructed tables: span of the
    # pairwise products of <x,y> members
    t = truncated_poly_algebra(2, 2, 3)
    assert t.size == 64
    x, y = t.element_names.index("x"), t.element_names.index("y")
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
    assert huge.element_names == one.element_names == ["0", "1"]


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
    a, b = zmod(3), zmod(4)
    p = product(a, b)
    for idx in range(p.size):
        ia, ib = idx // b.size, idx % b.size
        assert p.element_names[idx] == f"({a.element_names[ia]},{b.element_names[ib]})"
        assert ia * b.size + ib == idx


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
    proj = hom(z4, z2, [0, 1, 0, 1])
    assert proj.map.tolist() == [0, 1, 0, 1]
    with pytest.raises(HomomorphismError):
        hom(z4, z4, [0, 2, 0, 2])  # x -> 2x is not unital


def test_hom_compose_identity_law():
    z4, z2 = zmod(4), zmod(2)
    proj = hom(z4, z2, [0, 1, 0, 1])
    composed = hom_compose(proj, hom_identity(z4))
    assert (composed.map == proj.map).all()
    with pytest.raises(MixedRingError):
        hom_compose(hom_identity(z2), hom_identity(zmod(3)))


def test_units_idempotents():
    assert units(zmod(4)) == {1, 3}
    assert idempotents(zmod(6)) == {0, 1, 3, 4}


def test_primitive_idempotents_oracle():
    # brute-force oracle: minimal nonzero idempotents under e*f = f ordering
    z6 = zmod(6)
    idem = [e for e in range(6) if z6.mul[e, e] == e and e != 0]
    minimal = [
        e for e in idem if all(f == e or z6.mul[e, f] != f for f in idem)
    ]
    assert primitive_idempotents(z6) == minimal == [3, 4]


def test_factor_local_sizes():
    assert sorted(f.size for f, _ in factor_local(zmod(6))) == [2, 3]
    z4 = zmod(4)
    facs = factor_local(z4)
    assert len(facs) == 1 and facs[0][0] is z4  # a local ring is its own factor
    p = product(zmod(4), zmod(2))
    assert sorted(f.size for f, _ in factor_local(p)) == [2, 4]


def test_factor_local_zero_ring():
    assert factor_local(zmod(1)) == []


def test_factor_reconstruction_bijection():
    for ring in (zmod(6), zmod(12), product(zmod(2), zmod(2)), product(zmod(4), zmod(9))):
        factors = factor_local(ring)
        sizes = [f.size for f, _ in factors]
        images = set()
        for x in range(ring.size):
            images.add(tuple(int(proj.map[x]) for _, proj in factors))
        assert len(images) == ring.size == int(np.prod(sizes))
        for x in range(ring.size):
            for y in range(ring.size):
                s = int(ring.add[x, y])
                p = int(ring.mul[x, y])
                for _, proj in factors:
                    fac = proj.target
                    assert proj.map[s] == fac.add[proj.map[x], proj.map[y]]
                    assert proj.map[p] == fac.mul[proj.map[x], proj.map[y]]


def test_localize_at_max():
    z6 = zmod(6)
    m = ideal_generated(z6, [2])
    fac, _ = localize_at_max(z6, m)
    assert fac.size == 2
    z4 = zmod(4)
    fac4, _ = localize_at_max(z4, ideal_generated(z4, [2]))
    assert fac4 is z4
    p = product(zmod(2), zmod(2))
    first = localize_at_max(p, ideal_generated(p, [1]))[0]  # {(0,0),(0,1)}
    assert first.size == 2
    with pytest.raises(NotMaximalError):
        localize_at_max(z6, ideal_generated(z6, []))


def test_validate_catches_broken_tables():
    z4 = zmod(4)
    bad_mul = z4.mul.copy()
    bad_mul.flags.writeable = True
    bad_mul[2, 3] = 1
    bad_mul[3, 2] = 1
    with pytest.raises(StructureError):
        FiniteRing(4, z4.add, bad_mul, z4.neg, 0, 1, "broken")


def test_validate_passes_on_constructions():
    for ring in (zmod(9), truncated_poly_algebra(3, 1, 3), product(zmod(2), zmod(5))):
        ring.validate()


def test_hom_witness_reported():
    z4 = zmod(4)
    try:
        hom(z4, z4, [0, 2, 0, 2])
    except HomomorphismError as exc:
        assert "f(1)" in str(exc)
    else:  # pragma: no cover
        pytest.fail("expected HomomorphismError")
