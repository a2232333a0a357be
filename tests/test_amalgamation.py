import numpy as np
import pytest

import amalgam.properties
from amalgam.amalgamation import amalgamate, duplication, f_image_plus_j, holds
from amalgam.errors import CapExceededError, InternalCheckError, MixedRingError, NotLocalError
from amalgam.expressions import Evaluator, parse
from amalgam.harness import EXAMPLES
from amalgam.ideals import Ideal, ideal_generated, maximal_ideals
from amalgam.modules import ring_as_module, trivial_extension, vspace_over_residue
from amalgam.properties import is_gaussian, is_local, is_prufer, is_total_quotient_ring
from amalgam.rings import RingHom, hom_identity, pair_indices, product, quotient, zmod
from oracles import amalg_max_ideals, distinguished_ideals, product_embedding_check


def example_2_5_instance():
    z4 = zmod(4)
    target, embed = trivial_extension(z4, vspace_over_residue(z4, 1))
    j = ideal_generated(target, [1, 4])  # I x E with I = (2)
    return amalgamate(z4, target, embed, j)


def direct_formula_tables(inst):
    """add, mul, neg, pA and pB of the instance by the closed rule, gathered
    entry by entry over n x n index arrays (the construction the block build
    replaced, kept as its oracle)."""
    base, target, f, j = inst.base, inst.target, inst.f, inst.j
    nj = len(j)
    size = base.size * nj
    jlist = j.indices
    jpos = np.full(target.size, -1, dtype=np.int64)
    jpos[jlist] = np.arange(nj)
    idx = np.arange(size)
    ia, ip = idx // nj, idx % nj
    jb = jlist[ip]
    a1, a2 = ia[:, None], ia[None, :]
    b1, b2 = jb[:, None], jb[None, :]
    fmap = f.map.astype(np.int64)
    jsum = jpos[target.add[b1, b2]]
    cross = target.add[
        target.add[target.mul[fmap[a1], b2], target.mul[fmap[a2], b1]],
        target.mul[b1, b2],
    ]
    jprod = jpos[cross]
    assert jsum.min() >= 0 and jprod.min() >= 0
    add = base.add[a1, a2].astype(np.int64) * nj + jsum
    mul = base.mul[a1, a2].astype(np.int64) * nj + jprod
    neg = base.neg[ia].astype(np.int64) * nj + jpos[target.neg[jb]]
    return add, mul, neg, ia, target.add[fmap[ia], jb]


def assert_matches_direct_formula(inst):
    add, mul, neg, pa, pb = direct_formula_tables(inst)
    assert np.array_equal(inst.ring.add, add), inst.label
    assert np.array_equal(inst.ring.mul, mul), inst.label
    assert np.array_equal(inst.ring.neg, neg), inst.label
    assert np.array_equal(inst.to_base.map, pa), inst.label
    assert np.array_equal(inst.to_target.map, pb), inst.label


def test_block_build_matches_direct_formula_on_catalog(catalog):
    small = [spec for spec in catalog.specs if spec.base.size * len(spec.j) <= 64]
    assert len(small) > 1000
    for spec in small:
        assert_matches_direct_formula(spec.build(catalog.size_cap))


@pytest.mark.parametrize("example_id", ["2.4", "2.10", "2.11"])
def test_block_build_matches_direct_formula_on_examples(example_id):
    assert_matches_direct_formula(Evaluator().instance(parse(EXAMPLES[example_id].expression)))


def test_additive_subgroup_not_closed_under_f_image_times_j():
    # the diagonal of F2 x F2 is closed under + and *, but (1,0)(1,1) = (1,0)
    p22 = product(zmod(2), zmod(2))
    diagonal = Ideal._from_mask(p22, np.isin(np.arange(4), [0, 3]))
    with pytest.raises(InternalCheckError, match="not closed under the amalgamation rule"):
        amalgamate(p22, p22, hom_identity(p22), diagonal)


def test_duplication_basic():
    z4 = zmod(4)
    inst = duplication(z4, ideal_generated(z4, [2]))
    assert inst.ring.size == 8
    m = is_local(inst.ring)
    assert m is not None and len(m) == 4
    z8 = zmod(8)
    big = duplication(z8, ideal_generated(z8, [2]))
    assert big.ring.size == 32


def test_duplication_along_zero():
    z4 = zmod(4)
    inst = duplication(z4, ideal_generated(z4, []))
    assert inst.ring.size == 4
    assert inst.to_base.is_injective and inst.to_base.is_surjective
    assert holds(inst, "J inside Nilp(B)") and holds(inst, "J meets Nilp(B) only in zero")


def test_amalgamate_validates_inputs():
    z4, z6 = zmod(4), zmod(6)
    with pytest.raises(MixedRingError):
        amalgamate(z4, z4, hom_identity(z4), ideal_generated(z6, [2]))
    with pytest.raises(MixedRingError):
        amalgamate(z6, z4, hom_identity(z4), ideal_generated(z4, [2]))
    with pytest.raises(CapExceededError):
        duplication(z4, ideal_generated(z4, [2]), size_cap=4)


def test_example_2_5_shape():
    inst = example_2_5_instance()
    assert len(inst.j) == 4
    assert inst.j.members == {0, 1, 4, 5}
    assert inst.j.generators() == (1, 4)
    assert inst.ring.size == 16
    for name in ("J^2 = 0", "f(a)J = f(a)^2 J on m", "J inside Rad(B)", "f injective"):
        assert holds(inst, name), name
    assert not holds(inst, "f(A) meets J only in zero")  # I x E meets f(A) in (2, 0)


def test_hypothesis_report_examples():
    z8 = zmod(8)
    dup8 = duplication(z8, ideal_generated(z8, [2]))
    assert not holds(dup8, "J^2 = 0")
    z4 = zmod(4)
    target, embed = trivial_extension(z4, ring_as_module(z4))
    zxe = Ideal(target, pair_indices([z4.zero], 4))  # 0 x E
    inst = amalgamate(z4, target, embed, zxe)
    assert holds(inst, "f(A) meets J only in zero")


def test_fa_j_stability_false_for_nonlocal_base():
    z6 = zmod(6)
    inst = amalgamate(z6, z6, hom_identity(z6), ideal_generated(z6, [3]))
    assert not holds(inst, "base ring local")
    assert not holds(inst, "f(a)J = f(a)^2 J on m")


def test_f_image_plus_j():
    z4 = zmod(4)
    inst = duplication(z4, ideal_generated(z4, [2]))
    sub, incl = f_image_plus_j(inst.target, inst.f, inst.j)
    assert sub.size == 4  # f = id: f(A) + J = A
    ex = example_2_5_instance()
    sub2, _ = f_image_plus_j(ex.target, ex.f, ex.j)
    assert sub2.size == ex.target.size  # f(A) + (I x E) = A x E here


def test_f_image_plus_j_is_the_target_when_it_is_all_of_it(monkeypatch):
    ex = example_2_5_instance()
    sub, incl = f_image_plus_j(ex.target, ex.f, ex.j)
    assert sub is ex.target and incl.target is ex.target and (incl.map == np.arange(ex.target.size)).all()
    # so one Gaussian verdict, cached on the target, answers both names
    checked = []
    real = amalgam.properties._gaussian_check_uncached
    monkeypatch.setattr(amalgam.properties, "_gaussian_check_uncached", lambda r: checked.append(r) or real(r))
    ex = example_2_5_instance()
    assert holds(ex, "f(A) + J Gaussian") == holds(ex, "target ring Gaussian")
    assert ex.fimage_plus_j is ex.target and checked == [ex.target]


def test_distinguished_ideals():
    z4 = zmod(4)
    inst = duplication(z4, ideal_generated(z4, [2]))
    zero_j, m_j = distinguished_ideals(inst)
    assert len(zero_j) == 2 and len(m_j) == 4
    quot, _ = quotient(inst.ring, zero_j)
    assert quot.size == z4.size
    maxes = amalg_max_ideals(inst)
    assert [m.members for m in maxes] == [m_j.members]


def test_distinguished_ideals_requires_local():
    z6 = zmod(6)
    inst = amalgamate(z6, z6, hom_identity(z6), ideal_generated(z6, [2]))
    with pytest.raises(NotLocalError):
        distinguished_ideals(inst)


def test_max_ideal_classification_with_qbar():
    # J not inside Rad(B): maximal ideals of the Q-bar kind appear
    z6 = zmod(6)
    inst = amalgamate(z6, z6, hom_identity(z6), ideal_generated(z6, [3]))
    maxes = amalg_max_ideals(inst)
    assert len(maxes) == 3
    assert is_local(inst.ring) is None

    z2 = zmod(2)
    p22 = product(z2, z2)
    diag = RingHom(z2, p22, [0, 3])
    inst2 = amalgamate(z2, p22, diag, ideal_generated(p22, [1]))
    maxes2 = amalg_max_ideals(inst2)
    assert [m.members for m in maxes2] == [{0, 1}, {0, 3}]


def test_max_ideals_with_zero_j():
    z6 = zmod(6)
    inst = amalgamate(z6, z6, hom_identity(z6), ideal_generated(z6, []))
    assert len(amalg_max_ideals(inst)) == len(maximal_ideals(z6))


def test_product_embedding_oracle():
    z4 = zmod(4)
    z6 = zmod(6)
    cases = [
        duplication(z4, ideal_generated(z4, [2])),
        example_2_5_instance(),
        amalgamate(z6, z6, hom_identity(z6), ideal_generated(z6, [3])),
    ]
    for inst in cases:
        assert product_embedding_check(inst)


def test_section_retraction():
    inst = example_2_5_instance()
    nj = len(inst.j)
    for a in range(inst.base.size):
        assert inst.to_base.map[a * nj] == a  # section a -> (a, 0) retracts


def test_projection_bijection_under_meet_zero():
    # f injective with f(A) /\ J = 0: pB is a bijection onto f(A) + J
    z4 = zmod(4)
    target, embed = trivial_extension(z4, vspace_over_residue(z4, 1))
    zxe = Ideal(target, pair_indices([z4.zero], 2))  # 0 x E
    inst = amalgamate(z4, target, embed, zxe)
    sub, _ = f_image_plus_j(target, embed, zxe)
    assert len(np.unique(inst.to_target.map)) == inst.ring.size == sub.size


def test_local_criterion_spot_cases():
    z4 = zmod(4)
    local_inst = duplication(z4, ideal_generated(z4, [2]))
    assert is_local(local_inst.ring) is not None
    z6 = zmod(6)
    nonlocal_inst = amalgamate(z6, z6, hom_identity(z6), ideal_generated(z6, [3]))
    assert is_local(nonlocal_inst.ring) is None


def test_example_2_9_prufer_not_gaussian():
    z8 = zmod(8)
    inst = duplication(z8, ideal_generated(z8, [2]))
    assert is_prufer(inst.ring)
    assert not is_gaussian(inst.ring)
    assert is_total_quotient_ring(inst.ring)
    assert is_local(inst.ring) is not None
