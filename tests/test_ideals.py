import ast
import inspect
import itertools
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amalgam import ideals
from amalgam.errors import AmalgamError, CapExceededError, MixedRingError, NotAnIdealError
from amalgam.expressions import Evaluator, parse
from amalgam.harness import CLAUSE_IDS, EXAMPLES, reproduce_examples, verify_clauses
from amalgam.ideals import (
    MAX_IDEALS,
    Ideal,
    all_ideals,
    enumerate_ideals,
    ideal_generated,
    ideal_intersect,
    ideal_product,
    ideal_sum,
    is_distributive_lattice,
    maximal_ideals,
    principal_ideal,
)
from amalgam.modules import ring_as_module, trivial_extension, vspace_over_residue
from amalgam.properties import property_report
from amalgam.rings import product, truncated_poly_algebra, zmod
from catalog_generator import SMALL_PARAMS, generated_catalog
from oracles import jacobson_radical, nilradical
from test_cli_generated import ring_grammar


def brute_force_ideals(ring):
    """Oracle: filter all subsets of the carrier by the ideal axioms."""
    n = ring.size
    assert n <= 8, "oracle is exponential"
    out = []
    for bits in range(1 << n):
        members = {i for i in range(n) if bits >> i & 1}
        if ring.zero not in members:
            continue
        if any(int(ring.add[a, b]) not in members for a in members for b in members):
            continue
        if any(int(ring.mul[r, a]) not in members for r in range(n) for a in members):
            continue
        if any(int(ring.neg[a]) not in members for a in members):
            continue
        out.append(frozenset(members))
    return set(out)


def pairwise_ideals(ring, max_ideals=MAX_IDEALS):
    """Oracle: close the principal ideals under sums with one `np.unique` per
    (ideal, principal generator) pair.  Returns the member lists sorted by
    size then members; raises CapExceededError past `max_ideals` ideals."""
    principals, seen = [], set()
    for x in range(ring.size):
        arr = np.unique(ring.mul[:, x])
        if arr.tobytes() not in seen:
            seen.add(arr.tobytes())
            principals.append(arr)
    join_gens = [p for p in principals if p.size > 1]
    arrays = list(principals)
    i = 0
    while i < len(arrays):
        if len(arrays) > max_ideals:
            raise CapExceededError(f"{ring.label} has more than {max_ideals} ideals")
        base = arrays[i]
        base_mask = np.zeros(ring.size, dtype=bool)
        base_mask[base] = True
        for gen in join_gens:
            if base_mask[gen].all():
                continue
            s = np.unique(ring.add[np.ix_(base, gen)])
            if s.tobytes() not in seen:
                seen.add(s.tobytes())
                arrays.append(s)
        i += 1
    return sorted((arr.tolist() for arr in arrays), key=lambda m: (len(m), m))


def member_lists(ring, max_ideals=MAX_IDEALS):
    """The rows of the enumerated lattice matrix as member lists, in row order."""
    return [np.flatnonzero(row).tolist() for row in enumerate_ideals(ring, max_ideals)]


def full_table_distributivity(ring):
    """Oracle: the L x L x L meet and join tables built up front, then the
    distributive law checked row by row; the first failing triple in
    canonical lattice order is the witness."""
    lattice = all_ideals(ring)
    n = len(lattice)
    mask_mat = np.stack([ide.mask for ide in lattice]).astype(np.int32)
    contains = (mask_mat @ (1 - mask_mat).T) == 0
    join = (contains[:, None, :] & contains[None, :, :]).argmax(axis=2)
    below = contains.T
    both_below = below[:, None, :] & below[None, :, :]
    meet = n - 1 - both_below[:, :, ::-1].argmax(axis=2)
    for i in range(n):
        bad = np.argwhere(meet[i][join] != join[np.ix_(meet[i], meet[i])])
        if bad.size:
            j, k = (int(v) for v in bad[0])
            return False, (lattice[i], lattice[j], lattice[k])
    return True, None


@pytest.fixture(scope="module")
def rings_to_64(catalog):
    """Every catalog ring, then every catalog instance ring of <= 64 elements,
    one ring per distinct (zero, one, add, mul) table: lattices, bounds and
    witnesses depend on the tables alone."""
    specs = [spec for spec in catalog.specs if spec.base.size * len(spec.j) <= 64]
    rings, seen = [], set()
    for ring in list(catalog.rings) + [spec.build(catalog.size_cap).ring for spec in specs]:
        key = (ring.zero, ring.one, ring.add.tobytes(), ring.mul.tobytes())
        if key not in seen:
            seen.add(key)
            rings.append(ring)
    return rings


SMALL_RINGS = [
    zmod(4),
    zmod(6),
    zmod(8),
    truncated_poly_algebra(2, 1, 3),
    truncated_poly_algebra(2, 2, 2),
    product(zmod(2), zmod(2)),
    product(zmod(2), zmod(4)),
]


@pytest.mark.parametrize("ring", SMALL_RINGS, ids=lambda r: r.label)
def test_all_ideals_against_brute_force(ring):
    assert {i.members for i in all_ideals(ring)} == brute_force_ideals(ring)


@pytest.mark.parametrize("ring", SMALL_RINGS, ids=lambda r: r.label)
def test_maximal_ideals_against_brute_force(ring):
    lattice = brute_force_ideals(ring)
    proper = [i for i in lattice if len(i) < ring.size]
    expected = {
        i for i in proper if not any(i < j for j in proper)
    }
    assert {m.members for m in maximal_ideals(ring)} == expected


def test_ideal_members_normalised():
    z12 = zmod(12)
    for members in ([8, 4, 0, 4], np.array([4, 0, 8, 0]), (0, 4, 8), np.array([0, 4, 8], dtype=np.int32)):
        ideal = Ideal(z12, members)
        assert ideal.indices.tolist() == [0, 4, 8]
        assert ideal.members == {0, 4, 8}
        assert ideal.mask.nonzero()[0].tolist() == [0, 4, 8]
    given_sorted = np.array([0, 3, 6, 9], dtype=np.int64)
    ideal = Ideal(z12, given_sorted)
    assert ideal.indices.tolist() == [0, 3, 6, 9] and ideal.indices is not given_sorted
    assert given_sorted.flags.writeable  # the caller's array is not frozen
    with pytest.raises(NotAnIdealError):
        Ideal(z12, [0, 12])


def test_ideal_generated_examples():
    z4, z6 = zmod(4), zmod(6)
    assert ideal_generated(z4, [2]).members == {0, 2}
    assert ideal_generated(z6, [2, 3]).members == set(range(6))
    assert ideal_generated(z4, []).members == {0}


def test_ideal_arithmetic_examples():
    z8 = zmod(8)
    two = ideal_generated(z8, [2])
    assert ideal_product(two, two).members == {0, 4}
    z4 = zmod(4)
    sq = ideal_product(ideal_generated(z4, [2]), ideal_generated(z4, [2]))
    assert sq.members == {0}
    z6 = zmod(6)
    assert ideal_intersect(ideal_generated(z6, [2]), ideal_generated(z6, [3])).members == {0}


def test_ideal_sum_and_tags():
    z6 = zmod(6)
    s = ideal_sum(ideal_generated(z6, [2]), ideal_generated(z6, [3]))
    assert not s.is_proper
    with pytest.raises(MixedRingError):
        ideal_sum(ideal_generated(z6, [2]), ideal_generated(zmod(4), [2]))


def test_all_ideals_examples():
    z4 = zmod(4)
    assert [i.members for i in all_ideals(z4)] == [{0}, {0, 2}, {0, 1, 2, 3}]
    assert len(all_ideals(zmod(6))) == 4
    assert len(all_ideals(product(zmod(2), zmod(2)))) == 4
    # the zero ring has no local factors; its one ideal is the empty product
    assert enumerate_ideals(zmod(1)).tolist() == [[True]]


def test_lattice_cap_errors():
    # the carrier guard is fixed at 256 elements
    with pytest.raises(CapExceededError):
        all_ideals(zmod(257))
    assert len(all_ideals(zmod(256))) == 9


def test_ideal_count_guard_on_socle_blowup():
    # (Z/2 |x F2^2) |x F2 duplicated along its maximal ideal has a large
    # square-zero socle; the subspace lattice overflows the enumeration cap
    from amalgam.amalgamation import duplication
    from amalgam.properties import is_prufer

    z2 = zmod(2)
    base, _ = trivial_extension(z2, vspace_over_residue(z2, 2))
    outer, _ = trivial_extension(base, vspace_over_residue(base, 1))
    inst = duplication(outer, is_local_ideal(outer))
    with pytest.raises(CapExceededError):
        all_ideals(inst.ring)
    with pytest.raises(CapExceededError):
        pairwise_ideals(inst.ring)
    # the Prufer checker falls back to the documented unit reduction
    assert is_prufer(inst.ring) is True


def test_enumerator_matches_pairwise_oracle_on_catalog(catalog):
    for ring in catalog.rings:
        lattice = enumerate_ideals(ring)
        assert lattice.dtype == bool and lattice.shape[1] == ring.size and not lattice.flags.writeable
        assert member_lists(ring) == pairwise_ideals(ring), ring.label
        assert (ring.ideal_lattice == lattice).all(), ring.label


def test_equal_size_ideals_order_by_their_least_differing_member():
    # F2[x,y]/(x,y)^3 with element index c1 + 2cx + 4cy + 8cx^2 + 16cxy + 32cy^2:
    # (x^2, xy+y^2) = {0,8,48,56} and (xy, y^2) = {0,16,32,48} are two
    # planes of the socle.  The first holds 8, the least member of their
    # symmetric difference, so it comes first, although it holds the
    # largest differing member (56) and has the larger packed mask bytes.
    ring = truncated_poly_algebra(2, 2, 3)
    lattice = member_lists(ring)
    first, second = lattice.index([0, 8, 48, 56]), lattice.index([0, 16, 32, 48])
    assert first < second
    assert lattice == sorted(lattice, key=lambda m: (len(m), m))
    assert lattice == pairwise_ideals(ring)


def test_ideal_from_a_mask_row_keeps_the_row():
    ring = zmod(12)
    row = enumerate_ideals(ring)[2]
    ideal = Ideal._from_mask(ring, row)
    checked = Ideal(ring, np.flatnonzero(row))
    assert ideal == checked and ideal.indices.tolist() == checked.indices.tolist()
    assert ideal.mask is row and not ideal.indices.flags.writeable
    assert ideal.generators() == checked.generators()


def test_ideal_guard_refuses_exactly_past_max_ideals():
    # example 2.10's ring has 485 ideals; the refusal names the guard, not
    # how far the enumeration got
    ring = Evaluator().ring(parse(EXAMPLES["2.10"].expression))
    lattice = member_lists(ring, max_ideals=512)
    assert len(lattice) == 485
    assert lattice == pairwise_ideals(ring, max_ideals=512)
    assert member_lists(ring, max_ideals=485) == lattice
    with pytest.raises(CapExceededError) as exc:
        enumerate_ideals(ring, max_ideals=484)
    assert str(exc.value) == f"{ring.label} has more than 484 ideals"
    with pytest.raises(CapExceededError) as exc:
        all_ideals(ring)
    assert str(exc.value) == f"{ring.label} has more than {MAX_IDEALS} ideals"


def test_guard_refuses_exactly_when_the_pairwise_oracle_does(rings_to_64):
    refused = 0
    for ring in rings_to_64:
        try:
            count = len(all_ideals(ring))
        except CapExceededError:
            refused += 1
            with pytest.raises(CapExceededError):
                pairwise_ideals(ring)
            continue
        assert count == len(pairwise_ideals(ring)), ring.label
    assert refused > 0


def test_guard_refuses_a_square_zero_blowup_by_the_cap():
    # F2[x1..x5]/(x)^2: each of the 374 subspaces of m = F2^5 is an ideal, and so is R
    ring = truncated_poly_algebra(2, 5, 2)
    with pytest.raises(CapExceededError) as exc:
        all_ideals(ring)
    assert str(exc.value) == f"{ring.label} has more than {MAX_IDEALS} ideals"
    assert len(enumerate_ideals(ring, max_ideals=375)) == 375


def test_guard_stays_exact_on_a_product_of_local_rings():
    # Z/8 |x F2 has 9 ideals, so its square has 81
    ring = Evaluator().ring(parse("product(trivext(zmod(8);resfield(1)),trivext(zmod(8);resfield(1)))"))
    assert len(ring.local_factors) == 2
    lattice = member_lists(ring, max_ideals=81)
    assert len(lattice) == 81 and lattice == pairwise_ideals(ring, max_ideals=81)
    with pytest.raises(CapExceededError) as exc:
        enumerate_ideals(ring, max_ideals=80)
    assert str(exc.value) == f"{ring.label} has more than 80 ideals"


def test_no_factor_is_closed_once_its_budget_is_exceeded(monkeypatch):
    # the 128-element local factor has 210 ideals, the field 2
    ring = Evaluator().ring(parse("product(zmod(2),dup(trivext(zmod(8);resfield(1));1,4))"))
    big, field = (factor for factor, _ in ring.local_factors)
    assert (big.size, field.size) == (128, 2)
    closed = []
    local_ideals = ideals._local_ideals

    def recording(factor, budget, too_many):
        closed.append((factor, budget))
        return local_ideals(factor, budget, too_many)

    monkeypatch.setattr(ideals, "_local_ideals", recording)
    assert len(enumerate_ideals(ring, max_ideals=420)) == 420
    assert closed == [(big, 420), (field, 2)]
    # refused by the field's budget of 419 // 210, then by the first factor's
    for max_ideals, budgets in ((419, [(big, 419), (field, 1)]), (144, [(big, 144)])):
        closed.clear()
        with pytest.raises(CapExceededError) as exc:
            enumerate_ideals(ring, max_ideals=max_ideals)
        assert str(exc.value) == f"{ring.label} has more than {max_ideals} ideals"
        assert closed == budgets


def test_row_at_a_time_distributivity_matches_full_tables(rings_to_64):
    checked = 0
    for ring in rings_to_64:
        try:
            expected = full_table_distributivity(ring)
        except CapExceededError:
            continue
        assert is_distributive_lattice(ring) == expected, ring.label
        checked += 1
    assert checked > 400


# arguments 1..5 keep about a fifth of the expressions buildable within 64 elements
@settings(derandomize=True, max_examples=1000, deadline=None, database=None)
@given(text=ring_grammar(st.integers(1, 5)))
def test_enumerator_matches_pairwise_oracle_on_generated_rings(text):
    try:
        ring = Evaluator(size_cap=64).ring(parse(text))
    except AmalgamError:
        return  # refused input; test_cli_generated covers the refusal
    try:
        expected = pairwise_ideals(ring)
    except CapExceededError:
        with pytest.raises(CapExceededError):
            enumerate_ideals(ring)
        return
    lattice = member_lists(ring)
    assert lattice == expected, text
    for members in lattice:
        Ideal(ring, members)  # re-validated by the checking constructor


def is_local_ideal(ring):
    from amalgam.properties import is_local

    m = is_local(ring)
    assert m is not None
    return m


def test_radicals_examples():
    assert nilradical(zmod(4)).members == {0, 2}
    assert jacobson_radical(zmod(6)).members == {0}
    assert [m.members for m in maximal_ideals(zmod(6))] == [{0, 2, 4}, {0, 3}]
    z1 = zmod(1)
    assert jacobson_radical(z1).members == {0}


def test_jacobson_radical_is_the_nilradical_on_the_catalog(catalog):
    # amalgamation.PREDICATES reads J(B) as Nil(B): a finite ring is Artinian
    rings = {id(ring): ring for ring in catalog.rings}
    rings.update((id(spec.target), spec.target) for spec in catalog.specs)
    assert len(rings) >= len(catalog.rings)
    for ring in rings.values():
        assert jacobson_radical(ring).members == nilradical(ring).members, ring.label


def test_zero_divisors_examples():
    assert np.flatnonzero(zmod(6).zero_divisor_mask).tolist() == [0, 2, 3, 4]
    assert np.flatnonzero(~zmod(4).zero_divisor_mask).tolist() == [1, 3]
    z6 = zmod(6)
    assert not (~z6.zero_divisor_mask[ideal_generated(z6, [2]).indices]).any()  # no regular element
    assert (~z6.zero_divisor_mask[ideal_generated(z6, [1]).indices]).any()
    assert not zmod(1).zero_divisor_mask.any()


def test_distributive_lattice_examples():
    assert is_distributive_lattice(zmod(4))[0]
    assert is_distributive_lattice(product(zmod(2), zmod(2)))[0]
    z4 = zmod(4)
    ext, _ = trivial_extension(z4, ring_as_module(z4))
    ok, witness = is_distributive_lattice(ext)
    assert not ok and witness is not None
    i, j, k = witness
    lhs = i.members & ideal_sum(j, k).members
    rhs = ideal_sum(
        Ideal(ext, i.members & j.members), Ideal(ext, i.members & k.members)
    ).members
    assert lhs != rhs  # the witness re-validates


@pytest.mark.parametrize("ring", SMALL_RINGS, ids=lambda r: r.label)
def test_lattice_laws(ring):
    lattice = all_ideals(ring)
    for a, b in itertools.product(lattice, repeat=2):
        absorbed = ideal_sum(a, ideal_intersect(a, b))
        assert absorbed.members == a.members
        assert ideal_product(a, b).members <= ideal_intersect(a, b).members


@pytest.mark.parametrize("ring", SMALL_RINGS, ids=lambda r: r.label)
def test_lattice_closure_under_sum_and_meet(ring):
    lattice = all_ideals(ring)
    members = {i.members for i in lattice}
    for a, b in itertools.combinations(lattice, 2):
        assert ideal_sum(a, b).members in members
        assert (a.members & b.members) in members


def test_ideal_validation_rejects_non_ideals():
    z4 = zmod(4)
    with pytest.raises(NotAnIdealError):
        Ideal(z4, [0, 1])  # not closed under addition with itself? 1+1=2 missing
    with pytest.raises(NotAnIdealError):
        Ideal(z4, [2])  # missing zero


def test_principal_ideal_matches_generated():
    for ring in SMALL_RINGS:
        for x in range(ring.size):
            assert principal_ideal(ring, x).members == ideal_generated(ring, [x]).members


def test_lattice_joins_are_the_pairwise_sums(catalog):
    for ring in catalog.rings:
        try:
            lattice = all_ideals(ring)
        except CapExceededError:
            continue
        lid_of = {ideal.members: i for i, ideal in enumerate(lattice)}
        contains, join = ideals.lattice_order(ring)
        for i, j in itertools.product(range(len(lattice)), repeat=2):
            assert join[i, j] == lid_of[ideal_sum(lattice[i], lattice[j]).members]
            assert contains[i, j] == (lattice[i] <= lattice[j])


def _set_closure(add, seed):
    """The additive closure of `seed` (holding zero), by Python sets."""
    out = set(seed)
    frontier = out
    while frontier:
        frontier = {add[a][b] for a in frontier for b in out} - out
        out |= frontier
    return out


def _assert_held(ideal, ring, members):
    assert ideal.ring is ring and ideal.members == members
    assert ideal.indices.tolist() == sorted(members)
    assert np.flatnonzero(ideal.mask).tolist() == sorted(members)
    assert not ideal.mask.flags.writeable and not ideal.indices.flags.writeable


def test_ideal_arithmetic_matches_a_set_oracle():
    for ring in generated_catalog(SMALL_PARAMS).rings:
        add, mul = ring.add.tolist(), ring.mul.tolist()
        lattice = all_ideals(ring)
        for x in range(ring.size):
            _assert_held(principal_ideal(ring, x), ring, {row[x] for row in mul})
        for ideal in lattice:
            _assert_held(ideal_generated(ring, ideal.generators()), ring, ideal.members)
        for a, b in itertools.combinations_with_replacement(lattice, 2):
            _assert_held(ideal_sum(a, b), ring, {add[x][y] for x in a.members for y in b.members})
            products = {mul[x][y] for x in a.members for y in b.members}
            _assert_held(ideal_product(a, b), ring, _set_closure(add, products))
            _assert_held(ideal_intersect(a, b), ring, a.members & b.members)


def test_the_package_builds_no_ideal_through_the_checking_constructor(monkeypatch):
    calls = []
    validate = Ideal._validate
    monkeypatch.setattr(Ideal, "_validate", lambda self: calls.append(self) or validate(self))
    small = generated_catalog(SMALL_PARAMS)
    verify_clauses(small, list(CLAUSE_IDS), with_search=True)
    reproduce_examples()
    for ring in small.rings:
        property_report(ring)
    assert calls == []
    z12 = zmod(12)
    with pytest.raises(NotAnIdealError):
        Ideal(z12, [0, 4])  # 4 + 4 = 8 is missing
    assert len(calls) == 1
    assert list(inspect.signature(Ideal).parameters) == ["ring", "members"]  # no trust flag


def test_src_never_calls_the_checking_constructor():
    package = pathlib.Path(ideals.__file__).parent
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) == "Ideal" or getattr(node.func, "attr", None) == "Ideal")
    ]
    assert calls == []
