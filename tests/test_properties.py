import pytest

from amalgam.errors import BudgetExceededError, CapExceededError, NotLocalError
from amalgam.expressions import Evaluator
from amalgam.harness import EXAMPLE_BUILDERS
from amalgam.ideals import (
    Ideal,
    all_ideals,
    enumerate_ideals,
    ideal_product,
    is_regular_ideal,
    maximal_ideals,
    principal_ideal,
    regular_elements,
)
from amalgam.modules import ring_as_module, trivial_extension, vspace_over_residue
from amalgam.properties import (
    Polynomial,
    content,
    gaussian_content_oracle,
    is_arithmetical,
    is_chain_ring,
    is_field,
    is_gaussian,
    is_local,
    is_prufer,
    is_reduced,
    is_total_quotient_ring,
    local_gaussian_pair_check,
    poly_mul,
    arithmetical_check,
    property_report,
    recheck_pair_witness,
    _colon_into_ring,
)
from amalgam.rings import localize_at_max, product, truncated_poly_algebra, zmod


def ext_of(base_seed, module_kind, dim=1):
    base = base_seed
    if module_kind == "regular":
        module = ring_as_module(base)
    else:
        module = vspace_over_residue(base, is_local(base), dim)
    return trivial_extension(base, module)[0]


def test_is_local_examples():
    assert is_local(zmod(4)).members == {0, 2}
    assert is_local(zmod(6)) is None
    t = truncated_poly_algebra(2, 2, 3)
    m = is_local(t)
    assert m is not None and len(m) == 32


def test_reduced_field_examples():
    assert is_reduced(zmod(6))
    assert not is_reduced(zmod(4))
    assert is_field(zmod(5))
    assert not is_field(zmod(6))
    assert not is_field(zmod(1))  # zero ring excluded by convention


def test_total_quotient_ring():
    assert is_total_quotient_ring(zmod(4))
    assert is_total_quotient_ring(zmod(1))


def test_total_quotient_ring_full_catalog(catalog):
    assert all(is_total_quotient_ring(r) for r in catalog.rings)


def test_pair_check_examples():
    ok, witness = local_gaussian_pair_check(zmod(4))
    assert ok and witness is None
    t = truncated_poly_algebra(2, 2, 3)
    ok, witness = local_gaussian_pair_check(t)
    x, y = t.element_names.index("x"), t.element_names.index("y")
    assert not ok and witness == (x, y)
    assert not recheck_pair_witness(t, *witness)
    ok, _ = local_gaussian_pair_check(zmod(5))
    assert ok


def test_pair_check_requires_local():
    with pytest.raises(NotLocalError):
        local_gaussian_pair_check(zmod(6))


def test_is_gaussian_examples():
    assert is_gaussian(zmod(6))
    z4 = zmod(4)
    gauss_ext = ext_of(z4, "resfield")
    assert is_gaussian(gauss_ext)
    non_gauss = ext_of(zmod(4), "regular")
    assert not is_gaussian(non_gauss)


def test_poly_examples():
    z4 = zmod(4)
    f = Polynomial.make(z4, [2, 2])
    assert content(f).members == {0, 2}
    assert poly_mul(f, f).coeffs == ()
    assert content(Polynomial.make(z4, [])).members == {0}


def test_content_oracle_examples():
    assert gaussian_content_oracle(zmod(4), 2)[0]
    non_gauss = ext_of(zmod(4), "regular")
    ok, witness = gaussian_content_oracle(non_gauss, 1)
    assert not ok and witness is not None
    f, g = witness
    lhs = content(poly_mul(f, g))
    rhs = ideal_product(content(f), content(g))
    assert lhs.members != rhs.members
    assert gaussian_content_oracle(zmod(5), 2)[0]


def test_content_oracle_budget():
    with pytest.raises(BudgetExceededError):
        gaussian_content_oracle(zmod(17), 2)


def test_chain_and_arithmetical_examples():
    assert is_chain_ring(zmod(8)) and is_arithmetical(zmod(8))
    p = product(zmod(2), zmod(2))
    assert is_arithmetical(p) and not is_chain_ring(p)
    non_arith = ext_of(zmod(4), "resfield")
    assert not is_arithmetical(non_arith)


def _invertible(ideal):
    return ideal_product(ideal, _colon_into_ring(ideal.ring, ideal)).is_whole


def _prufer_by_lattice_sweep(lattice):
    """Reference oracle: I * (R : I) = R for every regular ideal I."""
    return all(_invertible(ideal) for ideal in lattice if is_regular_ideal(ideal))


def test_prufer_examples(catalog):
    assert is_prufer(zmod(6))
    assert is_prufer(zmod(1))
    assert is_prufer(ext_of(zmod(4), "regular"))

    # every catalog lattice is enumerable at the default caps
    for ring in catalog.rings:
        assert _prufer_by_lattice_sweep(all_ideals(ring)) == is_prufer(ring), ring.label

    ev = Evaluator()
    r29, r210, r211 = (EXAMPLE_BUILDERS[x](ev).instance.ring for x in ("2.9", "2.10", "2.11"))
    assert _prufer_by_lattice_sweep(all_ideals(r29)) and is_prufer(r29)
    # 485 ideals, above the ideal-count guard: swept by the uncached enumerator
    assert _prufer_by_lattice_sweep(enumerate_ideals(r210, max_ideals=512)) and is_prufer(r210)
    # 1024 elements and thousands of ideals: every regular ideal contains a
    # regular x, hence <x>; each such <x> is the whole ring, so the ring is
    # the only regular ideal
    assert all(principal_ideal(r211, x).is_whole for x in regular_elements(r211))
    assert _invertible(Ideal(r211, range(r211.size))) and is_prufer(r211)


def test_lattice_guard_ignores_earlier_larger_enumerations():
    # example 2.10's 256-element ring has 485 ideals; a wider sweep of its
    # lattice must not lift the fixed guard for later callers
    ring = EXAMPLE_BUILDERS["2.10"](Evaluator()).instance.ring
    assert len(enumerate_ideals(ring, max_ideals=512)) == 485
    with pytest.raises(CapExceededError):
        all_ideals(ring)
    assert arithmetical_check(ring) == (False, None)


def test_gaussian_locality_consistency():
    rings = [zmod(6), zmod(12), product(zmod(4), zmod(9)), product(zmod(2), zmod(2))]
    for ring in rings:
        per_max = all(
            local_gaussian_pair_check(localize_at_max(ring, m)[0])[0]
            for m in maximal_ideals(ring)
        )
        assert is_gaussian(ring) == per_max
        per_max_chain = all(
            is_chain_ring(localize_at_max(ring, m)[0]) for m in maximal_ideals(ring)
        )
        assert is_arithmetical(ring) == per_max_chain


def test_property_report_consistency():
    rep = property_report(zmod(8))
    assert rep.local and rep.chain_ring and rep.arithmetical and rep.gaussian and rep.prufer
    assert rep.hierarchy_consistent()
    rep2 = property_report(ext_of(zmod(4), "regular"), oracle_degree=1)
    assert not rep2.gaussian and rep2.oracle_gaussian is False
    assert rep2.gaussian_witness is not None
    assert rep2.prufer


def test_pair_condition_matrix_matches_ideal_route():
    # the vectorized membership matrices against the literal ideal
    # computation <a,b>^2 = <c^2> (+ zero clause), on every pair
    from amalgam.properties import _pair_condition_matrix

    rings = [
        zmod(8),
        zmod(9),
        truncated_poly_algebra(2, 2, 2),
        ext_of(zmod(4), "regular"),
        ext_of(zmod(4), "resfield"),
    ]
    for ring in rings:
        fast = _pair_condition_matrix(ring)
        for a in range(ring.size):
            for b in range(ring.size):
                assert bool(fast[a, b]) == recheck_pair_witness(ring, a, b), (
                    ring.label,
                    a,
                    b,
                )


def test_zero_ring_properties():
    z1 = zmod(1)
    assert is_local(z1) is None
    assert is_gaussian(z1)
    assert is_arithmetical(z1)
    assert is_prufer(z1)
    assert is_reduced(z1)
