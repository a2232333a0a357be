import numpy as np
import pytest

import amalgam.properties
from amalgam.errors import BudgetExceededError, CapExceededError, InternalCheckError, NotLocalError
from amalgam.expressions import Evaluator, parse
from amalgam.harness import EXAMPLES
from amalgam.ideals import (
    Ideal,
    all_ideals,
    enumerate_ideals,
    ideal_product,
    is_distributive_lattice,
    principal_ideal,
)
from amalgam.modules import ring_as_module, trivial_extension, vspace_over_residue
from amalgam.properties import (
    Polynomial,
    chain_certificate,
    content,
    gaussian_content_oracle,
    is_arithmetical,
    is_field,
    is_gaussian,
    is_local,
    is_prufer,
    is_reduced,
    is_total_quotient_ring,
    local_gaussian_pair_check,
    m3_certificate,
    poly_mul,
    arithmetical_check,
    property_report,
    recheck_pair_witness,
)
from amalgam.rings import product, tpa_names, truncated_poly_algebra, zmod
from oracles import is_chain_ring
from pair_oracle import pair_condition_matrix


def ext_of(base_seed, module_kind, dim=1):
    base = base_seed
    if module_kind == "regular":
        module = ring_as_module(base)
    else:
        module = vspace_over_residue(base, dim)
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
    x, y = tpa_names(2, 2, 3).index("x"), tpa_names(2, 2, 3).index("y")
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


def test_arithmetical_verdict_is_certified_once_per_ring(monkeypatch):
    runs = []
    for name in ("chain_certificate", "m3_certificate"):
        real = getattr(amalgam.properties, name)
        monkeypatch.setattr(amalgam.properties, name, lambda *args, real=real, name=name: runs.append(name) or real(*args))
    ring = product(zmod(4), truncated_poly_algebra(2, 2, 2))  # a chain factor and a non-chain one
    for _ in range(3):
        assert not is_arithmetical(ring) and not arithmetical_check(ring)[0]
    assert sorted(runs) == ["chain_certificate", "m3_certificate"]


def _colon_into_ring(ring, ideal):
    # (ring : I) = {x : x*I inside the ring}: inside the ring itself every
    # product lands in the carrier, so this is the whole ring; computed
    # literally so the invertibility test below stays an honest product
    members = np.nonzero((ring.mul[:, ideal.indices] >= 0).all(axis=1))[0]
    return Ideal(ring, members)


def _invertible(ideal):
    return ideal_product(ideal, _colon_into_ring(ideal.ring, ideal)).is_whole


def _prufer_by_lattice_sweep(lattice):
    """Reference oracle: I * (R : I) = R for every regular ideal I."""
    return all(
        _invertible(ideal) for ideal in lattice if (~ideal.ring.zero_divisor_mask[ideal.indices]).any()
    )


def test_prufer_examples(catalog):
    assert is_prufer(zmod(6))
    assert is_prufer(zmod(1))
    assert is_prufer(ext_of(zmod(4), "regular"))

    # every catalog lattice is enumerable at the default caps
    for ring in catalog.rings:
        assert _prufer_by_lattice_sweep(all_ideals(ring)) == is_prufer(ring), ring.label

    r29, r210, r211 = (_example_ring(x) for x in ("2.9", "2.10", "2.11"))
    assert _prufer_by_lattice_sweep(all_ideals(r29)) and is_prufer(r29)
    # 485 ideals, above the ideal-count guard: swept by the uncached enumerator
    lattice = [Ideal(r210, np.flatnonzero(row)) for row in enumerate_ideals(r210, max_ideals=512)]
    assert _prufer_by_lattice_sweep(lattice) and is_prufer(r210)
    # 1024 elements and thousands of ideals: every regular ideal contains a
    # regular x, hence <x>; each such <x> is the whole ring, so the ring is
    # the only regular ideal
    assert all(principal_ideal(r211, x).is_whole for x in np.flatnonzero(~r211.zero_divisor_mask))
    assert _invertible(Ideal(r211, range(r211.size))) and is_prufer(r211)


def test_lattice_guard_ignores_earlier_larger_enumerations():
    # example 2.10's 256-element ring has 485 ideals; a wider sweep of its
    # lattice must not lift the fixed guard for later callers
    ring = _example_ring("2.10")
    assert len(enumerate_ideals(ring, max_ideals=512)) == 485
    with pytest.raises(CapExceededError):
        all_ideals(ring)
    assert arithmetical_check(ring) == (False, None)


def _example_ring(example_id):
    """The ring an example's conclusions are checked on: its replacement's
    when it names one (2.7's surrogate misses a hypothesis), else its own."""
    case = EXAMPLES[example_id]
    return Evaluator().ring(parse(case.replacement or case.expression))


def test_distributive_lattice_oracle_agrees_with_certified_verdict(catalog):
    # the full-ring lattice is a test oracle for the per-factor certificates
    rings = list(catalog.rings) + [_example_ring(x) for x in ("2.5", "2.6", "2.7")]
    for ring in rings:
        assert is_distributive_lattice(ring)[0] == is_arithmetical(ring), ring.label
    assert not any(is_arithmetical(ring) for ring in rings[-3:])


def _sum_mask(ring, left, right):
    """Members of I + J from the addition table alone."""
    mask = np.zeros(ring.size, dtype=bool)
    mask[ring.add[np.ix_(np.nonzero(left)[0], np.nonzero(right)[0])]] = True
    return mask


def test_m3_certificate_revalidates_past_the_guard():
    # 2.10: 256 elements and 485 ideals; 2.11: 1,024 elements
    for example_id in ("2.10", "2.11"):
        ring = _example_ring(example_id)
        with pytest.raises(CapExceededError):
            all_ideals(ring)
        assert not is_arithmetical(ring)
        in_principal = ring.principal_membership
        a, b = divmod(int(np.argmax(~(in_principal | in_principal.T))), ring.size)
        triple = m3_certificate(ring, a, b)
        j1, j2, j3 = (Ideal(ring, ide.members).mask for ide in triple)  # re-validated as ideals
        bottom, top = j1 & j2, _sum_mask(ring, j1, j2)
        assert bottom.sum() < j1.sum() < top.sum()
        for x, y in ((j1, j2), (j1, j3), (j2, j3)):
            assert ((x & y) == bottom).all() and (_sum_mask(ring, x, y) == top).all()
        lhs = j1 & _sum_mask(ring, j2, j3)
        rhs = _sum_mask(ring, j1 & j2, j1 & j3)
        assert (lhs == j1).all() and not (rhs == j1).all()


def test_chain_certificate_is_the_m_adic_filtration():
    assert [len(step) for step in chain_certificate(zmod(8))] == [8, 4, 2, 1]
    assert [len(step) for step in chain_certificate(zmod(5))] == [5, 1]
    assert [len(step) for step in chain_certificate(truncated_poly_algebra(2, 1, 10))] == [
        2**k for k in range(10, -1, -1)
    ]
    with pytest.raises(InternalCheckError):
        chain_certificate(ext_of(zmod(4), "resfield"))
    z8 = zmod(8)
    for a in range(8):  # every pair of a chain ring is comparable, so none yields an M3
        for b in range(8):
            with pytest.raises(InternalCheckError):
                m3_certificate(z8, a, b)
    with pytest.raises(InternalCheckError):
        m3_certificate(zmod(6), 2, 3)  # not local


def test_lying_chain_route_is_an_internal_error():
    # a lying principal-membership matrix sends each factor to the wrong
    # certificate, which must refuse it: both re-validate without the matrix
    ring = _example_ring("2.11")
    assert ring.local_factor_maps()[0][0] is ring
    ring.__dict__["principal_membership"] = np.ones((ring.size, ring.size), dtype=bool)
    with pytest.raises(InternalCheckError, match="chain certificate|m-adic filtration"):
        is_arithmetical(ring)
    z8 = zmod(8)
    z8.__dict__["principal_membership"] = np.eye(8, dtype=bool)
    with pytest.raises(InternalCheckError, match="M3 certificate"):
        is_arithmetical(z8)


def test_property_report_builds_only_the_witness_ideals(monkeypatch):
    built = []
    from_mask = Ideal._from_mask.__func__

    def counting(cls, ring, mask):
        lattice = ring.__dict__.get("ideal_lattice")
        if isinstance(lattice, np.ndarray) and np.shares_memory(mask, lattice):
            built.append(ring.label)
        return from_mask(cls, ring, mask)

    monkeypatch.setattr(Ideal, "_from_mask", classmethod(counting))
    non_arithmetical = ext_of(zmod(4), "regular")
    report = property_report(non_arithmetical)
    assert not report.arithmetical and report.arithmetical_witness is not None
    assert len(built) == 3 and len(non_arithmetical.ideal_lattice) > 3
    built.clear()
    for ring in (zmod(8), product(zmod(4), zmod(9)), truncated_poly_algebra(2, 1, 4)):
        report = property_report(ring)
        assert report.arithmetical and report.arithmetical_witness is None
        assert isinstance(ring.ideal_lattice, np.ndarray)  # the lattice was enumerated
    assert built == []


def test_arithmetical_check_refuses_disagreeing_routes(monkeypatch):
    rings = (zmod(8), ext_of(zmod(4), "regular"))
    verdicts = {ring.label: is_arithmetical(ring) for ring in rings}
    assert sorted(verdicts.values()) == [False, True]
    monkeypatch.setattr(amalgam.properties, "is_arithmetical", lambda ring: not verdicts[ring.label])
    for ring in rings:
        with pytest.raises(InternalCheckError, match="disagree"):
            arithmetical_check(ring)


def test_gaussian_locality_consistency():
    rings = [zmod(6), zmod(12), product(zmod(4), zmod(9)), product(zmod(2), zmod(2))]
    for ring in rings:
        per_max = all(local_gaussian_pair_check(factor)[0] for factor, _ in ring.local_factors)
        assert is_gaussian(ring) == per_max
        per_max_chain = all(is_chain_ring(factor) for factor, _ in ring.local_factors)
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
    # the oracle's vectorized membership matrices against the literal ideal
    # computation <a,b>^2 = <c^2> (+ zero clause), on every pair
    rings = [
        zmod(8),
        zmod(9),
        truncated_poly_algebra(2, 2, 2),
        ext_of(zmod(4), "regular"),
        ext_of(zmod(4), "resfield"),
    ]
    for ring in rings:
        fast = pair_condition_matrix(ring)
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
