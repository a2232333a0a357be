"""Row-blocked table checks give the one-block results at every block size.

`rings._BLOCK_ENTRIES` is set to 1 or 3 rows of the ring at hand (3 leaves
a ragged last block on most sizes) and compared with a run whose single
block holds the whole table.  The pair matrix is the all-pairs oracle of
`pair_oracle`; the pair check's unit-orbit gather runs over the same
blocks, one to three unit rows at a time.
"""
import numpy as np
import pytest

import amalgam.rings
from amalgam.errors import HomomorphismError
from amalgam.expressions import Evaluator, parse
from amalgam.harness import EXAMPLES
from amalgam.properties import _unit_orbits, is_local, local_gaussian_pair_check
from amalgam.rings import FiniteRing, RingHom, truncated_poly_algebra
from pair_oracle import pair_condition_matrix

ONE_BLOCK = 1 << 62


def _fresh(ring: FiniteRing) -> FiniteRing:
    """The same tables in a new ring object, with no cached structure."""
    return FiniteRing(
        ring.size, ring.add, ring.mul, ring.neg, ring.zero, ring.one, ring.label, ring.element_names
    )


def _blocked_results(ring: FiniteRing):
    fresh = _fresh(ring)
    principal = fresh.principal_membership
    pairs = pair_condition_matrix(fresh)
    if is_local(fresh) is None:
        return principal, pairs, None, None
    return principal, pairs, local_gaussian_pair_check(fresh), _unit_orbits(fresh)


@pytest.fixture(scope="module")
def rings_to_check(catalog):
    ex_2_11 = Evaluator().ring(parse(EXAMPLES["2.11"].expression))
    return [*catalog.rings, ex_2_11]


@pytest.mark.parametrize("rows", [1, 3])
def test_blocked_membership_pairs_and_witness_match_one_block(monkeypatch, rings_to_check, rows):
    witnesses = 0
    for ring in rings_to_check:
        monkeypatch.setattr(amalgam.rings, "_BLOCK_ENTRIES", ONE_BLOCK)
        principal, pairs, witness, orbits = _blocked_results(ring)
        monkeypatch.setattr(amalgam.rings, "_BLOCK_ENTRIES", rows * ring.size)
        b_principal, b_pairs, b_witness, b_orbits = _blocked_results(ring)
        assert np.array_equal(principal, b_principal), ring.label
        assert np.array_equal(pairs, b_pairs), ring.label
        assert witness == b_witness, ring.label
        if orbits is not None:
            assert all(np.array_equal(x, y) for x, y in zip(orbits, b_orbits)), ring.label
        if witness is not None and not witness[0]:
            witnesses += 1
            assert witness[1] == tuple(int(v) for v in np.argwhere(~pairs)[0])
    assert witnesses > 0  # some rings do fail the pair check


def test_principal_membership_by_definition():
    ring = Evaluator().ring(parse(EXAMPLES["2.10"].expression))
    expected = np.zeros((ring.size, ring.size), dtype=bool)
    for x in range(ring.size):
        expected[x, ring.mul[x]] = True
    assert np.array_equal(ring.principal_membership, expected)


def _hom_error(source, target, index_map) -> HomomorphismError:
    with pytest.raises(HomomorphismError) as info:
        RingHom(source, target, index_map)
    return info.value


@pytest.mark.parametrize("rows", [1, 3])
def test_hom_witness_past_the_first_block(monkeypatch, rows):
    # F_2[x,y]/(x,y)^2 on 1, x, y: f(1) = 1, f(x) = 0, f(y) = 1 + y is additive
    # and multiplicative on rows 0-3, and f(y)^2 = 1 != 0 = f(y^2)
    ring = truncated_poly_algebra(2, 2, 2)
    index_map = [0, 1, 0, 1, 5, 4, 5, 4]
    monkeypatch.setattr(amalgam.rings, "_BLOCK_ENTRIES", ONE_BLOCK)
    whole = _hom_error(ring, ring, index_map)
    monkeypatch.setattr(amalgam.rings, "_BLOCK_ENTRIES", rows * ring.size)
    blocked = _hom_error(ring, ring, index_map)
    assert whole.witness == blocked.witness == (4, 4)
    assert str(whole) == str(blocked) == "f(x*y) != f(x)*f(y) at (4, 4)"
