"""Row-blocked table checks give the one-block results at every block size.

`rings._BLOCK_ENTRIES` is set to 1 or 3 rows of the ring at hand (3 leaves
a ragged last block on most sizes) and compared with a run whose single
block holds the whole table.  The pair matrix is the all-pairs oracle of
`pair_oracle`; the pair check's unit-orbit gather runs over the same
blocks, one to three unit rows at a time.  Hom validation against the
target's rows at the distinct images gives the row-major scan's message
and witness on every corrupted map.
"""
import numpy as np
import pytest

import amalgam.rings
from amalgam.errors import HomomorphismError
from amalgam.expressions import Evaluator, parse
from amalgam.harness import EXAMPLES
from amalgam.properties import _first_incomparable, _unit_orbits, is_local, local_gaussian_pair_check
from amalgam.rings import FiniteRing, RingHom, product, truncated_poly_algebra, zmod
from pair_oracle import pair_condition_matrix

ONE_BLOCK = 1 << 62


def _fresh(ring: FiniteRing) -> FiniteRing:
    """The same tables in a new ring object, with no cached structure."""
    return FiniteRing(ring.size, ring.add, ring.mul, ring.neg, ring.zero, ring.one, ring.label)


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


@pytest.mark.parametrize("rows", [None, 1, 3])
def test_first_incomparable_pair_matches_the_whole_matrix(monkeypatch, catalog, rows):
    checked = 0
    for ring in catalog.rings:
        for factor, _proj in ring.local_factor_maps():
            in_principal = factor.principal_membership
            if rows is not None:
                monkeypatch.setattr(amalgam.rings, "_BLOCK_ENTRIES", rows * factor.size)
            incomparable = ~(in_principal | in_principal.T)
            expected = divmod(int(np.argmax(incomparable)), factor.size) if incomparable.any() else None
            assert _first_incomparable(in_principal) == expected, factor.label
            checked += expected is not None
    assert checked



def _first_failure(source, target, index_map):
    """(message, witness) of the first pair failing f(x op y) = f(x) op f(y),
    `+` before `*`, in row-major order over whole tables; None for a hom."""
    m = np.asarray(index_map)
    for op, src_tab, tgt_tab in (("+", source.add, target.add), ("*", source.mul, target.mul)):
        bad = m[src_tab] != tgt_tab[m[:, None], m[None, :]]
        if bad.any():
            x, y = (int(v) for v in np.argwhere(bad)[0])
            return f"f(x{op}y) != f(x){op}f(y) at ({x}, {y})", (x, y)
    return None


def _parity_maps():
    """(source, target, hom map), with small images and injective, below and
    above the size from which `RingHom._validate` compares image rows."""
    z64, z256 = zmod(64), zmod(256)
    idx64, idx256 = np.arange(64), np.arange(256)
    z2_256 = product(z256, zmod(2))
    return [
        (z64, zmod(8), idx64 % 8),
        (z64, _fresh(z64), idx64),
        (z256, zmod(16), idx256 % 16),
        (z256, z2_256, idx256 * 2 + idx256 % 2),  # x -> (x, x mod 2)
        (z256, _fresh(z256), idx256),
    ]


@pytest.mark.parametrize("case", range(5))
def test_hom_validation_by_image_rows_matches_the_row_major_scan(monkeypatch, case):
    source, target, index_map = _parity_maps()[case]
    gated = []
    real = RingHom._agrees_on_image_rows
    monkeypatch.setattr(RingHom, "_agrees_on_image_rows", lambda self, *a: gated.append(1) or real(self, *a))
    assert _first_failure(source, target, index_map) is None
    RingHom(source, target, index_map)
    assert bool(gated) == (source.size >= amalgam.rings._IMAGE_ROWS_MIN_SIZE)
    rng = np.random.default_rng(case)
    for _ in range(8):
        corrupt = np.array(index_map)
        x = int(rng.integers(2, source.size))  # neither zero nor one
        corrupt[x] = (corrupt[x] + int(rng.integers(1, target.size))) % target.size
        expected = _first_failure(source, target, corrupt)
        error = _hom_error(source, target, corrupt)
        assert expected is not None and (str(error), error.witness) == expected
