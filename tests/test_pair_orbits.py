"""The pair check decides one pair per pair of unit orbits; the oracle
(`pair_oracle`) evaluates every pair.  Both must give the same verdict and
the same first failing pair in row-major order."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amalgam.errors import AmalgamError
from amalgam.expressions import Evaluator, parse
from amalgam.harness import EXAMPLES
from amalgam.properties import _unit_orbits, local_gaussian_pair_check
from amalgam.rings import truncated_poly_algebra, zmod
from pair_oracle import oracle_pair_check
from test_cli_generated import ring_grammar


def _check_local_factors(rings) -> tuple[int, int]:
    """(factors checked, factors failing); asserts agreement on each."""
    checked = failing = 0
    for ring in rings:
        for factor, _proj in ring.local_factor_maps():
            expected = oracle_pair_check(factor)
            assert local_gaussian_pair_check(factor) == expected, factor.label
            checked += 1
            failing += not expected[0]
    return checked, failing


def test_orbit_check_matches_oracle_on_catalog_factors(catalog):
    checked, failing = _check_local_factors(catalog.rings)
    assert checked > len(catalog.rings) and failing > 0


def test_orbit_check_matches_oracle_on_small_catalog_specs(catalog):
    small = [spec for spec in catalog.specs if spec.base.size * len(spec.j) <= 64]
    assert len(small) > 1000
    _, failing = _check_local_factors(spec.build().ring for spec in small)
    assert failing > 0


def test_orbit_check_matches_oracle_on_example_rings():
    rings = [Evaluator().ring(parse(case.expression)) for case in EXAMPLES.values()]
    assert len(rings) == 7 and max(ring.size for ring in rings) == 2048
    _, failing = _check_local_factors(rings)
    assert failing > 0


# arguments 1..5 keep about a fifth of the expressions buildable within 64 elements
@settings(derandomize=True, max_examples=500, deadline=None, database=None)
@given(text=ring_grammar(st.integers(1, 5)))
def test_orbit_check_matches_oracle_on_generated_rings(text):
    try:
        ring = Evaluator(size_cap=64).ring(parse(text))
    except AmalgamError:
        return  # refused input; test_cli_generated covers the refusal
    _check_local_factors([ring])


@pytest.mark.parametrize("ring", [zmod(12), zmod(81), truncated_poly_algebra(3, 2, 2)], ids=str)
def test_unit_orbits_by_definition(ring):
    reps, orbit = _unit_orbits(ring)
    units = np.flatnonzero(ring.units_mask)
    orbits = {frozenset(int(v) for v in ring.mul[units, x]) for x in range(ring.size)}
    assert sorted(min(o) for o in orbits) == reps.tolist()
    for x in range(ring.size):
        assert reps[orbit[x]] == min(int(v) for v in ring.mul[units, x])


def test_prime_power_residues_have_one_orbit_per_power():
    # zmod(p^k) has k + 1 orbits, the units times p^i and zero, so its
    # check reads a 13 x 13 table for 4,096^2 pairs
    ring = zmod(4096)
    reps, _ = _unit_orbits(ring)
    assert reps.tolist() == [0] + [2**i for i in range(12)]
    assert local_gaussian_pair_check(ring) == (True, None)
