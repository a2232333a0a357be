"""Every refusal of `FiniteModule`: the construction screen, the additive
inverses read from the action of -1, and the exhaustive laws of
`validate()`.  Each corruption is seeded so that every earlier check
passes and the named message is the first one raised."""
import re

import numpy as np
import pytest

from amalgam.errors import StructureError
from amalgam.modules import FiniteModule, ring_as_module
from amalgam.rings import truncated_poly_algebra, zmod

Z4 = zmod(4)
# F_2[x]/(x^2), indices c0 + 2 c1: 2 is x and 3 is 1 + x; its addition is XOR
DUAL = truncated_poly_algebra(2, 1, 2)


def tables(ring, add_entries=(), act_rows=None):
    """The regular module's tables, with each (x, y, value) addition entry
    and each action row of `act_rows` replaced."""
    add, act = np.array(ring.add), np.array(ring.mul)
    for x, y, value in add_entries:
        add[x, y] = value
    for a, row in (act_rows or {}).items():
        act[a] = row
    return ring, add, act


def faulty(ring, add, act):
    return FiniteModule(ring, ring.size, add, act, "faulty")


def refusal(message):
    return pytest.raises(StructureError, match=f"^{re.escape(message)}$")


def test_the_regular_modules_pass_every_check():
    for ring in (Z4, DUAL):
        module = faulty(*tables(ring))
        assert (module.neg == ring_as_module(ring).neg).all()
        module.validate()


def test_asymmetry_across_a_tile_boundary_is_refused():
    # one asymmetric pair of 300 x 300, in the tiles on either side of the
    # 128-wide boundary that the tiled symmetry check compares
    ring = zmod(300)
    with refusal("module addition is not commutative"):
        faulty(*tables(ring, [(3, 129, 133)]))


CONSTRUCTION_FAULTS = {
    "module table entries out of range": tables(Z4, [(1, 2, 4), (2, 1, 4)]),
    "module addition is not commutative": tables(Z4, [(1, 2, 0)]),
    "0.e != 0 in module": tables(Z4, act_rows={0: [0, 1, 0, 0]}),
    "module zero is not an additive identity": tables(Z4, [(0, 1, 2), (1, 0, 2)]),
    "1.e != e in module": tables(Z4, act_rows={1: [0, 1, 0, 3]}),
}


@pytest.mark.parametrize("message", CONSTRUCTION_FAULTS)
def test_construction_refusals(message):
    with refusal(message):
        faulty(*CONSTRUCTION_FAULTS[message])


def test_missing_additive_inverses_are_refused_on_first_read():
    # -1 = 3 now sends 1 to 1, and 1 + 1 = 2
    module = faulty(*tables(Z4, act_rows={3: [0, 1, 2, 1]}))
    with refusal("module lacks additive inverses"):
        module.neg


# g fixes 0, 1 and 2 and sends 3 to 1, so g(1) + g(2) != g(3); the action of
# 1 + x is 1 + g, which keeps the scalar additive at a = 1
G = [0, 1, 2, 1]
VALIDATE_FAULTS = {
    # 2 + 3 = 3: commutative, 0 is still the identity and -1 still inverts
    "module addition not associative at 1": tables(Z4, [(2, 3, 3), (3, 2, 3)]),
    "action of 2 is not additive": tables(DUAL, act_rows={2: G, 3: [e ^ g for e, g in enumerate(G)]}),
    # x acts as 1 and 1 + x as 0: additive in the scalar, but x.x.e = e != 0.e
    "action not associative over ring mult at 2": tables(DUAL, act_rows={2: [0, 1, 2, 3], 3: [0, 0, 0, 0]}),
    # 2 acts as 0, which is additive, but (1 + 1).e != 1.e + 1.e
    "action not additive in the scalar at 1": tables(Z4, act_rows={2: [0, 0, 0, 0]}),
}


@pytest.mark.parametrize("message", VALIDATE_FAULTS)
def test_validate_refusals(message):
    module = faulty(*VALIDATE_FAULTS[message])
    module.neg  # the inverses pass, so the law is the first failure
    with refusal(message):
        module.validate()
