import itertools

import numpy as np
import pytest

import amalgam.rings
from amalgam.errors import MixedRingError, NotAnIdealError, NotASubmoduleError, NotLocalError
from amalgam.ideals import Ideal, ideal_generated, ideal_product
from amalgam.modules import (
    module_quotient,
    ring_as_module,
    submodule_generated,
    trivial_extension,
    vspace_over_residue,
)
from amalgam.properties import is_local
from amalgam.expressions import Evaluator, parse
from amalgam.rings import TABLE_DTYPE, pair_indices, quotient, zmod


def test_ring_as_module_examples():
    z4 = zmod(4)
    m = ring_as_module(z4)
    assert (m.action == z4.mul).all()
    assert m.action[2, 3] == 2
    z1 = zmod(1)
    assert ring_as_module(z1).size == 1


def test_vspace_annihilated_by_maximal():
    z4 = zmod(4)
    e1 = vspace_over_residue(z4, 1)
    assert e1.size == 2
    assert (e1.action[2] == e1.zero).all()
    e2 = vspace_over_residue(z4, 2)
    assert e2.size == 4
    # a unit acts bijectively
    assert sorted(int(v) for v in e2.action[3]) == list(range(4))


@pytest.mark.parametrize("label, dim", [("zmod(4)", 3), ("zmod(9)", 2), ("zmod(5)", 3), ("tpa(2,2,2)", 4)])
def test_vspace_tables_match_the_coordinatewise_formula(monkeypatch, label, dim):
    ring = Evaluator().ring(parse(label))
    m = is_local(ring)
    field, proj = quotient(ring, m)
    q = field.size
    # digits[x, k] is digit k of x in base q, least significant first
    digits = np.array(list(itertools.product(range(q), repeat=dim)))[:, ::-1]
    radix = q ** np.arange(dim)
    add = field.add[digits[:, None, :], digits[None, :, :]] @ radix
    act = field.mul[proj.map[:, None, None], digits[None, :, :]] @ radix
    # one block, two rows per block (the last one ragged for odd q), one row
    # per block; a row costs 8 bytes an entry
    for budget in (amalgam.rings._BLOCK_BYTES, 2 * 8 * q**dim, 1):
        monkeypatch.setattr(amalgam.rings, "_BLOCK_BYTES", budget)
        module = vspace_over_residue(ring, dim)
        assert (module.add == add).all() and (module.action == act).all()
        assert module.add.dtype == module.action.dtype == TABLE_DTYPE


def test_vspace_requires_maximal():
    # the unique maximal ideal of a local ring; a ring with two is refused
    with pytest.raises(NotLocalError, match=r"^resfield over zmod\(6\) needs a local base ring$"):
        vspace_over_residue(zmod(6), 1)


def test_submodule_and_quotient():
    z4 = zmod(4)
    m = ring_as_module(z4)
    assert submodule_generated(m, [2]).tolist() == [0, 2]
    q = module_quotient(m, [2])
    assert q.size == 2 and q.label == "quotmod(regular;2)"
    whole = module_quotient(m, [1])
    assert whole.size == 1
    assert module_quotient(m, []).label == "quotmod(regular;)"


@pytest.mark.parametrize("bad", [-1, -2, 8, 9])
def test_generator_indices_outside_the_carrier_are_refused(bad):
    # a negative index would wrap around the tables, one past the end would
    # escape as a raw IndexError
    z8 = zmod(8)
    with pytest.raises(NotAnIdealError, match=rf"^generator index {bad} out of range for zmod\(8\) \(size 8\)$"):
        ideal_generated(z8, [2, bad])
    with pytest.raises(NotASubmoduleError, match=rf"^module generator {bad} out of range for regular$"):
        submodule_generated(ring_as_module(z8), [2, bad])


def test_trivial_extension_square_zero():
    z4 = zmod(4)
    ext, embed = trivial_extension(z4, vspace_over_residue(z4, 1))
    zxe = Ideal(ext, pair_indices([z4.zero], 2))  # 0 x E
    assert ext.size == 8
    assert ideal_product(zxe, zxe).is_zero
    assert embed.is_injective
    # (0, e)^2 = 0
    e_idx = 1
    assert ext.mul[e_idx, e_idx] == ext.zero


def test_trivial_extension_by_regular_module():
    z4 = zmod(4)
    ext, _ = trivial_extension(z4, ring_as_module(z4))
    assert ext.size == 16
    m = is_local(ext)
    assert m is not None and len(m) == 8


def test_trivial_extension_local_iff_base_local():
    z6 = zmod(6)
    ext6, _ = trivial_extension(z6, ring_as_module(z6))
    assert is_local(ext6) is None
    z9 = zmod(9)
    ext9, _ = trivial_extension(z9, ring_as_module(z9))
    assert is_local(ext9) is not None


def test_trivial_extension_mixing_rejected():
    with pytest.raises(MixedRingError):
        trivial_extension(zmod(4), ring_as_module(zmod(4)))


def test_module_axioms_validate():
    z4 = zmod(4)
    ring_as_module(z4).validate()
    vspace_over_residue(z4, 2).validate()
    q = module_quotient(ring_as_module(z4), [2])
    q.validate()


def test_extension_units_structure():
    # (a, e) is a unit exactly when a is a unit
    z4 = zmod(4)
    ext, _ = trivial_extension(z4, ring_as_module(z4))
    expected = {a * 4 + e for a in (1, 3) for e in range(4)}
    assert set(np.flatnonzero(ext.units_mask).tolist()) == expected
