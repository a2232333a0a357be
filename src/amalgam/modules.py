"""Finite modules over a finite ring, and the trivial ring extension.

Modules carry their own addition and action tables (same policy as rings:
explicit, immutable, exhaustively checkable, and held in
`rings.TABLE_DTYPE`, so no module passes `rings.MAX_TABLE_SIZE` = 65,536
elements) and no element names, which `expressions.Evaluator` spells.
Each constructor takes the arguments of its grammar node and derives the
rest: `vspace_over_residue` (`resfield(k)`) reads the maximal
ideal of its local ring, and `module_quotient` (`quotmod(M;gens)`) generates
its submodule from the generator indices it prints in its label.  The
trivial extension A |x E is the ring on A x E with
(a,e)(a',e') = (aa', a.e' + a'.e); the ideal 0 x E always squares to zero.
"""
from __future__ import annotations

from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import CapExceededError, MixedRingError, NotASubmoduleError, NotLocalError, StructureError
from .ideals import _additive_closure, maximal_ideals
from .rings import (
    DEFAULT_SIZE_CAP,
    FiniteRing,
    RingHom,
    TABLE_DTYPE,
    _as_table,
    _check_cap,
    _cosets,
    _is_symmetric,
    _max_digits,
    _row_blocks,
    _table_cap,
    pair_ring_tables,
    quotient,
)


class FiniteModule:
    """A finite module over a finite commutative ring."""

    def __init__(self, ring: FiniteRing, size: int, add, action, label: str):
        self.ring = ring
        self.size = int(size)
        self.add = _as_table(add, (size, size), "module addition")
        self.action = _as_table(action, (ring.size, size), "module action")
        self.zero = int(self.action[ring.zero, 0])
        self.label = label
        self._quick_check()

    def _quick_check(self) -> None:
        n, add, act, ring = self.size, self.add, self.action, self.ring
        if add.max() >= n or act.max() >= n:  # unsigned tables (`_as_table`)
            raise StructureError("module table entries out of range")
        if not _is_symmetric(add):
            raise StructureError("module addition is not commutative")
        if not (act[ring.zero] == self.zero).all():
            raise StructureError("0.e != 0 in module")
        if not (add[self.zero] == np.arange(n)).all():
            raise StructureError("module zero is not an additive identity")
        if not (act[ring.one] == np.arange(n)).all():
            raise StructureError("1.e != e in module")

    @cached_property
    def neg(self) -> np.ndarray:
        # additive inverse from the action of -1
        table = self.action[self.ring.neg[self.ring.one]]
        if not (self.add[np.arange(self.size), table] == self.zero).all():
            raise StructureError("module lacks additive inverses")
        out = table.copy()
        out.flags.writeable = False
        return out

    def validate(self) -> None:
        """Exhaustive module axioms: abelian group + bilinear monoid action."""
        self._quick_check()
        n, add, act, ring = self.size, self.add, self.action, self.ring
        _ = self.neg
        for e in range(n):
            if not (add[add[e], :] == add[e][add]).all():
                raise StructureError(f"module addition not associative at {e}")
        for a in range(ring.size):
            ra = act[a]
            if not (ra[add] == add[np.ix_(ra, ra)]).all():
                raise StructureError(f"action of {a} is not additive")
            # (a*b).e == a.(b.e)
            if not (act[ring.mul[a]] == ra[act]).all():
                raise StructureError(f"action not associative over ring mult at {a}")
            # (a+b).e == a.e + b.e
            if not (act[ring.add[a]] == add[ra[None, :].repeat(ring.size, 0), act]).all():
                raise StructureError(f"action not additive in the scalar at {a}")

    def __repr__(self) -> str:
        return f"FiniteModule({self.label} over {self.ring.label}, size={self.size})"


def ring_as_module(ring: FiniteRing) -> FiniteModule:
    """The ring acting on itself by multiplication."""
    return FiniteModule(ring, ring.size, ring.add, ring.mul, "regular")


def vspace_over_residue(ring: FiniteRing, dim: int, size_cap: int = DEFAULT_SIZE_CAP) -> FiniteModule:
    """(ring/m)^dim as a module, m the maximal ideal of the local ring; the
    ring acts through the projection, so m annihilates every element.
    Raises NotLocalError on a ring that is not local."""
    if not ring.is_local:
        raise NotLocalError(f"resfield over {ring.label} needs a local base ring")
    if dim < 1:
        raise ValueError("vector space dimension must be >= 1")
    (m,) = maximal_ideals(ring)
    field, proj = quotient(ring, m)
    q = field.size
    # compare dim with log_q(cap) first: q**dim may be astronomically large
    cap = _table_cap(size_cap)
    if dim > _max_digits(q, cap):
        raise CapExceededError(
            f"resfield({dim}) over {ring.label} would have {q}^{dim} elements, cap is {cap}"
        )
    size = q**dim
    radix = (q ** np.arange(dim)).astype(TABLE_DTYPE)  # q^(dim-1) < size
    digits = (np.arange(size)[:, None] // radix) % q

    def digitwise(op: np.ndarray, left: np.ndarray) -> np.ndarray:
        """table[x, y] = sum_k op[left[x, k], digits[y, k]] q^k, filled in
        `TABLE_DTYPE` one digit and one row block at a time.  The flat index
        into `op` is formed in int64, as q^2 passes 2^31 past q = 46,340."""
        table = np.zeros((len(left), size), dtype=TABLE_DTYPE)
        op_flat = op.ravel()
        for start, stop in _row_blocks(len(left), 8 * size):  # int64 flat indices
            for k in range(dim):
                flat = left[start:stop, k, None].astype(np.int64) * q + digits[:, k]
                table[start:stop] += np.take(op_flat, flat) * radix[k]
        return table

    add = digitwise(field.add, digits)
    # a acts coordinatewise through the residue field
    act = digitwise(field.mul, np.repeat(proj.map[:, None], dim, axis=1))
    return FiniteModule(ring, size, add, act, f"resfield({dim})")


def submodule_generated(module: FiniteModule, gens: Iterable[int]) -> np.ndarray:
    """The members of the smallest submodule containing gens, ascending
    (closure of ring multiples under +).  Raises NotASubmoduleError on a
    generator index outside the module."""
    gens = [int(g) for g in gens]
    for g in gens:
        if not 0 <= g < module.size:
            raise NotASubmoduleError(f"module generator {g} out of range for {module.label}")
    seed = np.concatenate([module.action[:, sorted(set(gens))].ravel(), [module.zero]])
    return np.flatnonzero(_additive_closure(module, seed))


def module_quotient(module: FiniteModule, gens: Sequence[int]) -> FiniteModule:
    """Quotient by the submodule generated by `gens` (possibly empty), one
    element per coset in the order of its minimal member, labelled by the
    expression `quotmod(M;gens)`, the generators printed as given."""
    proj, reps = _cosets(module.add, submodule_generated(module, gens))
    label = f"quotmod({module.label};{','.join(str(g) for g in gens)})"
    qadd, qact = proj[module.add[np.ix_(reps, reps)]], proj[module.action[:, reps]]
    return FiniteModule(module.ring, len(reps), qadd, qact, label)


def trivial_extension(
    ring: FiniteRing, module: FiniteModule, size_cap: int = DEFAULT_SIZE_CAP
) -> tuple[FiniteRing, RingHom]:
    """Nagata idealization of the ring by the module.

    Returns the extension ring on pairs (a, e) with index a*|E| + e and the
    embedding a -> (a, 0).
    """
    if module.ring is not ring:
        raise MixedRingError("trivial_extension: module is over a different ring")
    ne = module.size
    size = ring.size * ne
    label = f"trivext({ring.label};{module.label})"
    _check_cap(size, size_cap, label)

    tables = pair_ring_tables(ring, module.add, module.neg, module.zero, module.action)
    ext = FiniteRing(*tables, label)
    embed = RingHom(ring, ext, np.arange(ring.size) * ne + module.zero, label="embed")
    return ext, embed
