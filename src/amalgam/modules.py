"""Finite modules over a finite ring, and the trivial ring extension.

Modules carry their own addition and action tables (same policy as rings:
explicit, immutable, exhaustively checkable).  The trivial extension
A |x E is the ring on A x E with (a,e)(a',e') = (aa', a.e' + a'.e); the
ideal 0 x E always squares to zero.
"""
from __future__ import annotations

from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    CapExceededError,
    MixedRingError,
    NotASubmoduleError,
    NotMaximalError,
    StructureError,
)
from .ideals import Ideal, _additive_closure, maximal_ideals
from .rings import DEFAULT_SIZE_CAP, FiniteRing, RingHom, _check_cap, _cosets, _max_digits, _row_blocks, quotient


class FiniteModule:
    """A finite module over a finite commutative ring."""

    def __init__(
        self,
        ring: FiniteRing,
        size: int,
        add,
        action,
        label: str,
        element_names: Sequence[str] | None = None,
    ):
        self.ring = ring
        self.size = int(size)
        self.add = np.ascontiguousarray(np.asarray(add, dtype=np.int32))
        self.action = np.ascontiguousarray(np.asarray(action, dtype=np.int32))
        if self.add.shape != (size, size):
            raise StructureError("module addition table has wrong shape")
        if self.action.shape != (ring.size, size):
            raise StructureError("module action table has wrong shape")
        self.add.flags.writeable = False
        self.action.flags.writeable = False
        self.zero = int(self.action[ring.zero, 0])
        self.label = label
        if element_names is None:
            element_names = [str(i) for i in range(size)]
        self.element_names = list(element_names)
        self._quick_check()

    def _quick_check(self) -> None:
        n, add, act, ring = self.size, self.add, self.action, self.ring
        if add.min() < 0 or add.max() >= n or act.min() < 0 or act.max() >= n:
            raise StructureError("module table entries out of range")
        if not (add == add.T).all():
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
    return FiniteModule(ring, ring.size, ring.add, ring.mul, "regular", ring.element_names)


def vspace_over_residue(ring: FiniteRing, m: Ideal, dim: int, size_cap: int = DEFAULT_SIZE_CAP) -> FiniteModule:
    """(ring/m)^dim as a module; the ring acts through the projection, so m
    annihilates every element."""
    if m.ring is not ring:
        raise MixedRingError("vspace_over_residue: ideal belongs to a different ring")
    if not any(mx.members == m.members for mx in maximal_ideals(ring)):
        raise NotMaximalError("vspace_over_residue requires a maximal ideal")
    if dim < 1:
        raise ValueError("vector space dimension must be >= 1")
    field, proj = quotient(ring, m)
    q = field.size
    # compare dim with log_q(size_cap) first: q**dim may be astronomically large
    if dim > _max_digits(q, size_cap):
        raise CapExceededError(
            f"resfield({dim}) over {ring.label} would have {q}^{dim} elements, cap is {size_cap}"
        )
    size = q**dim
    radix = q ** np.arange(dim, dtype=np.int32)
    digits = (np.arange(size, dtype=np.int32)[:, None] // radix) % q

    def digitwise(op: np.ndarray, left: np.ndarray) -> np.ndarray:
        """table[x, y] = sum_k op[left[x, k], digits[y, k]] q^k, filled in
        int32 one digit and one row block at a time."""
        table = np.zeros((len(left), size), dtype=np.int32)
        op_flat = op.ravel()
        for start, stop in _row_blocks(len(left), size):
            for k in range(dim):
                table[start:stop] += np.take(op_flat, left[start:stop, k, None] * q + digits[:, k]) * radix[k]
        return table

    add = digitwise(field.add, digits)
    # a acts coordinatewise through the residue field
    act = digitwise(field.mul, np.repeat(proj.map[:, None], dim, axis=1))
    if dim == 1:
        names = [field.element_names[int(row[0])] for row in digits]
    else:
        names = ["(" + ",".join(field.element_names[d] for d in row) + ")" for row in digits]
    return FiniteModule(ring, size, add, act, f"resfield({dim})", names)


def submodule_generated(module: FiniteModule, gens: Iterable[int]) -> frozenset[int]:
    """Smallest submodule containing gens (closure of ring multiples under +)."""
    seed = np.concatenate([module.action[:, sorted(set(int(g) for g in gens))].ravel(), [module.zero]])
    return frozenset(_additive_closure(module, seed).tolist())


def _check_submodule(module: FiniteModule, members: frozenset[int]) -> np.ndarray:
    idx = np.asarray(sorted(members), dtype=np.int64)
    mask = np.zeros(module.size, dtype=bool)
    mask[idx] = True
    if module.zero not in members:
        raise NotASubmoduleError("submodule must contain zero")
    if not mask[module.add[np.ix_(idx, idx)]].all():
        raise NotASubmoduleError("set not closed under module addition")
    if not mask[module.action[:, idx]].all():
        raise NotASubmoduleError("set not closed under the ring action")
    return idx


def module_quotient(module: FiniteModule, members: Iterable[int], gens_label: str = "") -> FiniteModule:
    """Quotient by a submodule, cosets named by their minimal member.

    The returned module carries the coset map as `quotient_projection`
    (source index -> quotient index).
    """
    proj, reps = _cosets(module.add, _check_submodule(module, frozenset(int(m) for m in members)))
    names = [f"[{module.element_names[r]}]" for r in reps]
    label = f"quotmod({module.label};{gens_label})" if gens_label else f"quotmod({module.label})"
    qadd, qact = proj[module.add[np.ix_(reps, reps)]], proj[module.action[:, reps]]
    out = FiniteModule(module.ring, len(reps), qadd, qact, label, names)
    proj.flags.writeable = False
    out.quotient_projection = proj
    return out


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
    _check_cap(size, size_cap, f"trivext({ring.label};{module.label})")

    idx = np.arange(size)
    ia, ie = idx // ne, idx % ne
    # int32 (a1, e1, a2, e2) tables; mul's module term a1.e2 + a2.e1 is gathered by row block
    add = ((ring.add * ne)[:, None, :, None] + module.add[None, :, None, :]).reshape(size, size)
    mul = np.empty((ring.size, ne, ring.size, ne), dtype=np.int32)
    act, madd_flat = module.action, module.add.ravel()
    for start, stop in _row_blocks(ring.size, size * ne):
        cross = np.take(madd_flat, (act[start:stop] * ne)[:, None, None, :] + act.T[None, :, :, None])
        np.add((ring.mul[start:stop] * ne)[:, None, :, None], cross, out=mul[start:stop])
    neg = ring.neg[ia] * ne + module.neg[ie]
    zero = ring.zero * ne + module.zero
    one = ring.one * ne + module.zero
    names = [f"({ring.element_names[a]}|{module.element_names[e]})" for a, e in zip(ia, ie)]
    label = f"trivext({ring.label};{module.label})"
    ext = FiniteRing(size, add, mul.reshape(size, size), neg, zero, one, label, names)
    embed = RingHom(ring, ext, np.arange(ring.size) * ne + module.zero, label="embed")
    return ext, embed
