"""The amalgamation of A with B along an ideal J with respect to f: A -> B.

The carrier is {(a, f(a)+j) : a in A, j in J}, a subring of A x B.  Element
a * |J| + p is the pair (a, j_p), with j_p the p-th member of J, so the +
and * tables are |A| x |A| blocks of |J| x |J| tables.  They are built from
three small tables in J positions: jadd[p1, p2] (j1 + j2), jmul[p1, p2]
(j1 j2) and fj[a, p] (f(a) j_p).  An entry outside J in any of the three
means J is not closed under the amalgamation rule (an InternalCheckError;
since f(0) = 0 this is the same as every sum and product below landing in
J).  Then

    (a1, j1) + (a2, j2) = (a1 + a2, j1 + j2)
    (a1, j1) * (a2, j2) = (a1 a2, f(a1) j2 + f(a2) j1 + j1 j2)

fill int32 tables of shape (|A|, |J|, |A|, |J|), the product over slices of
a1 so that each temporary stays within one row block, its sums gathered
from the flattened jadd.  The ring rests on its
`rings.Proof`: pA and pB onto the two coordinates, validated as ring homs,
with x -> (pA(x), pB(x)) injective, which is exactly the statement that the
tables are the subring of A x B (f(A)+J rests on its inclusion the same
way), so no sampled axiom screen runs.  The tests also materialize A x B
and compare tables under the embedding.

`PREDICATES` names every side condition and conclusion that the clauses
and worked examples read.  `holds(inst, name)` evaluates one on its first
read and keeps the value in `inst.facts`, so an instance computes only the
facts some reader asks for, each once.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import CapExceededError, InternalCheckError, MixedRingError
from .ideals import Ideal, ideal_product
from .properties import is_arithmetical, is_field, is_gaussian, is_local, is_prufer, is_reduced, is_total_quotient_ring
from .rings import DEFAULT_SIZE_CAP, FiniteRing, Proof, RingHom, _row_blocks, hom_identity, pair_indices


@dataclass(eq=False, repr=False)
class AmalgamationInstance:
    """Bundle (A, B, f, J) together with the constructed ring and its maps."""

    base: FiniteRing
    target: FiniteRing
    f: RingHom
    j: Ideal
    ring: FiniteRing
    to_base: RingHom
    to_target: RingHom
    zero_j: Ideal
    label: str
    facts: dict[str, bool] = field(default_factory=dict)  # PREDICATES values read so far, by name

    @cached_property
    def fimage_plus_j(self) -> FiniteRing:
        """The subring f(A) + J of the target, built once per instance."""
        return f_image_plus_j(self.target, self.f, self.j)[0]

    def __repr__(self) -> str:
        return f"AmalgamationInstance({self.label}, |R|={self.ring.size})"


def amalgamate(
    base: FiniteRing,
    target: FiniteRing,
    f: RingHom,
    j: Ideal,
    size_cap: int = DEFAULT_SIZE_CAP,
    label: str | None = None,
) -> AmalgamationInstance:
    """Construct base |><|^f j from a validated hom and an ideal of the target."""
    if f.source is not base or f.target is not target:
        raise MixedRingError("amalgamate: hom endpoints do not match the given rings")
    if j.ring is not target:
        raise MixedRingError("amalgamate: ideal does not live in the target ring")
    nj = len(j)
    size = base.size * nj
    if size > size_cap:
        raise CapExceededError(f"amalgamation would have {size} elements, cap is {size_cap}")

    na, jlist = base.size, j.indices
    jpos = np.full(target.size, -1, dtype=np.int32)
    jpos[jlist] = np.arange(nj, dtype=np.int32)
    fmap = f.map
    # J positions of j1 + j2, j1 * j2 and f(a) * j
    jadd = jpos[target.add[np.ix_(jlist, jlist)]]
    jmul = jpos[target.mul[np.ix_(jlist, jlist)]]
    fj = jpos[target.mul[np.ix_(fmap, jlist)]]
    if jadd.min() < 0 or jmul.min() < 0 or fj.min() < 0:
        raise InternalCheckError("ideal not closed under the amalgamation rule")

    # element a * nj + p is the pair (a, j_p); the tables are (a1, p1, a2, p2)
    add = (base.add * nj)[:, None, :, None] + jadd[None, :, None, :]
    mul = np.empty((na, nj, na, nj), dtype=np.int32)
    base_mul = base.mul * nj
    # jadd[x, y] is jadd_flat[x * nj + y]: gather with precomputed row offsets
    jadd_flat = jadd.ravel()
    fj_rows = fj * nj  # row offset of f(a1) j2, indexed (a1, p2)
    fj_t = fj.T[None, :, :, None]  # f(a2) j1, indexed (., p1, a2, .)
    jmul_t = jmul[None, :, None, :]
    for start, stop in _row_blocks(na, nj * na * nj):
        cross = np.take(jadd_flat, fj_rows[start:stop, None, None, :] + fj_t)  # f(a1) j2 + f(a2) j1
        cross *= nj
        cross += jmul_t
        cross = np.take(jadd_flat, cross)  # ... + j1 j2
        np.add(base_mul[start:stop, None, :, None], cross, out=mul[start:stop])
    add, mul = add.reshape(size, size), mul.reshape(size, size)
    ia = np.repeat(np.arange(na), nj)
    jb = np.tile(jlist, na)
    neg = np.repeat(base.neg * nj, nj) + np.tile(jpos[target.neg[jlist]], na)
    zero = int(base.zero * nj + jpos[target.zero])
    one = int(base.one * nj + jpos[target.zero])

    second = target.add[fmap[ia], jb]
    names = [
        f"({base.element_names[a]},{target.element_names[s]})" for a, s in zip(ia, second)
    ]
    if label is None:
        gens = ",".join(str(g) for g in j.generators())
        hom_tag = f.label or "hom"
        label = f"amalg({base.label},{target.label},{hom_tag};{gens})"

    proof = Proof(out_of=((base, ia, "pA"), (target, second, "pB")))
    ring = FiniteRing(size, add, mul, neg, zero, one, label, names, proof)
    to_base, to_target = proof.homs
    zero_j = to_base.kernel()
    if not np.array_equal(zero_j.indices, pair_indices([base.zero], nj)):
        raise InternalCheckError("kernel of pA differs from {0} x J")
    return AmalgamationInstance(base, target, f, j, ring, to_base, to_target, zero_j, label)


def duplication(ring: FiniteRing, ideal: Ideal, size_cap: int = DEFAULT_SIZE_CAP) -> AmalgamationInstance:
    """Amalgamated duplication: base = target, f = identity, J = the ideal."""
    gens = ",".join(str(g) for g in ideal.generators())
    return amalgamate(
        ring, ring, hom_identity(ring), ideal, size_cap, label=f"dup({ring.label};{gens})"
    )


def f_image_plus_j(target: FiniteRing, f: RingHom, j: Ideal) -> tuple[FiniteRing, RingHom]:
    """The subring f(A) + J of the target, with its inclusion map."""
    if f.target is not target or j.ring is not target:
        raise MixedRingError("f_image_plus_j: mismatched rings")
    img = np.unique(f.map)
    carrier = np.unique(target.add[np.ix_(img, j.indices)])
    pos = np.full(target.size, -1, dtype=np.int64)
    pos[carrier] = np.arange(carrier.size)
    sadd = pos[target.add[np.ix_(carrier, carrier)]]
    smul = pos[target.mul[np.ix_(carrier, carrier)]]
    if sadd.min() < 0 or smul.min() < 0:
        raise InternalCheckError("f(A) + J is not closed in the target")
    sneg = pos[target.neg[carrier]]
    names = [target.element_names[c] for c in carrier]
    label = f"subring(fimage+J;{target.label})"
    proof = Proof(out_of=((target, carrier, "incl"),))
    sub = FiniteRing(carrier.size, sadd, smul, sneg, int(pos[target.zero]), int(pos[target.one]), label, names, proof)
    return sub, proof.homs[0]


def _maximal_squares_to_zero(inst: AmalgamationInstance) -> bool:
    m = is_local(inst.base)
    return m is not None and ideal_product(m, m).is_zero


def _fa_j_stable(inst: AmalgamationInstance) -> bool:
    """f(a)J = f(a)^2 J for every a in the maximal ideal m of a local base.

    Row i of each matrix is the mask of x_i J in B, x_i = f(a_i) or f(a_i)^2,
    so the statement is one comparison of two (|m|, |B|) masks.
    """
    m = is_local(inst.base)
    if m is None:
        return False
    target = inst.target

    def times_j(x: np.ndarray) -> np.ndarray:
        masks = np.zeros((x.size, target.size), dtype=bool)
        masks[np.arange(x.size)[:, None], target.mul[x][:, inst.j.indices]] = True
        return masks

    fm = inst.f.map[m.indices]
    return bool((times_j(fm) == times_j(target.mul[fm, fm])).all())


def _maximal_is_m_times_j(inst: AmalgamationInstance) -> bool:
    """R and the base are local, and R's maximal ideal is m |><| J = m x J."""
    m, big_m = is_local(inst.base), is_local(inst.ring)
    if m is None or big_m is None:
        return False
    return np.array_equal(big_m.indices, pair_indices(m.indices, len(inst.j)))


# Every side condition and conclusion a clause or worked example reads, by
# the name the example reports print; "amalgamation" and R both name the
# constructed ring.  Each is computed on its first read through `holds`; a
# negated name reads its positive name.  B is finite, so its Jacobson
# radical is its nilradical, read off the nilpotent mask.
PREDICATES: dict[str, Callable[[AmalgamationInstance], bool]] = {
    "instance is a duplication": lambda i: i.base is i.target and bool((i.f.map == np.arange(i.base.size)).all()),
    "base ring local": lambda i: is_local(i.base) is not None,
    "base ring local and not a field": lambda i: holds(i, "base ring local") and holds(i, "base ring not a field"),
    "base ring not a field": lambda i: not is_field(i.base),
    "base ring reduced": lambda i: is_reduced(i.base),
    "base ring arithmetical": lambda i: is_arithmetical(i.base),
    "base ring not arithmetical": lambda i: not holds(i, "base ring arithmetical"),
    "base ring Gaussian": lambda i: is_gaussian(i.base),
    "base ring not Gaussian": lambda i: not holds(i, "base ring Gaussian"),
    "base ring total quotient ring": lambda i: is_total_quotient_ring(i.base),
    "maximal ideal squares to zero": _maximal_squares_to_zero,
    "target ring local": lambda i: is_local(i.target) is not None,
    "target ring Gaussian": lambda i: is_gaussian(i.target),
    "f injective": lambda i: i.f.is_injective,
    "f not injective": lambda i: not holds(i, "f injective"),
    "f(A) meets J only in zero": lambda i: int(i.j.mask[np.unique(i.f.map)].sum()) == 1,
    "f(A) meets J beyond zero": lambda i: not holds(i, "f(A) meets J only in zero"),
    "f(A) + J is the whole target": lambda i: i.fimage_plus_j.size == i.target.size,
    "J proper": lambda i: i.j.is_proper,
    "J proper and nonzero": lambda i: holds(i, "J proper") and not i.j.is_zero,
    "I proper and nonzero": lambda i: holds(i, "J proper and nonzero"),
    "J inside Rad(B)": lambda i: bool(i.target.nilpotent_mask[i.j.indices].all()),
    "J inside Z(B)": lambda i: bool(i.target.zero_divisor_mask[i.j.indices].all()),
    "J inside Nilp(B)": lambda i: holds(i, "J inside Rad(B)") and holds(i, "J meets Nilp(B) beyond zero"),
    "J meets Nilp(B) only in zero": lambda i: int(i.target.nilpotent_mask[i.j.indices].sum()) == 1,
    "J meets Nilp(B) beyond zero": lambda i: not holds(i, "J meets Nilp(B) only in zero"),
    "J^2 = 0": lambda i: ideal_product(i.j, i.j).is_zero,
    "J^2 nonzero": lambda i: not holds(i, "J^2 = 0"),
    "I^2 nonzero": lambda i: holds(i, "J^2 nonzero"),
    "f(a)J = f(a)^2 J on m": _fa_j_stable,
    "amalgamation Gaussian": lambda i: is_gaussian(i.ring),
    "amalgamation arithmetical": lambda i: is_arithmetical(i.ring),
    "amalgamation Prufer": lambda i: is_prufer(i.ring),
    "amalgamation local": lambda i: is_local(i.ring) is not None,
    "amalgamation total quotient ring": lambda i: is_total_quotient_ring(i.ring),
    "amalgamation local total quotient ring": (
        lambda i: holds(i, "amalgamation local") and holds(i, "amalgamation total quotient ring")
    ),
    "maximal ideal of R is m |><| J": _maximal_is_m_times_j,
    "f(A) + J Gaussian": lambda i: is_gaussian(i.fimage_plus_j),
    "pB maps R bijectively onto f(A) + J": (
        lambda i: int(np.unique(i.to_target.map).size) == i.ring.size == i.fimage_plus_j.size
    ),
}


def holds(inst: AmalgamationInstance, name: str) -> bool:
    """`PREDICATES[name]` on inst, evaluated on its first read and kept."""
    if name not in inst.facts:
        inst.facts[name] = bool(PREDICATES[name](inst))
    return inst.facts[name]


def hypothesis_report(inst: AmalgamationInstance, names: tuple[str, ...]) -> str | None:
    """The first of `names` that fails on inst, read in order, or None."""
    return next((name for name in names if not holds(inst, name)), None)
