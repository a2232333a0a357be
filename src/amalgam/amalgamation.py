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
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CapExceededError, InternalCheckError, MixedRingError
from .ideals import Ideal, ideal_product, nilradical
from .properties import is_local, is_reduced
from .rings import DEFAULT_SIZE_CAP, FiniteRing, Proof, RingHom, _row_blocks, hom_identity, pair_indices


@dataclass(frozen=True)
class HypothesisReport:
    """Side conditions of the transfer statements, computed for one instance."""

    a_local: bool
    maximal_ideal_a: Ideal | None
    j_proper: bool
    j_nonzero: bool
    j_in_rad_b: bool
    j_in_zb: bool
    f_injective: bool
    fa_meet_j_zero: bool
    j_meet_nilp_zero: bool
    j_squared_zero: bool
    a_reduced: bool
    fa_j_stable: bool | None  # f(a)J = f(a)^2 J for all a in m; None when A not local


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

    @cached_property
    def hypotheses(self) -> HypothesisReport:
        return hypothesis_report(self)

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


def hypothesis_report(inst: AmalgamationInstance) -> HypothesisReport:
    base, target, f, j = inst.base, inst.target, inst.f, inst.j
    m = is_local(base)
    # B is finite, hence Artinian, so its Jacobson radical is its nilradical
    rad = nilradical(target)

    fa_j_stable: bool | None = None
    if m is not None:
        fa_j_stable = True
        for a in m.indices:
            fa = int(f.map[a])
            fa2 = int(target.mul[fa, fa])
            left = set(int(v) for v in target.mul[fa, j.indices])
            right = set(int(v) for v in target.mul[fa2, j.indices])
            if left != right:
                fa_j_stable = False
                break

    image = frozenset(int(v) for v in np.unique(f.map))
    return HypothesisReport(
        a_local=m is not None,
        maximal_ideal_a=m,
        j_proper=j.is_proper,
        j_nonzero=not j.is_zero,
        j_in_rad_b=j.members <= rad.members,
        j_in_zb=bool(target.zero_divisor_mask[j.indices].all()),
        f_injective=f.is_injective,
        fa_meet_j_zero=(image & j.members) == {target.zero},
        j_meet_nilp_zero=(j.members & rad.members) == {target.zero},
        j_squared_zero=ideal_product(j, j).is_zero,
        a_reduced=is_reduced(base),
        fa_j_stable=fa_j_stable,
    )
