"""The amalgamation of A with B along an ideal J with respect to f: A -> B.

The carrier is {(a, f(a)+j) : a in A, j in J}, a subring of A x B.  Element
a * |J| + p is the pair (a, j_p), with j_p the p-th member of J.  The
tables come from three small tables in J positions: jadd[p1, p2] (j1 + j2),
jmul[p1, p2] (j1 j2) and fj[a, p] (f(a) j_p).  An entry outside J in any of
the three means J is not closed under the amalgamation rule (an
InternalCheckError; since f(0) = 0 this is the same as every sum and
product below landing in J).  Then `rings.pair_ring_tables` fills

    (a1, j1) + (a2, j2) = (a1 + a2, j1 + j2)
    (a1, j1) * (a2, j2) = (a1 a2, f(a1) j2 + f(a2) j1 + j1 j2)

as it fills the tables of the idealization A |x E, straight into
`rings.TABLE_DTYPE`: Example 2.4's 2,048-element instance holds two 8 MB
tables, and no amalgamation passes 65,536 elements.  The ring rests on its
`rings.Proof`: pA and pB onto the two coordinates, validated as ring homs,
with x -> (pA(x), pB(x)) injective, which is exactly the statement that the
tables are the subring of A x B (f(A)+J rests on its inclusion the same
way), so no sampled axiom screen runs.  The tests also materialize A x B
and compare tables under the embedding.

`amalgamate` checks the size cap and the closure of J at once; the tables,
pA and pB are built and proved on the instance's first read of any of them,
so an instance whose ring no reader asks for never builds it.

R's tables depend only on A and on jadd, jmul and fj, so instances that
agree on those share one ring within a pass: an instance given a
`RingMemo` takes the ring and pA of the matching entry, and with
them every fact cached on the ring (Gaussian, arithmetical, local, ...).
pB depends on B and f, so each instance still validates its own pB and
the joint injectivity of (pA, pB) on the shared ring.  The memo holds the
last `MEMO_RINGS` rings, and a shared ring keeps the label of the instance
that built it, so readers name an instance by `inst.label`.  A ring holds
no element names: `expressions.Evaluator.element_names` spells an
instance's (a, f(a) + j) pairs through its own pA and pB.

`PREDICATES` names every side condition and conclusion that the clauses
and worked examples read; each "{role} {fact}" name, such as "f(A) + J
Gaussian", reads `properties.RING_FACTS[fact]` on the ring `ROLES[role]`.
`holds(inst, name)` evaluates one on its first read and keeps the value in
`inst.facts`, so an instance computes only the facts some reader asks for,
each once.
"""
from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import InternalCheckError, MixedRingError
from .ideals import Ideal, _unique, ideal_product
from .properties import RING_FACTS, is_local
from .rings import (
    DEFAULT_SIZE_CAP,
    TABLE_DTYPE,
    FiniteRing,
    Proof,
    RingHom,
    _check_cap,
    hom_identity,
    pair_indices,
    pair_ring_tables,
)


@dataclass(eq=False, repr=False)
class AmalgamationInstance:
    """Bundle (A, B, f, J); the ring, pA and pB are built and proved on their
    first read."""

    base: FiniteRing
    target: FiniteRing
    f: RingHom
    j: Ideal
    label: str
    # jpos, jadd, jmul, fj of `amalgamate`: J positions, checked closed
    j_tables: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    facts: dict[str, bool] = field(default_factory=dict)  # PREDICATES values read so far, by name
    memo: RingMemo | None = None  # rings shared with other instances of one pass

    @cached_property
    def _proved(self) -> tuple[FiniteRing, RingHom, RingHom]:
        """The ring from its tables, proved by pA and pB; with a memo, the ring
        and pA of an earlier instance with the same key, proved again by this
        instance's own pB."""
        base, target, jlist = self.base, self.target, self.j.indices
        jpos, jadd, jmul, fj = self.j_tables
        na, nj = base.size, len(jlist)
        ia = np.repeat(np.arange(na), nj)
        second = target.add[self.f.map[ia], np.tile(jlist, na)]
        key = (base, jadd.tobytes(), jmul.tobytes(), fj.tobytes())
        shared = None if self.memo is None else self.memo.get(key)
        if shared is not None:
            ring, to_base = shared
            proof = Proof(out_of=(to_base, (target, second, "pB")))
            ring._prove(proof, self.label)
            return ring, to_base, proof.homs[1]
        tables = pair_ring_tables(base, jadd, jpos[target.neg[jlist]], jpos[target.zero], fj, jmul)
        proof = Proof(out_of=((base, ia, "pA"), (target, second, "pB")))
        ring = FiniteRing(*tables, self.label, proof)
        to_base, to_target = proof.homs
        if self.memo is not None:
            self.memo.put(key, (ring, to_base))
        return ring, to_base, to_target

    @property
    def ring(self) -> FiniteRing:
        return self._proved[0]

    @property
    def to_base(self) -> RingHom:
        return self._proved[1]

    @property
    def to_target(self) -> RingHom:
        return self._proved[2]

    @cached_property
    def fimage_plus_j(self) -> FiniteRing:
        """The subring f(A) + J of the target, built once per instance."""
        return f_image_plus_j(self.target, self.f, self.j)[0]

    def __repr__(self) -> str:
        return f"AmalgamationInstance({self.label}, |R|={self.base.size * len(self.j)})"


# Rings a `RingMemo` keeps.  Unbounded, a memo keeps every R of a pass alive
# (the full `amalgam suite` then peaked at about twice its memory); 16 rings
# still catch every repeat in cor-2.3's population, where repeats are
# adjacent, and about 87% of those over the catalog's specs.
MEMO_RINGS = 16


class RingMemo:
    """The proved rings of one pass, keyed by what R's tables depend on: the
    base ring and the J-position tables jadd, jmul and fj.  A bounded LRU of
    (ring, pA) entries; `hits` and `builds` count its lookups.  A
    shared ring's label belongs to the instance that built it."""

    def __init__(self) -> None:
        self._entries: OrderedDict[tuple, tuple[FiniteRing, RingHom]] = OrderedDict()
        self.hits = self.builds = 0

    def get(self, key: tuple) -> tuple[FiniteRing, RingHom] | None:
        entry = self._entries.get(key)
        if entry is None:
            self.builds += 1
        else:
            self.hits += 1
            self._entries.move_to_end(key)
        return entry

    def put(self, key: tuple, entry: tuple[FiniteRing, RingHom]) -> None:
        self._entries[key] = entry
        if len(self._entries) > MEMO_RINGS:
            self._entries.popitem(last=False)


def amalgamate(
    base: FiniteRing,
    target: FiniteRing,
    f: RingHom,
    j: Ideal,
    size_cap: int = DEFAULT_SIZE_CAP,
) -> AmalgamationInstance:
    """base |><|^f j from a validated hom and an ideal of the target, named
    by `instance_label`.  The size cap and the closure of J are checked here;
    the ring is built on the instance's first read of it."""
    if f.source is not base or f.target is not target:
        raise MixedRingError("amalgamate: hom endpoints do not match the given rings")
    if j.ring is not target:
        raise MixedRingError("amalgamate: ideal does not live in the target ring")
    nj = len(j)
    _check_cap(base.size * nj, size_cap, "amalgamation")

    jlist = j.indices
    jpos = np.full(target.size, -1, dtype=np.int32)
    jpos[jlist] = np.arange(nj, dtype=np.int32)
    # J positions of j1 + j2, j1 * j2 and f(a) * j
    rows = jlist[:, None]
    jadd = jpos[target.add[rows, jlist]]
    jmul = jpos[target.mul[rows, jlist]]
    fj = jpos[target.mul[f.map[:, None], jlist]]
    if jadd.min() < 0 or jmul.min() < 0 or fj.min() < 0:
        raise InternalCheckError("ideal not closed under the amalgamation rule")
    return AmalgamationInstance(base, target, f, j, instance_label(base, target, f, j), (jpos, jadd, jmul, fj))


def instance_label(base: FiniteRing, target: FiniteRing, f: RingHom, j: Ideal) -> str:
    """dup(A;gens) when f is the identity of A, else amalg(A,B,f;gens)."""
    gens = ",".join(str(g) for g in j.generators())
    if f.is_identity:
        return f"dup({base.label};{gens})"
    return f"amalg({base.label},{target.label},{f.label or 'hom'};{gens})"


def duplication(ring: FiniteRing, ideal: Ideal, size_cap: int = DEFAULT_SIZE_CAP) -> AmalgamationInstance:
    """Amalgamated duplication: base = target, f = identity, J = the ideal."""
    return amalgamate(ring, ring, hom_identity(ring), ideal, size_cap)


def f_image_plus_j(target: FiniteRing, f: RingHom, j: Ideal) -> tuple[FiniteRing, RingHom]:
    """The subring f(A) + J of the target, with its inclusion map, whose proof
    checks the carrier's closure; the target, with its identity, when it is all."""
    if f.target is not target or j.ring is not target:
        raise MixedRingError("f_image_plus_j: mismatched rings")
    img = _unique(target.size, f.map)
    carrier = _unique(target.size, target.add[np.ix_(img, j.indices)])
    if carrier.size == target.size:
        return target, hom_identity(target)
    # positions in the carrier, gathered straight into the subring's tables
    pos = np.zeros(target.size, dtype=TABLE_DTYPE)
    pos[carrier] = np.arange(carrier.size)
    pairs = np.ix_(carrier, carrier)
    sadd, smul, sneg = pos[target.add[pairs]], pos[target.mul[pairs]], pos[target.neg[carrier]]
    label = f"subring(fimage+J;{target.label})"
    proof = Proof(out_of=((target, carrier, "incl"),))
    sub = FiniteRing(carrier.size, sadd, smul, sneg, int(pos[target.zero]), int(pos[target.one]), label, proof)
    return sub, proof.homs[0]


def _maximal_squares_to_zero(inst: AmalgamationInstance) -> bool:
    m = is_local(inst.base)
    return m is not None and ideal_product(m, m).is_zero


def _j_squares_to_zero(inst: AmalgamationInstance) -> bool:
    """J^2 = 0, read off the J product table: J^2 is the additive closure of
    the products j1 j2, so it is zero iff every entry of jmul is the position
    of zero."""
    jpos, _, jmul, _ = inst.j_tables
    return bool((jmul == jpos[inst.target.zero]).all())


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


# The four rings of an instance that a ring fact is read on: A, B, R, f(A) + J.
ROLES: dict[str, Callable[[AmalgamationInstance], FiniteRing]] = {
    "base ring": lambda i: i.base,
    "target ring": lambda i: i.target,
    "amalgamation": lambda i: i.ring,
    "f(A) + J": lambda i: i.fimage_plus_j,
}

# Every side condition and conclusion a clause or worked example reads, by
# the name the example reports print; "amalgamation" and R both name the
# constructed ring.  A "{role} {fact}" entry looks both tables up when read.
# Each is computed on its first read through `holds`; a negated name reads
# its positive name.  B is finite, so its Jacobson radical is its
# nilradical, read off the nilpotent mask, and "J inside Nilp(B)" is
# "J inside Rad(B)".
PREDICATES: dict[str, Callable[[AmalgamationInstance], bool]] = {
    **{f"{role} {fact}": lambda i, role=role, fact=fact: RING_FACTS[fact](ROLES[role](i))
       for role in ROLES for fact in RING_FACTS},
    "instance is a duplication": lambda i: i.f.is_identity,
    "base ring local and not a field": lambda i: holds(i, "base ring local") and holds(i, "base ring not a field"),
    "base ring not a field": lambda i: not holds(i, "base ring field"),
    "base ring not arithmetical": lambda i: not holds(i, "base ring arithmetical"),
    "base ring not Gaussian": lambda i: not holds(i, "base ring Gaussian"),
    "maximal ideal squares to zero": _maximal_squares_to_zero,
    "f injective": lambda i: i.f.is_injective,
    "f not injective": lambda i: not holds(i, "f injective"),
    "f(A) meets J only in zero": lambda i: int(i.j.mask[_unique(i.target.size, i.f.map)].sum()) == 1,
    "f(A) meets J beyond zero": lambda i: not holds(i, "f(A) meets J only in zero"),
    "f(A) + J is the whole target": lambda i: i.fimage_plus_j.size == i.target.size,
    "J proper": lambda i: i.j.is_proper,
    "J proper and nonzero": lambda i: holds(i, "J proper") and not i.j.is_zero,
    "I proper and nonzero": lambda i: holds(i, "J proper and nonzero"),
    "J inside Rad(B)": lambda i: bool(i.target.nilpotent_mask[i.j.indices].all()),
    "J inside Z(B)": lambda i: bool(i.target.zero_divisor_mask[i.j.indices].all()),
    "J inside Nilp(B)": lambda i: holds(i, "J inside Rad(B)"),
    "J meets Nilp(B) only in zero": lambda i: int(i.target.nilpotent_mask[i.j.indices].sum()) == 1,
    "J meets Nilp(B) beyond zero": lambda i: not holds(i, "J meets Nilp(B) only in zero"),
    "J^2 = 0": _j_squares_to_zero,
    "J^2 nonzero": lambda i: not holds(i, "J^2 = 0"),
    "I^2 nonzero": lambda i: holds(i, "J^2 nonzero"),
    "f(a)J = f(a)^2 J on m": _fa_j_stable,
    "amalgamation local total quotient ring": (
        lambda i: holds(i, "amalgamation local") and holds(i, "amalgamation total quotient ring")
    ),
    "maximal ideal of R is m |><| J": _maximal_is_m_times_j,
    "pB maps R bijectively onto f(A) + J": (
        lambda i: _unique(i.target.size, i.to_target.map).size == i.ring.size == i.fimage_plus_j.size
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
