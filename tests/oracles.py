"""Test oracles for facts `src/` computes another way, or not at all.

`is_chain_ring` decides the chain condition on a whole ring from every pair
of principal ideals; `properties.is_arithmetical` decides it per local
factor and certifies each answer.  `distinguished_ideals`,
`amalg_max_ideals` and `product_embedding_check` check an amalgamation's
distinguished ideals, maximal ideals and tables against its base and
target rings.  `jacobson_radical` intersects the maximal ideals and
`nilradical` collects the nilpotents; `amalgamation.PREDICATES` reads
Rad(B) off the nilpotent mask (the two agree on a finite ring, which is
Artinian).  `set_side_conditions` computes four side conditions of
`amalgamation.PREDICATES` with Python sets, where the package compares
masks.
"""
import numpy as np

from amalgam.amalgamation import AmalgamationInstance
from amalgam.errors import InternalCheckError, NotLocalError
from amalgam.ideals import Ideal, maximal_ideals
from amalgam.properties import is_local
from amalgam.rings import DEFAULT_SIZE_CAP, FiniteRing, RingHom, pair_indices, product, quotient


def is_chain_ring(ring: FiniteRing) -> bool:
    """Ideals totally ordered; equivalently a in <b> or b in <a> for all pairs."""
    in_principal = ring.principal_membership
    return bool((in_principal | in_principal.T).all())


def jacobson_radical(ring: FiniteRing) -> Ideal:
    """Intersection of the maximal ideals (the whole ring if there are none)."""
    mask = np.ones(ring.size, dtype=bool)
    for m in maximal_ideals(ring):
        mask &= m.mask
    return Ideal._from_mask(ring, mask)


def nilradical(ring: FiniteRing) -> Ideal:
    return Ideal._from_mask(ring, ring.nilpotent_mask)


def set_side_conditions(inst: AmalgamationInstance) -> dict[str, bool]:
    """Four side conditions from member sets, one element of m at a time."""
    target, f, j = inst.target, inst.f, inst.j
    m = is_local(inst.base)
    fa_j_stable = m is not None
    for a in m.indices if m is not None else ():
        fa = int(f.map[a])
        fa2 = int(target.mul[fa, fa])
        if set(int(v) for v in target.mul[fa, j.indices]) != set(int(v) for v in target.mul[fa2, j.indices]):
            fa_j_stable = False
            break
    image = frozenset(int(v) for v in np.unique(f.map))
    nil = nilradical(target).members
    return {
        "f(a)J = f(a)^2 J on m": fa_j_stable,
        "J inside Rad(B)": j.members <= jacobson_radical(target).members,
        "f(A) meets J only in zero": (image & j.members) == {target.zero},
        "J meets Nilp(B) only in zero": (j.members & nil) == {target.zero},
    }


def distinguished_ideals(inst: AmalgamationInstance) -> tuple[Ideal, Ideal]:
    """({0} x J, m |><| J) for local base, with the factor-ring cross-check.

    The quotient by {0} x J must be canonically isomorphic to the base via
    the map induced by pA (first-isomorphism check, no isomorphism search).
    """
    m = is_local(inst.base)
    if m is None:
        raise NotLocalError(f"base ring {inst.base.label} is not local")
    m_join_j = Ideal(inst.ring, pair_indices(m.indices, len(inst.j)))

    quot, proj = quotient(inst.ring, inst.zero_j)
    induced = np.full(quot.size, -1, dtype=np.int64)
    induced[proj.map] = inst.to_base.map
    if not (induced[proj.map] == inst.to_base.map).all():
        raise InternalCheckError("pA does not factor through the quotient by {0} x J")
    iso = RingHom(quot, inst.base, induced, label=None)
    if np.unique(iso.map).size != inst.base.size or quot.size != inst.base.size:
        raise InternalCheckError("induced map to the base is not bijective")
    return inst.zero_j, m_join_j


def amalg_max_ideals(inst: AmalgamationInstance) -> list[Ideal]:
    """Maximal ideals of the amalgamation, cross-checked against the
    classification {m |><| J : m max in A} union {pullbacks of max Q in B
    not containing J}; a mismatch is a hard error."""
    ring = inst.ring
    direct = {frozenset(m.members) for m in maximal_ideals(ring)}

    expected: set[frozenset[int]] = set()
    for m in maximal_ideals(inst.base):
        expected.add(frozenset(int(v) for v in pair_indices(m.indices, len(inst.j))))
    for q in maximal_ideals(inst.target):
        if not inst.j.members <= q.members:
            pulled = np.nonzero(q.mask[inst.to_target.map])[0]
            expected.add(frozenset(int(v) for v in pulled))

    if direct != expected:
        raise InternalCheckError(
            f"maximal ideals of {inst.label} do not match the amalgamation classification"
        )
    out = [Ideal(ring, members) for members in direct]
    out.sort(key=lambda ide: (len(ide.members), tuple(sorted(ide.members))))
    return out


def product_embedding_check(inst: AmalgamationInstance, size_cap: int = DEFAULT_SIZE_CAP) -> bool:
    """Materialize A x B and verify the instance tables under the embedding.

    Test oracle for the direct-formula construction; quadratic in |A|*|B|,
    so meant for small instances.
    """
    prod = product(inst.base, inst.target, size_cap)
    phi = inst.to_base.map.astype(np.int64) * inst.target.size + inst.to_target.map
    if np.unique(phi).size != inst.ring.size:
        return False
    if not (prod.add[np.ix_(phi, phi)] == phi[inst.ring.add]).all():
        return False
    if not (prod.mul[np.ix_(phi, phi)] == phi[inst.ring.mul]).all():
        return False
    expected = set()
    nj = len(inst.j)
    for a in range(inst.base.size):
        fa = int(inst.f.map[a])
        for jp in range(nj):
            expected.add(a * inst.target.size + int(inst.target.add[fa, inst.j.indices[jp]]))
    return expected == set(int(v) for v in phi)
