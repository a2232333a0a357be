"""Ideal arithmetic and ideal-lattice enumeration for finite commutative rings.

An ideal is stored as a read-only membership mask over the ring's index
carrier, with its sorted indices and member set.  The ideal arithmetic wraps
the masks it computes (`Ideal._from_mask`); `Ideal(ring, members)` validates
input from outside, so an `Ideal` in hand is always a real ideal of its ring.
Enumeration of the full lattice is the superlinear hot spot, so it runs once
per ring (`FiniteRing.ideal_lattice`) under one fixed guard,
`MAX_LATTICE_SIZE` elements and `MAX_IDEALS` ideals.  The lattice is held as
one sorted bool matrix, a row per ideal; `Ideal` objects are built from its
rows only for callers that iterate (`all_ideals`) and for the three ideals
of a distributivity witness.  A ring is enumerated as the product of its
local factors' lattices, each factor closed under joins in whole-frontier
rounds under a budget of `MAX_IDEALS` over the ideals so far.  The counts
multiply, so this one budget is an exact guard: it refuses the rings with
more than `MAX_IDEALS` ideals and no others, whatever the enumeration
order, and a factor stops within one row block of overrunning it.  The
radicals work elementwise and need no guard.
"""
from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

import numpy as np

from .errors import CapExceededError, MixedRingError, NotAnIdealError

if TYPE_CHECKING:  # pragma: no cover
    from .rings import FiniteRing

MAX_LATTICE_SIZE = 256

# Refuse lattice enumeration past this many ideals, as soon as the
# enumeration has found more, so the refusal is exact and bounds the work.
# Rings with large square-zero socles have subspace-lattice blowups even at
# small carrier sizes.  No verdict needs the lattice: it serves catalog
# construction, cor-2.3 and the distributivity witness of `property_report`,
# while the arithmetical cross-check certifies each local factor of every
# ring without it.
MAX_IDEALS = 128


class Ideal:
    """An ideal of a finite commutative ring, given by its member set.

    `Ideal(ring, members)`, for input from outside the package, validates
    the members: in range, contains zero, closed under addition, negation,
    and multiplication by every ring element.
    """

    __slots__ = ("ring", "members", "indices", "mask", "_generators")

    def __init__(self, ring: FiniteRing, members: Iterable[int]):
        idx = np.asarray(members if isinstance(members, np.ndarray) else list(members), dtype=np.int64).ravel()
        if idx.size == 0 or idx.min() < 0 or idx.max() >= ring.size:
            raise NotAnIdealError(f"members out of range for ring of size {ring.size}")
        self._hold(ring, _distinct(ring, idx))
        self._validate()

    @classmethod
    def _from_mask(cls, ring: FiniteRing, mask: np.ndarray) -> Ideal:
        """The ideal whose mask is `mask`, a bool row over the carrier that the
        package computed as an ideal, made read-only and kept: no closure check."""
        ideal = cls.__new__(cls)
        ideal._hold(ring, mask)
        return ideal

    def _hold(self, ring: FiniteRing, mask: np.ndarray) -> None:
        self.ring = ring
        mask.flags.writeable = False
        self.mask = mask
        self.indices = np.flatnonzero(mask)
        self.indices.flags.writeable = False
        self.members = frozenset(self.indices.tolist())
        self._generators = None

    def _validate(self) -> None:
        ring, idx, mask = self.ring, self.indices, self.mask
        if not mask[ring.zero]:
            raise NotAnIdealError("ideal must contain zero")
        if not mask[ring.neg[idx]].all():
            raise NotAnIdealError("member set not closed under negation")
        if not mask[ring.add[np.ix_(idx, idx)]].all():
            raise NotAnIdealError("member set not closed under addition")
        if not mask[ring.mul[:, idx]].all():
            raise NotAnIdealError("member set not closed under ring multiplication")

    # -- basic queries ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, index: int) -> bool:
        return index in self.members

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Ideal):
            return NotImplemented
        return self.ring is other.ring and self.members == other.members

    def __hash__(self) -> int:
        return hash((id(self.ring), self.members))

    def __le__(self, other: Ideal) -> bool:
        _check_same_ring(self, other)
        return self.members <= other.members

    def __repr__(self) -> str:
        return f"Ideal({self.ring.label}, {format_members(self.members)})"

    @property
    def is_proper(self) -> bool:
        return len(self.members) < self.ring.size

    @property
    def is_zero(self) -> bool:
        return self.members == {self.ring.zero}

    @property
    def is_whole(self) -> bool:
        return len(self.members) == self.ring.size

    def generators(self) -> tuple[int, ...]:
        """Canonical generating set: greedy over ascending member indices.

        The span of the generators so far grows by one principal ideal at a
        time: (g1, ..., gk, x) = (g1, ..., gk) + (x), a sum of two ideals.
        """
        if self._generators is not None:
            return self._generators
        ring = self.ring
        span = np.zeros(ring.size, dtype=bool)
        span[ring.zero] = True
        gens: list[int] = []
        for x in self.indices.tolist():
            if not span[x]:
                gens.append(x)
                span[ring.add[np.flatnonzero(span)[:, None], np.flatnonzero(_distinct(ring, ring.mul[x]))]] = True
        self._generators = tuple(gens)
        return self._generators


def format_members(members: frozenset[int]) -> str:
    return "{" + ",".join(str(i) for i in sorted(members)) + "}"


def _check_same_ring(a: Ideal, b: Ideal) -> None:
    if a.ring is not b.ring:
        raise MixedRingError("ideals belong to different rings")


def _distinct(ring: FiniteRing, values: np.ndarray) -> np.ndarray:
    """The membership mask of the carrier indices among `values` (a scatter, not a sort)."""
    mask = np.zeros(ring.size, dtype=bool)
    mask[values] = True
    return mask


def _additive_closure(ring: FiniteRing, seed: np.ndarray) -> np.ndarray:
    """Close a set (holding zero, closed under negation and ring action) under +, as a mask.

    Reads only `.add` and `.size`, so a module's submodules close the same way.
    """
    mask = _distinct(ring, seed)
    while True:
        cur = np.flatnonzero(mask)
        mask = _distinct(ring, ring.add[cur[:, None], cur])
        if np.count_nonzero(mask) == cur.size:
            return mask


def ideal_generated(ring: FiniteRing, gens: Iterable[int]) -> Ideal:
    """Smallest ideal containing `gens`.

    Computed as the additive closure of the set of ring multiples of the
    generators; that set is already closed under the ring action.  Raises
    NotAnIdealError on a generator index outside the ring.
    """
    gens = [int(g) for g in gens]
    for g in gens:
        if not 0 <= g < ring.size:
            raise NotAnIdealError(f"generator index {g} out of range for {ring.label} (size {ring.size})")
    seed = np.concatenate([ring.mul[:, sorted(set(gens))].ravel(), [ring.zero]])
    return Ideal._from_mask(ring, _additive_closure(ring, seed))


def principal_ideal(ring: FiniteRing, x: int) -> Ideal:
    """The ideal of multiples of x (no closure pass needed)."""
    return Ideal._from_mask(ring, _distinct(ring, ring.mul[:, x]))


def ideal_sum(left: Ideal, right: Ideal) -> Ideal:
    _check_same_ring(left, right)
    ring = left.ring
    return Ideal._from_mask(ring, _distinct(ring, ring.add[left.indices[:, None], right.indices]))


def ideal_product(left: Ideal, right: Ideal) -> Ideal:
    _check_same_ring(left, right)
    ring = left.ring
    prods = ring.mul[left.indices[:, None], right.indices].ravel()
    return Ideal._from_mask(ring, _additive_closure(ring, prods))


def ideal_intersect(left: Ideal, right: Ideal) -> Ideal:
    _check_same_ring(left, right)
    return Ideal._from_mask(left.ring, left.mask & right.mask)


def _local_ideals(factor: FiniteRing, budget: int, refusal: str) -> np.ndarray:
    """Every ideal of a local factor as bool rows, unsorted; refuses past
    `budget` with a CapExceededError saying `refusal`.

    Every ideal is a sum of principal ideals, so the distinct rows of
    `principal_membership` are closed under joins with them, in
    whole-frontier rounds: each ideal I found in one round is joined with
    every principal ideal (g) in the next.  With c[y] = min(y + I), y lies
    in I + (g) iff hit[c[y], g], hit marking the cosets met by (g).  A round
    takes the cosets of a block of ideals by one `np.minimum.reduceat` over
    the rows of `add` at their members, then marks and reads back hit for
    every (ideal, principal ideal) pair with flat int32 indices; ideals are
    keyed by their packed masks.  A block's uint16 rows of `add` at its
    members and its bool hit rows fit one `_row_blocks` block at 2 bytes an
    entry.
    """
    from .rings import _row_blocks  # rings imports this module

    n = factor.size
    found: dict[bytes, None] = {}

    def admit(masks: np.ndarray) -> np.ndarray:
        packed = np.ascontiguousarray(np.packbits(masks, axis=1))
        new = []
        for row, key in enumerate(packed.view(np.dtype((np.void, packed.shape[1]))).ravel().tolist()):
            if key not in found:
                found[key] = None
                new.append(row)
        if len(found) > budget:
            raise CapExceededError(refusal)
        return masks[new]

    frontier = admit(factor.principal_membership)
    n_gens = len(frontier)
    gen_rows, gen_members = (positions.astype(np.int32) for positions in np.nonzero(frontier))
    while len(frontier):
        found_now = []
        for start, stop in _row_blocks(len(frontier), 2 * n * max(n_gens, int(frontier.sum(axis=1).max()))):
            owners, members = np.nonzero(frontier[start:stop])
            starts = np.flatnonzero(np.diff(owners, prepend=-1))
            coset = np.minimum.reduceat(factor.add[members], starts, axis=0)
            # hit[(i, c), g]: ideal i of the block, coset c of i, principal ideal g
            row_offsets = np.arange(0, (stop - start) * n, n, dtype=np.int32)[:, None]
            hit = np.zeros(((stop - start) * n, n_gens), dtype=bool)
            hit.ravel()[(row_offsets + coset[:, gen_members]) * n_gens + gen_rows] = True
            joins = hit[(row_offsets + coset).ravel()].reshape(stop - start, n, n_gens)
            found_now.append(admit(joins.transpose(0, 2, 1).reshape(-1, n)))
        frontier = np.concatenate(found_now)
    packed = np.frombuffer(b"".join(found), dtype=np.uint8).reshape(len(found), -1)
    return np.unpackbits(packed, axis=1, count=n).view(bool)


def enumerate_ideals(ring: FiniteRing, max_ideals: int = MAX_IDEALS) -> np.ndarray:
    """Every ideal of the ring as one read-only bool matrix, a membership row
    per ideal, sorted by size then membership; uncached.

    The lattice of a finite ring is the product of its local factors'
    lattices, so each factor's ideals (`_local_ideals`) are pulled back
    along its projection map and ANDed with every row found so far; a local ring is
    its own single factor, the zero ring has none.  Rows are sorted by
    size, then by packed mask bytes descending: of two equal-size member
    lists the lexicographically smaller is the one holding the least
    element of their symmetric difference, i.e. the one whose mask has the
    first set bit where they differ.  Refuses carriers above
    `MAX_LATTICE_SIZE`, and rings with more than `max_ideals` ideals,
    whatever the enumeration order: each factor is closed under a budget of
    `max_ideals // (ideals so far)`, which it overruns exactly when the ring
    has more than `max_ideals` ideals, as the counts multiply.  Callers want
    `all_ideals`, which enumerates each ring once under the fixed guard.
    """
    if ring.size > MAX_LATTICE_SIZE:
        raise CapExceededError(
            f"ideal lattice enumeration needs |ring| <= {MAX_LATTICE_SIZE}, got {ring.size}"
        )
    # a message, not an exception object: an exception kept in a local of a
    # frame on its own traceback would tie that frame, and the ring, in a cycle
    refusal = f"{ring.label} has more than {max_ideals} ideals"
    n = ring.size
    lattice = np.ones((1, n), dtype=bool)
    for factor, proj_map in ring.local_factor_maps():
        pulled = _local_ideals(factor, max_ideals // len(lattice), refusal)[:, proj_map]
        lattice = (lattice[:, None, :] & pulled[None, :, :]).reshape(-1, n)
    packed = np.packbits(lattice, axis=1)
    # lexsort's last key is the primary one: size ascending, then bytes 0, 1, ... descending
    lattice = lattice[np.lexsort((*(~packed).T[::-1], lattice.sum(axis=1)))]
    lattice.flags.writeable = False
    return lattice


def _lattice_matrix(ring: FiniteRing) -> np.ndarray:
    """The ring's cached ideal lattice matrix (`enumerate_ideals`).

    Raises CapExceededError when the ring is past the fixed enumeration
    guard.
    """
    lattice = ring.ideal_lattice
    if isinstance(lattice, str):
        raise CapExceededError(lattice)
    return lattice


def all_ideals(ring: FiniteRing) -> list[Ideal]:
    """Every ideal of the ring, sorted by size then membership, built from
    the rows of `_lattice_matrix`.

    Raises CapExceededError when the ring is past the fixed enumeration
    guard (see `enumerate_ideals`).
    """
    return [Ideal._from_mask(ring, row) for row in _lattice_matrix(ring)]


def maximal_ideals(ring: FiniteRing) -> list[Ideal]:
    """Maximal ideals, one per local factor, built afresh on each call from the
    masks the ring keeps (`FiniteRing.maximal_masks`)."""
    return [Ideal._from_mask(ring, mask) for mask in ring.maximal_masks]


def lattice_order(ring: FiniteRing) -> tuple[np.ndarray, np.ndarray]:
    """Containment and join over the size-sorted rows of `_lattice_matrix`:
    contains[i, j] iff ideal i lies in ideal j, and join[i, j], the row of
    their sum, is the first ideal containing both."""
    members = _lattice_matrix(ring).astype(np.float32)  # counts <= 256 are exact
    contains = (members @ (1 - members).T) == 0
    return contains, (contains[:, None, :] & contains[None, :, :]).argmax(axis=2)


def is_distributive_lattice(ring: FiniteRing) -> tuple[bool, tuple[Ideal, Ideal, Ideal] | None]:
    """Check I /\\ (J + K) == (I /\\ J) + (I /\\ K) over all ideal triples.

    Returns (True, None) or (False, witness_triple), the witness being the
    first failing triple in the canonical lattice order.  Joins and meets
    are read off `lattice_order`, the meet of two ideals being the last one
    contained in both; the meet row of I is built only when the scan
    reaches I.  `Ideal` objects are built for the three witness ideals only.
    """
    lattice = _lattice_matrix(ring)
    n = len(lattice)
    contains, join = lattice_order(ring)
    below = contains.T
    for i in range(n):
        meet = n - 1 - (below[i] & below)[:, ::-1].argmax(axis=1)
        lhs = meet[join]
        rhs = join[np.ix_(meet, meet)]
        bad = np.argwhere(lhs != rhs)
        if bad.size:
            j, k = (int(v) for v in bad[0])
            return False, tuple(Ideal._from_mask(ring, lattice[x]) for x in (i, j, k))
    return True, None
