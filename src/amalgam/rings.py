"""Finite commutative unital rings as explicit operation tables.

A ring of size n lives on the index carrier 0..n-1 with dense numpy tables
for + and *, a negation table, and distinguished zero/one indices.  Tables
make every checker in the package an exhaustive (and vectorizable) loop.
An element is its index: a ring holds no element names, and
`expressions.Evaluator.element_names` spells them from the expression
that built the ring (`tpa_names` for a `tpa`).
Every ring and module table holds carrier indices in `TABLE_DTYPE`
(uint16, 2 bytes an entry), so a 4,096-element ring's two tables take
32 MB each and no carrier can pass `MAX_TABLE_SIZE` = 65,536 elements.
Arithmetic on table entries that can leave the carrier, such as the flat
index x * n + y, is done in int64: NumPy keeps `uint16 * int` in uint16
and wraps it silently.

Constructors refuse carriers above a configurable size cap, and always
above `MAX_TABLE_SIZE`, before they allocate anything.  Every constructed
ring has its table ranges, zero, one and negation checked.  The ring of
`product`, `quotient`, `amalgamation.amalgamate`/`duplication` or
`f_image_plus_j` then rests on a `Proof`, the ring homs deriving it from
accepted rings, which imply its identities and commutativity as well.
Only `zmod`, `truncated_poly_algebra` and `modules.trivial_extension` (and
raw tables) get the O(n^2) identity and commutativity screen and a
fixed-seed sample of the O(n^3) axioms, drawn once per carrier size and
gathered from the flattened tables (every triple, in one vectorised pass,
up to n = 16).  `FiniteRing.validate` runs the full exhaustive check.

Work that sweeps all n^2 pairs of a table (the pair-table, zmod, tpa and
resfield builders, hom validation, principal membership, the cosets of a
quotient, the Gaussian pair check and the chain certificates), the ideal
layer's sums, products and closures (`ideals._table_mask`), and the
lattice rounds and join run over row blocks of about `_BLOCK_BYTES` =
512 KiB, so its memory is O(output + block) rather than a handful of
n x n (or L x L x L, for L ideals) temporaries; every pair is still
checked.  Each caller passes `_row_blocks` what one row costs in its
widest temporary: 8 bytes an entry for int64 indices, 4 for zmod's uint32
rows, 2 for table rows, 1 for bool rows.  So on a ring of at most 256
elements every kernel runs in one block but the lattice rounds, which
keep blocks of 2^18 entries, and the join of a lattice of more than 80
ideals, whose rows cost L^2 bytes; example 2.4's 2,048-element instance
builds within 1.6 MiB of its two 8 MiB tables.  A hom of at least
`_IMAGE_ROWS_MIN_SIZE` source elements whose target rows at the distinct
images fit one block is checked against those rows, gathered once per op,
instead of gathering target rows per block; a mismatch re-runs the
row-major scan, which names the same witness.
Commutativity compares each table with its transpose one pair
of `_TILE`-wide square tiles at a time, which keeps both tiles in cache.

No cached value of a ring refers back to it: `local_factors` keeps the
proper factors and their projection maps and `maximal_masks` the masks,
which callers read as pairs (`local_factor_maps`) or as ideals wrapped
afresh (`ideals.maximal_ideals`).  So a ring sits in no reference cycle and
is freed by its refcount once its last user drops it.  Every `RingHom` is
validated when it is made.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    CapExceededError,
    HomomorphismError,
    InternalCheckError,
    MixedRingError,
    StructureError,
)
from .ideals import Ideal, _distinct, _unique, enumerate_ideals, ideal_generated

DEFAULT_SIZE_CAP = 4096
# dtype of every ring and module table; it indexes carriers of up to MAX_TABLE_SIZE elements
TABLE_DTYPE = np.uint16
MAX_TABLE_SIZE = 1 << 16

# Full O(n^3) axiom verification is quadratic-memory-free but still cubic
# time; above this carrier size `validate` falls back to a fixed-seed sample.
EXHAUSTIVE_AXIOM_THRESHOLD = 512
AXIOM_SAMPLE_COUNT = 65536
# lighter screen applied at every construction
CONSTRUCTION_SAMPLE_COUNT = 4096
# bytes per temporary in row-blocked table work (see `_row_blocks`): one
# int64 temporary of a 256 x 256 table
_BLOCK_BYTES = 1 << 19
# side of the square tiles in which `_is_symmetric` compares a table with its transpose
_TILE = 128
# `RingHom._validate` gathers the target's rows at the distinct images once
# per op when the source has at least this many elements and those rows
# fit one block; on smaller rings finding the distinct images costs about
# what it saves
_IMAGE_ROWS_MIN_SIZE = 256


def _row_blocks(rows: int, row_bytes: int):
    """(start, stop) slices of 0..rows-1 holding about `_BLOCK_BYTES`, where
    one row costs `row_bytes` in the caller's widest temporary; at least one
    row per block."""
    step = max(1, _BLOCK_BYTES // max(row_bytes, 1))
    for start in range(0, rows, step):
        yield start, min(rows, start + step)


def _is_symmetric(table: np.ndarray) -> bool:
    """table == table.T, compared one pair of `_TILE`-wide square tiles at a
    time so that both tiles stay in cache while the transposed one is read."""
    n = table.shape[0]
    for i in range(0, n, _TILE):
        for j in range(i, n, _TILE):
            if not (table[i : i + _TILE, j : j + _TILE] == table[j : j + _TILE, i : i + _TILE].T).all():
                return False
    return True


@functools.lru_cache(maxsize=32)
def _sample_triples(n: int, count: int) -> np.ndarray:
    """The fixed-seed triples (a, b, c) the sampled axiom screen checks on a
    carrier of n elements: `default_rng(0).integers(0, n, size=(3, count))`,
    drawn once per (n, count) and kept read-only in int32, which holds any
    index below `MAX_TABLE_SIZE`; the screen forms each flat index x * n + y
    in int64.  A pure function
    of its arguments with a read-only result, so the process-wide memo of
    32 entries (at most 1.5 MB at the construction sample count) cannot leak
    state between callers."""
    triples = np.random.default_rng(0).integers(0, n, size=(3, count)).astype(np.int32)
    triples.flags.writeable = False
    return triples


def _as_table(arr, shape, what: str) -> np.ndarray:
    """A read-only, C-contiguous `TABLE_DTYPE` copy or view of `arr`; entries
    of any other dtype are range-checked first, so none wraps in the cast."""
    table = np.asarray(arr)
    if table.dtype != TABLE_DTYPE:
        if table.size and (table.min() < 0 or table.max() >= MAX_TABLE_SIZE):
            raise StructureError(f"{what} table entries out of carrier range")
        table = table.astype(TABLE_DTYPE)
    table = np.ascontiguousarray(table)
    if table.shape != shape:
        raise StructureError(f"{what} table has shape {table.shape}, expected {shape}")
    table.flags.writeable = False
    return table


@dataclass
class Proof:
    """Index maps (other ring, index map, label) that make a derived ring a
    quotient (`onto`: one surjective) or a subring (`out_of`: jointly
    injective) of accepted rings; an `out_of` entry may instead be a hom
    out of the ring validated before.  `FiniteRing` validates the maps as
    ring homs and leaves them in `homs`, in that order; the ring keeps no
    reference."""

    onto: tuple = ()
    out_of: tuple = ()
    homs: tuple[RingHom, ...] = field(default=(), init=False)


class FiniteRing:
    """A finite commutative ring with explicit operation tables.

    Immutable after construction; all derived data (units, idempotents,
    local factorization, ...) is computed once and cached.
    """

    def __init__(
        self,
        size: int,
        add,
        mul,
        neg,
        zero: int,
        one: int,
        label: str,
        proof: Proof | None = None,
    ):
        if size < 1:
            raise StructureError("ring size must be >= 1")
        self.size = int(size)
        self.add = _as_table(add, (size, size), "addition")
        self.mul = _as_table(mul, (size, size), "multiplication")
        self.neg = _as_table(neg, (size,), "negation")
        self.zero = int(zero)
        self.one = int(one)
        self.label = label
        if proof is None:
            self._quick_check()
            self._check_cubic_axioms(sample=CONSTRUCTION_SAMPLE_COUNT)
        else:
            self._check_carrier()
            self._prove(proof)
            self._check_negation()

    # -- axiom checking ----------------------------------------------------

    def _check_carrier(self) -> None:
        """Table ranges and the zero and one indices, read before any other check
        (an entry out of range would reach it as an IndexError, not a ring error)."""
        n = self.size
        # the tables are unsigned (`_as_table`), so only the maximum can leave the carrier
        if max(int(self.add.max()), int(self.mul.max()), int(self.neg.max())) >= n:
            raise StructureError("table entries out of carrier range")
        if not 0 <= self.zero < n or not 0 <= self.one < n:
            raise StructureError("zero/one index out of range")
        if n > 1 and self.zero == self.one:
            raise StructureError("zero == one in a ring of size > 1")

    def _check_negation(self) -> None:
        """Negation, which a proof's homs do not imply: a proved ring reads it
        last, so tables its proof refuses are an internal error."""
        if not (self.add[np.arange(self.size), self.neg] == self.zero).all():
            raise StructureError("negation table is not an additive inverse")

    def _quick_check(self) -> None:
        """The O(n^2) screen: the carrier, negation, identities and commutativity."""
        self._check_carrier()
        self._check_negation()
        idx = np.arange(self.size)
        if not (self.add[self.zero] == idx).all():
            raise StructureError("zero is not an additive identity")
        if not (self.mul[self.one] == idx).all():
            raise StructureError("one is not a multiplicative identity")
        if not _is_symmetric(self.add):
            raise StructureError("addition is not commutative")
        if not _is_symmetric(self.mul):
            raise StructureError("multiplication is not commutative")

    def _prove(self, proof: Proof, label: str | None = None) -> None:
        """Carry the axioms over from accepted rings: along a hom onto this
        ring, or along homs that jointly embed it; an `out_of` entry may be a
        hom out of this ring validated before.  Both routes give the
        identities and commutativity as well: a surjective phi has
        add[phi x, phi y] = phi(x + y) = phi(y + x), and homs h_i with
        h_i(1) = 1 have h_i(mul[1, y]) = h_i(y) for every i, so joint
        injectivity gives mul[1, y] = y.  A failure is a bug, not bad input,
        reported under `label` (the ring's own by default)."""
        try:
            onto = [RingHom(source, self, m, tag) for source, m, tag in proof.onto]
            out_of = [h if isinstance(h, RingHom) else RingHom(self, *h) for h in proof.out_of]
        except HomomorphismError as exc:
            raise InternalCheckError(f"proof of {label or self.label} fails: {exc}") from exc
        joint = np.zeros(self.size, dtype=np.int64)
        for h in out_of:
            joint = joint * h.target.size + h.map
        # the joint codes run past any carrier, so their distinctness is read off a sort
        if not (any(h.is_surjective for h in onto) or (np.diff(np.sort(joint)) != 0).all()):
            raise InternalCheckError(f"proof of {label or self.label} fails: no map is onto it or jointly injective")
        proof.homs = (*onto, *out_of)

    def _check_cubic_axioms(self, sample: int | None) -> None:
        """Associativity of both operations and distributivity.

        Checks all n^3 triples when `sample` is None or at least n^3: in one
        vectorised pass up to CONSTRUCTION_SAMPLE_COUNT triples, else (or to
        name the first failure) sliced per first coordinate to keep memory
        linear.  Otherwise checks the `sample` fixed-seed triples of
        `_sample_triples`, gathered from the flattened tables.
        """
        n, add, mul = self.size, self.add, self.mul
        if sample is not None and n**3 > sample:
            a, b, c = _sample_triples(n, sample)
            add_flat, mul_flat = add.ravel(), mul.ravel()

            def at(x, y):  # flat position of (x, y), formed in int64
                return x.astype(np.int64) * n + y

            ab, bc, ac = at(a, b), at(b, c), at(a, c)
            add_bc, mul_ab = add_flat[bc], mul_flat[ab]
            if not (add_flat[at(add_flat[ab], c)] == add_flat[at(a, add_bc)]).all():
                raise StructureError("addition not associative (sampled)")
            if not (mul_flat[at(mul_ab, c)] == mul_flat[at(a, mul_flat[bc])]).all():
                raise StructureError("multiplication not associative (sampled)")
            if not (mul_flat[at(a, add_bc)] == add_flat[at(mul_ab, mul_flat[ac])]).all():
                raise StructureError("distributivity fails (sampled)")
            return
        if n**3 <= CONSTRUCTION_SAMPLE_COUNT and (
            (add[add] == add[:, add]).all()
            and (mul[mul] == mul[:, mul]).all()
            and (mul[:, add] == add[mul[:, :, None], mul[:, None, :]]).all()
        ):
            return
        for a in range(n):
            if not (add[add[a], :] == add[a][add]).all():
                bad = np.argwhere(add[add[a], :] != add[a][add])[0]
                raise StructureError(f"addition not associative at {(a, int(bad[0]), int(bad[1]))}")
            if not (mul[mul[a], :] == mul[a][mul]).all():
                bad = np.argwhere(mul[mul[a], :] != mul[a][mul])[0]
                raise StructureError(f"multiplication not associative at {(a, int(bad[0]), int(bad[1]))}")
            ma = mul[a]
            if not (ma[add] == add[np.ix_(ma, ma)]).all():
                bad = np.argwhere(ma[add] != add[np.ix_(ma, ma)])[0]
                raise StructureError(f"distributivity fails at {(a, int(bad[0]), int(bad[1]))}")

    def validate(self) -> None:
        """Re-verify all eight ring axioms from the tables alone, exhaustively up
        to EXHAUSTIVE_AXIOM_THRESHOLD elements; above it the cubic ones on a
        fixed-seed sample of AXIOM_SAMPLE_COUNT triples."""
        self._quick_check()
        self._check_cubic_axioms(sample=None if self.size <= EXHAUSTIVE_AXIOM_THRESHOLD else AXIOM_SAMPLE_COUNT)

    def same_tables(self, other: FiniteRing) -> bool:
        return (
            self.size == other.size
            and self.zero == other.zero
            and self.one == other.one
            and (self.add == other.add).all()
            and (self.mul == other.mul).all()
        )

    def __repr__(self) -> str:
        return f"FiniteRing({self.label}, size={self.size})"

    # -- cached structural data ----------------------------------------------

    def _rows_reaching(self, value: int, skip: int | None = None) -> np.ndarray:
        """mask[x] iff x * y == value for some y other than `skip`."""
        mask = np.empty(self.size, dtype=bool)
        for start, stop in _row_blocks(self.size, self.size):  # bool rows
            hit = self.mul[start:stop] == value
            if skip is not None:
                hit[:, skip] = False
            mask[start:stop] = hit.any(axis=1)
        mask.flags.writeable = False
        return mask

    @cached_property
    def units_mask(self) -> np.ndarray:
        return self._rows_reaching(self.one)

    @cached_property
    def zero_divisor_mask(self) -> np.ndarray:
        return self._rows_reaching(self.zero, skip=self.zero)

    @cached_property
    def nilpotent_mask(self) -> np.ndarray:
        # x is nilpotent iff x^(2^m) = 0 once 2^m >= n
        power = np.arange(self.size, dtype=np.int32)
        steps = max(1, int(np.ceil(np.log2(max(self.size, 2)))))
        for _ in range(steps):
            power = self.mul[power, power]
        mask = power == self.zero
        mask.flags.writeable = False
        return mask

    @cached_property
    def idempotent_list(self) -> tuple[int, ...]:
        diag = self.mul[np.arange(self.size), np.arange(self.size)]
        return tuple(int(i) for i in np.nonzero(diag == np.arange(self.size))[0])

    @cached_property
    def primitive_idempotent_list(self) -> tuple[int, ...]:
        """Minimal nonzero idempotents; they are orthogonal and sum to one."""
        idems = [e for e in self.idempotent_list if e != self.zero]
        prim = []
        for e in idems:
            if all(f == e or self.mul[e, f] != f for f in idems):
                prim.append(e)
        for e, f in itertools.combinations(prim, 2):
            if self.mul[e, f] != self.zero:
                raise InternalCheckError("primitive idempotents not orthogonal")
        total = self.zero
        for e in prim:
            total = int(self.add[total, e])
        if prim and total != self.one:
            raise InternalCheckError("primitive idempotents do not sum to one")
        if not prim and self.size > 1:
            raise InternalCheckError("nonzero ring without primitive idempotents")
        return tuple(prim)

    @cached_property
    def local_factors(self) -> tuple[tuple[FiniteRing, np.ndarray], ...] | None:
        """The proper local factor rings cut out by the primitive idempotents,
        each with the index map of its projection; None for a local ring,
        which is its own single factor, and () for the zero ring.

        Factor i is the quotient by <1 - e_i> (the annihilator of e_i), whose
        projection `quotient` validates once as a ring hom; the factor sizes
        multiply to |ring|.  Only the factors and maps are kept, never a hom
        or an ideal of this ring, so the cache holds no reference back to it
        (read the pairs through `local_factor_maps`).
        """
        if self.primitive_idempotent_list == (self.one,):
            return None
        factors = []
        total = 1
        for e in self.primitive_idempotent_list:
            one_minus_e = int(self.add[self.one, self.neg[e]])
            kernel = ideal_generated(self, [one_minus_e])
            fac, proj = quotient(self, kernel)
            if len(fac.idempotent_list) > (2 if fac.size > 1 else 1):
                raise InternalCheckError("local factor has nontrivial idempotents")
            factors.append((fac, proj.map))
            total *= fac.size
        if self.size > 1 and total != self.size:
            raise InternalCheckError("local factor sizes do not multiply to ring size")
        return tuple(factors)

    @property
    def is_local(self) -> bool:
        """Exactly one maximal ideal: the ring is its own single local factor."""
        return self.local_factors is None

    def local_factor_maps(self) -> tuple[tuple[FiniteRing, np.ndarray], ...]:
        """(factor, projection index map) per local factor, in factor order; a
        local ring is its own single factor under `np.arange`."""
        return ((self, np.arange(self.size)),) if self.is_local else self.local_factors

    @cached_property
    def maximal_masks(self) -> tuple[np.ndarray, ...]:
        """Membership masks of the maximal ideals, one per local factor, in
        factor order (`ideals.maximal_ideals` reads them as ideals).

        The maximal ideals of a finite commutative ring are the pullbacks of
        the non-units of its local factors, so no lattice enumeration runs.
        """
        if self.local_factors is None:
            masks = [~self.units_mask]
        else:
            masks = [~fac.units_mask[m] for fac, m in self.local_factors]
        for mask in masks:
            mask.flags.writeable = False
        return tuple(masks)

    @cached_property
    def ideal_lattice(self) -> np.ndarray | str:
        """Every ideal as one read-only bool matrix, a membership row per ideal
        in canonical order, enumerated once under the fixed guard as the product
        of the local factors' lattices (`ideals.enumerate_ideals`; read it via
        `ideals.all_ideals`); the guard's refusal message when it refuses."""
        try:
            return enumerate_ideals(self)
        except CapExceededError as exc:
            return str(exc)

    @cached_property
    def gaussian_result(self) -> tuple[bool, tuple[str, int, int] | None]:
        """`properties.gaussian_check`, computed once."""
        from .properties import _gaussian_check_uncached  # properties imports this module

        return _gaussian_check_uncached(self)

    @cached_property
    def arithmetical_result(self) -> bool:
        """`properties.is_arithmetical`, decided and certified once."""
        from .properties import _is_arithmetical_uncached  # properties imports this module

        return _is_arithmetical_uncached(self)

    @cached_property
    def principal_membership(self) -> np.ndarray:
        """Boolean matrix P with P[x, y] iff y is a multiple of x."""
        n = self.size
        mat = np.zeros((n, n), dtype=bool)
        flat = mat.reshape(-1)
        for start, stop in _row_blocks(n, 8 * n):  # int64 flat indices
            # row x of `mul` lists the multiples of x (the table is symmetric)
            offsets = np.arange(start * n, stop * n, n)[:, None]
            flat[offsets + self.mul[start:stop]] = True
        mat.flags.writeable = False
        return mat


class RingHom:
    """A unital ring homomorphism given as an index map; validated fully."""

    __slots__ = ("source", "target", "map", "label")

    def __init__(self, source: FiniteRing, target: FiniteRing, index_map, label: str | None = None):
        self.source = source
        self.target = target
        m = np.ascontiguousarray(np.asarray(index_map, dtype=np.int32))
        if m.shape != (source.size,):
            raise HomomorphismError(
                f"map length {m.shape} does not match source size {source.size}"
            )
        if m.min() < 0 or m.max() >= target.size:
            raise HomomorphismError("map values out of target range")
        m.flags.writeable = False
        self.map = m
        self.label = label
        self._validate()

    def _validate(self) -> None:
        if self.is_identity:
            return  # the identity map of a ring is a unital homomorphism
        src, tgt, m = self.source, self.target, self.map
        if m[src.zero] != tgt.zero:
            raise HomomorphismError(f"f(0) = {m[src.zero]} != 0", witness=(src.zero,))
        if m[src.one] != tgt.one:
            raise HomomorphismError(f"f(1) = {m[src.one]} != 1", witness=(src.one,))
        if src.size >= _IMAGE_ROWS_MIN_SIZE:
            image, pos = _unique(tgt.size, m, return_inverse=True)
            few_rows = image.size * max(src.size, tgt.size) * tgt.add.itemsize <= _BLOCK_BYTES
            if few_rows and self._agrees_on_image_rows(image, pos):
                return
        self._scan()

    def _agrees_on_image_rows(self, image: np.ndarray, pos: np.ndarray) -> bool:
        """Every pair, against the target's rows at the distinct images,
        gathered once per op and held as positions in `image`, m[x] =
        image[pos[x]]: rows[i, y] is the position of image[i] op f(y), or
        len(image) when that lies outside the image, in the narrowest dtype."""
        src, tgt, m = self.source, self.target, self.map
        dtype = np.min_scalar_type(image.size)
        at = np.full(tgt.size, image.size, dtype=dtype)
        at[image] = np.arange(image.size)
        pos = pos.astype(dtype)
        for src_tab, tgt_tab in ((src.add, tgt.add), (src.mul, tgt.mul)):
            rows = at[np.take(tgt_tab[image], m, axis=1)]
            for start, stop in _row_blocks(src.size, 8 * src.size):  # `np.take` indexes in int64
                if not (np.take(pos, src_tab[start:stop]) == rows[pos[start:stop]]).all():
                    return False
        return True

    def _scan(self) -> None:
        """Every pair, one row block at a time, raising at the first failure
        in row-major order, which is the witness."""
        src, tgt, m = self.source, self.target, self.map
        n = src.size
        for op, src_tab, tgt_tab in (("+", src.add, tgt.add), ("*", src.mul, tgt.mul)):
            for start, stop in _row_blocks(n, 8 * max(n, tgt.size)):  # `np.take` indexes in int64
                lhs = np.take(m, src_tab[start:stop])
                rhs = np.take(tgt_tab[m[start:stop]], m, axis=1)
                bad = lhs != rhs
                if bad.any():
                    x, y = divmod(start * n + int(np.argmax(bad)), n)
                    raise HomomorphismError(
                        f"f(x{op}y) != f(x){op}f(y) at ({x}, {y})", witness=(x, y)
                    )

    @property
    def is_identity(self) -> bool:
        """f is the identity map of its source, the one f for which A |><|^f J is A |><| J."""
        return self.source is self.target and bool((self.map == np.arange(self.source.size)).all())

    @property
    def is_injective(self) -> bool:
        return np.count_nonzero(_distinct(self.target.size, self.map)) == self.source.size

    @property
    def is_surjective(self) -> bool:
        return np.count_nonzero(_distinct(self.target.size, self.map)) == self.target.size

    def kernel(self) -> Ideal:
        """The preimage of zero, an ideal since the map is a validated ring hom."""
        return Ideal._from_mask(self.source, self.map == self.target.zero)

    def __repr__(self) -> str:
        tag = self.label or "hom"
        return f"RingHom({tag}: {self.source.label} -> {self.target.label})"


def hom_identity(ring: FiniteRing) -> RingHom:
    return RingHom(ring, ring, np.arange(ring.size), label="id")


# -- constructors -------------------------------------------------------------


def _table_cap(size_cap: int) -> int:
    """The cap in force: `size_cap`, but never above `MAX_TABLE_SIZE`."""
    return min(size_cap, MAX_TABLE_SIZE)


def _check_cap(size: int, size_cap: int, what: str) -> None:
    cap = _table_cap(size_cap)
    if size > cap:
        raise CapExceededError(f"{what} would have {size} elements, cap is {cap}")


def pair_indices(first: np.ndarray, width: int) -> np.ndarray:
    """Indices x * width + k for x in `first` and 0 <= k < width.

    Under the pair encoding shared by products, idealizations and
    amalgamations this is the block of pairs whose first coordinate lies in
    `first`, e.g. m x E inside A |x E or m |><| J inside A |><| J.
    """
    return (np.asarray(first)[:, None] * width + np.arange(width)[None, :]).ravel()


def pair_ring_tables(base: FiniteRing, xadd, xneg, xzero, act, xmul=None) -> tuple:
    """The tables of the ring on pairs (a, x), a in `base` and x in the
    additive group with table `xadd`, element a * |X| + x, with

        (a1, x1) + (a2, x2) = (a1 + a2, x1 + x2)
        (a1, x1) * (a2, x2) = (a1 a2, (a1.x2 + x1 x2) + a2.x1),

    a.x = act[a, x] and x1 x2 = xmul[x1, x2], or 0 when `xmul` is None (an
    idealization A |x E).  Returns `(size, add, mul, neg, zero, one)` like
    `coset_tables`.  Both tables are `TABLE_DTYPE`, which holds every entry
    a * |X| + x below the size.  The product is written one row block of
    rows (a1, x1) at a time: a1.x2 + x1 x2 for every x2 first, then one
    gather from the flattened `xadd` adds a2.x1 for every a2, at flat
    indices formed in int64 with the longer of the a2 and x2 axes
    innermost, so that each temporary stays within a block."""
    na, k = base.size, len(xadd)
    size = na * k
    xadd = np.asarray(xadd, dtype=TABLE_DTYPE)
    add = ((base.add * k)[:, None, :, None] + xadd[None, :, None, :]).reshape(size, size)
    mul = np.empty((size, size), dtype=TABLE_DTYPE)
    xadd_flat = xadd.ravel()
    act_rows = np.asarray(act, dtype=np.int64) * k  # row offset of a.x in xadd_flat, indexed (a, x)
    for start, stop in _row_blocks(size, 8 * size):  # int64 flat indices
        a1, x1 = np.divmod(np.arange(start, stop), k)
        own = act_rows[a1]  # row offset of a1.x2 + x1 x2, indexed (row, x2)
        if xmul is not None:
            own = np.take(xadd_flat, own + xmul[x1]).astype(np.int64) * k
        out = mul[start:stop].reshape(-1, na, k)
        if k < na:  # indexed (row, x2, a2)
            cross = np.take(xadd_flat, own[:, :, None] + act.T[x1][:, None, :])
            np.add((base.mul[a1] * k)[:, None, :], cross, out=out.transpose(0, 2, 1))
        else:  # indexed (row, a2, x2)
            cross = np.take(xadd_flat, own[:, None, :] + act.T[x1][:, :, None])
            np.add((base.mul[a1] * k)[:, :, None], cross, out=out)
    neg = np.repeat(base.neg * k, k) + np.tile(xneg, na)
    return size, add, mul, neg, base.zero * k + xzero, base.one * k + xzero


def zmod(n: int, size_cap: int = DEFAULT_SIZE_CAP) -> FiniteRing:
    """The ring of integers mod n; element i is the residue i."""
    if n < 1:
        raise ValueError("zmod requires n >= 1")
    _check_cap(n, size_cap, f"zmod({n})")
    # reduced one row block at a time in uint32, which holds (n - 1)^2 for
    # every n up to MAX_TABLE_SIZE, and written into the tables
    idx = np.arange(n, dtype=np.uint32)
    add = np.empty((n, n), dtype=TABLE_DTYPE)
    mul = np.empty((n, n), dtype=TABLE_DTYPE)
    for start, stop in _row_blocks(n, 4 * n):  # uint32 rows
        rows = idx[start:stop, None]
        add[start:stop] = (rows + idx) % n
        mul[start:stop] = (rows * idx) % n
    neg = (n - idx) % n
    return FiniteRing(n, add, mul, neg, 0, 1 % n, f"zmod({n})")


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    for d in range(2, int(p**0.5) + 1):
        if p % d == 0:
            return False
    return True


def tpa_monomial_count(k: int, t: int) -> int:
    """Number of monomials of total degree < t in k variables: C(k+t-1, k)."""
    return math.comb(k + t - 1, k)


def _max_digits(p: int, size_cap: int) -> int:
    """floor(log_p(size_cap)): the most base-p digits a carrier within the cap has."""
    digits, power = 0, p
    while power <= size_cap:
        digits, power = digits + 1, power * p
    return digits


def _monomials(k: int, t: int) -> list[tuple[int, ...]]:
    """Exponent tuples of total degree < t, graded then lex with x1 heaviest;
    for t = 1 only the constant monomial, as (), whatever k is."""
    if t == 1:
        return [()]
    monos = [e for e in itertools.product(range(t), repeat=k) if sum(e) < t]
    monos.sort(key=lambda e: (sum(e), tuple(-v for v in e)))
    return monos


def _monomial_name(expts: tuple[int, ...]) -> str:
    """x, y, z for up to three variables, else x1, x2, ...; "1" for the constant."""
    names = "xyz" if len(expts) <= 3 else [f"x{i + 1}" for i in range(len(expts))]
    parts = [v if e == 1 else f"{v}^{e}" for v, e in zip(names, expts) if e]
    return "*".join(parts) or "1"


def tpa_names(p: int, k: int, t: int) -> list[str]:
    """The elements of tpa(p,k,t) spelled as polynomials, by index: base-p
    digit j of an index is the coefficient of the j-th basis monomial."""
    monos = [_monomial_name(e) for e in _monomials(k, t)]
    names = []
    for i in range(p ** len(monos)):
        terms = []
        for mono in monos:
            i, c = divmod(i, p)
            if c:
                terms.append(str(c) if mono == "1" else mono if c == 1 else f"{c}*{mono}")
        names.append("+".join(terms) or "0")
    return names


def truncated_poly_algebra(p: int, k: int, t: int, size_cap: int = DEFAULT_SIZE_CAP) -> FiniteRing:
    """F_p[x_1..x_k] with all monomials of total degree >= t set to zero.

    Basis monomials are ordered by (degree, lex with x heaviest); an element
    index is the mixed-radix value of its coefficient vector in that order,
    constant coefficient least significant.
    """
    if p < 2:
        raise ValueError(f"tpa requires a prime characteristic, got {p}")
    if k < 1:
        raise ValueError(f"tpa needs at least one variable, got {k}")
    if t < 1:
        raise ValueError("tpa requires truncation order >= 1")
    # The carrier has p^m elements for m monomials.  Compare m with
    # log_p(cap) before counting (for t >= 2 the count is at least
    # k + t - 1), enumerating, or testing the primality of a huge p.
    cap = _table_cap(size_cap)
    max_m = _max_digits(p, cap)
    if (t >= 2 and k + t - 1 > max_m) or tpa_monomial_count(k, t) > max_m:
        # with no digit within the cap, p^0 = 1 would undersell the carrier
        bound = f"more than {p}^{max_m}" if max_m else f"at least {p}"
        raise CapExceededError(f"tpa({p},{k},{t}) would have {bound} elements, cap is {cap}")
    if not _is_prime(p):
        raise ValueError(f"tpa requires a prime characteristic, got {p}")
    monos = _monomials(k, t)
    m = len(monos)
    size = p**m

    # digit matrix: V[i, j] = coefficient of monomial j in element i
    idx = np.arange(size, dtype=np.int64)
    radix = p ** np.arange(m, dtype=np.int64)
    digits = (idx[:, None] // radix[None, :]) % p

    mono_pos = {e: i for i, e in enumerate(monos)}
    prodmap = np.full((m, m), -1, dtype=np.int64)
    for i, ei in enumerate(monos):
        for j, ej in enumerate(monos):
            s = tuple(a + b for a, b in zip(ei, ej))
            if sum(s) < t:
                prodmap[i, j] = mono_pos[s]

    # Element x = d p^i + r with r < p^i is d*mono_i + r, so its row of either
    # table follows from row r: add[x, y] is add[r, y] with digit i of y
    # moved by d (mod p), and mul[x, y] = (d*mono_i) y + r y, the sum
    # gathered from the finished `add`.  Both tables are filled in place,
    # rows r < p^i before rows x >= p^i.  A shift may be negative: it is
    # added mod 2^16, which gives every sum exactly, as each lies in the carrier.
    add = np.empty((size, size), dtype=TABLE_DTYPE)
    mul = np.empty((size, size), dtype=TABLE_DTYPE)
    add[0] = idx
    mul[0] = 0
    for i, d in itertools.product(range(m), range(1, p)):
        low = int(radix[i])
        shift = low * ((digits[:, i] + d) % p - digits[:, i])
        np.add(add[:low], shift.astype(TABLE_DTYPE), out=add[d * low : (d + 1) * low])
    add_flat = add.ravel()
    for i, d in itertools.product(range(m), range(1, p)):
        low = int(radix[i])
        valid = prodmap[i] >= 0
        # (d*mono_i) y puts d y_j, reduced mod p, on the digit of mono_i * mono_j
        offsets = ((d * digits[:, valid]) % p @ radix[prodmap[i, valid]]) * size
        for start, stop in _row_blocks(low, 8 * size):  # int64 flat indices
            mul[d * low + start : d * low + stop] = add_flat[offsets + mul[start:stop]]
    neg = ((-digits) % p) @ radix

    return FiniteRing(size, add, mul, neg, 0, 1, f"tpa({p},{k},{t})")


def product(a: FiniteRing, b: FiniteRing, size_cap: int = DEFAULT_SIZE_CAP) -> FiniteRing:
    """Componentwise product ring; index encoding i_a * |b| + i_b.  It rests
    on its projections pA and pB, which are jointly injective."""
    size = a.size * b.size
    _check_cap(size, size_cap, f"product({a.label},{b.label})")
    idx = np.arange(size)
    ia, ib = idx // b.size, idx % b.size
    add = ((a.add * b.size)[:, None, :, None] + b.add[None, :, None, :]).reshape(size, size)
    mul = ((a.mul * b.size)[:, None, :, None] + b.mul[None, :, None, :]).reshape(size, size)
    neg = a.neg[ia] * b.size + b.neg[ib]
    zero = a.zero * b.size + b.zero
    one = a.one * b.size + b.one
    proof = Proof(out_of=((a, ia, "pA"), (b, ib, "pB")))
    return FiniteRing(size, add, mul, neg, zero, one, f"product({a.label},{b.label})", proof)


def _cosets(add: np.ndarray, members: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cosets of an additive subgroup (of a ring or a module, by its
    addition table), each represented by its minimal member: the `TABLE_DTYPE`
    index map onto them and their representatives ascending.  Each element's
    coset is read one `_row_blocks` block of rows of `add` at a time."""
    rep = np.empty(len(add), dtype=add.dtype)
    for start, stop in _row_blocks(len(add), 2 * len(members)):  # table rows
        rep[start:stop] = add[start:stop, members].min(axis=1)
    reps = _unique(len(add), rep)
    if len(reps) * len(members) != len(add):
        raise InternalCheckError("coset count does not divide the carrier")
    pos = np.zeros(len(add), dtype=TABLE_DTYPE)  # read only at the representatives
    pos[reps] = np.arange(len(reps))
    return pos[rep], reps


def coset_tables(ring: FiniteRing, ideal: Ideal) -> tuple[np.ndarray, np.ndarray, tuple]:
    """The cosets of an ideal, each represented by its minimal member: the
    index map onto them, their representatives ascending, and the
    quotient's `(size, add, mul, neg, zero, one)`, the tables `quotient`
    builds its ring on, gathered straight into `TABLE_DTYPE` through the
    index map."""
    proj, reps = _cosets(ring.add, ideal.indices)
    pairs = np.ix_(reps, reps)
    add, mul, neg = proj[ring.add[pairs]], proj[ring.mul[pairs]], proj[ring.neg[reps]]
    return proj, reps, (len(reps), add, mul, neg, int(proj[ring.zero]), int(proj[ring.one]))


def quotient(ring: FiniteRing, ideal: Ideal) -> tuple[FiniteRing, RingHom]:
    """Factor ring by an ideal, cosets in the order of their minimal member.

    Returns the quotient and the canonical projection (surjective, kernel
    exactly the ideal).
    """
    if ideal.ring is not ring:
        raise MixedRingError("quotient: ideal belongs to a different ring")
    proj_map, reps, tables = coset_tables(ring, ideal)
    gens = ",".join(str(g) for g in ideal.generators())
    proof = Proof(onto=((ring, proj_map, "proj"),))
    quot = FiniteRing(*tables, f"quot({ring.label};{gens})", proof)
    (proj,) = proof.homs
    if not np.array_equal(proj.kernel().mask, ideal.mask):
        raise InternalCheckError("projection kernel differs from the ideal")
    return quot, proj
