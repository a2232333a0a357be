"""Finite commutative unital rings as explicit operation tables.

A ring of size n lives on the index carrier 0..n-1 with dense numpy tables
for + and *, a negation table, and distinguished zero/one indices.  Tables
make every checker in the package an exhaustive (and vectorizable) loop.

Constructors refuse carriers above a configurable size cap instead of
degrading.  Every constructed ring passes an O(n^2) axiom screen.  The ring
of `product`, `quotient`, `amalgamation.amalgamate`/`duplication` or
`f_image_plus_j` then rests on a `Proof`, the ring homs deriving it from
accepted rings; only `zmod`, `truncated_poly_algebra` and
`modules.trivial_extension` (and raw tables) get a fixed-seed sample of the
O(n^3) axioms, drawn once per carrier size and gathered from the flattened
tables (every triple, in one vectorised pass, up to n = 16).
`FiniteRing.validate` runs the full exhaustive check.

Checks that sweep all n^2 pairs of a table (hom validation, principal
membership, the unit-orbit gather of the Gaussian pair check) run over row
blocks of at most `_BLOCK_ENTRIES` entries, so their memory is O(output +
block) rather than a handful of n x n temporaries; every pair is still
checked.  Commutativity compares each table with its transpose one pair
of `_TILE`-wide square tiles at a time, which keeps both tiles in cache.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import (
    CapExceededError,
    HomomorphismError,
    InternalCheckError,
    MixedRingError,
    StructureError,
)
from .ideals import Ideal, enumerate_ideals, ideal_generated

DEFAULT_SIZE_CAP = 4096

# Full O(n^3) axiom verification is quadratic-memory-free but still cubic
# time; above this carrier size `validate` falls back to a fixed-seed sample.
EXHAUSTIVE_AXIOM_THRESHOLD = 512
AXIOM_SAMPLE_COUNT = 65536
# lighter screen applied at every construction
CONSTRUCTION_SAMPLE_COUNT = 4096
# entries per temporary in row-blocked table work (see `_row_blocks`)
_BLOCK_ENTRIES = 1 << 18
# side of the square tiles in which `_is_symmetric` compares a table with its transpose
_TILE = 128


def _row_blocks(rows: int, row_len: int):
    """(start, stop) slices of 0..rows-1 holding about `_BLOCK_ENTRIES`
    entries of `row_len` each, at least one row per block."""
    step = max(1, _BLOCK_ENTRIES // max(row_len, 1))
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
    drawn once per (n, count) and kept read-only in int32.  A pure function
    of its arguments with a read-only result, so the process-wide memo of
    32 entries (at most 1.5 MB at the construction sample count) cannot leak
    state between callers."""
    triples = np.random.default_rng(0).integers(0, n, size=(3, count)).astype(np.int32)
    triples.flags.writeable = False
    return triples


def _as_table(arr, shape, what: str) -> np.ndarray:
    table = np.ascontiguousarray(np.asarray(arr, dtype=np.int32))
    if table.shape != shape:
        raise StructureError(f"{what} table has shape {table.shape}, expected {shape}")
    table.flags.writeable = False
    return table


@dataclass
class Proof:
    """Index maps (other ring, index map, label) that make a derived ring a
    quotient (`onto`: one surjective) or a subring (`out_of`: jointly
    injective) of accepted rings.  `FiniteRing` validates them as ring homs
    and leaves them in `homs`, in that order; the ring keeps no reference."""

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
        element_names: Sequence[str] | None = None,
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
        if element_names is None:
            element_names = [str(i) for i in range(size)]
        self.element_names = list(element_names)
        if len(self.element_names) != size:
            raise StructureError("element_names length mismatch")
        self._quick_check()
        if proof is None:
            self._check_cubic_axioms(sample=CONSTRUCTION_SAMPLE_COUNT)
        else:
            self._prove(proof)

    # -- axiom checking ----------------------------------------------------

    def _quick_check(self) -> None:
        """The O(n^2) screen: ranges, identities, negation, commutativity."""
        n, add, mul, neg = self.size, self.add, self.mul, self.neg
        rng_ok = lambda t: t.min() >= 0 and t.max() < n  # noqa: E731
        if not (rng_ok(add) and rng_ok(mul) and rng_ok(neg)):
            raise StructureError("table entries out of carrier range")
        if not 0 <= self.zero < n or not 0 <= self.one < n:
            raise StructureError("zero/one index out of range")
        if n > 1 and self.zero == self.one:
            raise StructureError("zero == one in a ring of size > 1")
        idx = np.arange(n)
        if not (add[self.zero] == idx).all():
            raise StructureError("zero is not an additive identity")
        if not (mul[self.one] == idx).all():
            raise StructureError("one is not a multiplicative identity")
        if not (add[idx, neg] == self.zero).all():
            raise StructureError("negation table is not an additive inverse")
        if not _is_symmetric(add):
            raise StructureError("addition is not commutative")
        if not _is_symmetric(mul):
            raise StructureError("multiplication is not commutative")

    def _prove(self, proof: Proof) -> None:
        """Carry the cubic axioms over from accepted rings: along a hom onto this
        ring, or along homs that jointly embed it.  A failure is a bug, not bad input."""
        try:
            onto = [RingHom(source, self, m, label) for source, m, label in proof.onto]
            out_of = [RingHom(self, target, m, label) for target, m, label in proof.out_of]
        except HomomorphismError as exc:
            raise InternalCheckError(f"proof of {self.label} fails: {exc}") from exc
        joint = np.zeros(self.size, dtype=np.int64)
        for h in out_of:
            joint = joint * h.target.size + h.map
        if not (any(h.is_surjective for h in onto) or np.unique(joint).size == self.size):
            raise InternalCheckError(f"proof of {self.label} fails: no map is onto it or jointly injective")
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
            an = a * n
            ab, bc, ac = an + b, b * n + c, an + c  # flat positions of (a, b), (b, c), (a, c)
            add_bc, mul_ab = add_flat[bc], mul_flat[ab]
            if not (add_flat[add_flat[ab] * n + c] == add_flat[an + add_bc]).all():
                raise StructureError("addition not associative (sampled)")
            if not (mul_flat[mul_ab * n + c] == mul_flat[an + mul_flat[bc]]).all():
                raise StructureError("multiplication not associative (sampled)")
            if not (mul_flat[an + add_bc] == add_flat[mul_ab * n + mul_flat[ac]]).all():
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
        for start, stop in _row_blocks(self.size, self.size):
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
    def local_factors(self) -> tuple[tuple[FiniteRing, RingHom], ...]:
        """Local factor rings cut out by the primitive idempotents.

        Factor i is the quotient by <1 - e_i> (the annihilator of e_i) with
        the canonical projection; the factor sizes multiply to |ring|.  A
        ring that is already local is its own single factor.
        """
        if self.primitive_idempotent_list == (self.one,):
            return ((self, hom_identity(self)),)
        factors = []
        total = 1
        for e in self.primitive_idempotent_list:
            one_minus_e = int(self.add[self.one, self.neg[e]])
            kernel = ideal_generated(self, [one_minus_e])
            fac, proj = quotient(self, kernel)
            if len(fac.idempotent_list) > (2 if fac.size > 1 else 1):
                raise InternalCheckError("local factor has nontrivial idempotents")
            factors.append((fac, proj))
            total *= fac.size
        if self.size > 1 and total != self.size:
            raise InternalCheckError("local factor sizes do not multiply to ring size")
        return tuple(factors)

    @cached_property
    def maximal_ideals(self) -> tuple[Ideal, ...]:
        """Maximal ideals, one per local factor, in factor order.

        The maximal ideals of a finite commutative ring are the pullbacks of
        the non-units of its local factors, so no lattice enumeration runs.
        """
        return tuple(
            Ideal._from_mask(self, ~factor.units_mask[proj.map]) for factor, proj in self.local_factors
        )

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
    def principal_membership(self) -> np.ndarray:
        """Boolean matrix P with P[x, y] iff y is a multiple of x."""
        n = self.size
        mat = np.zeros((n, n), dtype=bool)
        flat = mat.reshape(-1)
        for start, stop in _row_blocks(n, n):
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
        src, tgt, m = self.source, self.target, self.map
        if src is tgt and (m == np.arange(src.size)).all():
            return  # the identity map of a ring is a unital homomorphism
        if m[src.zero] != tgt.zero:
            raise HomomorphismError(
                f"f(0) = {tgt.element_names[m[src.zero]]} != 0", witness=(src.zero,)
            )
        if m[src.one] != tgt.one:
            raise HomomorphismError(
                f"f(1) = {tgt.element_names[m[src.one]]} != 1", witness=(src.one,)
            )
        n = src.size
        for op, src_tab, tgt_tab in (("+", src.add, tgt.add), ("*", src.mul, tgt.mul)):
            # every pair, one row block at a time; the first failure in
            # row-major order is the witness
            for start, stop in _row_blocks(n, max(n, tgt.size)):
                lhs = np.take(m, src_tab[start:stop])
                rhs = np.take(tgt_tab[m[start:stop]], m, axis=1)
                bad = lhs != rhs
                if bad.any():
                    x, y = divmod(start * n + int(np.argmax(bad)), n)
                    raise HomomorphismError(
                        f"f(x{op}y) != f(x){op}f(y) at ({x}, {y})", witness=(x, y)
                    )

    def __call__(self, index: int) -> int:
        return int(self.map[index])

    @property
    def is_injective(self) -> bool:
        return len(np.unique(self.map)) == self.source.size

    @property
    def is_surjective(self) -> bool:
        return len(np.unique(self.map)) == self.target.size

    def kernel(self) -> Ideal:
        """The preimage of zero, an ideal since the map is a validated ring hom."""
        return Ideal._from_mask(self.source, self.map == self.target.zero)

    def __repr__(self) -> str:
        tag = self.label or "hom"
        return f"RingHom({tag}: {self.source.label} -> {self.target.label})"


def hom_identity(ring: FiniteRing) -> RingHom:
    return RingHom(ring, ring, np.arange(ring.size), label="id")


# -- constructors -------------------------------------------------------------


def _check_cap(size: int, size_cap: int, what: str) -> None:
    if size > size_cap:
        raise CapExceededError(f"{what} would have {size} elements, cap is {size_cap}")


def pair_indices(first: np.ndarray, width: int) -> np.ndarray:
    """Indices x * width + k for x in `first` and 0 <= k < width.

    Under the pair encoding shared by products, idealizations and
    amalgamations this is the block of pairs whose first coordinate lies in
    `first`, e.g. m x E inside A |x E or m |><| J inside A |><| J.
    """
    return (np.asarray(first)[:, None] * width + np.arange(width)[None, :]).ravel()


def zmod(n: int, size_cap: int = DEFAULT_SIZE_CAP) -> FiniteRing:
    """The ring of integers mod n; element i is the residue i."""
    if n < 1:
        raise ValueError("zmod requires n >= 1")
    _check_cap(n, size_cap, f"zmod({n})")
    # reduced in place, in int32 while the products of residues fit
    idx = np.arange(n, dtype=np.int32 if (n - 1) ** 2 < 2**31 else np.int64)
    add = idx[:, None] + idx[None, :]
    add %= n
    mul = idx[:, None] * idx[None, :]
    mul %= n
    neg = (-idx) % n
    return FiniteRing(n, add, mul, neg, 0, 1 % n, f"zmod({n})")


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    for d in range(2, int(p**0.5) + 1):
        if p % d == 0:
            return False
    return True


def _var_names(k: int) -> tuple[str, ...]:
    if k <= 3:
        return ("x", "y", "z")[:k]
    return tuple(f"x{i + 1}" for i in range(k))


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
    """Exponent tuples of total degree < t, graded then lex with x1 heaviest."""
    monos = [e for e in itertools.product(range(t), repeat=k) if sum(e) < t]
    monos.sort(key=lambda e: (sum(e), tuple(-v for v in e)))
    return monos


def _monomial_name(expts: tuple[int, ...], names: tuple[str, ...]) -> str:
    if sum(expts) == 0:
        return "1"
    parts = []
    for v, e in zip(names, expts):
        if e == 1:
            parts.append(v)
        elif e > 1:
            parts.append(f"{v}^{e}")
    return "*".join(parts)


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
    # log_p(size_cap) before counting (for t >= 2 the count is at least
    # k + t - 1), enumerating, or testing the primality of a huge p.
    max_m = _max_digits(p, size_cap)
    if (t >= 2 and k + t - 1 > max_m) or tpa_monomial_count(k, t) > max_m:
        raise CapExceededError(
            f"tpa({p},{k},{t}) would have more than {p}^{max_m} elements, cap is {size_cap}"
        )
    if not _is_prime(p):
        raise ValueError(f"tpa requires a prime characteristic, got {p}")
    if t == 1:  # only the constant monomial survives, whatever k is
        var_names, monos = (), [()]
    else:
        var_names, monos = _var_names(k), _monomials(k, t)
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
    # gathered from the finished `add`.  Both tables are filled in place in
    # int32, rows r < p^i before rows x >= p^i.
    add = np.empty((size, size), dtype=np.int32)
    mul = np.empty((size, size), dtype=np.int32)
    add[0] = idx
    mul[0] = 0
    for i, d in itertools.product(range(m), range(1, p)):
        low = int(radix[i])
        shift = low * ((digits[:, i] + d) % p - digits[:, i])
        np.add(add[:low], shift.astype(np.int32), out=add[d * low : (d + 1) * low])
    add_flat = add.ravel()
    for i, d in itertools.product(range(m), range(1, p)):
        low = int(radix[i])
        valid = prodmap[i] >= 0
        # (d*mono_i) y puts d y_j, reduced mod p, on the digit of mono_i * mono_j
        offsets = ((d * digits[:, valid]) % p @ radix[prodmap[i, valid]]) * size
        for start, stop in _row_blocks(low, size):
            mul[d * low + start : d * low + stop] = add_flat[offsets + mul[start:stop]]
    neg = (((-digits) % p) @ radix).astype(np.int32)

    names = []
    for i in range(size):
        terms = []
        for j in range(m):
            c = int(digits[i, j])
            if c == 0:
                continue
            mono = _monomial_name(monos[j], var_names)
            if mono == "1":
                terms.append(str(c))
            elif c == 1:
                terms.append(mono)
            else:
                terms.append(f"{c}*{mono}")
        names.append("+".join(terms) if terms else "0")
    return FiniteRing(size, add, mul, neg, 0, 1, f"tpa({p},{k},{t})", names)


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
    names = [f"({a.element_names[x]},{b.element_names[y]})" for x, y in zip(ia, ib)]
    proof = Proof(out_of=((a, ia, "pA"), (b, ib, "pB")))
    return FiniteRing(size, add, mul, neg, zero, one, f"product({a.label},{b.label})", names, proof)


def _cosets(add: np.ndarray, members: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cosets of an additive subgroup (of a ring or a module, by its
    addition table), each named by its minimal member: the int32 index map
    onto them and their representatives ascending."""
    rep = add[:, members].min(axis=1)
    reps = np.unique(rep)
    if len(reps) * len(members) != len(add):
        raise InternalCheckError("coset count does not divide the carrier")
    pos = np.full(len(add), -1, dtype=np.int32)
    pos[reps] = np.arange(len(reps))
    return pos[rep], reps


def coset_tables(ring: FiniteRing, ideal: Ideal) -> tuple[np.ndarray, np.ndarray, tuple]:
    """The cosets of an ideal, each named by its minimal member: the index map
    onto them, their representatives ascending, and the quotient's int32
    `(size, add, mul, neg, zero, one)`, the tables `quotient` builds its ring on."""
    proj, reps = _cosets(ring.add, ideal.indices)
    pairs = np.ix_(reps, reps)
    add, mul, neg = proj[ring.add[pairs]], proj[ring.mul[pairs]], proj[ring.neg[reps]]
    return proj, reps, (len(reps), add, mul, neg, int(proj[ring.zero]), int(proj[ring.one]))


def quotient(ring: FiniteRing, ideal: Ideal) -> tuple[FiniteRing, RingHom]:
    """Factor ring by an ideal, cosets named by their minimal member.

    Returns the quotient and the canonical projection (surjective, kernel
    exactly the ideal).
    """
    if ideal.ring is not ring:
        raise MixedRingError("quotient: ideal belongs to a different ring")
    proj_map, reps, tables = coset_tables(ring, ideal)
    gens = ",".join(str(g) for g in ideal.generators())
    names = [f"[{ring.element_names[r]}]" for r in reps]
    proof = Proof(onto=((ring, proj_map, "proj"),))
    quot = FiniteRing(*tables, f"quot({ring.label};{gens})", names, proof)
    (proj,) = proof.homs
    if not np.array_equal(proj.kernel().mask, ideal.mask):
        raise InternalCheckError("projection kernel differs from the ideal")
    return quot, proj
