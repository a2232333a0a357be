"""Finite commutative unital rings as explicit operation tables.

A ring of size n lives on the index carrier 0..n-1 with dense numpy tables
for + and *, a negation table, and distinguished zero/one indices.  Tables
make every checker in the package an exhaustive (and vectorizable) loop.

Constructors refuse carriers above a configurable size cap instead of
degrading.  Every constructed ring passes a quick O(n^2) axiom screen plus
a fixed-seed sample of the O(n^3) axioms; `FiniteRing.validate` runs the
full exhaustive check (used throughout the test suite and the harness).
"""
from __future__ import annotations

import itertools
import math
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import (
    CapExceededError,
    HomomorphismError,
    InternalCheckError,
    MixedRingError,
    NotMaximalError,
    StructureError,
)
from .ideals import Ideal, enumerate_ideals, format_members, ideal_generated, maximal_ideals

DEFAULT_SIZE_CAP = 4096

# Full O(n^3) axiom verification is quadratic-memory-free but still cubic
# time; above this carrier size `validate` falls back to a fixed-seed sample.
EXHAUSTIVE_AXIOM_THRESHOLD = 512
AXIOM_SAMPLE_COUNT = 65536
# lighter screen applied at every construction
CONSTRUCTION_SAMPLE_COUNT = 4096


def _as_table(arr, shape, what: str) -> np.ndarray:
    table = np.ascontiguousarray(np.asarray(arr, dtype=np.int32))
    if table.shape != shape:
        raise StructureError(f"{what} table has shape {table.shape}, expected {shape}")
    table.flags.writeable = False
    return table


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

    # -- axiom checking ----------------------------------------------------

    def _quick_check(self) -> None:
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
        if not (add == add.T).all():
            raise StructureError("addition is not commutative")
        if not (mul == mul.T).all():
            raise StructureError("multiplication is not commutative")
        sample = CONSTRUCTION_SAMPLE_COUNT if n**3 > CONSTRUCTION_SAMPLE_COUNT else None
        self._check_cubic_axioms(sample=sample)

    def _check_cubic_axioms(self, sample: int | None) -> None:
        """Associativity of both operations and distributivity.

        `sample=None` checks all n^3 triples (sliced per first coordinate to
        keep memory linear); otherwise checks a fixed-seed random sample.
        """
        n, add, mul = self.size, self.add, self.mul
        if sample is None:
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
        else:
            rng = np.random.default_rng(0)
            a, b, c = rng.integers(0, n, size=(3, sample))
            if not (add[add[a, b], c] == add[a, add[b, c]]).all():
                raise StructureError("addition not associative (sampled)")
            if not (mul[mul[a, b], c] == mul[a, mul[b, c]]).all():
                raise StructureError("multiplication not associative (sampled)")
            if not (mul[a, add[b, c]] == add[mul[a, b], mul[a, c]]).all():
                raise StructureError("distributivity fails (sampled)")

    def validate(self, exhaustive_threshold: int = EXHAUSTIVE_AXIOM_THRESHOLD) -> None:
        """Re-verify all eight ring axioms.

        Exhaustive for carriers up to `exhaustive_threshold`; larger rings
        get the quadratic axioms exhaustively plus a fixed-seed sample of
        the cubic ones (documented sample count AXIOM_SAMPLE_COUNT).
        """
        self._quick_check()
        if self.size <= exhaustive_threshold:
            self._check_cubic_axioms(sample=None)
        else:
            self._check_cubic_axioms(sample=AXIOM_SAMPLE_COUNT)

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

    @cached_property
    def units_mask(self) -> np.ndarray:
        mask = (self.mul == self.one).any(axis=1)
        mask.flags.writeable = False
        return mask

    @cached_property
    def zero_divisor_mask(self) -> np.ndarray:
        if self.size == 1:
            mask = np.zeros(1, dtype=bool)
        else:
            nonzero = np.arange(self.size) != self.zero
            mask = (self.mul[:, nonzero] == self.zero).any(axis=1)
        mask.flags.writeable = False
        return mask

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
            Ideal(self, np.nonzero(~factor.units_mask[proj.map])[0], _validated=True)
            for factor, proj in self.local_factors
        )

    @cached_property
    def ideal_lattice(self) -> tuple[Ideal, ...] | str:
        """Every ideal (read it through `ideals.all_ideals`), enumerated once
        under the fixed guard; the guard's refusal message when it refuses."""
        try:
            return tuple(enumerate_ideals(self))
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
        rows = np.repeat(np.arange(n), n)
        cols = self.mul.T.ravel()
        mat[rows, cols] = True
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
        if m[src.zero] != tgt.zero:
            raise HomomorphismError(
                f"f(0) = {tgt.element_names[m[src.zero]]} != 0", witness=(src.zero,)
            )
        if m[src.one] != tgt.one:
            raise HomomorphismError(
                f"f(1) = {tgt.element_names[m[src.one]]} != 1", witness=(src.one,)
            )
        lhs = m[src.add]
        rhs = tgt.add[np.ix_(m, m)]
        if not (lhs == rhs).all():
            x, y = (int(v) for v in np.argwhere(lhs != rhs)[0])
            raise HomomorphismError(f"f(x+y) != f(x)+f(y) at ({x}, {y})", witness=(x, y))
        lhs = m[src.mul]
        rhs = tgt.mul[np.ix_(m, m)]
        if not (lhs == rhs).all():
            x, y = (int(v) for v in np.argwhere(lhs != rhs)[0])
            raise HomomorphismError(f"f(x*y) != f(x)*f(y) at ({x}, {y})", witness=(x, y))

    def __call__(self, index: int) -> int:
        return int(self.map[index])

    @property
    def is_injective(self) -> bool:
        return len(np.unique(self.map)) == self.source.size

    @property
    def is_surjective(self) -> bool:
        return len(np.unique(self.map)) == self.target.size

    def kernel(self) -> Ideal:
        return Ideal(self.source, np.nonzero(self.map == self.target.zero)[0])

    def image_set(self) -> frozenset[int]:
        return frozenset(int(i) for i in np.unique(self.map))

    def __repr__(self) -> str:
        tag = self.label or "hom"
        return f"RingHom({tag}: {self.source.label} -> {self.target.label})"


def hom(source: FiniteRing, target: FiniteRing, index_map, label: str | None = None) -> RingHom:
    """Validate an arbitrary index map as a unital ring homomorphism."""
    return RingHom(source, target, index_map, label)


def hom_identity(ring: FiniteRing) -> RingHom:
    return RingHom(ring, ring, np.arange(ring.size), label="id")


def hom_compose(outer: RingHom, inner: RingHom) -> RingHom:
    """outer o inner; the intermediate ring objects must be identical."""
    if inner.target is not outer.source:
        raise MixedRingError("hom_compose: inner.target is not outer.source")
    label = None
    if outer.label and inner.label:
        label = f"compose({outer.label},{inner.label})"
    return RingHom(inner.source, outer.target, outer.map[inner.map], label=label)


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
    idx = np.arange(n)
    add = (idx[:, None] + idx[None, :]) % n
    mul = (idx[:, None] * idx[None, :]) % n
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

    add = (((digits[:, None, :] + digits[None, :, :]) % p) @ radix).astype(np.int32)
    neg = (((-digits) % p) @ radix).astype(np.int32)

    mul = np.empty((size, size), dtype=np.int32)
    block = max(1, 131072 // max(size, 1))
    for start in range(0, size, block):
        stop = min(size, start + block)
        acc = np.zeros((stop - start, size, m), dtype=np.int64)
        for i in range(m):
            for j in range(m):
                tgt = prodmap[i, j]
                if tgt >= 0:
                    acc[:, :, tgt] += digits[start:stop, None, i] * digits[None, :, j]
        mul[start:stop] = ((acc % p) @ radix).astype(np.int32)

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
    """Componentwise product ring; index encoding i_a * |b| + i_b."""
    size = a.size * b.size
    _check_cap(size, size_cap, f"product({a.label},{b.label})")
    idx = np.arange(size)
    ia, ib = idx // b.size, idx % b.size
    ga1, gb1 = ia[:, None], ib[:, None]
    ga2, gb2 = ia[None, :], ib[None, :]
    add = a.add[ga1, ga2] * b.size + b.add[gb1, gb2]
    mul = a.mul[ga1, ga2] * b.size + b.mul[gb1, gb2]
    neg = a.neg[ia] * b.size + b.neg[ib]
    zero = a.zero * b.size + b.zero
    one = a.one * b.size + b.one
    names = [f"({a.element_names[x]},{b.element_names[y]})" for x, y in zip(ia, ib)]
    return FiniteRing(size, add, mul, neg, zero, one, f"product({a.label},{b.label})", names)


def quotient(ring: FiniteRing, ideal: Ideal) -> tuple[FiniteRing, RingHom]:
    """Factor ring by an ideal, cosets named by their minimal member.

    Returns the quotient and the canonical projection (surjective, kernel
    exactly the ideal).
    """
    if ideal.ring is not ring:
        raise MixedRingError("quotient: ideal belongs to a different ring")
    rep = ring.add[:, ideal.indices].min(axis=1).astype(np.int64)
    reps = np.unique(rep)
    q = len(reps)
    if q * len(ideal) != ring.size:
        raise InternalCheckError("coset count does not divide the ring")
    pos = np.full(ring.size, -1, dtype=np.int64)
    pos[reps] = np.arange(q)

    qadd = pos[rep[ring.add[np.ix_(reps, reps)]]].astype(np.int32)
    qmul = pos[rep[ring.mul[np.ix_(reps, reps)]]].astype(np.int32)
    qneg = pos[rep[ring.neg[reps]]].astype(np.int32)
    qzero = int(pos[rep[ring.zero]])
    qone = int(pos[rep[ring.one]])
    gens = ",".join(str(g) for g in ideal.generators())
    label = f"quot({ring.label};{gens})"
    names = [f"[{ring.element_names[r]}]" for r in reps]
    quot = FiniteRing(q, qadd, qmul, qneg, qzero, qone, label, names)
    proj = RingHom(ring, quot, pos[rep], label="proj")
    if proj.kernel().members != ideal.members:
        raise InternalCheckError("projection kernel differs from the ideal")
    return quot, proj


# -- structural analysis -------------------------------------------------------


def units(ring: FiniteRing) -> frozenset[int]:
    return frozenset(int(i) for i in np.nonzero(ring.units_mask)[0])


def idempotents(ring: FiniteRing) -> frozenset[int]:
    return frozenset(ring.idempotent_list)


def primitive_idempotents(ring: FiniteRing) -> list[int]:
    return list(ring.primitive_idempotent_list)


def factor_local(ring: FiniteRing) -> list[tuple[FiniteRing, RingHom]]:
    """Local factors with projections; the zero ring has no factors."""
    return list(ring.local_factors)


def localize_at_max(ring: FiniteRing, m: Ideal) -> tuple[FiniteRing, RingHom]:
    """The local factor whose maximal ideal pulls back to m."""
    if m.ring is not ring:
        raise MixedRingError("localize_at_max: ideal belongs to a different ring")
    for factor_pair, maximal in zip(ring.local_factors, maximal_ideals(ring)):
        if maximal.members == m.members:
            return factor_pair
    raise NotMaximalError(f"{format_members(m.members)} is not a maximal ideal of {ring.label}")

