"""Predicates of the Prufer-condition hierarchy for finite rings.

The central checker is the local pair condition for the Gaussian property:
a local ring is Gaussian iff for every pair (a, b) some c in {a, b} has
<a,b>^2 = <c^2>, and additionally ab = 0 forces the square of the other
element to vanish.  Since <a,b>^2 = <a^2, ab, b^2>, the equality collapses
to two principal-membership tests per branch.  For units u, v the pair
(ua, vb) has (ua)(vb) = uv ab and (ua)^2 = u^2 a^2, which generate the same
principal ideals and vanish together with ab and a^2, so pass[ua, vb] =
pass[a, b]: one pair per pair of unit orbits decides the condition on
every pair, exactly, and the check vectorizes to a few boolean matrices
over the orbits.

A brute-force polynomial content oracle (c(fg) = c(f)c(g) over all pairs up
to a degree bound) provides an independent route; the two must agree on
every local ring at desk scale and the test suite enforces that.

Arithmeticity is decided per local factor (chain ring or not) and each
factor's answer is certified in the same pass, without the full-ring ideal
lattice: a chain factor by its m-adic filtration, any other factor by an
M3 of ideals.

`RING_FACTS` states each ring fact once, for the clauses, the `chain` rows
and `property_report`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import (
    BudgetExceededError,
    CapExceededError,
    InternalCheckError,
    MixedRingError,
    NotLocalError,
)
from .ideals import (
    Ideal,
    _unique,
    all_ideals,
    ideal_generated,
    ideal_intersect,
    ideal_product,
    ideal_sum,
    is_distributive_lattice,
    lattice_order,
    maximal_ideals,
    principal_ideal,
)
from .rings import FiniteRing, _max_digits, _row_blocks

DEFAULT_ORACLE_PAIR_BUDGET = 16**6  # ~16.8M polynomial pairs


# -- polynomials ---------------------------------------------------------------


@dataclass(frozen=True)
class Polynomial:
    """A polynomial over a finite ring, coefficient 0 first, no trailing zeros."""

    ring: FiniteRing
    coeffs: tuple[int, ...]

    @staticmethod
    def make(ring: FiniteRing, coeffs: Iterable[int]) -> Polynomial:
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == ring.zero:
            cs.pop()
        return Polynomial(ring, tuple(cs))


def poly_mul(f: Polynomial, g: Polynomial) -> Polynomial:
    if f.ring is not g.ring:
        raise MixedRingError("polynomials over different rings")
    ring = f.ring
    if not f.coeffs or not g.coeffs:
        return Polynomial(ring, ())
    out = [ring.zero] * (len(f.coeffs) + len(g.coeffs) - 1)
    for i, a in enumerate(f.coeffs):
        for j, b in enumerate(g.coeffs):
            out[i + j] = int(ring.add[out[i + j], ring.mul[a, b]])
    return Polynomial.make(ring, out)


def content(f: Polynomial) -> Ideal:
    """Ideal generated by the coefficients."""
    return ideal_generated(f.ring, f.coeffs)


# -- elementary predicates -----------------------------------------------------


def is_local(ring: FiniteRing) -> Ideal | None:
    """The unique maximal ideal if there is exactly one, else None; a caller
    that needs only the answer reads `ring.is_local`, which builds no ideal."""
    return maximal_ideals(ring)[0] if ring.is_local else None


def is_reduced(ring: FiniteRing) -> bool:
    nil = ring.nilpotent_mask
    return int(nil.sum()) == 1


def is_field(ring: FiniteRing) -> bool:
    """Every nonzero element invertible; the zero ring does not count."""
    if ring.size == 1:
        return False
    nonzero = np.arange(ring.size) != ring.zero
    return bool(ring.units_mask[nonzero].all())


def is_total_quotient_ring(ring: FiniteRing) -> bool:
    """Every element a unit or a zero-divisor (computed, not assumed)."""
    return bool((ring.units_mask | ring.zero_divisor_mask).all())


# -- Gaussian checkers ---------------------------------------------------------


def _unit_orbits(ring: FiniteRing) -> tuple[np.ndarray, np.ndarray]:
    """(reps, orbit): the least member of each orbit of the carrier under
    multiplication by units, ascending, and orbit[x], the position in `reps`
    of the orbit of x.  The unit rows of `mul` are gathered one row block at
    a time."""
    mul = ring.mul
    units = np.flatnonzero(ring.units_mask)
    least = mul[ring.one].copy()
    for start, stop in _row_blocks(units.size, 2 * ring.size):  # table rows
        np.minimum(least, mul[units[start:stop]].min(axis=0), out=least)
    return _unique(ring.size, least, return_inverse=True)


def local_gaussian_pair_check(ring: FiniteRing) -> tuple[bool, tuple[int, int] | None]:
    """Exhaustive pair condition on a local ring, one pair per pair of unit orbits.

    The condition on (a, b) reads only the principal ideals <a^2>, <b^2>
    and the products ab, a^2, b^2 up to units, so pass[ua, vb] = pass[a, b]
    for units u, v; the k x k table over orbit representatives decides
    every pair.  Membership y in <c^2> is read per orbit of y from the k
    rows of multiples of the representatives' squares.

    Returns (True, None) or (False, (a, b)) with the first failing pair in
    row-major order: a is the first element whose orbit row fails, b the
    first element failing against it.
    """
    if not ring.is_local:
        raise NotLocalError(f"{ring.label} is not local")
    mul, zero = ring.mul, ring.zero
    reps, orbit = _unit_orbits(ring)
    k = reps.size
    sq = mul[reps, reps]
    sq_orbit, sq_zero = orbit[sq], sq == zero
    # in_sq[i, o] iff the orbit o lies in <reps[i]^2>
    in_sq = np.zeros((k, k), dtype=bool)
    flat = in_sq.reshape(-1)
    for start, stop in _row_blocks(k, 8 * ring.size):  # int64 orbit positions
        flat[np.arange(start * k, stop * k, k)[:, None] + orbit[mul[sq[start:stop]]]] = True
    ok = np.empty((k, k), dtype=bool)
    cols = np.arange(k)[None, :]
    for start, stop in _row_blocks(k, 8 * k):  # int64 orbit positions
        rows = np.arange(start, stop)[:, None]
        prods = mul[reps[start:stop, None], reps[None, :]]
        prod_orbit, prod_nonzero = orbit[prods], prods != zero
        # branch with c = a: ab and b^2 in <a^2>, and ab = 0 forces b^2 = 0
        branch_a = (
            in_sq[rows, prod_orbit]
            & in_sq[rows, sq_orbit[None, :]]
            & (prod_nonzero | sq_zero[None, :])
        )
        branch_b = (
            in_sq[cols, prod_orbit]
            & in_sq[cols, sq_orbit[start:stop, None]]
            & (prod_nonzero | sq_zero[start:stop, None])
        )
        np.bitwise_or(branch_a, branch_b, out=ok[start:stop])
    failing_rows = ~ok.all(axis=1)
    if not failing_rows.any():
        return True, None
    a = int(np.argmax(failing_rows[orbit]))
    b = int(np.argmin(ok[orbit[a]][orbit]))
    return False, (a, b)


def recheck_pair_witness(ring: FiniteRing, a: int, b: int) -> bool:
    """Re-derive the pair condition for one pair through the ideal layer.

    Independent of the vectorized matrices: builds <a,b>^2, <a^2>, <b^2>
    explicitly.  Returns True when the pair *satisfies* the condition.
    """
    pair_sq = ideal_product(ideal_generated(ring, [a, b]), ideal_generated(ring, [a, b]))
    ab = int(ring.mul[a, b])
    for c, other in ((a, b), (b, a)):
        csq = int(ring.mul[c, c])
        osq = int(ring.mul[other, other])
        if pair_sq.members == principal_ideal(ring, csq).members and (
            ab != ring.zero or osq == ring.zero
        ):
            return True
    return False


def gaussian_check(ring: FiniteRing) -> tuple[bool, tuple[str, int, int] | None]:
    """Gaussian = every local factor passes the pair condition.

    A witness is (factor_label, a, b) in the failing factor; it re-validates
    against the defining condition.  Cached as `FiniteRing.gaussian_result`.
    """
    return ring.gaussian_result


def _gaussian_check_uncached(ring: FiniteRing) -> tuple[bool, tuple[str, int, int] | None]:
    for factor, _ in ring.local_factor_maps():
        ok, pair = local_gaussian_pair_check(factor)
        if not ok:
            a, b = pair
            if recheck_pair_witness(factor, a, b):
                raise InternalCheckError("gaussian witness failed re-validation")
            return False, (factor.label, a, b)
    return True, None


def is_gaussian(ring: FiniteRing) -> bool:
    return gaussian_check(ring)[0]


def gaussian_content_oracle(ring: FiniteRing, dmax: int) -> tuple[bool, tuple[Polynomial, Polynomial] | None]:
    """Brute-force content check c(fg) = c(f)c(g) over all pairs of degree <= dmax.

    A failure witness is a genuine counterexample to Gaussianity; a pass is
    necessary-condition evidence at that degree.  The pair count
    |ring|^(2*(dmax+1)) must stay within DEFAULT_ORACLE_PAIR_BUDGET; the
    exponent is compared with log_|ring| of the budget before any power is
    formed.  The zero ring has one polynomial at every degree and passes.

    Unit scaling changes neither side of the content equation (c(u*f) = c(f)
    for a unit u), so only one representative per unit-scaling orbit is
    enumerated on each side; the check is still exhaustive over all pairs.
    """
    if dmax < 0:
        raise ValueError("dmax must be >= 0")
    n = ring.size
    if n == 1:
        return True, None
    if 2 * (dmax + 1) > _max_digits(n, DEFAULT_ORACLE_PAIR_BUDGET):
        raise BudgetExceededError(
            f"content oracle at degree {dmax} needs {n}^{2 * (dmax + 1)} pairs, "
            f"budget is {DEFAULT_ORACLE_PAIR_BUDGET}"
        )
    npolys = n ** (dmax + 1)

    lattice = all_ideals(ring)
    nl = len(lattice)
    lid_of = {ide.members: i for i, ide in enumerate(lattice)}
    principal_lid = np.asarray(
        [lid_of[principal_ideal(ring, x).members] for x in range(n)], dtype=np.int32
    )
    sum_lid = lattice_order(ring)[1].astype(np.int32)
    prod_lid = np.zeros((nl, nl), dtype=np.int32)
    for i in range(nl):
        for j in range(i + 1):
            prod_lid[i, j] = prod_lid[j, i] = lid_of[ideal_product(lattice[i], lattice[j]).members]

    ncoef = dmax + 1
    idx = np.arange(npolys, dtype=np.int64)
    radix = n ** np.arange(ncoef, dtype=np.int64)
    digits = ((idx[:, None] // radix[None, :]) % n).astype(np.int32)

    cont = principal_lid[digits[:, 0]]
    for d in range(1, ncoef):
        cont = sum_lid[cont, principal_lid[digits[:, d]]]

    # one representative (minimal index) per unit-scaling orbit
    orbit_min = idx.copy()
    for u in np.nonzero(ring.units_mask)[0]:
        scaled = ring.mul[u][digits].astype(np.int64) @ radix
        orbit_min = np.minimum(orbit_min, scaled)
    reps = np.nonzero(orbit_min == idx)[0]

    add, mul = ring.add, ring.mul
    nreps = len(reps)
    gdig = digits[reps]
    gcont = cont[reps]
    block = max(1, (1 << 22) // max(nreps, 1))
    for start in range(0, nreps, block):
        stop = min(nreps, start + block)
        fdig = digits[reps[start:stop]]
        rhs = prod_lid[cont[reps[start:stop], None], gcont[None, :]]
        lhs = None
        for k in range(2 * dmax + 1):
            coef = np.full((stop - start, nreps), ring.zero, dtype=np.int32)
            for i in range(max(0, k - dmax), min(dmax, k) + 1):
                coef = add[coef, mul[fdig[:, i, None], gdig[None, :, k - i]]]
            lid = principal_lid[coef]
            lhs = lid if lhs is None else sum_lid[lhs, lid]
        bad = np.argwhere(lhs != rhs)
        if bad.size:
            fi, gi = int(reps[int(bad[0][0]) + start]), int(reps[int(bad[0][1])])
            f = Polynomial.make(ring, digits[fi])
            g = Polynomial.make(ring, digits[gi])
            check = ideal_product(content(f), content(g))
            if content(poly_mul(f, g)).members == check.members:
                raise InternalCheckError("oracle witness failed re-validation")
            return False, (f, g)
    return True, None


# -- arithmetical / chain / Prufer ---------------------------------------------


def chain_certificate(factor: FiniteRing) -> tuple[Ideal, ...]:
    """The m-adic filtration R = m^0 > m > m^2 > ... > 0 of a local chain ring,
    certified to hold every ideal.

    Each element x lying in m^k but not in m^(k+1) must generate m^k: the
    first such element's principal ideal is compared with m^k, and every
    other x of level k must have that generator among its multiples.  An
    ideal I then equals m^k for the least level k of its members, so the
    ideals are totally ordered.  Built from `mul` and `add` through the ideal
    layer, not from `principal_membership`, in O(n^2) vectorised work and
    with no lattice enumeration.  Raises InternalCheckError when the factor
    is not a local chain ring.
    """
    m = is_local(factor)
    if m is None:
        raise InternalCheckError(f"chain certificate: {factor.label} is not local")
    steps = [Ideal._from_mask(factor, np.ones(factor.size, dtype=bool)), m]
    while not steps[-1].is_zero:
        step = ideal_product(steps[-1], m)
        if len(step) == len(steps[-1]):
            raise InternalCheckError(f"m-adic filtration of {factor.label} stops at {len(step)} elements")
        steps.append(step)
    level = np.sum([step.mask for step in steps], axis=0) - 1
    gens = np.asarray([int(np.argmax(level == k)) for k in range(len(steps))])
    principal_ok = all(principal_ideal(factor, g) == step for g, step in zip(gens, steps))
    generator = gens[level]  # y must be a multiple of generator[y]
    multiple = np.zeros(factor.size, dtype=bool)
    for start, stop in _row_blocks(factor.size, factor.size):  # bool rows
        multiple |= (factor.mul[start:stop] == generator).any(axis=0)
    if not principal_ok or not multiple.all():
        raise InternalCheckError(f"chain certificate: {factor.label} has ideals off its m-adic filtration")
    return tuple(steps)


def m3_certificate(factor: FiniteRing, a: int, b: int) -> tuple[Ideal, Ideal, Ideal]:
    """Three ideals of a local ring that form an M3 sublattice, from a pair
    (a, b) with neither a in (b) nor b in (a).

    With N = m(a, b), the quotient (a, b)/N is then a plane over the residue
    field (Nakayama), so J1 = (a)+N, J2 = (a+b)+N and J3 = (b)+N are three
    of its lines: J1 /\\ (J2 + J3) = J1 but (J1 /\\ J2) + (J1 /\\ J3) = N.
    By Birkhoff the ideal lattice is then not distributive.  The triple is
    re-validated through the ideal layer (generation, sums, products,
    member intersection), so a comparable pair or a non-local factor
    raises InternalCheckError.
    """
    m = is_local(factor)
    if m is None:
        raise InternalCheckError(f"M3 certificate: {factor.label} is not local")
    base = ideal_product(m, ideal_generated(factor, [a, b]))
    j1, j2, j3 = (ideal_sum(ideal_generated(factor, [x]), base) for x in (a, int(factor.add[a, b]), b))
    lhs = ideal_intersect(j1, ideal_sum(j2, j3))
    rhs = ideal_sum(ideal_intersect(j1, j2), ideal_intersect(j1, j3))
    if lhs != j1 or rhs != base or len(base) == len(j1):
        raise InternalCheckError(f"M3 certificate failed re-validation on {factor.label}")
    return j1, j2, j3


def _first_incomparable(in_principal: np.ndarray) -> tuple[int, int] | None:
    """The first pair (a, b) in row-major order with neither a in (b) nor b in
    (a), or None; read one `_row_blocks` block of rows at a time."""
    n = in_principal.shape[0]
    for start, stop in _row_blocks(n, n):  # bool rows
        incomparable = ~(in_principal[start:stop] | in_principal[:, start:stop].T)
        if incomparable.any():
            return divmod(start * n + int(np.argmax(incomparable)), n)
    return None


def is_arithmetical(ring: FiniteRing) -> bool:
    """Every local factor a chain ring (Jensen), decided and certified factor
    by factor in one pass.

    A factor is a chain ring iff its principal ideals are totally ordered.
    One `principal_membership` matrix per factor decides it: with no
    incomparable pair the factor must pass `chain_certificate`, otherwise
    the first incomparable pair in row-major order must yield an
    `m3_certificate`.  So each verdict is cross-checked on every ring
    without enumerating the full-ring ideal lattice.  Cached as
    `FiniteRing.arithmetical_result`.
    """
    return ring.arithmetical_result


def _is_arithmetical_uncached(ring: FiniteRing) -> bool:
    verdict = True
    for factor, _ in ring.local_factor_maps():
        pair = _first_incomparable(factor.principal_membership)
        if pair is not None:
            m3_certificate(factor, *pair)
            verdict = False
        else:
            chain_certificate(factor)
    return verdict


def arithmetical_check(ring: FiniteRing) -> tuple[bool, tuple[Ideal, Ideal, Ideal] | None]:
    """`is_arithmetical`, with a distributivity witness where the lattice is enumerable.

    The verdict is certified per local factor on every ring.  When the
    full-ring lattice is within the fixed guard of `all_ideals`, the first
    failing triple in canonical lattice order is the witness; it must agree
    with the verdict and re-validate.  Otherwise the witness is None.
    """
    ok = is_arithmetical(ring)
    try:
        lattice_ok, witness = is_distributive_lattice(ring)
    except CapExceededError:
        return ok, None
    if lattice_ok != ok:
        raise InternalCheckError(
            f"distributive-lattice and chain-factor routes disagree on {ring.label}"
        )
    if witness is not None:
        i, j, k = witness
        lhs = ideal_sum(ideal_intersect(i, j), ideal_intersect(i, k))
        rhs = ideal_intersect(i, ideal_sum(j, k))
        if lhs == rhs:
            raise InternalCheckError("distributivity witness failed re-validation")
    return ok, witness


def is_prufer(ring: FiniteRing) -> bool:
    """Every regular ideal invertible, I * (ring : I) = ring.

    Decided by the finite-ring reduction: every regular element is a unit
    (computed), hence the only regular ideal is the whole ring, which is
    invertible because 1 * 1 = 1.  The test suite compares this against the
    sweep over every ideal of each enumerable catalog ring.
    """
    if not is_total_quotient_ring(ring):
        # cannot happen over a finite ring; deciding it would need the lattice
        raise InternalCheckError(f"regular non-unit found in finite ring {ring.label}")
    return True


# -- the fact table and the consolidated report --------------------------------


# Every ring fact, by the name the clauses and `props` print, in `props`'
# order.  The Prufer entry looks `is_prufer` up at each call, so a rebinding
# of the module name (the perfbench tracer's) sees every call.
RING_FACTS: dict[str, Callable[[FiniteRing], bool]] = {
    "local": lambda ring: ring.is_local,
    "reduced": is_reduced,
    "field": is_field,
    "total quotient ring": is_total_quotient_ring,
    # a finite ring is a chain ring iff arithmetical with no proper local
    # factor (it is local, or the zero ring)
    "chain ring": lambda ring: is_arithmetical(ring) and not ring.local_factors,
    "arithmetical": is_arithmetical,
    "Gaussian": is_gaussian,
    "Prufer": lambda ring: is_prufer(ring),
}
# The Bazzoni-Glaz chain: each of these facts implies the next.
HIERARCHY = ("arithmetical", "Gaussian", "Prufer")


def fact_field(name: str) -> str:
    """The `PropertyReport` field, and `props --machine` key, of a ring fact."""
    return name.lower().replace(" ", "_")


@dataclass
class PropertyReport:
    """The `RING_FACTS` verdicts of one ring, one field each, with witnesses."""

    size: int
    maximal_ideal: Ideal | None
    gaussian_witness: tuple[str, int, int] | None
    arithmetical_witness: tuple[Ideal, Ideal, Ideal] | None
    local: bool
    reduced: bool
    field: bool
    total_quotient_ring: bool
    chain_ring: bool
    arithmetical: bool
    gaussian: bool
    prufer: bool
    oracle_degree: int | None = None
    oracle_gaussian: bool | None = None
    oracle_witness: tuple[Polynomial, Polynomial] | None = None

    def facts(self) -> list[tuple[str, bool]]:
        """(name, verdict) of every ring fact, in `RING_FACTS` order."""
        return [(name, getattr(self, fact_field(name))) for name in RING_FACTS]

    def hierarchy_consistent(self) -> bool:
        """Arithmetical implies Gaussian implies Prufer."""
        return (not self.arithmetical or self.gaussian) and (not self.gaussian or self.prufer)


def property_report(ring: FiniteRing, oracle_degree: int | None = None) -> PropertyReport:
    """Every ring fact with its witnesses.  With `oracle_degree`, the content
    oracle runs first, so its pair budget and the lattice guard refuse before
    any fact is computed."""
    oracle = None if oracle_degree is None else gaussian_content_oracle(ring, oracle_degree)
    report = PropertyReport(
        ring.size, is_local(ring), gaussian_check(ring)[1], arithmetical_check(ring)[1],
        **{fact_field(name): bool(fact(ring)) for name, fact in RING_FACTS.items()},
    )
    if oracle is not None:
        report.oracle_degree = oracle_degree
        report.oracle_gaussian, report.oracle_witness = oracle
        if not report.oracle_gaussian and report.gaussian:
            raise InternalCheckError("content oracle found a counterexample on a Gaussian ring")
    if not report.hierarchy_consistent():
        raise InternalCheckError(f"property hierarchy violated on {ring.label}")
    return report
