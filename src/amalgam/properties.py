"""Predicates of the Prufer-condition hierarchy for finite rings.

The central checker is the local pair condition for the Gaussian property:
a local ring is Gaussian iff for every pair (a, b) some c in {a, b} has
<a,b>^2 = <c^2>, and additionally ab = 0 forces the square of the other
element to vanish.  Since <a,b>^2 = <a^2, ab, b^2>, the equality collapses
to two principal-membership tests per branch and the whole check vectorizes
to a handful of boolean matrices.

A brute-force polynomial content oracle (c(fg) = c(f)c(g) over all pairs up
to a degree bound) provides an independent route; the two must agree on
every local ring at desk scale and the test suite enforces that.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

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
    all_ideals,
    ideal_generated,
    ideal_product,
    ideal_sum,
    is_distributive_lattice,
    maximal_ideals,
    principal_ideal,
)
from .rings import FiniteRing

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

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __repr__(self) -> str:
        if not self.coeffs:
            return f"Poly[{self.ring.label}](0)"
        names = self.ring.element_names
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == self.ring.zero:
                continue
            base = names[c] if i == 0 else (f"({names[c]})*X" if i == 1 else f"({names[c]})*X^{i}")
            terms.append(base)
        return f"Poly[{self.ring.label}](" + (" + ".join(terms) or "0") + ")"


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
    """The unique maximal ideal if there is exactly one, else None."""
    ms = maximal_ideals(ring)
    return ms[0] if len(ms) == 1 else None


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


def _pair_condition_matrix(ring: FiniteRing) -> np.ndarray:
    """pass[a, b] iff the pair (a, b) satisfies the local Gaussian condition."""
    n = ring.size
    mul = ring.mul
    sq = mul[np.arange(n), np.arange(n)]
    in_principal = ring.principal_membership
    prod_nonzero = mul != ring.zero

    # branch with c = a: ab and b^2 in <a^2>, and ab = 0 forces b^2 = 0
    branch_a = (
        in_principal[sq[:, None], mul]
        & in_principal[sq[:, None], sq[None, :]]
        & (prod_nonzero | (sq[None, :] == ring.zero))
    )
    branch_b = (
        in_principal[sq[None, :], mul]
        & in_principal[sq[None, :], sq[:, None]]
        & (prod_nonzero | (sq[:, None] == ring.zero))
    )
    return branch_a | branch_b


def local_gaussian_pair_check(ring: FiniteRing) -> tuple[bool, tuple[int, int] | None]:
    """Exhaustive pair condition on a local ring.

    Returns (True, None) or (False, (a, b)) with the first failing pair in
    row-major order.
    """
    if is_local(ring) is None:
        raise NotLocalError(f"{ring.label} is not local")
    ok = _pair_condition_matrix(ring)
    if ok.all():
        return True, None
    a, b = (int(v) for v in np.argwhere(~ok)[0])
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
    for factor, _proj in ring.local_factors:
        ok, pair = local_gaussian_pair_check(factor)
        if not ok:
            a, b = pair
            if recheck_pair_witness(factor, a, b):
                raise InternalCheckError("gaussian witness failed re-validation")
            return False, (factor.label, a, b)
    return True, None


def is_gaussian(ring: FiniteRing) -> bool:
    return gaussian_check(ring)[0]


def gaussian_content_oracle(
    ring: FiniteRing,
    dmax: int,
    pair_budget: int = DEFAULT_ORACLE_PAIR_BUDGET,
) -> tuple[bool, tuple[Polynomial, Polynomial] | None]:
    """Brute-force content check c(fg) = c(f)c(g) over all pairs of degree <= dmax.

    A failure witness is a genuine counterexample to Gaussianity; a pass is
    necessary-condition evidence at that degree.  The pair count
    |ring|^(2*(dmax+1)) must stay within `pair_budget`.

    Unit scaling changes neither side of the content equation (c(u*f) = c(f)
    for a unit u), so only one representative per unit-scaling orbit is
    enumerated on each side; the check is still exhaustive over all pairs.
    """
    if dmax < 0:
        raise ValueError("dmax must be >= 0")
    n = ring.size
    npolys = n ** (dmax + 1)
    if npolys * npolys > pair_budget:
        raise BudgetExceededError(
            f"content oracle needs {npolys}^2 pairs, budget is {pair_budget}"
        )

    lattice = all_ideals(ring)
    nl = len(lattice)
    lid_of = {ide.members: i for i, ide in enumerate(lattice)}
    principal_lid = np.asarray(
        [lid_of[principal_ideal(ring, x).members] for x in range(n)], dtype=np.int32
    )
    sum_lid = np.zeros((nl, nl), dtype=np.int32)
    prod_lid = np.zeros((nl, nl), dtype=np.int32)
    for i in range(nl):
        for j in range(i + 1):
            s = lid_of[ideal_sum(lattice[i], lattice[j]).members]
            p = lid_of[ideal_product(lattice[i], lattice[j]).members]
            sum_lid[i, j] = sum_lid[j, i] = s
            prod_lid[i, j] = prod_lid[j, i] = p

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


def is_chain_ring(ring: FiniteRing) -> bool:
    """Ideals totally ordered; equivalently a in <b> or b in <a> for all pairs."""
    in_principal = ring.principal_membership
    return bool((in_principal | in_principal.T).all())


def arithmetical_check(ring: FiniteRing) -> tuple[bool, tuple[Ideal, Ideal, Ideal] | None]:
    """Distributivity of the ideal lattice, with a witness triple on failure.

    When the lattice is enumerable (within the fixed guard of `all_ideals`)
    both routes run -- distributive lattice, and all local factors chain
    rings -- and must agree.  Otherwise only the factor-chain route is
    available and no lattice witness is produced.
    """
    chain_route = all(is_chain_ring(f) for f, _ in ring.local_factors)
    try:
        ok, witness = is_distributive_lattice(ring)
    except CapExceededError:
        return chain_route, None
    if ok != chain_route:
        raise InternalCheckError(
            f"distributive-lattice and chain-factor routes disagree on {ring.label}"
        )
    if witness is not None:
        i, j, k = witness
        lhs = ideal_sum(
            Ideal(ring, i.members & j.members, _validated=True),
            Ideal(ring, i.members & k.members, _validated=True),
        )
        rhs = Ideal(ring, i.members & ideal_sum(j, k).members, _validated=True)
        if lhs.members == rhs.members:
            raise InternalCheckError("distributivity witness failed re-validation")
    return ok, witness


def is_arithmetical(ring: FiniteRing) -> bool:
    return arithmetical_check(ring)[0]


def is_prufer(ring: FiniteRing) -> bool:
    """Every regular ideal invertible, I * (ring : I) = ring.

    Decided by the finite-ring reduction: every regular element is a unit
    (computed), hence the only regular ideal is the whole ring, which is
    invertible because 1 * 1 = 1.  The test suite compares this against the
    sweep over every ideal of each enumerable catalog ring.
    """
    regular = ~ring.zero_divisor_mask
    if not ring.units_mask[regular].all():
        # cannot happen over a finite ring; deciding it would need the lattice
        raise InternalCheckError(f"regular non-unit found in finite ring {ring.label}")
    return True


# -- consolidated report ---------------------------------------------------------


@dataclass
class PropertyReport:
    """Named verdicts for one ring, with witnesses where meaningful."""

    label: str
    size: int
    local: bool
    maximal_ideal: Ideal | None
    reduced: bool
    field: bool
    total_quotient_ring: bool
    chain_ring: bool
    gaussian: bool
    arithmetical: bool
    prufer: bool
    gaussian_witness: tuple[str, int, int] | None = None
    arithmetical_witness: tuple[Ideal, Ideal, Ideal] | None = None
    oracle_degree: int | None = None
    oracle_gaussian: bool | None = None
    oracle_witness: tuple[Polynomial, Polynomial] | None = None
    notes: list[str] = field(default_factory=list)

    def hierarchy_consistent(self) -> bool:
        """Arithmetical implies Gaussian implies Prufer."""
        return (not self.arithmetical or self.gaussian) and (not self.gaussian or self.prufer)


def property_report(
    ring: FiniteRing,
    oracle_degree: int | None = None,
    oracle_pair_budget: int = DEFAULT_ORACLE_PAIR_BUDGET,
) -> PropertyReport:
    maximal = is_local(ring)
    gauss_ok, gauss_wit = gaussian_check(ring)
    arith_ok, arith_wit = arithmetical_check(ring)
    report = PropertyReport(
        label=ring.label,
        size=ring.size,
        local=maximal is not None,
        maximal_ideal=maximal,
        reduced=is_reduced(ring),
        field=is_field(ring),
        total_quotient_ring=is_total_quotient_ring(ring),
        chain_ring=is_chain_ring(ring),
        gaussian=gauss_ok,
        arithmetical=arith_ok,
        prufer=is_prufer(ring),
        gaussian_witness=gauss_wit,
        arithmetical_witness=arith_wit,
    )
    if oracle_degree is not None:
        ok, wit = gaussian_content_oracle(ring, oracle_degree, oracle_pair_budget)
        report.oracle_degree = oracle_degree
        report.oracle_gaussian = ok
        report.oracle_witness = wit
        if not ok and gauss_ok:
            raise InternalCheckError("content oracle found a counterexample on a Gaussian ring")
    if not report.hierarchy_consistent():
        raise InternalCheckError(f"property hierarchy violated on {ring.label}")
    return report
