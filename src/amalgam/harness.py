"""Executable verification of the transfer statements over a generated catalog.

Each clause is one entry of `CLAUSES`: a description, a hypothesis filter
over an instance's `HypothesisReport` and a conclusion over the constructed
rings.  A sweep over the catalog yields one Verdict per clause; a violation
means a bug in this package (the statements are proven), so the harness
treats any violation as a hard failure with a witness.

Clause identifiers (also the CLI surface):

    lemma-2.2    locality: R local  <=>  base local and J inside Rad(B)
    thm-2.1:1    R Gaussian  =>  base and f(A)+J Gaussian
    thm-2.1:2    with J^2 = 0: R Gaussian  <=>  base Gaussian and f(a)J = f(a)^2 J on m
    thm-2.1:3c1  f injective, f(A) /\\ J = 0: R Gaussian  <=>  f(A)+J Gaussian
    thm-2.1:3c2  f injective, f(A) /\\ J != 0, base reduced: as thm-2.1:2 (vacuous at finite scale)
    thm-2.1:4c1  f not injective, J /\\ Nilp(B) = 0, base reduced: R not Gaussian (vacuous)
    thm-2.1:4c2  f not injective, J /\\ Nilp(B) != 0, base reduced: as thm-2.1:2 (vacuous)
    cor-2.3      duplication criterion: A |><| I Gaussian <=> A Gaussian, I^2 = 0, aI = a^2 I on m
    prop-2.8:1   base local total quotient ring, f injective, f(A) /\\ J != 0, J in Rad /\\ Z(B):
                 R is a local total quotient ring (hence Prufer)
    prop-2.8:2   same with f not injective
    chain        arithmetical => Gaussian => Prufer over the whole catalog

The three clauses whose hypotheses force a finite reduced local base are
provably vacuous here (a finite reduced local ring is a field), so they carry
no conclusion: an instance meeting their hypotheses raises InternalCheckError
at once, and the sweep machine-checks the fact over the catalog and reports
`vacuous` instead of claiming a proof.
"""
from __future__ import annotations

import re
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .amalgamation import (
    AmalgamationInstance,
    HypothesisReport,
    amalgamate,
    duplication,
)
from .errors import CapExceededError, InternalCheckError
from .expressions import (
    AmalgExpr,
    DupExpr,
    EmbedHomExpr,
    Evaluator,
    ModuleExpr,
    ProductExpr,
    ProjHomExpr,
    QuotExpr,
    QuotmodExpr,
    RegularExpr,
    ResfieldExpr,
    RingExpr,
    TpaExpr,
    TrivextExpr,
    ZmodExpr,
    ComposeHomExpr,
    parse,
)
from .ideals import Ideal, all_ideals, ideal_product
from .modules import FiniteModule
from .properties import (
    is_arithmetical,
    is_field,
    is_gaussian,
    is_local,
    is_prufer,
    is_reduced,
    is_total_quotient_ring,
)
from .rings import DEFAULT_SIZE_CAP, FiniteRing, RingHom, coset_tables, hom_identity, pair_indices, tpa_monomial_count

VACUITY_REASON = "finite reduced local ring is a field"


# -- catalog -------------------------------------------------------------------


@dataclass(frozen=True)
class CatalogParams:
    """Generation parameters; identical parameters give identical catalogs."""

    zmod_max: int = 16
    tpa_carrier_max: int = 64
    product_max: int = 64
    trivext_max: int = 256
    quotient_base_max: int = 32
    instance_max: int = 256
    size_cap: int = DEFAULT_SIZE_CAP


@dataclass(frozen=True)
class InstanceSpec:
    """Deferred amalgamation instance; the ring is built on demand."""

    base: FiniteRing
    target: FiniteRing
    f: RingHom
    j: Ideal
    label: str
    tags: tuple[str, ...]

    def build(self, size_cap: int = DEFAULT_SIZE_CAP) -> AmalgamationInstance:
        return amalgamate(self.base, self.target, self.f, self.j, size_cap, label=self.label)


@dataclass
class Catalog:
    params: CatalogParams
    rings: list[FiniteRing]
    ring_exprs: list[RingExpr]
    modules: list[FiniteModule]
    specs: list[InstanceSpec]


def _tpa_parameter_sweep(carrier_max: int) -> list[TpaExpr]:
    out = []
    for p in (2, 3, 5, 7):
        for k in (1, 2, 3):
            for t in (2, 3, 4, 5, 6):
                if p ** tpa_monomial_count(k, t) <= carrier_max:
                    out.append(TpaExpr(p, k, t))
    return out


def _table_key(size: int, zero: int, one: int, add: np.ndarray, mul: np.ndarray) -> bytes:
    """The catalog's identity of a ring: its size, zero, one and int32 tables."""
    return np.array([size, zero, one], dtype="<u4").tobytes() + add.tobytes() + mul.tobytes()


def build_catalog(params: CatalogParams | None = None) -> Catalog:
    """Deterministic generator-family catalog (not isomorphism-complete).

    Rings come from the construction grammar; instances pair every canonical
    hom (identity, idealization embedding, quotient projection, and their
    depth-2 compositions) with every proper ideal J of the target subject to
    |A| * |J| <= instance_max.  Rings are deduplicated by their tables, and
    quotient candidates by their coset tables before any ring is built or
    proved.
    """
    p = params or CatalogParams()
    ev = Evaluator(size_cap=p.size_cap)

    rings: list[FiniteRing] = []
    exprs: list[RingExpr] = []
    seen: set[bytes] = set()
    ideals_of: dict[FiniteRing, list[Ideal]] = {}  # keyed by ring identity

    def enumerable_ideals(ring: FiniteRing) -> list[Ideal]:
        """The ideal lattice, taken once per ring and build, or nothing when
        it is past the enumeration guard."""
        if ring not in ideals_of:
            try:
                ideals_of[ring] = all_ideals(ring)
            except CapExceededError:
                ideals_of[ring] = []
        return ideals_of[ring]

    def add_expr(expr: RingExpr) -> FiniteRing | None:
        ring = ev.ring(expr)
        key = _table_key(ring.size, ring.zero, ring.one, ring.add, ring.mul)
        if key in seen:
            return None
        seen.add(key)
        rings.append(ring)
        exprs.append(expr)
        return ring

    # base rings
    for n in range(1, p.zmod_max + 1):
        add_expr(ZmodExpr(n))
    for te in _tpa_parameter_sweep(p.tpa_carrier_max):
        add_expr(te)

    # binary products of small bases
    product_pool = [ZmodExpr(n) for n in range(2, 10)] + [TpaExpr(2, 1, 2)]
    for i, left in enumerate(product_pool):
        for right in product_pool[i:]:
            if ev.ring(left).size * ev.ring(right).size <= p.product_max:
                add_expr(ProductExpr(left, right))

    # trivial extensions, two generations
    modules: list[FiniteModule] = []

    def extend(base_expr: RingExpr, module_expr: ModuleExpr) -> None:
        base = ev.ring(base_expr)
        module = ev.module(module_expr, base)
        if base.size * module.size > p.trivext_max:
            return
        added = add_expr(TrivextExpr(base_expr, module_expr))
        if added is not None:
            modules.append(module)

    first_generation = list(zip(exprs, rings))
    for expr, ring in first_generation:
        m = is_local(ring)
        if m is not None and ring.size > 1:
            if ring.size**2 <= 64:
                extend(expr, RegularExpr())
            extend(expr, ResfieldExpr(1))
            field_size = ring.size // len(m)
            if ring.size * field_size**2 <= 32:
                extend(expr, ResfieldExpr(2))
            msq = ideal_product(m, m)
            if not msq.is_zero and msq.members != m.members:
                if ring.size * (ring.size // len(msq)) <= 64:
                    extend(expr, QuotmodExpr(RegularExpr(), msq.generators()))
        elif m is None and 1 < ring.size <= 8:
            extend(expr, RegularExpr())

    second_generation = [
        (expr, ring)
        for expr, ring in zip(exprs, rings)
        if isinstance(expr, TrivextExpr) and ring.size <= 16 and is_local(ring) is not None
    ]
    for expr, ring in second_generation:
        extend(expr, ResfieldExpr(1))

    # quotients of everything small enough; a candidate whose coset tables
    # are already in the catalog is dropped before its ring is built
    for expr, ring in list(zip(exprs, rings)):
        if ring.size > p.quotient_base_max:
            continue
        for ideal in enumerable_ideals(ring):
            if ideal.is_whole or ideal.is_zero:
                continue
            size, add, mul, _, zero, one = coset_tables(ring, ideal)[2]
            if _table_key(size, zero, one, add, mul) not in seen:
                add_expr(QuotExpr(expr, ideal.generators()))

    # a thin layer of extensions over quotients, so embed-after-proj
    # compositions have catalog instances
    for expr, ring in [(e, r) for e, r in zip(exprs, rings) if isinstance(e, QuotExpr)]:
        if ring.size <= 8 and is_local(ring) is not None and ring.size > 1:
            extend(expr, ResfieldExpr(1))

    # amalgamation instances
    specs: list[InstanceSpec] = []

    def push(base: FiniteRing, target: FiniteRing, f: RingHom, hom_tag: str, target_expr: RingExpr) -> None:
        ex26_j = None
        if hom_tag == "embed" and isinstance(target_expr.ring, TrivextExpr):
            # the 0 x E ideal of the idealization B = A |x E
            ex26_j = frozenset(pair_indices([base.zero], target.size // base.size).tolist())
        for j in enumerable_ideals(target):
            if j.is_whole or base.size * len(j) > p.instance_max:
                continue
            tags = [hom_tag]
            if j.is_zero:
                tags.append("j-zero")
            if j.members == ex26_j:
                tags.append("ex2.6-shape")
            gens = ",".join(str(g) for g in j.generators())
            if hom_tag == "identity":
                label = f"dup({base.label};{gens})"
            else:
                label = f"amalg({base.label},{target.label},{f.label or 'hom'};{gens})"
            specs.append(InstanceSpec(base, target, f, j, label, tuple(tags)))

    for expr, ring in zip(exprs, rings):
        push(ring, ring, hom_identity(ring), "identity", expr)

        if isinstance(expr, TrivextExpr):
            base = ev.ring(expr.ring)
            f = ev.resolve_hom(EmbedHomExpr(), base, expr)
            push(base, ring, f, "embed", expr)
            if isinstance(expr.ring, QuotExpr):
                inner_base = ev.ring(expr.ring.ring)
                f2 = ev.resolve_hom(ComposeHomExpr(EmbedHomExpr(), ProjHomExpr()), inner_base, expr)
                push(inner_base, ring, f2, "compose-embed-proj", expr)
        if isinstance(expr, QuotExpr):
            base = ev.ring(expr.ring)
            f = ev.resolve_hom(ProjHomExpr(), base, expr)
            push(base, ring, f, "proj", expr)
            if isinstance(expr.ring, TrivextExpr):
                inner_base = ev.ring(expr.ring.ring)
                f2 = ev.resolve_hom(ComposeHomExpr(ProjHomExpr(), EmbedHomExpr()), inner_base, expr)
                push(inner_base, ring, f2, "compose-proj-embed", expr)

    return Catalog(p, rings, exprs, modules, specs)


# -- verdicts -------------------------------------------------------------------


def _record_value(text: str) -> str:
    """Machine-record values carry no spaces and no '=' separators."""
    return text.replace(" ", "_").replace("=", ":")


@dataclass
class Verdict:
    clause: str
    status: str  # verified | vacuous | hypotheses-unmet | violation
    checked: int = 0
    applicable: int = 0
    violations: int = 0
    witness: str | None = None
    reason: str | None = None
    counts: Counter[str] = field(default_factory=Counter)
    details: dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status != "violation"

    def record_pairs(self) -> list[tuple[str, str]]:
        pairs = [
            ("clause", self.clause),
            ("status", self.status),
            ("checked", str(self.checked)),
            ("applicable", str(self.applicable)),
            ("violations", str(self.violations)),
        ]
        if self.reason:
            pairs.append(("reason", _record_value(self.reason)))
        if self.witness:
            pairs.append(("witness", _record_value(self.witness)))
        for k in sorted(self.details):
            pairs.append((k, _record_value(self.details[k])))
        for k in sorted(self.counts):
            pairs.append((f"n_{k}", str(self.counts[k])))
        return pairs


# -- clauses --------------------------------------------------------------------


@dataclass(frozen=True)
class Clause:
    """One statement: a hypothesis filter over an instance's HypothesisReport
    and a conclusion that returns (holds, detail).

    A clause without a conclusion has hypotheses that no finite instance
    meets, so meeting them is an internal error.  `chain` has neither: it
    runs over the whole catalog, never on one instance.
    """

    description: str
    applies: Callable[[HypothesisReport], bool] | None = None
    holds: Callable[[AmalgamationInstance, HypothesisReport], tuple[bool, str | None]] | None = None


def _base_theorem_hypotheses(h: HypothesisReport) -> bool:
    return h.a_local and h.j_proper and h.j_nonzero and h.j_in_rad_b


def _base_local_tqr(h: HypothesisReport) -> bool:
    return (
        _base_theorem_hypotheses(h)
        and h.j_in_zb
        and is_total_quotient_ring(h.maximal_ideal_a.ring)
    )


def _gaussian_equiv_rhs(inst: AmalgamationInstance, h: HypothesisReport) -> bool:
    return is_gaussian(inst.base) and bool(h.fa_j_stable)


def _locality_holds(inst: AmalgamationInstance, h: HypothesisReport) -> tuple[bool, str | None]:
    lhs = is_local(inst.ring) is not None
    rhs = h.a_local and h.j_in_rad_b
    return lhs == rhs, f"R_local={lhs} base_local={h.a_local} J_in_rad={h.j_in_rad_b}"


def _gaussian_descends(inst: AmalgamationInstance, h: HypothesisReport) -> tuple[bool, str | None]:
    if not is_gaussian(inst.ring):
        return True, None
    ok = is_gaussian(inst.base) and is_gaussian(inst.fimage_plus_j)
    return ok, None if ok else "R Gaussian but base or f(A)+J is not"


def _gaussian_criterion_holds(inst: AmalgamationInstance, h: HypothesisReport) -> tuple[bool, str | None]:
    lhs = is_gaussian(inst.ring)
    rhs = _gaussian_equiv_rhs(inst, h)
    return lhs == rhs, f"R_gaussian={lhs} rhs={rhs}"


def _disjoint_image_holds(inst: AmalgamationInstance, h: HypothesisReport) -> tuple[bool, str | None]:
    sub = inst.fimage_plus_j
    lhs = is_gaussian(inst.ring)
    rhs = is_gaussian(sub)
    if lhs != rhs:
        return False, f"R_gaussian={lhs} fimage_gaussian={rhs}"
    if not int(np.unique(inst.to_target.map).size) == inst.ring.size == sub.size:
        return False, "pB is not a bijection onto f(A)+J"
    return True, None


def _duplication_holds(inst: AmalgamationInstance, h: HypothesisReport) -> tuple[bool, str | None]:
    lhs = is_gaussian(inst.ring)
    rhs = is_gaussian(inst.base) and h.j_squared_zero and bool(h.fa_j_stable)
    return lhs == rhs, f"lhs={lhs} rhs={rhs}"


def _local_tqr_holds(inst: AmalgamationInstance, h: HypothesisReport) -> tuple[bool, str | None]:
    ring = inst.ring
    maximal = is_local(ring)
    if maximal is None:
        return False, "R is not local"
    expected = frozenset(int(v) for v in pair_indices(h.maximal_ideal_a.indices, len(inst.j)))
    if maximal.members != expected:
        return False, "maximal ideal of R is not m |><| J"
    if not is_total_quotient_ring(ring):
        return False, "R is not a total quotient ring"
    if not is_prufer(ring):
        return False, "R is not Prufer"
    return True, None


CLAUSES: dict[str, Clause] = {
    "lemma-2.2": Clause(
        "R local iff base local and J inside Rad(B)",
        lambda h: h.j_proper,
        _locality_holds,
    ),
    "thm-2.1:1": Clause(
        "R Gaussian implies base and f(A)+J Gaussian",
        _base_theorem_hypotheses,
        _gaussian_descends,
    ),
    "thm-2.1:2": Clause(
        "J^2=0: R Gaussian iff base Gaussian and f(a)J=f(a)^2J on m",
        lambda h: _base_theorem_hypotheses(h) and h.j_squared_zero,
        _gaussian_criterion_holds,
    ),
    "thm-2.1:3c1": Clause(
        "f injective, f(A) meet J = 0: R Gaussian iff f(A)+J Gaussian",
        lambda h: _base_theorem_hypotheses(h) and h.f_injective and h.fa_meet_j_zero,
        _disjoint_image_holds,
    ),
    "thm-2.1:3c2": Clause(
        "f injective, f(A) meet J != 0, base reduced: criterion of thm-2.1:2",
        lambda h: _base_theorem_hypotheses(h) and h.f_injective and not h.fa_meet_j_zero and h.a_reduced,
    ),
    "thm-2.1:4c1": Clause(
        "f not injective, J meet Nilp(B) = 0, base reduced: R not Gaussian",
        lambda h: _base_theorem_hypotheses(h) and not h.f_injective and h.j_meet_nilp_zero and h.a_reduced,
    ),
    "thm-2.1:4c2": Clause(
        "f not injective, J meet Nilp(B) != 0, base reduced: criterion of thm-2.1:2",
        lambda h: _base_theorem_hypotheses(h) and not h.f_injective and not h.j_meet_nilp_zero and h.a_reduced,
    ),
    "cor-2.3": Clause(
        "duplication Gaussian iff base Gaussian, I^2=0 and aI=a^2I on m",
        lambda h: h.a_local and h.j_proper,
        _duplication_holds,
    ),
    "prop-2.8:1": Clause(
        "base local TQR, f injective, f(A) meet J != 0: R local TQR (Prufer)",
        lambda h: _base_local_tqr(h) and h.f_injective and not h.fa_meet_j_zero,
        _local_tqr_holds,
    ),
    "prop-2.8:2": Clause(
        "base local TQR, f not injective: R local TQR (Prufer)",
        lambda h: _base_local_tqr(h) and not h.f_injective,
        _local_tqr_holds,
    ),
    "chain": Clause("arithmetical => Gaussian => Prufer over the catalog"),
}

CLAUSE_IDS = tuple(CLAUSES)


def _score(v: Verdict, inst: AmalgamationInstance) -> bool | None:
    """Check v's clause on one instance and fold the outcome into v.

    Returns None when the hypotheses are unmet, else whether the conclusion
    holds.
    """
    clause = CLAUSES[v.clause]
    h = inst.hypotheses
    v.checked += 1
    if not clause.applies(h):
        return None
    if clause.holds is None:
        raise InternalCheckError(
            f"{v.clause}: {inst.label} meets hypotheses that no finite instance meets"
            f" ({VACUITY_REASON})"
        )
    v.applicable += 1
    ok, detail = clause.holds(inst, h)
    if not ok:
        v.violations += 1
        if v.witness is None:
            v.witness = f"{inst.label} :: {detail}"
    return ok


def _machine_check_vacuity(catalog: Catalog) -> None:
    """Verify over the catalog that every reduced local ring is a field."""
    for ring in catalog.rings:
        if is_local(ring) is not None and is_reduced(ring) and not is_field(ring):
            raise InternalCheckError(
                f"{ring.label}: finite reduced local ring that is not a field"
            )


def verify_clauses(
    catalog: Catalog, clause_ids: list[str], with_search: bool = False
) -> dict[str, Verdict]:
    """Single sweep over the catalog instances evaluating several clauses.

    Every instance is built exactly once; `chain` (and the witness search,
    when requested) piggybacks on the same pass.
    """
    instance_ids = [c for c in clause_ids if c not in ("cor-2.3", "chain")]
    for cid in instance_ids:
        if cid not in CLAUSES:
            raise KeyError(f"unknown clause {cid!r}")
    verdicts = {cid: Verdict(clause=cid, status="vacuous") for cid in instance_ids}
    want_chain = "chain" in clause_ids or with_search
    sweep = _HierarchySweep() if want_chain else None

    if instance_ids or want_chain:
        for spec in catalog.specs:
            inst = spec.build(catalog.params.size_cap)
            h = inst.hypotheses
            for cid in instance_ids:
                v = verdicts[cid]
                if cid == "lemma-2.2" and not h.j_in_rad_b:
                    v.counts["j_not_in_rad"] += 1
                if _score(v, inst) is None:
                    continue
                for tag in spec.tags:
                    v.counts[f"tag_{tag}"] += 1
                if cid == "thm-2.1:2":
                    v.counts["rhs_true" if _gaussian_equiv_rhs(inst, h) else "rhs_false"] += 1
            if sweep is not None:
                sweep.fold(inst.label, _hierarchy_facts(inst.ring))
    if sweep is not None:
        for ring in catalog.rings:
            sweep.fold(ring.label, _hierarchy_facts(ring))

    for cid in instance_ids:
        v = verdicts[cid]
        if v.violations:
            v.status = "violation"
        elif v.applicable:
            v.status = "verified"
        elif CLAUSES[cid].holds is None:
            _machine_check_vacuity(catalog)
            v.reason = VACUITY_REASON
        else:
            v.reason = "no hypothesis-satisfying instances in the catalog"

    out: dict[str, Verdict] = {}
    for cid in clause_ids:
        if cid == "cor-2.3":
            out[cid] = verify_duplication_criterion(catalog)
        elif cid == "chain":
            out[cid] = sweep.chain_verdict()
        else:
            out[cid] = verdicts[cid]
    if with_search:
        out["search"] = sweep.search_verdict()
    return out


def _is_duplication(inst: AmalgamationInstance) -> bool:
    return inst.base is inst.target and bool((inst.f.map == np.arange(inst.base.size)).all())


def verify_instance(inst: AmalgamationInstance, clause_id: str) -> Verdict:
    """Evaluate one clause on one instance (CLI `verify CLAUSE EXPR`)."""
    if clause_id not in CLAUSES or CLAUSES[clause_id].applies is None:
        raise KeyError(f"clause {clause_id!r} cannot run on a single instance")
    v = Verdict(clause=clause_id, status="hypotheses-unmet")
    if clause_id == "cor-2.3" and not _is_duplication(inst):
        v.checked, v.reason = 1, "instance is not a duplication"
        return v
    ok = _score(v, inst)
    if ok is not None:
        v.status = "verified" if ok else "violation"
    elif clause_id == "cor-2.3":
        v.reason = "duplication criterion needs a local base and proper ideal"
    return v


def verify_duplication_criterion(catalog: Catalog) -> Verdict:
    """cor-2.3 over every local catalog ring of size <= 16 and every proper ideal."""
    v = Verdict(clause="cor-2.3", status="vacuous")
    for ring in catalog.rings:
        if ring.size > 16 or is_local(ring) is None:
            continue
        for ideal in all_ideals(ring):
            if ideal.is_whole:
                continue
            inst = duplication(ring, ideal, catalog.params.size_cap)
            if _score(v, inst):
                v.counts["gaussian_true" if is_gaussian(inst.ring) else "gaussian_false"] += 1
    v.status = "violation" if v.violations else ("verified" if v.applicable else "vacuous")
    return v


def _hierarchy_facts(ring: FiniteRing) -> tuple[bool, bool, bool]:
    return (
        is_arithmetical(ring),
        is_gaussian(ring),
        is_prufer(ring),
    )


class _HierarchySweep:
    """Accumulates the arithmetical => Gaussian => Prufer sweep and the
    non-reversal witness search over every ring it inspects."""

    def __init__(self):
        self.checked = 0
        self.violations = 0
        self.witness: str | None = None
        self.gauss_not_arith: str | None = None
        self.prufer_not_gauss: str | None = None
        self.counts: Counter[str] = Counter()

    def fold(self, label: str, facts: tuple[bool, bool, bool]) -> None:
        arith, gauss, pruf = facts
        self.checked += 1
        if (arith and not gauss) or (gauss and not pruf):
            self.violations += 1
            if self.witness is None:
                self.witness = f"{label} :: arith={arith} gauss={gauss} prufer={pruf}"
        if gauss and not arith:
            self.counts["gaussian_not_arithmetical"] += 1
            if self.gauss_not_arith is None:
                self.gauss_not_arith = label
        if pruf and not gauss:
            self.counts["prufer_not_gaussian"] += 1
            if self.prufer_not_gauss is None:
                self.prufer_not_gauss = label

    def chain_verdict(self) -> Verdict:
        return Verdict(
            clause="chain",
            status="violation" if self.violations else "verified",
            checked=self.checked,
            applicable=self.checked,
            violations=self.violations,
            witness=self.witness,
        )

    def search_verdict(self) -> Verdict:
        found_both = self.gauss_not_arith is not None and self.prufer_not_gauss is not None
        details = {}
        if self.gauss_not_arith:
            details["gaussian_not_arithmetical"] = self.gauss_not_arith
        if self.prufer_not_gauss:
            details["prufer_not_gaussian"] = self.prufer_not_gauss
        return Verdict(
            clause="search",
            status="verified" if found_both else "violation",
            checked=self.checked,
            applicable=self.checked,
            violations=0 if found_both else 1,
            reason="non-reversal demonstrated on witnesses, not proven in general",
            counts=Counter(self.counts),
            details=details,
        )


# -- worked examples -------------------------------------------------------------

Hypothesis = tuple[str, Callable[[AmalgamationInstance], bool]]
Conclusion = tuple[str, bool, Callable[[AmalgamationInstance], bool]]


@dataclass
class ExampleCase:
    example_id: str
    title: str
    instance: AmalgamationInstance | None
    hypotheses: list[Hypothesis]
    conclusions: list[Conclusion]
    out_of_scope_reason: str | None = None
    notes: list[str] = field(default_factory=list)
    # catalog label of the instance checked when the surrogate misses a hypothesis
    replacement: str | None = None


@dataclass
class ExampleReport:
    example_id: str
    title: str
    status: str  # pass | out-of-scope | violation | inconclusive
    instance_label: str | None
    hypothesis_results: list[tuple[str, bool]]
    conclusion_results: list[tuple[str, bool, bool]]  # (name, expected, actual)
    replaced_with: str | None = None
    notes: list[str] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status in ("pass", "out-of-scope")

    def record_pairs(self) -> list[tuple[str, str]]:
        pairs = [("example", self.example_id), ("status", self.status)]
        if self.instance_label:
            pairs.append(("instance", self.instance_label))
        for name, value in self.hypothesis_results:
            pairs.append((f"hyp_{_slug(name)}", str(value).lower()))
        for name, expected, actual in self.conclusion_results:
            pairs.append((f"concl_{_slug(name)}", f"{str(actual).lower()}(expected={str(expected).lower()})"))
        if self.replaced_with:
            pairs.append(("replaced_with", self.replaced_with))
        return pairs


def _slug(name: str) -> str:
    return re.sub(r"[^a-z0-9]+", "_", name.lower()).strip("_")


def _h(inst: AmalgamationInstance) -> HypothesisReport:
    return inst.hypotheses


def _base_local(inst):
    return _h(inst).a_local


def _j_proper_nonzero(inst):
    return _h(inst).j_proper and _h(inst).j_nonzero


def _j_in_rad(inst):
    return _h(inst).j_in_rad_b


def _fimage_equals_target(inst):
    return inst.fimage_plus_j.size == inst.target.size


def _maximal_squares_to_zero(inst):
    m = _h(inst).maximal_ideal_a
    return m is not None and ideal_product(m, m).is_zero


def _r_local_tqr(inst):
    return is_local(inst.ring) is not None and is_total_quotient_ring(inst.ring)


def _along_m_times_module(ev: Evaluator, base_expr: RingExpr, module_expr: ModuleExpr) -> AmalgamationInstance:
    """The local base amalgamated with its idealization by the module E,
    along J = m x E, f the idealization embedding."""
    target_expr = TrivextExpr(base_expr, module_expr)
    base = ev.ring(base_expr)
    target = ev.ring(target_expr)
    j = Ideal(target, pair_indices(is_local(base).indices, target.size // base.size))
    f = ev.resolve_hom(EmbedHomExpr(), base, target_expr)
    return amalgamate(base, target, f, j, size_cap=ev.size_cap)


def _example_2_4(ev: Evaluator) -> ExampleCase:
    inst = _along_m_times_module(ev, ZmodExpr(16), RegularExpr())
    return ExampleCase(
        example_id="2.4",
        title="extension of a reduced local non-field base along m x A",
        instance=inst,
        hypotheses=[
            ("base ring reduced", lambda i: is_reduced(i.base)),
            ("base ring local and not a field", lambda i: _base_local(i) and not is_field(i.base)),
            ("J^2 nonzero", lambda i: not _h(i).j_squared_zero),
        ],
        conclusions=[("amalgamation Gaussian", False, lambda i: is_gaussian(i.ring))],
        out_of_scope_reason=(
            "the stated construction needs an infinite reduced local non-field base; "
            "every finite reduced local ring is a field, so only a non-reduced "
            "analogue (base zmod(16)) is computed for information"
        ),
    )


def _example_2_5(ev: Evaluator) -> ExampleCase:
    expr = AmalgExpr(
        ZmodExpr(4), TrivextExpr(ZmodExpr(4), ResfieldExpr(1)), EmbedHomExpr(), (1, 4)
    )
    inst = ev.instance(expr)
    return ExampleCase(
        example_id="2.5",
        title="arithmetical non-field base with m^2 = 0, extended along I x E",
        instance=inst,
        hypotheses=[
            ("base ring local", _base_local),
            ("base ring arithmetical", lambda i: is_arithmetical(i.base)),
            ("base ring not a field", lambda i: not is_field(i.base)),
            ("maximal ideal squares to zero", _maximal_squares_to_zero),
            ("J proper and nonzero", _j_proper_nonzero),
            ("J inside Rad(B)", _j_in_rad),
            ("J^2 = 0", lambda i: _h(i).j_squared_zero),
            ("f(a)J = f(a)^2 J on m", lambda i: bool(_h(i).fa_j_stable)),
        ],
        conclusions=[
            ("amalgamation Gaussian", True, lambda i: is_gaussian(i.ring)),
            ("amalgamation arithmetical", False, lambda i: is_arithmetical(i.ring)),
        ],
    )


def _example_2_6(ev: Evaluator) -> ExampleCase:
    base_expr = TrivextExpr(ZmodExpr(4), ResfieldExpr(1))
    expr = AmalgExpr(base_expr, TrivextExpr(base_expr, ResfieldExpr(1)), EmbedHomExpr(), (1,))
    inst = ev.instance(expr)
    return ExampleCase(
        example_id="2.6",
        title="idealization tower with J = 0 x E'",
        instance=inst,
        hypotheses=[
            ("base ring local", _base_local),
            ("base ring Gaussian", lambda i: is_gaussian(i.base)),
            ("f injective", lambda i: _h(i).f_injective),
            ("f(A) meets J only in zero", lambda i: _h(i).fa_meet_j_zero),
            ("J proper and nonzero", _j_proper_nonzero),
            ("J inside Rad(B)", _j_in_rad),
            ("f(A) + J is the whole target", _fimage_equals_target),
            ("target ring Gaussian", lambda i: is_gaussian(i.target)),
        ],
        conclusions=[
            ("amalgamation Gaussian", True, lambda i: is_gaussian(i.ring)),
            ("amalgamation arithmetical", False, lambda i: is_arithmetical(i.ring)),
        ],
    )


def _quotient_surrogate(ev: Evaluator, seed_expr: RingExpr) -> AmalgamationInstance:
    """Shared construction of the two truncated-power-series surrogates:
    extend the seed by (seed / m^2), quotient by 0 x (m / m^2), and amalgamate
    the extension with that quotient along the image of 0 x (seed / m^2)."""
    seed = ev.ring(seed_expr)
    m = is_local(seed)
    msq = ideal_product(m, m)
    mod_expr = QuotmodExpr(RegularExpr(), msq.generators())
    ext_expr = TrivextExpr(seed_expr, mod_expr)
    ext = ev.ring(ext_expr)
    quot_module = ev.module(mod_expr, seed)
    mod_proj = quot_module.quotient_projection
    image_of_m = sorted(set(int(mod_proj[x]) for x in m.indices))
    inner = Ideal(ext, image_of_m)  # 0 x (m/m^2) under the pair encoding
    quot_expr = QuotExpr(ext_expr, inner.generators())
    target = ev.ring(quot_expr)
    f = ev.resolve_hom(ProjHomExpr(), ext, quot_expr)
    zero_cross = Ideal(ext, range(quot_module.size))  # 0 x (seed/m^2)
    j_members = sorted(set(int(f.map[x]) for x in zero_cross.indices))
    j = Ideal(target, j_members)
    return amalgamate(ext, target, f, j, size_cap=ev.size_cap)


def _example_2_7(ev: Evaluator) -> ExampleCase:
    seed_expr = TrivextExpr(TpaExpr(2, 1, 3), ResfieldExpr(2))
    inst = _quotient_surrogate(ev, seed_expr)
    return ExampleCase(
        example_id="2.7",
        title="non-arithmetical Gaussian local base, quotient-style amalgamation",
        instance=inst,
        hypotheses=[
            ("base ring local", _base_local),
            ("base ring Gaussian", lambda i: is_gaussian(i.base)),
            ("base ring not arithmetical", lambda i: not is_arithmetical(i.base)),
            ("f not injective", lambda i: not _h(i).f_injective),
            ("J inside Nilp(B)", lambda i: not _h(i).j_meet_nilp_zero and _nilp_contains_j(i)),
            ("J proper and nonzero", _j_proper_nonzero),
            ("J inside Rad(B)", _j_in_rad),
            ("J^2 = 0", lambda i: _h(i).j_squared_zero),
            ("f(a)J = f(a)^2 J on m", lambda i: bool(_h(i).fa_j_stable)),
        ],
        conclusions=[
            ("amalgamation Gaussian", True, lambda i: is_gaussian(i.ring)),
            ("amalgamation arithmetical", False, lambda i: is_arithmetical(i.ring)),
        ],
        notes=["finite surrogate seed: trivext(tpa(2,1,3);resfield(2))"],
        # the extension by seed/m^2 fails the pair check, so the base is not
        # Gaussian; tests re-derive this as the first catalog spec meeting
        # every hypothesis
        replacement="amalg(trivext(zmod(4);resfield(2)),quot(trivext(zmod(4);resfield(2));9),proj;1)",
    )


def _nilp_contains_j(inst: AmalgamationInstance) -> bool:
    return bool(inst.target.nilpotent_mask[inst.j.indices].all())


def _example_2_9(ev: Evaluator) -> ExampleCase:
    inst = ev.instance(DupExpr(ZmodExpr(8), (2,)))
    return ExampleCase(
        example_id="2.9",
        title="duplication along an ideal with nonzero square",
        instance=inst,
        hypotheses=[
            ("base ring local", _base_local),
            ("base ring total quotient ring", lambda i: is_total_quotient_ring(i.base)),
            ("I proper and nonzero", _j_proper_nonzero),
            ("I^2 nonzero", lambda i: not _h(i).j_squared_zero),
        ],
        conclusions=[
            ("amalgamation Prufer", True, lambda i: is_prufer(i.ring)),
            ("amalgamation Gaussian", False, lambda i: is_gaussian(i.ring)),
            ("amalgamation local total quotient ring", True, _r_local_tqr),
        ],
    )


def _example_2_10(ev: Evaluator) -> ExampleCase:
    inst = _along_m_times_module(ev, TrivextExpr(ZmodExpr(4), RegularExpr()), ResfieldExpr(1))
    return ExampleCase(
        example_id="2.10",
        title="extension of Z/4 |x Z/4 along m x E",
        instance=inst,
        hypotheses=[
            ("base ring local", _base_local),
            ("base ring total quotient ring", lambda i: is_total_quotient_ring(i.base)),
            ("base ring not Gaussian", lambda i: not is_gaussian(i.base)),
            ("f injective", lambda i: _h(i).f_injective),
            ("f(A) meets J beyond zero", lambda i: not _h(i).fa_meet_j_zero),
            ("J proper and nonzero", _j_proper_nonzero),
            ("J inside Rad(B)", _j_in_rad),
            ("J inside Z(B)", lambda i: _h(i).j_in_zb),
        ],
        conclusions=[
            ("amalgamation Prufer", True, lambda i: is_prufer(i.ring)),
            ("amalgamation Gaussian", False, lambda i: is_gaussian(i.ring)),
            ("amalgamation local total quotient ring", True, _r_local_tqr),
        ],
    )


def _example_2_11(ev: Evaluator) -> ExampleCase:
    inst = _quotient_surrogate(ev, TpaExpr(2, 2, 3))
    return ExampleCase(
        example_id="2.11",
        title="two-variable truncated power series surrogate",
        instance=inst,
        hypotheses=[
            ("base ring local", _base_local),
            ("base ring total quotient ring", lambda i: is_total_quotient_ring(i.base)),
            ("base ring not Gaussian", lambda i: not is_gaussian(i.base)),
            ("f not injective", lambda i: not _h(i).f_injective),
            ("J proper and nonzero", _j_proper_nonzero),
            ("J inside Rad(B)", _j_in_rad),
            ("J inside Z(B)", lambda i: _h(i).j_in_zb),
            ("target ring local", lambda i: is_local(i.target) is not None),
        ],
        conclusions=[
            ("amalgamation Prufer", True, lambda i: is_prufer(i.ring)),
            ("amalgamation Gaussian", False, lambda i: is_gaussian(i.ring)),
            ("amalgamation local total quotient ring", True, _r_local_tqr),
        ],
        notes=["finite surrogate seed: tpa(2,2,3)"],
    )


EXAMPLE_BUILDERS: dict[str, Callable[[Evaluator], ExampleCase]] = {
    "2.4": _example_2_4,
    "2.5": _example_2_5,
    "2.6": _example_2_6,
    "2.7": _example_2_7,
    "2.9": _example_2_9,
    "2.10": _example_2_10,
    "2.11": _example_2_11,
}

EXAMPLE_IDS = tuple(sorted(EXAMPLE_BUILDERS, key=lambda s: [int(x) for x in s.split(".")]))


def _hypothesis_results(case: ExampleCase, inst: AmalgamationInstance) -> list[tuple[str, bool]]:
    return [(name, bool(check(inst))) for name, check in case.hypotheses]


def _failed(hyp_results: list[tuple[str, bool]]) -> str:
    return ", ".join(name for name, ok in hyp_results if not ok)


def _evaluate_example(case: ExampleCase, ev: Evaluator) -> ExampleReport:
    """Re-check the hypotheses on the surrogate, or on the named replacement
    when the surrogate misses one, then check the conclusions; `inconclusive`
    when the instance checked still misses a hypothesis."""
    start = time.perf_counter()
    inst = case.instance
    hyp_results = _hypothesis_results(case, inst)
    failed = _failed(hyp_results)
    replaced_with = None
    notes = list(case.notes)
    status = None

    if case.out_of_scope_reason is not None:
        notes.append(case.out_of_scope_reason)
        status = "out-of-scope"
    elif failed:
        notes.append(f"surrogate {inst.label} failed re-checked hypotheses: {failed}")
        if case.replacement is None:
            notes.append("no replacement instance is named")
        else:
            inst = ev.instance(parse(case.replacement))
            replaced_with = inst.label
            hyp_results = _hypothesis_results(case, inst)
            failed = _failed(hyp_results)
            if failed:
                notes.append(f"replacement {inst.label} failed re-checked hypotheses: {failed}")
        if failed:
            status = "inconclusive"

    concl = []
    if status != "inconclusive":
        concl = [(name, expected, bool(check(inst))) for name, expected, check in case.conclusions]
    if status is None:
        status = "pass" if all(expected == actual for _, expected, actual in concl) else "violation"
    return ExampleReport(
        example_id=case.example_id,
        title=case.title,
        status=status,
        instance_label=inst.label,
        hypothesis_results=hyp_results,
        conclusion_results=concl,
        replaced_with=replaced_with,
        notes=notes,
        elapsed=time.perf_counter() - start,
    )


def reproduce_examples(
    catalog: Catalog | None = None,
    example_ids: tuple[str, ...] | None = None,
    size_cap: int = DEFAULT_SIZE_CAP,
) -> list[ExampleReport]:
    """Build each worked example, re-check its hypotheses computationally,
    then check its stated conclusions; out-of-scope entries are reported as
    such with the reason rather than skipped silently.  Rings are built under
    `size_cap`, or under the catalog's cap when a catalog is given; the
    catalog supplies nothing else."""
    ev = Evaluator(size_cap=catalog.params.size_cap if catalog is not None else size_cap)
    return [_evaluate_example(EXAMPLE_BUILDERS[ex_id](ev), ev) for ex_id in example_ids or EXAMPLE_IDS]
