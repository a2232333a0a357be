"""Executable verification of the transfer statements over a generated catalog.

Each clause is one entry of `CLAUSES`, stated as data: a description, its
hypotheses as a tuple of names from the predicate table
`amalgamation.PREDICATES`, read in order by `hypothesis_report` until one
fails (`verify CLAUSE EXPR` names it), and its conclusion as statements
(premise names, "=>" or "<=>", consequent names) over the same table.  One
evaluator reads every statement through the per-instance memo `holds`; a
"=>" reads its consequent only when its premise holds; its tallies count
the instances meeting its hypotheses on which named facts read a value.  One
sweep loop scores clauses over (instance, tags) pairs, the catalog's specs
or cor-2.3's small duplications, and takes the rows `chain` and the search
read.  It yields one Verdict per clause; a violation means a bug in this
package (the statements are proven), so the harness treats any violation as
a hard failure with a witness that lists every name read, with its value.

Each worked example is one entry of `EXAMPLES`, stated as data over the
same table: the expression text of its instance (the `instance` it
reports, which `amalgam props` and `verify` accept as well), the names of
its hypotheses and its (conclusion name, expected value) pairs.

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

import functools
import re
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .amalgamation import AmalgamationInstance, RingMemo, amalgamate, duplication, holds, hypothesis_report
from .errors import EvaluationError, InternalCheckError, UnknownClauseError
from .expressions import (
    ComposeHomExpr,
    EmbedHomExpr,
    Evaluator,
    IdHomExpr,
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
    parse,
)
from .ideals import Ideal, all_ideals, ideal_product
from .modules import FiniteModule
from .properties import HIERARCHY, RING_FACTS, is_local
from .rings import DEFAULT_SIZE_CAP, FiniteRing, RingHom, coset_tables, pair_indices, tpa_monomial_count

VACUITY_REASON = "finite reduced local ring is a field"


# -- catalog -------------------------------------------------------------------

# The homs the catalog tries against every ring, with their spec tags; a hom
# that does not apply to a target (an EvaluationError) gives it no specs.
CATALOG_HOMS = (
    ("identity", IdHomExpr()),
    ("embed", EmbedHomExpr()),
    ("proj", ProjHomExpr()),
    ("compose-proj-embed", ComposeHomExpr(ProjHomExpr(), EmbedHomExpr())),
)


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
    """The catalog's identity of a ring: its size, zero, one and tables, all
    in `rings.TABLE_DTYPE` (a quotient candidate's coset tables as well)."""
    return np.array([size, zero, one], dtype="<u4").tobytes() + add.tobytes() + mul.tobytes()


def build_catalog(params: CatalogParams | None = None) -> Catalog:
    """Deterministic generator-family catalog (not isomorphism-complete).

    Rings come from the construction grammar; instances pair every hom of
    `CATALOG_HOMS` that applies to a ring (identity, idealization embedding,
    quotient projection, and projection after embedding) with every proper
    ideal J of the target subject to |A| * |J| <= instance_max.  Rings are
    deduplicated by their tables, and quotient candidates by their coset
    tables before any ring is built or proved.
    """
    p = params or CatalogParams()
    ev = Evaluator(size_cap=p.size_cap)

    rings: list[FiniteRing] = []
    exprs: list[RingExpr] = []
    seen: set[bytes] = set()
    ideals = functools.cache(all_ideals)  # each ring's lattice once per build, keyed by identity

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
            if not msq.is_zero:  # m is nilpotent, so m^2 = m only when m = 0
                if ring.size * (ring.size // len(msq)) <= 64:
                    extend(expr, QuotmodExpr(RegularExpr(), msq.generators()))
        elif m is None and 1 < ring.size <= 8:
            extend(expr, RegularExpr())

    second_generation = [
        (expr, ring)
        for expr, ring in zip(exprs, rings)
        if isinstance(expr, TrivextExpr) and ring.size <= 16 and ring.is_local
    ]
    for expr, ring in second_generation:
        extend(expr, ResfieldExpr(1))

    # quotients of everything small enough; a candidate whose coset tables
    # are already in the catalog is dropped before its ring is built
    for expr, ring in list(zip(exprs, rings)):
        if ring.size > p.quotient_base_max:
            continue
        for ideal in ideals(ring):
            if ideal.is_whole or ideal.is_zero:
                continue
            size, add, mul, _, zero, one = coset_tables(ring, ideal)[2]
            if _table_key(size, zero, one, add, mul) not in seen:
                add_expr(QuotExpr(expr, ideal.generators()))

    # amalgamation instances
    specs: list[InstanceSpec] = []
    for target_expr in exprs:
        for hom_tag, hexpr in CATALOG_HOMS:
            try:
                source_expr, f = ev.hom(hexpr, target_expr)
            except EvaluationError:
                continue
            base, target = f.source, f.target
            ex26_j = None
            embedding = isinstance(target_expr, TrivextExpr) and source_expr is target_expr.ring
            if embedding and isinstance(source_expr, TrivextExpr):
                # f embeds an idealization A into B = A |x E: the 0 x E ideal
                ex26_j = frozenset(pair_indices([base.zero], target.size // base.size).tolist())
            for j in ideals(target):
                if j.is_whole or base.size * len(j) > p.instance_max:
                    continue
                tags = [hom_tag]
                if j.is_zero:
                    tags.append("j-zero")
                if j.members == ex26_j:
                    tags.append("ex2.6-shape")
                gens = ",".join(str(g) for g in j.generators())
                if base is target:
                    label = f"dup({base.label};{gens})"
                else:
                    label = f"amalg({base.label},{target.label},{f.label};{gens})"
                specs.append(InstanceSpec(base, target, f, j, label, tuple(tags)))

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


# One statement of a conclusion: (premise, "=>" or "<=>", consequent), each
# side a conjunction of `PREDICATES` names.
Statement = tuple[tuple[str, ...], str, tuple[str, ...]]


@dataclass(frozen=True)
class Clause:
    """One clause of the paper: its hypotheses, as `PREDICATES` names that
    must all hold, its conclusion, `Statement`s over the same names that
    must all hold on every instance meeting them, and its tallies, (count
    key, a conjunction of names, value), counted over those instances.

    A clause without a conclusion has hypotheses that no finite instance
    meets, so meeting them is an internal error.  `chain` has neither: it
    runs over the whole catalog, never on one instance.
    """

    description: str
    hypotheses: tuple[str, ...] | None = None
    conclusion: tuple[Statement, ...] = ()
    tallies: tuple[tuple[str, tuple[str, ...], bool], ...] = ()


def _conjunction(inst: AmalgamationInstance, names: tuple[str, ...], read: list[tuple[str, bool]]) -> bool:
    """Whether every name holds on inst, read in order up to the first that
    fails; each name read is appended to `read` with its value."""
    for name in names:
        read.append((name, holds(inst, name)))
        if not read[-1][1]:
            return False
    return True


def _conclusion_holds(inst: AmalgamationInstance, clause: Clause) -> tuple[bool, list[tuple[str, bool]]]:
    """Whether every statement of the clause's conclusion holds on inst, read
    in order up to the first that fails, and the names read with their
    values.  A "=>" reads its consequent only when its premise holds."""
    read: list[tuple[str, bool]] = []
    for premise, op, consequent in clause.conclusion:
        lhs = _conjunction(inst, premise, read)
        if op == "=>":
            ok = not lhs or _conjunction(inst, consequent, read)
        else:
            ok = lhs == _conjunction(inst, consequent, read)
        if not ok:
            return False, read
    return True, read


_THEOREM = ("base ring local", "J proper and nonzero", "J inside Rad(B)")
_LOCAL_TQR = (*_THEOREM, "J inside Z(B)", "base ring total quotient ring")
_R_GAUSSIAN = ("amalgamation Gaussian",)
_THM_2_1_2_RHS = ("base ring Gaussian", "f(a)J = f(a)^2 J on m")
_R_LOCAL_TQR: Statement = (
    (),
    "=>",
    ("amalgamation local", "maximal ideal of R is m |><| J", "amalgamation total quotient ring", "amalgamation Prufer"),
)

CLAUSES: dict[str, Clause] = {
    "lemma-2.2": Clause(
        "R local iff base local and J inside Rad(B)",
        ("J proper",),
        ((("amalgamation local",), "<=>", ("base ring local", "J inside Rad(B)")),),
        (("j_not_in_rad", ("J inside Rad(B)",), False),),
    ),
    "thm-2.1:1": Clause(
        "R Gaussian implies base and f(A)+J Gaussian",
        _THEOREM,
        ((_R_GAUSSIAN, "=>", ("base ring Gaussian", "f(A) + J Gaussian")),),
    ),
    "thm-2.1:2": Clause(
        "J^2=0: R Gaussian iff base Gaussian and f(a)J=f(a)^2J on m",
        (*_THEOREM, "J^2 = 0"),
        ((_R_GAUSSIAN, "<=>", _THM_2_1_2_RHS),),
        (("rhs_true", _THM_2_1_2_RHS, True), ("rhs_false", _THM_2_1_2_RHS, False)),
    ),
    "thm-2.1:3c1": Clause(
        "f injective, f(A) meet J = 0: R Gaussian iff f(A)+J Gaussian",
        (*_THEOREM, "f injective", "f(A) meets J only in zero"),
        (
            (_R_GAUSSIAN, "<=>", ("f(A) + J Gaussian",)),
            ((), "=>", ("pB maps R bijectively onto f(A) + J",)),
        ),
    ),
    "thm-2.1:3c2": Clause(
        "f injective, f(A) meet J != 0, base reduced: criterion of thm-2.1:2",
        (*_THEOREM, "f injective", "f(A) meets J beyond zero", "base ring reduced"),
    ),
    "thm-2.1:4c1": Clause(
        "f not injective, J meet Nilp(B) = 0, base reduced: R not Gaussian",
        (*_THEOREM, "f not injective", "J meets Nilp(B) only in zero", "base ring reduced"),
    ),
    "thm-2.1:4c2": Clause(
        "f not injective, J meet Nilp(B) != 0, base reduced: criterion of thm-2.1:2",
        (*_THEOREM, "f not injective", "J meets Nilp(B) beyond zero", "base ring reduced"),
    ),
    "cor-2.3": Clause(
        "duplication Gaussian iff base Gaussian, I^2=0 and aI=a^2I on m",
        ("instance is a duplication", "base ring local", "J proper"),
        ((_R_GAUSSIAN, "<=>", ("base ring Gaussian", "f(a)J = f(a)^2 J on m", "J^2 = 0")),),
        (("gaussian_true", _R_GAUSSIAN, True), ("gaussian_false", _R_GAUSSIAN, False)),
    ),
    "prop-2.8:1": Clause(
        "base local TQR, f injective, f(A) meet J != 0: R local TQR (Prufer)",
        (*_LOCAL_TQR, "f injective", "f(A) meets J beyond zero"),
        (_R_LOCAL_TQR,),
    ),
    "prop-2.8:2": Clause(
        "base local TQR, f not injective: R local TQR (Prufer)",
        (*_LOCAL_TQR, "f not injective"),
        (_R_LOCAL_TQR,),
    ),
    "chain": Clause("arithmetical => Gaussian => Prufer over the catalog"),
}

CLAUSE_IDS = tuple(CLAUSES)


def _score(v: Verdict, inst: AmalgamationInstance) -> tuple[str | None, bool]:
    """Check v's clause on one instance and fold the outcome into v.

    Returns the first hypothesis that fails, or None when all hold, and
    whether the conclusion holds (False when it was not read).
    """
    clause = CLAUSES[v.clause]
    v.checked += 1
    failed = hypothesis_report(inst, clause.hypotheses)
    if failed is not None:
        return failed, False
    if not clause.conclusion:
        raise InternalCheckError(
            f"{v.clause}: {inst.label} meets hypotheses that no finite instance meets"
            f" ({VACUITY_REASON})"
        )
    v.applicable += 1
    ok, read = _conclusion_holds(inst, clause)
    if not ok:
        v.violations += 1
        if v.witness is None:
            v.witness = f"{inst.label} :: " + "; ".join(f"{name}: {value}" for name, value in read)
    return None, ok


# The `properties.HIERARCHY` facts of one ring, (label, arithmetical,
# Gaussian, Prufer), read by `chain` and the search.
Row = tuple[str, bool, bool, bool]


def _row(ring: FiniteRing, label: str) -> Row:
    return label, *(RING_FACTS[name](ring) for name in HIERARCHY)


def _sweep(
    verdicts: list[Verdict], population: Iterable, shared: RingMemo, rows: list[Row] | None = None
) -> None:
    """Score each verdict's clause on every (instance, tags) pair, each
    instance taking its ring through the pass's memo `shared`.  On an
    instance meeting the clause's hypotheses, count its tags and the
    clause's tallies; with `rows`, append the row of each instance ring,
    under the instance's label (a shared ring has its first builder's)."""
    for inst, tags in population:
        inst.memo = shared
        for v in verdicts:
            if _score(v, inst)[0] is not None:
                continue
            for tag in tags:
                v.counts[f"tag_{tag}"] += 1
            for key, names, value in CLAUSES[v.clause].tallies:
                if all(holds(inst, name) for name in names) == value:
                    v.counts[key] += 1
        if rows is not None:
            rows.append(_row(inst.ring, inst.label))


def _finish(v: Verdict, catalog: Catalog) -> Verdict:
    """Set the status of a swept instance clause from its counts; a vacuous
    clause's reason is machine-checked over the catalog's rings."""
    if v.violations:
        v.status = "violation"
    elif v.applicable:
        v.status = "verified"
    elif not CLAUSES[v.clause].conclusion:
        for ring in catalog.rings:
            if RING_FACTS["local"](ring) and RING_FACTS["reduced"](ring) and not RING_FACTS["field"](ring):
                raise InternalCheckError(f"{ring.label}: finite reduced local ring that is not a field")
        v.reason = VACUITY_REASON
    else:
        v.reason = "no hypothesis-satisfying instances in the catalog"
    return v


def verify_clauses(
    catalog: Catalog, clause_ids: list[str], with_search: bool = False
) -> dict[str, Verdict]:
    """Score several clauses in one sweep over the catalog's specs, each
    instance built once; `chain` and the search read the rows it takes, then
    those of the catalog's rings.  cor-2.3 sweeps its own population.

    One `RingMemo` serves the whole call: an instance whose base and
    J-position tables match a ring of the last `MEMO_RINGS` takes that
    ring, its pA and {0} x J, with every fact cached on the ring, and
    proves it again by its own pB.  The memo is dropped on return, so no
    ring outlives the call."""
    for cid in clause_ids:
        if cid not in CLAUSES:
            raise UnknownClauseError(f"unknown clause {cid!r}")
    out = {cid: Verdict(clause=cid, status="vacuous") for cid in clause_ids}
    over_specs = [v for cid, v in out.items() if cid not in ("cor-2.3", "chain")]
    rows: list[Row] | None = [] if "chain" in out or with_search else None
    shared = RingMemo()
    if over_specs or rows is not None:
        cap = catalog.params.size_cap
        _sweep(over_specs, ((spec.build(cap), spec.tags) for spec in catalog.specs), shared, rows)
    for v in over_specs:
        _finish(v, catalog)
    if "cor-2.3" in out:
        out["cor-2.3"] = verify_duplication_criterion(catalog, shared)
    if rows is not None:
        rows += (_row(ring, ring.label) for ring in catalog.rings)
        if "chain" in out:
            out["chain"] = _chain(rows)
        if with_search:
            out["search"] = _search(rows)
    return out


def verify_instance(inst: AmalgamationInstance, clause_id: str) -> Verdict:
    """Evaluate one clause on one instance (CLI `verify CLAUSE EXPR`)."""
    if clause_id not in CLAUSES or CLAUSES[clause_id].hypotheses is None:
        raise UnknownClauseError(f"clause {clause_id!r} cannot run on a single instance")
    v = Verdict(clause=clause_id, status="hypotheses-unmet")
    failed, ok = _score(v, inst)
    if failed is not None:
        v.reason = f"hypothesis fails: {failed}"
    else:
        v.status = "verified" if ok else "violation"
    return v


def verify_duplication_criterion(catalog: Catalog, shared: RingMemo | None = None) -> Verdict:
    """cor-2.3 over every local catalog ring of size <= 16 and every proper
    ideal, the rings taken through `shared`, or a memo of its own."""
    cap = catalog.params.size_cap
    population = (
        (duplication(ring, ideal, cap), ())
        for ring in catalog.rings
        if ring.size <= 16 and ring.is_local
        for ideal in all_ideals(ring)
        if not ideal.is_whole
    )
    v = Verdict(clause="cor-2.3", status="vacuous")
    _sweep([v], population, shared or RingMemo())
    return _finish(v, catalog)


def _chain(rows: list[Row]) -> Verdict:
    """arithmetical => Gaussian => Prufer on every row; the first row that
    breaks it is the witness."""
    broken = [(label, a, g, p) for label, a, g, p in rows if (a and not g) or (g and not p)]
    witness = "{} :: arith={} gauss={} prufer={}".format(*broken[0]) if broken else None
    status = "violation" if broken else "verified"
    return Verdict("chain", status, len(rows), len(rows), len(broken), witness)


def _search(rows: list[Row]) -> Verdict:
    """The non-reversals, witnessed by the first Gaussian ring that is not
    arithmetical and the first Prufer ring that is not Gaussian."""
    found = {
        "gaussian_not_arithmetical": [label for label, a, g, _ in rows if g and not a],
        "prufer_not_gaussian": [label for label, _, g, p in rows if p and not g],
    }
    found = {key: labels for key, labels in found.items() if labels}
    missing = int(len(found) < 2)
    return Verdict(
        "search", "violation" if missing else "verified", len(rows), len(rows), missing,
        reason="non-reversal demonstrated on witnesses, not proven in general",
        counts=Counter({key: len(labels) for key, labels in found.items()}),
        details={key: labels[0] for key, labels in found.items()},
    )


# -- worked examples -------------------------------------------------------------


@dataclass(frozen=True)
class ExampleCase:
    """A worked example stated as data: the expression of its instance, the
    `PREDICATES` names of its hypotheses, and (name, expected) conclusions."""

    title: str
    expression: str
    hypotheses: tuple[str, ...]
    conclusions: tuple[tuple[str, bool], ...]
    out_of_scope_reason: str | None = None
    notes: tuple[str, ...] = ()
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


_GAUSSIAN_NOT_ARITHMETICAL = (("amalgamation Gaussian", True), ("amalgamation arithmetical", False))
_PRUFER_LOCAL_TQR = (
    ("amalgamation Prufer", True),
    ("amalgamation Gaussian", False),
    ("amalgamation local total quotient ring", True),
)

# The surrogates of 2.4 and 2.10 take J = m x E in trivext(base;E), f the
# embedding.  Those of 2.7 and 2.11 extend a seed by seed/m^2, quotient the
# extension by 0 x (m/m^2), and take J the image of 0 x (seed/m^2);
# tests/test_harness.py re-derives each text from its construction.
EXAMPLES: dict[str, ExampleCase] = {
    "2.4": ExampleCase(
        "extension of a reduced local non-field base along m x A",
        "amalg(zmod(16),trivext(zmod(16);regular),embed;1,32)",
        ("base ring reduced", "base ring local and not a field", "J^2 nonzero"),
        (("amalgamation Gaussian", False),),
        out_of_scope_reason=(
            "the stated construction needs an infinite reduced local non-field base; "
            "every finite reduced local ring is a field, so only a non-reduced "
            "analogue (base zmod(16)) is computed for information"
        ),
    ),
    "2.5": ExampleCase(
        "arithmetical non-field base with m^2 = 0, extended along I x E",
        "amalg(zmod(4),trivext(zmod(4);resfield(1)),embed;1,4)",
        ("base ring local", "base ring arithmetical", "base ring not a field", "maximal ideal squares to zero",
         "J proper and nonzero", "J inside Rad(B)", "J^2 = 0", "f(a)J = f(a)^2 J on m"),
        _GAUSSIAN_NOT_ARITHMETICAL,
    ),
    "2.6": ExampleCase(
        "idealization tower with J = 0 x E'",
        "amalg(trivext(zmod(4);resfield(1)),trivext(trivext(zmod(4);resfield(1));resfield(1)),embed;1)",
        ("base ring local", "base ring Gaussian", "f injective", "f(A) meets J only in zero",
         "J proper and nonzero", "J inside Rad(B)", "f(A) + J is the whole target", "target ring Gaussian"),
        _GAUSSIAN_NOT_ARITHMETICAL,
    ),
    "2.7": ExampleCase(
        "non-arithmetical Gaussian local base, quotient-style amalgamation",
        "amalg(trivext(trivext(tpa(2,1,3);resfield(2));quotmod(regular;16)),"
        "quot(trivext(trivext(tpa(2,1,3);resfield(2));quotmod(regular;16));1,2,8),proj;1)",
        ("base ring local", "base ring Gaussian", "base ring not arithmetical", "f not injective",
         "J inside Nilp(B)", "J proper and nonzero", "J inside Rad(B)", "J^2 = 0", "f(a)J = f(a)^2 J on m"),
        _GAUSSIAN_NOT_ARITHMETICAL,
        notes=("finite surrogate seed: trivext(tpa(2,1,3);resfield(2))",),
        # the extension by seed/m^2 fails the pair check, so the base is not
        # Gaussian; tests re-derive this as the first catalog spec meeting
        # every hypothesis
        replacement="amalg(trivext(zmod(4);resfield(2)),quot(trivext(zmod(4);resfield(2));9),proj;1)",
    ),
    "2.9": ExampleCase(
        "duplication along an ideal with nonzero square",
        "dup(zmod(8);2)",
        ("base ring local", "base ring total quotient ring", "I proper and nonzero", "I^2 nonzero"),
        _PRUFER_LOCAL_TQR,
    ),
    "2.10": ExampleCase(
        "extension of Z/4 |x Z/4 along m x E",
        "amalg(trivext(zmod(4);regular),trivext(trivext(zmod(4);regular);resfield(1)),embed;1,2,16)",
        ("base ring local", "base ring total quotient ring", "base ring not Gaussian", "f injective",
         "f(A) meets J beyond zero", "J proper and nonzero", "J inside Rad(B)", "J inside Z(B)"),
        _PRUFER_LOCAL_TQR,
    ),
    "2.11": ExampleCase(
        "two-variable truncated power series surrogate",
        "amalg(trivext(tpa(2,2,3);quotmod(regular;8,16,32)),"
        "quot(trivext(tpa(2,2,3);quotmod(regular;8,16,32));2,4),proj;1)",
        ("base ring local", "base ring total quotient ring", "base ring not Gaussian", "f not injective",
         "J proper and nonzero", "J inside Rad(B)", "J inside Z(B)", "target ring local"),
        _PRUFER_LOCAL_TQR,
        notes=("finite surrogate seed: tpa(2,2,3)",),
    ),
}

EXAMPLE_IDS = tuple(EXAMPLES)


def _hypothesis_results(case: ExampleCase, inst: AmalgamationInstance) -> list[tuple[str, bool]]:
    return [(name, holds(inst, name)) for name in case.hypotheses]


def _failed(hyp_results: list[tuple[str, bool]]) -> str:
    return ", ".join(name for name, ok in hyp_results if not ok)


def _evaluate_example(example_id: str, case: ExampleCase, ev: Evaluator) -> ExampleReport:
    """Build the example's instance, re-check the hypotheses on it, or on the
    named replacement when it misses one, then check the conclusions;
    `inconclusive` when the instance checked still misses a hypothesis."""
    start = time.perf_counter()
    inst = ev.instance(parse(case.expression))
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
        concl = [(name, expected, holds(inst, name)) for name, expected in case.conclusions]
    if status is None:
        status = "pass" if all(expected == actual for _, expected, actual in concl) else "violation"
    return ExampleReport(
        example_id=example_id,
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
    catalog supplies nothing else.  Each example gets its own Evaluator, so
    no example's rings outlive its report."""
    cap = catalog.params.size_cap if catalog is not None else size_cap
    return [_evaluate_example(ex_id, EXAMPLES[ex_id], Evaluator(cap)) for ex_id in example_ids or EXAMPLE_IDS]
