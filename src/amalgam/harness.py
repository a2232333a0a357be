"""Executable verification of the transfer statements over a catalog.

The catalog is frozen text: its rings as expression labels,
`catalog.CATALOG_RINGS`, and the proper ideals of each as generator
tuples, `catalog.CATALOG_IDEALS`.  `build_catalog` builds each ring,
closes each tuple into its ideal with `ideal_generated`, and pairs the
ring with the homs of `CATALOG_HOMS` and those ideals into deferred
instances; cor-2.3 reads the same ideal lists, so neither enumerates an
ideal lattice (the family generator both lists came from lives with the
tests, which re-derive them from it, the J lists with the enumerator).

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

import re
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

from .amalgamation import AmalgamationInstance, RingMemo, amalgamate, duplication, holds, hypothesis_report, instance_label
from .catalog import CATALOG_IDEALS, CATALOG_RINGS
from .errors import EvaluationError, InternalCheckError, UnknownClauseError
from .expressions import (
    ComposeHomExpr,
    EmbedHomExpr,
    Evaluator,
    IdHomExpr,
    ProjHomExpr,
    RingExpr,
    TrivextExpr,
    parse,
)
from .ideals import Ideal, ideal_generated
from .properties import HIERARCHY, RING_FACTS
from .rings import DEFAULT_SIZE_CAP, FiniteRing, RingHom, pair_indices

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
# the bound |A| * |J| on the catalog's instances
INSTANCE_MAX = 256


@dataclass(frozen=True)
class InstanceSpec:
    """Deferred amalgamation instance; the ring is built on demand."""

    base: FiniteRing
    target: FiniteRing
    f: RingHom
    j: Ideal
    tags: tuple[str, ...]

    @property
    def label(self) -> str:
        return instance_label(self.base, self.target, self.f, self.j)

    def build(self, size_cap: int = DEFAULT_SIZE_CAP) -> AmalgamationInstance:
        return amalgamate(self.base, self.target, self.f, self.j, size_cap)


@dataclass
class Catalog:
    size_cap: int
    rings: list[FiniteRing]
    ring_exprs: list[RingExpr]
    ideals: list[list[Ideal]]  # the proper ideals of each ring, in lattice order
    specs: list[InstanceSpec]


def build_catalog(entries: Iterable[tuple] | None = None, size_cap: int = DEFAULT_SIZE_CAP) -> Catalog:
    """The catalog over (ring label, its proper ideals as generator tuples)
    entries, by default the frozen lists of `catalog.CATALOG_RINGS` and
    `catalog.CATALOG_IDEALS` (not isomorphism-complete).

    Each label is parsed and built by one Evaluator under `size_cap`; a ring
    past the cap raises `CapExceededError`.  Then each generator tuple is
    closed into its ideal by `ideal_generated`, so no ideal lattice is
    enumerated, and a stale tuple could change the population but never
    yield a non-ideal.  Instances pair every hom of `CATALOG_HOMS` that
    applies to a ring (identity, idealization embedding, quotient
    projection, and projection after embedding) with every listed ideal J
    of the target subject to |A| * |J| <= `INSTANCE_MAX`.
    """
    ev = Evaluator(size_cap=size_cap)
    entries = list(zip(CATALOG_RINGS, CATALOG_IDEALS, strict=True) if entries is None else entries)
    exprs = [parse(label) for label, _ in entries]
    rings = [ev.ring(expr) for expr in exprs]
    ideals = [[ideal_generated(ring, gens) for gens in lists] for ring, (_, lists) in zip(rings, entries)]
    specs: list[InstanceSpec] = []
    for target_expr, target, proper in zip(exprs, rings, ideals):
        for hom_tag, hexpr in CATALOG_HOMS:
            try:
                source_expr, f = ev.hom(hexpr, target_expr)
            except EvaluationError:
                continue
            base = f.source
            ex26_j = None
            embedding = isinstance(target_expr, TrivextExpr) and source_expr is target_expr.ring
            if embedding and isinstance(source_expr, TrivextExpr):
                # f embeds an idealization A into B = A |x E: the 0 x E ideal
                ex26_j = frozenset(pair_indices([base.zero], target.size // base.size).tolist())
            for j in proper:
                if base.size * len(j) > INSTANCE_MAX:
                    continue
                tags = [hom_tag]
                if j.is_zero:
                    tags.append("j-zero")
                if j.members == ex26_j:
                    tags.append("ex2.6-shape")
                specs.append(InstanceSpec(base, target, f, j, tuple(tags)))

    return Catalog(size_cap, rings, exprs, ideals, specs)


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
    ring and its pA, with every fact cached on the ring, and proves it
    again by its own pB.  The memo is dropped on return, so no
    ring outlives the call."""
    for cid in clause_ids:
        if cid not in CLAUSES:
            raise UnknownClauseError(f"unknown clause {cid!r}")
    out = {cid: Verdict(clause=cid, status="vacuous") for cid in clause_ids}
    over_specs = [v for cid, v in out.items() if cid not in ("cor-2.3", "chain")]
    rows: list[Row] | None = [] if "chain" in out or with_search else None
    shared = RingMemo()
    if over_specs or rows is not None:
        cap = catalog.size_cap
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
    """cor-2.3 over every local catalog ring of size <= 16 and each of its
    proper ideals, as the catalog lists them, the rings taken through
    `shared`, or a memo of its own."""
    cap = catalog.size_cap
    population = (
        (duplication(ring, ideal, cap), ())
        for ring, ideals in zip(catalog.rings, catalog.ideals)
        if ring.size <= 16 and ring.is_local
        for ideal in ideals
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
    cap = catalog.size_cap if catalog is not None else size_cap
    return [_evaluate_example(ex_id, EXAMPLES[ex_id], Evaluator(cap)) for ex_id in example_ids or EXAMPLE_IDS]
