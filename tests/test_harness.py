import ast
import dataclasses
import hashlib
import inspect
import re
import weakref
from collections import Counter

import pytest

import amalgam.amalgamation
import amalgam.expressions
import amalgam.harness as harness
from amalgam.cli import main
from amalgam.errors import CapExceededError, InternalCheckError, UnknownClauseError
from amalgam.amalgamation import PREDICATES, ROLES, amalgamate, duplication, f_image_plus_j, holds
from amalgam.expressions import (
    EmbedHomExpr,
    Evaluator,
    ProjHomExpr,
    QuotExpr,
    QuotmodExpr,
    RegularExpr,
    ResfieldExpr,
    TpaExpr,
    TrivextExpr,
    ZmodExpr,
    parse,
)
from amalgam.harness import (
    CLAUSE_IDS,
    CLAUSES,
    EXAMPLES,
    ExampleCase,
    _evaluate_example,
    build_catalog,
    verify_clauses,
    verify_duplication_criterion,
    verify_instance,
)
from amalgam.ideals import Ideal, all_ideals, ideal_generated, ideal_product
from amalgam.properties import RING_FACTS, is_local
from amalgam.rings import RingHom, coset_tables, pair_indices, product, quotient, zmod
from catalog_generator import SMALL_PARAMS, _table_key, generated_catalog
from oracles import set_side_conditions


@pytest.fixture(scope="module")
def small_catalog():
    return generated_catalog(SMALL_PARAMS)


def test_catalog_membership(catalog):
    labels = {r.label for r in catalog.rings}
    for expected in (
        "zmod(4)",
        "zmod(8)",
        "tpa(2,1,3)",
        "trivext(zmod(4);regular)",
        "trivext(zmod(4);resfield(1))",
    ):
        assert expected in labels


def test_catalog_deterministic():
    a = generated_catalog(SMALL_PARAMS)
    b = generated_catalog(SMALL_PARAMS)
    assert [r.label for r in a.rings] == [r.label for r in b.rings]
    assert [s.label for s in a.specs] == [s.label for s in b.specs]
    assert [s.tags for s in a.specs] == [s.tags for s in b.specs]


# sha256 over the default catalog's ring labels, then its spec labels with
# their tags, in catalog order.  An intended catalog change re-records it
# and declares the change.
DEFAULT_CATALOG_DIGEST = "47696e16da8da621082e3eaa43a9ecff815e5be19bb6455ee2f2cb5407e73e58"


def test_default_catalog_digest(catalog):
    h = hashlib.sha256()
    for ring in catalog.rings:
        h.update(ring.label.encode() + b"\n")
    for spec in catalog.specs:
        h.update(f"{spec.label}\t{','.join(spec.tags)}\n".encode())
    assert (len(catalog.rings), len(catalog.specs)) == (158, 2539)
    assert h.hexdigest() == DEFAULT_CATALOG_DIGEST


def test_every_catalog_hom_has_default_catalog_specs(catalog):
    counts = Counter(spec.tags[0] for spec in catalog.specs)
    assert set(counts) == {tag for tag, _ in harness.CATALOG_HOMS}, counts


def test_every_instance_label_is_derived_from_its_four_fields(catalog):
    # `instance_label` names an instance from (A, B, f, J): `amalgamate`
    # takes no label and a spec stores none
    assert "label" not in inspect.signature(amalgamate).parameters
    assert [f.name for f in dataclasses.fields(harness.InstanceSpec)] == ["base", "target", "f", "j", "tags"]
    for spec in catalog.specs:
        assert spec.label == spec.build().label


def test_a_duplication_is_the_identity_of_its_own_ring():
    # the swap of product(zmod(2),zmod(2)) is an automorphism of A, so B is
    # A, yet A |><|^swap J is no duplication; the identity map gives one
    ring = product(zmod(2), zmod(2))
    j = ideal_generated(ring, [1])
    swapped = amalgamate(ring, ring, RingHom(ring, ring, [0, 2, 1, 3]), j)
    assert swapped.label == "amalg(product(zmod(2),zmod(2)),product(zmod(2),zmod(2)),hom;1)"
    assert not swapped.f.is_identity and not holds(swapped, "instance is a duplication")
    dup = duplication(ring, j)
    assert dup.label == "dup(product(zmod(2),zmod(2));1)"
    assert dup.f.is_identity and holds(dup, "instance is a duplication")


def test_an_identity_amalgamation_is_named_as_its_duplication(capsys):
    # B is A's own ring object and f its identity map, so the instance is
    # dup(A;J) however the text wrote it; only `expr=` tells the lines apart
    lines = []
    for text in ("amalg(zmod(8),zmod(8),id;2)", "dup(zmod(8);2)"):
        assert main(["props", text, "--machine", "--witness"]) == 0
        lines.append(capsys.readouterr().out)
    assert lines[0] == (
        "kind=props expr=amalg(zmod(8),zmod(8),id;2) size=32 local=true"
        " maximal_ideal={0,1,2,3,8,9,10,11,16,17,18,19,24,25,26,27} reduced=false field=false"
        " total_quotient_ring=true chain_ring=false arithmetical=false gaussian=false prufer=true"
        " gaussian_witness=(1,8)indup(zmod(8);2) arithmetical_witness={0,2}|{0,16}|{0,18}\n"
    )
    assert lines[1] == lines[0].replace("expr=amalg(zmod(8),zmod(8),id;2)", "expr=dup(zmod(8);2)")


def test_catalog_builds_only_the_quotients_it_keeps(monkeypatch):
    calls = []

    def counted(ring, ideal):
        calls.append(ring.label)
        return quotient(ring, ideal)

    monkeypatch.setattr(amalgam.expressions, "quotient", counted)
    catalog = build_catalog()
    kept = sum(isinstance(expr, QuotExpr) for expr in catalog.ring_exprs)
    assert len(calls) == kept == 38


def test_quotient_candidate_key_is_the_built_ring_key(small_catalog):
    checked = 0
    for ring in small_catalog.rings:
        if ring.size > SMALL_PARAMS.quotient_base_max:
            continue
        try:
            ideals = all_ideals(ring)
        except CapExceededError:
            continue
        for ideal in ideals:
            if ideal.is_whole or ideal.is_zero:
                continue
            size, add, mul, _, zero, one = coset_tables(ring, ideal)[2]
            built, _ = quotient(ring, ideal)
            assert _table_key(size, zero, one, add, mul) == _table_key(
                built.size, built.zero, built.one, built.add, built.mul
            ), f"{ring.label} / {ideal!r}"
            checked += 1
    assert checked


def test_hom_kernels_pass_the_closure_check(small_catalog):
    # `RingHom.kernel` skips the closure check, since a hom's kernel is an ideal
    ev = Evaluator()
    quot_exprs = [e for e in small_catalog.ring_exprs if isinstance(e, QuotExpr)]
    assert quot_exprs
    for expr in quot_exprs:
        _, proj = ev.hom(ProjHomExpr(), expr, ev.ring(expr.ring))
        proj.kernel()._validate()
    for spec in small_catalog.specs:
        inst = spec.build()
        zero_j = inst.to_base.kernel()
        zero_j._validate()
        assert zero_j.indices.tolist() == pair_indices([spec.base.zero], len(spec.j)).tolist()


def test_catalog_instance_statistics(catalog):
    with_sq_zero = with_sq_nonzero = 0
    examples = [Evaluator().instance(parse(case.expression)) for case in EXAMPLES.values()]
    for inst in [*(spec.build() for spec in catalog.specs[:300]), *examples]:
        if holds(inst, "J^2 = 0"):
            with_sq_zero += 1
        else:
            with_sq_nonzero += 1
        # the mask comparisons agree with the member-set loops they replaced
        for name, expected in set_side_conditions(inst).items():
            assert holds(inst, name) == expected, (inst.label, name)
    assert with_sq_zero > 0 and with_sq_nonzero > 0


def test_j_squared_zero_agrees_with_the_ideal_product(small_catalog):
    # "J^2 = 0" reads the J product table; the ideal product is the reference
    ev = Evaluator()
    examples = [
        ev.instance(parse(text))
        for case in EXAMPLES.values()
        for text in filter(None, (case.expression, case.replacement))
    ]
    values = set()
    for inst in [*(spec.build() for spec in small_catalog.specs), *examples]:
        values.add(holds(inst, "J^2 = 0"))
        assert holds(inst, "J^2 = 0") == ideal_product(inst.j, inst.j).is_zero, inst.label
    assert values == {True, False}


def test_each_predicate_is_evaluated_at_most_once_per_instance(small_catalog, monkeypatch):
    seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
    repeats, nonlocal_reads, evaluated = [], [], Counter()

    def counted(name, predicate):
        def wrapper(inst):
            names = seen.setdefault(inst, set())
            if name in names:
                repeats.append((inst.label, name))
            names.add(name)
            evaluated[name] += 1
            if name == "f(a)J = f(a)^2 J on m" and is_local(inst.base) is None:
                nonlocal_reads.append(inst.label)
            return predicate(inst)

        return wrapper

    for name, predicate in list(PREDICATES.items()):
        monkeypatch.setitem(PREDICATES, name, counted(name, predicate))
    verify_clauses(small_catalog, list(CLAUSE_IDS), with_search=True)
    harness.reproduce_examples()
    assert repeats == []
    assert nonlocal_reads == []
    assert evaluated["f(a)J = f(a)^2 J on m"] > 0 and evaluated["instance is a duplication"] > 0


def test_fimage_plus_j_is_built_only_for_gaussian_r(small_catalog, monkeypatch):
    # thm-2.1:1 reads "f(A) + J Gaussian" only once R is Gaussian
    built = set()

    def counted(target, f, j):
        built.add((id(f), id(j)))
        return f_image_plus_j(target, f, j)

    monkeypatch.setattr(amalgam.amalgamation, "f_image_plus_j", counted)
    assert verify_clauses(small_catalog, ["thm-2.1:1"])["thm-2.1:1"].status == "verified"
    gaussian = set()
    for spec in small_catalog.specs:
        if (id(spec.f), id(spec.j)) in built:
            inst = spec.build()
            gaussian.add(holds(inst, "amalgamation Gaussian"))
    assert gaussian == {True}


def test_small_catalog_sweep_clean(small_catalog):
    verdicts = verify_clauses(small_catalog, list(CLAUSE_IDS), with_search=True)
    for cid, v in verdicts.items():
        assert v.violations == 0, f"{cid}: {v.witness}"
    assert verdicts["lemma-2.2"].status == "verified"
    assert verdicts["thm-2.1:3c2"].status == "vacuous"
    assert verdicts["chain"].status == "verified"


def test_verify_single_instance_statuses():
    verdict = verify_instance(Evaluator().instance(parse("dup(zmod(8);2)")), "cor-2.3")
    assert verdict.status == "verified"
    # J^2 != 0 leaves thm-2.1:2 without its hypotheses
    verdict = verify_instance(Evaluator().instance(parse("dup(zmod(8);2)")), "thm-2.1:2")
    assert (verdict.status, verdict.checked, verdict.applicable) == ("hypotheses-unmet", 1, 0)
    assert verdict.reason == "hypothesis fails: J^2 = 0"
    verdict = verify_instance(Evaluator().instance(parse("dup(zmod(8);4)")), "thm-2.1:2")
    assert verdict.status == "verified"
    verdict = verify_instance(Evaluator().instance(parse("dup(zmod(4);2)")), "lemma-2.2")
    assert verdict.status == "verified"
    # an unmet verdict names the first conjunct that fails
    not_dup = Evaluator().instance(parse("amalg(zmod(4),quot(zmod(4);2),proj;1)"))
    verdict = verify_instance(not_dup, "cor-2.3")
    assert (verdict.status, verdict.checked, verdict.applicable) == ("hypotheses-unmet", 1, 0)
    assert verdict.reason == "hypothesis fails: instance is a duplication"
    verdict = verify_instance(not_dup, "lemma-2.2")
    assert (verdict.status, verdict.checked, verdict.applicable) == ("hypotheses-unmet", 1, 0)
    assert verdict.reason == "hypothesis fails: J proper"


def test_verify_unknown_clause():
    with pytest.raises(UnknownClauseError):
        verify_instance(Evaluator().instance(parse("dup(zmod(4);2)")), "lemma-9.9")
    with pytest.raises(UnknownClauseError):
        verify_instance(Evaluator().instance(parse("dup(zmod(4);2)")), "chain")
    assert main(["verify", "lemma-9.9", "dup(zmod(4);2)"]) == 2


def test_unknown_predicate_name_is_an_internal_error(monkeypatch, capsys):
    # a misspelled `PREDICATES` name is a bug in this package, not bad input
    monkeypatch.setitem(CLAUSES, "lemma-2.2", dataclasses.replace(CLAUSES["lemma-2.2"], hypotheses=("J proprer",)))
    assert main(["verify", "lemma-2.2", "dup(zmod(4);2)"]) == 3
    assert "internal error" in capsys.readouterr().err


def test_duplication_criterion_includes_named_cases(small_catalog):
    verdict = verify_duplication_criterion(small_catalog)
    assert verdict.status == "verified"
    assert verdict.counts.get("gaussian_true", 0) > 0
    assert verdict.counts.get("gaussian_false", 0) > 0
    assert verdict.counts["gaussian_true"] + verdict.counts["gaussian_false"] == verdict.applicable
    # tags are catalog data, and the duplications carry none
    assert not any(key.startswith("tag_") for key in verdict.counts)


def test_tallies_count_the_instances_meeting_the_hypotheses(small_catalog):
    verdicts = verify_clauses(small_catalog, ["lemma-2.2", "thm-2.1:2", "cor-2.3"])
    lemma = verdicts["lemma-2.2"]
    outside_rad = sum(not spec.target.nilpotent_mask[spec.j.indices].all() for spec in small_catalog.specs)
    assert lemma.applicable == len(small_catalog.specs)
    assert 0 < lemma.counts["j_not_in_rad"] == outside_rad
    thm = verdicts["thm-2.1:2"]
    assert thm.counts["rhs_true"] > 0 and thm.counts["rhs_true"] + thm.counts["rhs_false"] == thm.applicable
    cor = verdicts["cor-2.3"]
    assert cor.applicable > 0 and cor.counts["gaussian_true"] + cor.counts["gaussian_false"] == cor.applicable


def _synthetic_case(replacement):
    return ExampleCase(
        title="synthetic case whose surrogate misses a hypothesis",
        expression="dup(zmod(8);2)",  # J^2 != 0
        hypotheses=("base ring local", "J^2 = 0", "J proper and nonzero"),
        conclusions=(("amalgamation Gaussian", True),),
        replacement=replacement,
    )


def test_example_fallback_machinery():
    ev = Evaluator()
    surrogate_note = "surrogate dup(zmod(8);2) failed re-checked hypotheses: J^2 = 0"

    report = _evaluate_example("t.1", _synthetic_case("dup(zmod(8);4)"), ev)
    assert report.status == "pass"
    assert report.replaced_with == report.instance_label == "dup(zmod(8);4)"
    assert all(ok for _, ok in report.hypothesis_results)
    assert report.conclusion_results == [("amalgamation Gaussian", True, True)]
    assert surrogate_note in report.notes

    # the named replacement is re-checked too: J = 0 misses "J proper and nonzero"
    report = _evaluate_example("t.1", _synthetic_case("dup(zmod(8);)"), ev)
    assert report.status == "inconclusive"
    assert report.replaced_with == "dup(zmod(8);)"
    assert ("J proper and nonzero", False) in report.hypothesis_results
    assert report.conclusion_results == []
    assert report.notes[-1] == "replacement dup(zmod(8);) failed re-checked hypotheses: J proper and nonzero"

    report = _evaluate_example("t.1", _synthetic_case(None), ev)
    assert report.status == "inconclusive"
    assert report.replaced_with is None
    assert report.instance_label == "dup(zmod(8);2)"
    assert report.notes == [surrogate_note, "no replacement instance is named"]


def test_example_2_7_replacement_is_the_first_catalog_match(catalog, example_reports):
    # independent route to example 2.7's named replacement: the linear scan
    # of the catalog for the first spec meeting every hypothesis
    case = EXAMPLES["2.7"]

    def meets_hypotheses(inst):
        return all(PREDICATES[name](inst) for name in case.hypotheses)

    assert not meets_hypotheses(Evaluator().instance(parse(case.expression)))
    scanned = next(
        inst
        for inst in (spec.build(catalog.size_cap) for spec in catalog.specs)
        if meets_hypotheses(inst)
    )
    named = Evaluator().instance(parse(case.replacement))
    assert scanned.label == named.label == case.replacement
    for a, b in ((scanned.base, named.base), (scanned.target, named.target), (scanned.ring, named.ring)):
        assert a.same_tables(b)
    assert (scanned.f.map == named.f.map).all()
    assert scanned.j.members == named.j.members
    assert example_reports["2.7"].replaced_with == case.replacement
    # the catalog supplies only the size cap: without one the same replacement is used
    (report,) = harness.reproduce_examples(example_ids=("2.7",))
    assert report.status == "pass" and report.replaced_with == case.replacement


@pytest.mark.parametrize("cid", ["thm-2.1:3c2", "thm-2.1:4c1", "thm-2.1:4c2"])
def test_unsatisfiable_clause_match_is_an_internal_error(cid, small_catalog, monkeypatch, capsys):
    monkeypatch.setitem(CLAUSES, cid, dataclasses.replace(CLAUSES[cid], hypotheses=()))
    # raised on the first instance, not after the sweep
    with pytest.raises(InternalCheckError, match=re.escape(small_catalog.specs[0].label)):
        verify_clauses(small_catalog, [cid])
    with pytest.raises(InternalCheckError):
        verify_instance(Evaluator().instance(parse("dup(zmod(4);2)")), cid)
    assert main(["verify", cid, "dup(zmod(4);2)"]) == 3
    assert "internal error" in capsys.readouterr().err


def test_verdict_records_are_stable(small_catalog):
    a = verify_clauses(small_catalog, ["lemma-2.2"])["lemma-2.2"].record_pairs()
    b = verify_clauses(small_catalog, ["lemma-2.2"])["lemma-2.2"].record_pairs()
    assert a == b


# one name each clause's conclusion reads on every instance meeting its
# hypotheses (thm-2.1:1's consequent on those whose R is Gaussian)
FLIPPED = {
    "lemma-2.2": "amalgamation local",
    "thm-2.1:1": "base ring Gaussian",
    "thm-2.1:2": "amalgamation Gaussian",
    "thm-2.1:3c1": "pB maps R bijectively onto f(A) + J",
    "cor-2.3": "f(a)J = f(a)^2 J on m",
    "prop-2.8:1": "maximal ideal of R is m |><| J",
    "prop-2.8:2": "amalgamation total quotient ring",
}


def test_flipped_names_cover_every_conclusion():
    assert set(FLIPPED) == {cid for cid, clause in CLAUSES.items() if clause.conclusion}
    for cid, name in FLIPPED.items():
        assert any(name in (*premise, *consequent) for premise, _, consequent in CLAUSES[cid].conclusion)


@pytest.mark.parametrize("cid", sorted(FLIPPED))
def test_violation_path_reports_witness(cid, small_catalog, monkeypatch):
    # the statements are proven, so a violation can only come from a bug;
    # simulate one by negating a predicate the conclusion reads
    name = FLIPPED[cid]
    monkeypatch.setitem(PREDICATES, name, lambda inst, real=PREDICATES[name]: not real(inst))
    verdict = verify_clauses(small_catalog, [cid])[cid]
    assert verdict.status == "violation" and verdict.violations > 0
    assert not verdict.ok
    assert ":: " in verdict.witness and f"{name}: " in verdict.witness


def test_chain_and_search_violation_paths(small_catalog, monkeypatch):
    # with no ring Gaussian, every arithmetical ring breaks the chain and
    # neither non-reversal has a witness
    monkeypatch.setitem(RING_FACTS, "Gaussian", lambda ring: False)
    verdicts = verify_clauses(small_catalog, ["chain"], with_search=True)
    chain, search = verdicts["chain"], verdicts["search"]
    assert chain.status == "violation" and chain.violations > 0 and not chain.ok
    assert re.fullmatch(r"\S+ :: arith=True gauss=False prufer=True", chain.witness)
    assert search.status == "violation" and search.violations == 1
    assert search.checked == chain.checked == len(small_catalog.specs) + len(small_catalog.rings)


def test_every_clause_and_example_name_is_a_predicate():
    # the three vacuous clauses are never read past their first failing
    # conjunct on a catalog instance, so a misspelled late name would not
    # surface in any sweep
    names = [name for clause in CLAUSES.values() for name in clause.hypotheses or ()]
    for clause in CLAUSES.values():
        for premise, op, consequent in clause.conclusion:
            assert op in ("=>", "<=>")
            names += [*premise, *consequent]
        for _, tallied, _ in clause.tallies:
            names += tallied
    for case in EXAMPLES.values():
        names += [*case.hypotheses, *(name for name, _ in case.conclusions)]
    # and every name that harness code, or a predicate, reads through `holds`
    read = [
        node.args[1].value
        for module in (harness, amalgam.amalgamation)
        for node in ast.walk(ast.parse(inspect.getsource(module)))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "holds"
        and isinstance(node.args[1], ast.Constant)
    ]
    # harness reads only names stated as data; the predicates read 15
    assert len(read) >= 14
    names += read
    assert set(names) <= set(PREDICATES), set(names) - set(PREDICATES)


def test_role_fact_predicates_are_the_fact_grid(small_catalog):
    # every "{role} {fact}" name is generated from ROLES x RING_FACTS, once:
    # the generated entries share one code object, and no hand-written
    # entry replaces one of them
    grid = {f"{role} {fact}": (role, fact) for role in ROLES for fact in RING_FACTS}
    assert len(grid) == 4 * 8
    code = PREDICATES["base ring local"].__code__
    assert {name for name, predicate in PREDICATES.items() if predicate.__code__ is code} == set(grid)
    cap = small_catalog.size_cap
    for spec in small_catalog.specs:
        inst = spec.build(cap)
        for name, (role, fact) in grid.items():
            assert holds(inst, name) == RING_FACTS[fact](ROLES[role](inst)), (inst.label, name)


def _along_m_times_module(ev, base_expr, module_expr):
    """The local base amalgamated with its idealization by the module E,
    along J = m x E, f the idealization embedding."""
    target_expr = TrivextExpr(base_expr, module_expr)
    base, target = ev.ring(base_expr), ev.ring(target_expr)
    j = Ideal(target, pair_indices(is_local(base).indices, target.size // base.size))
    return amalgamate(base, target, ev.hom(EmbedHomExpr(), target_expr, base)[1], j)


def _quotient_surrogate(ev, seed_expr):
    """Extend the seed by seed/m^2, quotient by 0 x (m/m^2), and amalgamate
    the extension with that quotient along the image of 0 x (seed/m^2)."""
    seed = ev.ring(seed_expr)
    m = is_local(seed)
    msq = ideal_product(m, m)
    mod_expr = QuotmodExpr(RegularExpr(), msq.generators())
    ext_expr = TrivextExpr(seed_expr, mod_expr)
    ext = ev.ring(ext_expr)
    quot_module = ev.module(mod_expr, seed)
    # seed/m^2 as a module has the cosets of the ring quotient, named alike
    coset = quotient(seed, msq)[1].map
    image_of_m = sorted(set(int(coset[x]) for x in m.indices))
    quot_expr = QuotExpr(ext_expr, Ideal(ext, image_of_m).generators())  # 0 x (m/m^2)
    target = ev.ring(quot_expr)
    _, f = ev.hom(ProjHomExpr(), quot_expr, ext)
    j = Ideal(target, sorted(set(int(f.map[x]) for x in range(quot_module.size))))  # image of 0 x (seed/m^2)
    return amalgamate(ext, target, f, j)


CONSTRUCTIONS = {
    "2.4": lambda ev: _along_m_times_module(ev, ZmodExpr(16), RegularExpr()),
    "2.7": lambda ev: _quotient_surrogate(ev, TrivextExpr(TpaExpr(2, 1, 3), ResfieldExpr(2))),
    "2.10": lambda ev: _along_m_times_module(ev, TrivextExpr(ZmodExpr(4), RegularExpr()), ResfieldExpr(1)),
    "2.11": lambda ev: _quotient_surrogate(ev, TpaExpr(2, 2, 3)),
}


@pytest.mark.parametrize("example_id", sorted(CONSTRUCTIONS))
def test_example_text_rederives_from_its_construction(example_id):
    # the reference for the literal generator indices in the example texts
    built = CONSTRUCTIONS[example_id](Evaluator())
    parsed = Evaluator().instance(parse(EXAMPLES[example_id].expression))
    assert built.label == parsed.label == EXAMPLES[example_id].expression
    for a, b in ((built.base, parsed.base), (built.target, parsed.target), (built.ring, parsed.ring)):
        assert a.same_tables(b)  # element names come from the expression; test_cli pins them
    assert (built.f.map == parsed.f.map).all()
    assert built.j.members == parsed.j.members


# sha256 over the suite's verdict records, then its example records, one
# record per line.  An intended output change re-records it and declares
# the change.
SUITE_RECORDS_DIGEST = "7ef6ad5c417b0793c5a290abe06247da4a3724b66ad7a3795389ef548481ba82"


def test_suite_records_digest(suite_verdicts, example_reports):
    h = hashlib.sha256()
    for rec in [*suite_verdicts.values(), *example_reports.values()]:
        h.update(" ".join(f"{k}={v}" for k, v in rec.record_pairs()).encode() + b"\n")
    assert h.hexdigest() == SUITE_RECORDS_DIGEST
