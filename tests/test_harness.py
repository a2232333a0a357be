import dataclasses
import hashlib
import re

import pytest

import amalgam.expressions
import amalgam.harness as harness
from amalgam.cli import main
from amalgam.errors import CapExceededError, InternalCheckError
from amalgam.expressions import Evaluator, ProjHomExpr, QuotExpr, parse
from amalgam.harness import (
    CLAUSE_IDS,
    CLAUSES,
    EXAMPLE_BUILDERS,
    CatalogParams,
    ExampleCase,
    _evaluate_example,
    _table_key,
    build_catalog,
    verify_clauses,
    verify_duplication_criterion,
    verify_instance,
)
from amalgam.ideals import all_ideals
from amalgam.properties import is_gaussian
from amalgam.rings import coset_tables, pair_indices, quotient


SMALL_PARAMS = CatalogParams(
    zmod_max=9,
    tpa_carrier_max=8,
    product_max=16,
    trivext_max=32,
    quotient_base_max=8,
    instance_max=64,
)


@pytest.fixture(scope="module")
def small_catalog():
    return build_catalog(SMALL_PARAMS)


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
    a = build_catalog(SMALL_PARAMS)
    b = build_catalog(SMALL_PARAMS)
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
        proj = ev.resolve_hom(ProjHomExpr(), ev.ring(expr.ring), expr)
        proj.kernel()._validate()
    for spec in small_catalog.specs:
        inst = spec.build()
        inst.zero_j._validate()
        assert inst.zero_j.indices.tolist() == pair_indices([spec.base.zero], len(spec.j)).tolist()


def test_catalog_instance_statistics(catalog):
    with_sq_zero = with_sq_nonzero = 0
    for spec in catalog.specs[:300]:
        inst = spec.build()
        if inst.hypotheses.j_squared_zero:
            with_sq_zero += 1
        else:
            with_sq_nonzero += 1
    assert with_sq_zero > 0 and with_sq_nonzero > 0


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
    assert verdict.status == "hypotheses-unmet"
    verdict = verify_instance(Evaluator().instance(parse("dup(zmod(8);4)")), "thm-2.1:2")
    assert verdict.status == "verified"
    verdict = verify_instance(Evaluator().instance(parse("dup(zmod(4);2)")), "lemma-2.2")
    assert verdict.status == "verified"
    # a non-duplication is rejected by the duplication criterion
    verdict = verify_instance(
        Evaluator().instance(parse("amalg(zmod(4),quot(zmod(4);2),proj;1)")), "cor-2.3"
    )
    assert verdict.status == "hypotheses-unmet"


def test_verify_unknown_clause():
    with pytest.raises(KeyError):
        verify_instance(Evaluator().instance(parse("dup(zmod(4);2)")), "lemma-9.9")


def test_duplication_criterion_includes_named_cases(small_catalog):
    verdict = verify_duplication_criterion(small_catalog)
    assert verdict.status == "verified"
    assert verdict.counts.get("gaussian_true", 0) > 0
    assert verdict.counts.get("gaussian_false", 0) > 0


def _synthetic_case(replacement):
    return ExampleCase(
        example_id="t.1",
        title="synthetic case whose surrogate misses a hypothesis",
        instance=Evaluator().instance(parse("dup(zmod(8);2)")),  # J^2 != 0
        hypotheses=[
            ("base ring local", lambda i: i.hypotheses.a_local),
            ("J squared zero", lambda i: i.hypotheses.j_squared_zero),
            ("J nonzero", lambda i: i.hypotheses.j_nonzero),
        ],
        conclusions=[
            (
                "criterion agrees with pair check",
                True,
                lambda i: is_gaussian(i.ring)
                == (is_gaussian(i.base) and bool(i.hypotheses.fa_j_stable)),
            )
        ],
        replacement=replacement,
    )


def test_example_fallback_machinery():
    ev = Evaluator()
    surrogate_note = "surrogate dup(zmod(8);2) failed re-checked hypotheses: J squared zero"

    report = _evaluate_example(_synthetic_case("dup(zmod(8);4)"), ev)
    assert report.status == "pass"
    assert report.replaced_with == report.instance_label == "dup(zmod(8);4)"
    assert all(ok for _, ok in report.hypothesis_results)
    assert report.conclusion_results == [("criterion agrees with pair check", True, True)]
    assert surrogate_note in report.notes

    # the named replacement is re-checked too: J = 0 misses "J nonzero"
    report = _evaluate_example(_synthetic_case("dup(zmod(8);)"), ev)
    assert report.status == "inconclusive"
    assert report.replaced_with == "dup(zmod(8);)"
    assert ("J nonzero", False) in report.hypothesis_results
    assert report.conclusion_results == []
    assert report.notes[-1] == "replacement dup(zmod(8);) failed re-checked hypotheses: J nonzero"

    report = _evaluate_example(_synthetic_case(None), ev)
    assert report.status == "inconclusive"
    assert report.replaced_with is None
    assert report.instance_label == "dup(zmod(8);2)"
    assert report.notes == [surrogate_note, "no replacement instance is named"]


def test_example_2_7_replacement_is_the_first_catalog_match(catalog, example_reports):
    # independent route to example 2.7's named replacement: the linear scan
    # of the catalog for the first spec meeting every hypothesis
    case = EXAMPLE_BUILDERS["2.7"](Evaluator())
    assert not all(check(case.instance) for _, check in case.hypotheses)
    scanned = next(
        inst
        for inst in (spec.build(catalog.params.size_cap) for spec in catalog.specs)
        if all(check(inst) for _, check in case.hypotheses)
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
    monkeypatch.setitem(CLAUSES, cid, dataclasses.replace(CLAUSES[cid], applies=lambda h: True))
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


def test_violation_path_reports_witness(small_catalog, monkeypatch):
    # the statements are proven, so a violation can only come from a bug;
    # simulate one by inverting the locality predicate and check reporting
    def broken_is_local(ring):
        from amalgam.properties import is_local as real

        result = real(ring)
        return None if result is not None else "not-none"

    monkeypatch.setattr(harness, "is_local", broken_is_local)
    verdict = verify_clauses(small_catalog, ["lemma-2.2"])["lemma-2.2"]
    assert verdict.status == "violation"
    assert verdict.violations > 0
    assert verdict.witness is not None and "::" in verdict.witness
    assert not verdict.ok
