import pytest

from amalgam.expressions import evaluate_instance
from amalgam.harness import (
    CLAUSE_DESCRIPTIONS,
    CLAUSE_IDS,
    CatalogParams,
    ExampleCase,
    _evaluate_example,
    build_catalog,
    verify_clauses,
    verify_duplication_criterion,
    verify_instance,
)
from amalgam.properties import is_gaussian


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


def test_catalog_instance_statistics(catalog):
    with_sq_zero = with_sq_nonzero = 0
    for spec in catalog.specs[:300]:
        inst = spec.build()
        if inst.hypotheses.j_squared_zero:
            with_sq_zero += 1
        else:
            with_sq_nonzero += 1
    assert with_sq_zero > 0 and with_sq_nonzero > 0


def test_catalog_every_clause_described():
    assert set(CLAUSE_IDS) == set(CLAUSE_DESCRIPTIONS)


def test_small_catalog_sweep_clean(small_catalog):
    verdicts = verify_clauses(small_catalog, list(CLAUSE_IDS), with_search=True)
    for cid, v in verdicts.items():
        assert v.violations == 0, f"{cid}: {v.witness}"
    assert verdicts["lemma-2.2"].status == "verified"
    assert verdicts["thm-2.1:3c2"].status == "vacuous"
    assert verdicts["chain"].status == "verified"


def test_verify_single_instance_statuses():
    verdict = verify_instance(evaluate_instance("dup(zmod(8);2)"), "cor-2.3")
    assert verdict.status == "verified"
    # J^2 != 0 leaves thm-2.1:2 without its hypotheses
    verdict = verify_instance(evaluate_instance("dup(zmod(8);2)"), "thm-2.1:2")
    assert verdict.status == "hypotheses-unmet"
    verdict = verify_instance(evaluate_instance("dup(zmod(8);4)"), "thm-2.1:2")
    assert verdict.status == "verified"
    verdict = verify_instance(evaluate_instance("dup(zmod(4);2)"), "lemma-2.2")
    assert verdict.status == "verified"
    # a non-duplication is rejected by the duplication criterion
    verdict = verify_instance(
        evaluate_instance("amalg(zmod(4),quot(zmod(4);2),proj;1)"), "cor-2.3"
    )
    assert verdict.status == "hypotheses-unmet"


def test_verify_unknown_clause():
    with pytest.raises(KeyError):
        verify_instance(evaluate_instance("dup(zmod(4);2)"), "lemma-9.9")


def test_duplication_criterion_includes_named_cases(small_catalog):
    verdict = verify_duplication_criterion(small_catalog)
    assert verdict.status == "verified"
    assert verdict.counts.get("gaussian_true", 0) > 0
    assert verdict.counts.get("gaussian_false", 0) > 0


def test_example_fallback_machinery(small_catalog):
    inst = evaluate_instance("dup(zmod(8);2)")  # J^2 != 0
    case = ExampleCase(
        example_id="t.1",
        title="synthetic case forcing a replacement",
        instance=inst,
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
    )
    report = _evaluate_example(case, small_catalog)
    assert report.status == "pass"
    assert report.replaced_with is not None

    impossible = ExampleCase(
        example_id="t.2",
        title="unsatisfiable hypothesis",
        instance=inst,
        hypotheses=[("never", lambda i: False)],
        conclusions=[],
    )
    report = _evaluate_example(impossible, small_catalog)
    assert report.status == "inconclusive"


def test_verdict_records_are_stable(small_catalog):
    a = verify_clauses(small_catalog, ["lemma-2.2"])["lemma-2.2"].record_pairs()
    b = verify_clauses(small_catalog, ["lemma-2.2"])["lemma-2.2"].record_pairs()
    assert a == b


def test_violation_path_reports_witness(small_catalog, monkeypatch):
    # the statements are proven, so a violation can only come from a bug;
    # simulate one by inverting the locality predicate and check reporting
    import amalgam.harness as harness

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
