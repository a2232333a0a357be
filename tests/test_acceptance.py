"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one explicit
pass/fail line per criterion; the pytest verdict per test carries the same
information.  Everything here runs against the default catalog parameters.
"""
import time

import numpy as np

from amalgam.amalgamation import holds
from amalgam.expressions import Evaluator, parse
from amalgam.harness import VACUITY_REASON, build_catalog, verify_clauses
from amalgam.ideals import Ideal, ideal_generated
from amalgam.properties import (
    gaussian_content_oracle,
    is_gaussian,
    is_local,
    local_gaussian_pair_check,
)
from amalgam.rings import RingHom, zmod
from catalog_generator import trivext_modules


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_01_pair_check_agrees_with_content_oracle(catalog):
    locals_small = [
        r for r in catalog.rings if 1 < r.size <= 16 and is_local(r) is not None
    ]
    assert len(locals_small) >= 20, f"only {len(locals_small)} small local rings"
    disagreements = []
    for ring in locals_small:
        pair_ok, _ = local_gaussian_pair_check(ring)
        for degree in (1, 2):
            oracle_ok, _ = gaussian_content_oracle(ring, degree)
            if oracle_ok != pair_ok:
                disagreements.append((ring.label, degree))
    _report(
        1,
        not disagreements,
        f"pair check == content oracle at degrees 1,2 on {len(locals_small)} local rings"
        + (f"; disagreements: {disagreements}" if disagreements else ""),
    )


def test_criterion_02_locality_equivalence_sweep(suite_verdicts):
    v = suite_verdicts["lemma-2.2"]
    ok = (
        v.status == "verified"
        and v.checked >= 200
        and v.violations == 0
        and v.counts.get("j_not_in_rad", 0) > 0
    )
    _report(
        2,
        ok,
        f"locality equivalence on {v.checked} instances "
        f"({v.counts.get('j_not_in_rad', 0)} with J not inside Rad(B)), "
        f"{v.violations} violations",
    )


def test_criterion_03_gaussian_transfer_parts_1_and_2(suite_verdicts):
    v1 = suite_verdicts["thm-2.1:1"]
    v2 = suite_verdicts["thm-2.1:2"]
    rhs_true = v2.counts.get("rhs_true", 0)
    rhs_false = v2.counts.get("rhs_false", 0)
    ok = (
        v1.status == "verified"
        and v1.violations == 0
        and v2.status == "verified"
        and v2.violations == 0
        and rhs_true >= 20
        and rhs_false >= 20
    )
    _report(
        3,
        ok,
        f"part 1: {v1.applicable} instances, {v1.violations} violations; "
        f"part 2: {v2.applicable} instances with J^2=0 "
        f"(criterion true on {rhs_true}, false on {rhs_false}), {v2.violations} violations",
    )


def test_criterion_04_injective_disjoint_case(suite_verdicts):
    v = suite_verdicts["thm-2.1:3c1"]
    shaped = v.counts.get("tag_ex2.6-shape", 0)
    ok = v.status == "verified" and v.violations == 0 and v.applicable >= 10 and shaped >= 1
    _report(
        4,
        ok,
        f"f injective with f(A) meet J = 0: {v.applicable} instances "
        f"({shaped} double-idealization shaped), projection bijection included, "
        f"{v.violations} violations",
    )


def test_criterion_05_vacuous_reduced_clauses(suite_verdicts):
    details = []
    ok = True
    for cid in ("thm-2.1:3c2", "thm-2.1:4c1", "thm-2.1:4c2"):
        v = suite_verdicts[cid]
        good = v.status == "vacuous" and v.reason == VACUITY_REASON
        ok = ok and good
        details.append(f"{cid}:{v.status}")
    _report(5, ok, "reduced-base clauses report vacuous with machine-checked reason: " + ", ".join(details))


def test_criterion_06_duplication_criterion_exhaustive(suite_verdicts, catalog):
    v = suite_verdicts["cor-2.3"]
    ok = v.status == "verified" and v.violations == 0

    # named cases evaluated against the independent pair check
    z8 = zmod(8)
    from amalgam.amalgamation import duplication

    ex_2_9 = duplication(z8, ideal_generated(z8, [2]))
    ok_2_9 = not is_gaussian(ex_2_9.ring)

    z4 = zmod(4)
    dup_4 = duplication(z4, ideal_generated(z4, [2]))
    rhs = is_gaussian(z4) and holds(dup_4, "J^2 = 0") and holds(dup_4, "f(a)J = f(a)^2 J on m")
    lhs, _ = local_gaussian_pair_check(dup_4.ring)
    ok_2_3 = rhs == lhs is True

    ok = ok and ok_2_9 and ok_2_3
    _report(
        6,
        ok,
        f"duplication criterion on {v.checked} (ring, ideal) pairs, {v.violations} violations; "
        f"dup(zmod(8);2) not Gaussian: {ok_2_9}; dup(zmod(4);2) honest equivalence: {ok_2_3}",
    )


def test_criterion_07_local_total_quotient_transfer(suite_verdicts):
    v1 = suite_verdicts["prop-2.8:1"]
    v2 = suite_verdicts["prop-2.8:2"]
    ok = (
        v1.status == "verified"
        and v2.status == "verified"
        and v1.violations == v2.violations == 0
        and v1.applicable >= 5
        and v2.applicable >= 5
    )
    _report(
        7,
        ok,
        f"local TQR transfer: {v1.applicable} injective-case and "
        f"{v2.applicable} non-injective-case instances, 0 violations",
    )


def test_criterion_08_example_reproduction(example_reports):
    checks = []

    def concl(report, name):
        for cname, expected, actual in report.conclusion_results:
            if name in cname:
                return expected, actual
        raise AssertionError(f"conclusion {name} missing in {report.example_id}")

    r = example_reports["2.5"]
    checks.append(("2.5", r.status == "pass" and concl(r, "Gaussian") == (True, True) and concl(r, "arithmetical") == (False, False)))
    r = example_reports["2.6"]
    checks.append(("2.6", r.status == "pass" and concl(r, "Gaussian") == (True, True) and concl(r, "arithmetical") == (False, False)))
    r = example_reports["2.9"]
    checks.append(("2.9", r.status == "pass" and concl(r, "Prufer") == (True, True) and concl(r, "Gaussian") == (False, False)))
    r = example_reports["2.10"]
    checks.append(("2.10", r.status == "pass" and concl(r, "Prufer") == (True, True) and concl(r, "Gaussian") == (False, False)))
    for ex_id in ("2.7", "2.11"):
        r = example_reports[ex_id]
        checks.append(
            (
                ex_id,
                r.status == "pass"
                and all(ok for _, ok in r.hypothesis_results)
                and all(expected == actual for _, expected, actual in r.conclusion_results),
            )
        )
    r = example_reports["2.4"]
    checks.append(("2.4", r.status == "out-of-scope" and any(r.notes)))
    timings = all(rep.elapsed <= 30.0 for rep in example_reports.values())
    checks.append(("timing<=30s", timings))
    bad = [name for name, ok in checks if not ok]
    _report(8, not bad, "examples " + ", ".join(name for name, _ in checks) + (f"; failing: {bad}" if bad else ""))


def test_criterion_09_implication_chain_and_search(suite_verdicts):
    chain = suite_verdicts["chain"]
    search = suite_verdicts["search"]
    ok = (
        chain.status == "verified"
        and chain.violations == 0
        and search.counts.get("gaussian_not_arithmetical", 0) >= 1
        and search.counts.get("prufer_not_gaussian", 0) >= 1
    )
    _report(
        9,
        ok,
        f"hierarchy holds over {chain.checked} rings; witnesses: "
        f"{search.counts.get('gaussian_not_arithmetical', 0)} Gaussian-not-arithmetical, "
        f"{search.counts.get('prufer_not_gaussian', 0)} Prufer-not-Gaussian",
    )


def test_criterion_10_infrastructure(catalog):
    # exhaustive axioms on every catalog ring and module
    for ring in catalog.rings:
        ring.validate()
    modules = trivext_modules(catalog)
    for module in modules:
        module.validate()

    # ideal members revalidate, and the pair-encoding oracle holds on every
    # instance: pA/pB re-validate as homs and the pair map is injective (that
    # is table identity under the embedding into the componentwise product);
    # small products are additionally materialized and compared outright
    embeddings_checked = 0
    product_oracle_checked = 0
    product_cache: dict[tuple[int, int], object] = {}
    from amalgam.rings import product as ring_product

    for spec in catalog.specs:
        Ideal(spec.target, spec.j.members)  # revalidates closure
        inst = spec.build(catalog.size_cap)
        RingHom(inst.ring, inst.base, inst.to_base.map)
        RingHom(inst.ring, inst.target, inst.to_target.map)
        pairs = inst.to_base.map.astype(np.int64) * inst.target.size + inst.to_target.map
        assert len(np.unique(pairs)) == inst.ring.size
        embeddings_checked += 1
        if inst.base.size * inst.target.size <= 1024:
            key = (id(inst.base), id(inst.target))
            prod = product_cache.get(key)
            if prod is None:
                prod = ring_product(inst.base, inst.target)
                product_cache[key] = prod
            phi = pairs
            assert (prod.add[np.ix_(phi, phi)] == phi[inst.ring.add]).all()
            assert (prod.mul[np.ix_(phi, phi)] == phi[inst.ring.mul]).all()
            product_oracle_checked += 1

    # CLI round trip: every catalog ring label re-parses to an
    # operation-table-identical ring
    ev = Evaluator(size_cap=catalog.size_cap)
    for ring in catalog.rings:
        rebuilt = ev.ring(parse(ring.label))
        assert rebuilt.same_tables(ring), ring.label

    # byte determinism of the verdict records
    cat2 = build_catalog(size_cap=catalog.size_cap)
    v1 = verify_clauses(catalog, ["lemma-2.2"])["lemma-2.2"].record_pairs()
    v2 = verify_clauses(cat2, ["lemma-2.2"])["lemma-2.2"].record_pairs()
    assert v1 == v2

    _report(
        10,
        True,
        f"axioms exhaustive on {len(catalog.rings)} rings / {len(modules)} modules; "
        f"embedding oracle on {embeddings_checked} instances "
        f"({product_oracle_checked} with materialized product); labels round-trip; "
        "verdict records byte-stable",
    )


def test_acceptance_suite_runtime_budget(catalog, suite_verdicts, example_reports):
    # the sweeps must stay desk-scale; the session fixtures above have already
    # done the heavy work once, so re-running the cheapest clause here just
    # asserts the plumbing stays responsive
    started = time.perf_counter()
    verify_clauses(catalog, ["cor-2.3"])
    assert time.perf_counter() - started < 60.0
