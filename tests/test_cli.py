import time
from pathlib import Path

import pytest

import amalgam.cli
import amalgam.harness
import amalgam.properties
from amalgam.cli import _example_lines, main
from amalgam.errors import InternalCheckError
from amalgam.harness import CLAUSES, EXAMPLE_IDS, EXAMPLES


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_props_human(capsys):
    code, out, _ = run_cli(capsys, "props", "zmod(8)")
    assert code == 0
    assert "chain ring           yes" in out
    assert "arithmetical         yes" in out
    assert "gaussian             yes" in out
    assert "prufer               yes" in out
    assert "maximal ideal {0,2,4,6}" in out


def test_props_non_local(capsys):
    code, out, _ = run_cli(capsys, "props", "zmod(6)")
    assert code == 0
    assert "local                no" in out


def test_props_machine_with_oracle(capsys):
    code, out, _ = run_cli(capsys, "props", "zmod(6)", "--machine", "--oracle-degree", "2")
    assert code == 0
    assert out.startswith("kind=props expr=zmod(6) size=6 local=false")
    assert "oracle_gaussian=true" in out
    assert "\n" == out[-1]


def test_props_witness(capsys):
    code, out, _ = run_cli(capsys, "props", "trivext(zmod(4);regular)", "--witness")
    assert code == 0
    assert "gaussian             no" in out
    assert "gaussian witness" in out
    assert "arithmetical witness" in out


def test_parse_error_exit_code(capsys):
    code, out, err = run_cli(capsys, "props", "zmod(0)")
    assert code == 2
    assert "parse error" in err


def test_cap_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "props", "zmod(5000)")
    assert code == 2
    assert "cap exceeded" in err


def test_tpa_cap_checked_before_enumeration(capsys):
    # C(9+12-1, 9) = 167960 monomials: the cap must fire before any is listed
    started = time.perf_counter()
    code, _, err = run_cli(capsys, "props", "tpa(2,9,12)")
    assert time.perf_counter() - started < 1.0
    assert code == 2
    assert "cap exceeded" in err


def test_tpa_cap_message_when_p_alone_passes_the_cap(capsys):
    # no base-5 digit fits under a cap of 4, and 5^0 = 1 would undersell it
    code, _, err = run_cli(capsys, "props", "tpa(5,1,1)", "--max-ring-size", "4")
    assert code == 2
    assert "tpa(5,1,1) would have at least 5 elements, cap is 4" in err
    code, _, err = run_cli(capsys, "props", "tpa(5,1,2)", "--max-ring-size", "24")
    assert code == 2
    assert "tpa(5,1,2) would have more than 5^1 elements, cap is 24" in err


def test_resfield_cap_checked_before_the_power(capsys):
    # 2**(10**12) must never be formed: the dimension is compared with log_2(cap)
    started = time.perf_counter()
    code, _, err = run_cli(capsys, "props", "trivext(zmod(2);resfield(1000000000000))")
    assert time.perf_counter() - started < 1.0
    assert code == 2
    assert "cap exceeded" in err


def test_resfield_zero_is_a_parse_error(capsys):
    code, out, err = run_cli(capsys, "props", "trivext(zmod(2);resfield(0))")
    assert code == 2
    assert out == ""
    assert err.startswith("parse error") and "resfield" in err


def test_oracle_degree_checked_before_the_power(capsys):
    # 4**(10**23) must never be formed: the degree is compared with log_4(budget)
    started = time.perf_counter()
    code, _, err = run_cli(capsys, "props", "zmod(4)", "--oracle-degree", "99999999999999999999999")
    assert time.perf_counter() - started < 1.0
    assert code == 2
    assert "cap exceeded" in err


def test_oracle_budget_message_names_no_huge_integer(capsys):
    code, _, err = run_cli(capsys, "props", "zmod(2)", "--oracle-degree", "100000000")
    assert code == 2
    assert err.startswith("cap exceeded") and len(err) < 200


def test_oracle_on_the_zero_ring_at_any_degree(capsys):
    code, out, _ = run_cli(capsys, "props", "zmod(1)", "--oracle-degree", "99999999999999999999999", "--machine")
    assert code == 0
    assert "oracle_degree=99999999999999999999999 oracle_gaussian=true" in out


def test_negative_oracle_degree_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "props", "zmod(4)", "--oracle-degree", "-1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: --oracle-degree")


@pytest.mark.parametrize("command", [("props", "zmod(2)"), ("verify", "lemma-2.2", "dup(zmod(4);2)"), ("examples",)])
@pytest.mark.parametrize("cap", ["0", "-5"])
def test_max_ring_size_below_one_is_a_usage_error(capsys, command, cap):
    code, out, err = run_cli(capsys, *command, "--max-ring-size", cap)
    assert code == 2
    assert out == ""
    assert err == f"error: --max-ring-size must be >= 1, got {cap}\n"


def test_examples_build_no_catalog(capsys, monkeypatch, example_reports):
    def no_catalog(*_args, **_kwargs):
        raise AssertionError("amalgam examples built a catalog")

    monkeypatch.setattr(amalgam.cli, "build_catalog", no_catalog)
    monkeypatch.setattr(amalgam.harness, "build_catalog", no_catalog)
    code, out, _ = run_cli(capsys, "examples", "--machine")
    expected = [line for ex_id in EXAMPLE_IDS for line in _example_lines(example_reports[ex_id], True)]
    assert code == 0
    assert out == "".join(line + "\n" for line in expected)
    code, _, err = run_cli(capsys, "examples", "--max-ring-size", "1024")
    assert code == 2
    assert "cap exceeded" in err


def test_suite_refuses_a_cap_below_the_examples_before_the_sweep(capsys, monkeypatch):
    # example 2.4 builds a 2,048-element ring
    def not_reached(*_args, **_kwargs):
        raise AssertionError("amalgam suite built or swept the catalog under a cap the examples refuse")

    monkeypatch.setattr(amalgam.cli, "build_catalog", not_reached)
    monkeypatch.setattr(amalgam.cli, "verify_clauses", not_reached)
    code, out, err = run_cli(capsys, "suite", "--machine", "--max-ring-size", "2047")
    assert code == 2
    assert out == ""
    assert err.startswith("cap exceeded: ")


def test_props_certifies_large_chain_rings(capsys):
    # past the 256-element lattice guard; the chain certificate needs no lattice
    for expr in ("zmod(4096)", "tpa(2,1,10)"):
        code, out, err = run_cli(capsys, "props", expr)
        assert code == 0, err
        assert "arithmetical         yes" in out


def test_internal_check_error_exit_code(capsys, monkeypatch):
    def failing_check(ring):
        raise InternalCheckError("simulated self-check failure")

    monkeypatch.setattr(amalgam.properties, "gaussian_check", failing_check)
    code, out, err = run_cli(capsys, "props", "zmod(4)")
    assert code == 3
    assert out == ""
    assert "internal error" in err and "bug" in err


def assert_parse_error(capsys, text):
    code, out, err = run_cli(capsys, "props", text)
    assert code == 2
    assert out == ""
    assert err.startswith("parse error") and "Traceback" not in err


def test_deep_product_nesting_is_a_parse_error(capsys):
    text = "product(" * 3000 + "zmod(2)" + ",zmod(2))" * 3000
    assert 50_000 < len(text) < 64 * 1024
    assert_parse_error(capsys, text)


def test_deep_quot_nesting_is_a_parse_error(capsys):
    # parsed fine at this depth before, then ran out of recursion building it
    assert_parse_error(capsys, "quot(" * 480 + "zmod(2)" + ";)" * 480)


def test_deep_compose_nesting_is_a_parse_error(capsys):
    hom = "compose(" * 2000 + "id" + ",id)" * 2000
    assert_parse_error(capsys, f"amalg(zmod(2),zmod(2),{hom};)")


def test_overlong_int_literal_is_a_parse_error(capsys):
    assert_parse_error(capsys, "zmod(" + "7" * 5000 + ")")


def test_nesting_at_the_bound_is_accepted(capsys):
    from amalgam.expressions import MAX_NESTING_DEPTH

    # MAX_NESTING_DEPTH - 1 quotients around zmod(4): exactly the bound
    depth = MAX_NESTING_DEPTH - 1
    code, out, _ = run_cli(capsys, "props", "quot(" * depth + "zmod(4)" + ";)" * depth, "--machine")
    assert code == 0
    assert " size=4 " in out
    assert_parse_error(capsys, "quot(" * (depth + 1) + "zmod(4)" + ";)" * (depth + 1))


def test_examples_honour_max_ring_size(capsys):
    # example 2.4 amalgamates along a 2,048-element ring
    code, out, err = run_cli(capsys, "examples", "--max-ring-size", "1024")
    assert code == 2
    assert "cap exceeded" in err


def test_eval_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "props", "trivext(zmod(6);resfield(1))")
    assert code == 2
    assert "local" in err


def test_verify_unknown_clause(capsys):
    code, _, err = run_cli(capsys, "verify", "thm-9", "dup(zmod(4);2)")
    assert code == 2
    assert "unknown clause" in err


def test_verify_single_instance(capsys):
    code, out, _ = run_cli(capsys, "verify", "cor-2.3", "dup(zmod(8);2)")
    assert code == 0
    assert "verified" in out
    code, out, _ = run_cli(capsys, "verify", "thm-2.1:2", "dup(zmod(8);2)", "--machine")
    assert code == 0
    assert out == (
        "kind=verdict clause=thm-2.1:2 status=hypotheses-unmet checked=1 applicable=0 violations=0"
        " reason=hypothesis_fails:_J^2_:_0\n"
    )
    code, out, _ = run_cli(capsys, "verify", "cor-2.3", "amalg(zmod(4),quot(zmod(4);2),proj;1)")
    assert code == 0
    assert "reason: hypothesis fails: instance is a duplication" in out


def test_verify_requires_instance_or_catalog(capsys):
    code, _, err = run_cli(capsys, "verify", "lemma-2.2")
    assert code == 2
    assert "instance expression or --catalog" in err


def test_encode_command(capsys):
    code, out, _ = run_cli(capsys, "encode", "trivext(zmod(2);resfield(1))")
    assert code == 0
    assert "size 4" in out
    assert "(1|[0])" in out
    code, out, _ = run_cli(capsys, "encode", "zmod(4)", "--machine")
    assert out.splitlines()[2] == "kind=encode expr=zmod(4) index=2 name=2"


def test_grammar_command(capsys):
    code, out, _ = run_cli(capsys, "grammar")
    assert code == 0
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Expression grammar", 1)[1].split("```\n", 2)[1]
    assert out == block


def test_timing_goes_to_stderr(capsys):
    code, out, err = run_cli(capsys, "props", "zmod(4)", "--timing")
    assert code == 0
    assert "timing" in err
    assert "timing" not in out


def test_cli_byte_determinism(capsys):
    args = ("verify", "cor-2.3", "--catalog", "--machine")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


# `props` stdout, byte for byte, as recorded before its printers read
# `RING_FACTS`: (arguments, stdout), human and machine, with witnesses or
# the content oracle.
PROPS_OUTPUTS = (
    (
        ("props", "zmod(8)", "--witness"),
        "ring                 zmod(8)\n"
        "size                 8\n"
        "local                yes, maximal ideal {0,2,4,6}\n"
        "reduced              no\n"
        "field                no\n"
        "total quotient ring  yes\n"
        "chain ring           yes\n"
        "arithmetical         yes\n"
        "gaussian             yes\n"
        "prufer               yes\n",
    ),
    (
        ("props", "zmod(8)", "--machine", "--witness"),
        "kind=props expr=zmod(8) size=8 local=true maximal_ideal={0,2,4,6} reduced=false field=false total_quotient_ring=true chain_ring=true arithmetical=true gaussian=true prufer=true\n",
    ),
    (
        ("props", "zmod(6)", "--witness"),
        "ring                 zmod(6)\n"
        "size                 6\n"
        "local                no\n"
        "reduced              yes\n"
        "field                no\n"
        "total quotient ring  yes\n"
        "chain ring           no\n"
        "arithmetical         yes\n"
        "gaussian             yes\n"
        "prufer               yes\n",
    ),
    (
        ("props", "zmod(6)", "--machine", "--witness"),
        "kind=props expr=zmod(6) size=6 local=false reduced=true field=false total_quotient_ring=true chain_ring=false arithmetical=true gaussian=true prufer=true\n",
    ),
    (
        ("props", "trivext(zmod(4);regular)", "--witness"),
        "ring                 trivext(zmod(4);regular)\n"
        "size                 16\n"
        "local                yes, maximal ideal {0,1,2,3,8,9,10,11}\n"
        "reduced              no\n"
        "field                no\n"
        "total quotient ring  yes\n"
        "chain ring           no\n"
        "arithmetical         no\n"
        "gaussian             no\n"
        "prufer               yes\n"
        "gaussian witness     pair (1,8) in local factor trivext(zmod(4);regular)\n"
        "arithmetical witness I={0,1,2,3} J={0,2,8,10} K={0,2,9,11}\n",
    ),
    (
        ("props", "trivext(zmod(4);regular)", "--machine", "--witness"),
        "kind=props expr=trivext(zmod(4);regular) size=16 local=true maximal_ideal={0,1,2,3,8,9,10,11} reduced=false field=false total_quotient_ring=true chain_ring=false arithmetical=false gaussian=false prufer=true gaussian_witness=(1,8)intrivext(zmod(4);regular) arithmetical_witness={0,1,2,3}|{0,2,8,10}|{0,2,9,11}\n",
    ),
    (
        ("props", "zmod(6)", "--oracle-degree", "1"),
        "ring                 zmod(6)\n"
        "size                 6\n"
        "local                no\n"
        "reduced              yes\n"
        "field                no\n"
        "total quotient ring  yes\n"
        "chain ring           no\n"
        "arithmetical         yes\n"
        "gaussian             yes\n"
        "prufer               yes\n"
        "content oracle       degree 1: pass\n",
    ),
    (
        ("props", "zmod(6)", "--oracle-degree", "1", "--machine"),
        "kind=props expr=zmod(6) size=6 local=false reduced=true field=false total_quotient_ring=true chain_ring=false arithmetical=true gaussian=true prufer=true oracle_degree=1 oracle_gaussian=true\n",
    ),
)

# `verify CLAUSE EXPR --machine` for every instance clause, in `CLAUSES`
# order, on the instances of examples 2.5, 2.6, 2.9 and 2.10, recorded
# before the role-fact predicates were generated: the reasons print the
# first hypothesis that fails.
VERIFY_RECORDS = {
    "2.5": (
        "kind=verdict clause=lemma-2.2 status=verified checked=1 applicable=1 violations=0\n"
        "kind=verdict clause=thm-2.1:1 status=verified checked=1 applicable=1 violations=0\n"
        "kind=verdict clause=thm-2.1:2 status=verified checked=1 applicable=1 violations=0\n"
        "kind=verdict clause=thm-2.1:3c1 status=hypotheses-unmet checked=1 applicable=0 violations=0 reason=hypothesis_fails:_f(A)_meets_J_only_in_zero\n"
        "kind=verdict clause=thm-2.1:3c2 status=hypotheses-unmet checked=1 applicable=0 violations=0 reason=hypothesis_fails:_base_ring_reduced\n"
        "kind=verdict clause=thm-2.1:4c1 status=hypotheses-unmet checked=1 applicable=0 violations=0 reason=hypothesis_fails:_f_not_injective\n"
        "kind=verdict clause=thm-2.1:4c2 status=hypotheses-unmet checked=1 applicable=0 violations=0 reason=hypothesis_fails:_f_not_injective\n"
        "kind=verdict clause=cor-2.3 status=hypotheses-unmet checked=1 applicable=0 violations=0 reason=hypothesis_fails:_instance_is_a_duplication\n"
        "kind=verdict clause=prop-2.8:1 status=verified checked=1 applicable=1 violations=0\n"
        "kind=verdict clause=prop-2.8:2 status=hypotheses-unmet checked=1 applicable=0 violations=0 reason=hypothesis_fails:_f_not_injective\n"
    ),
    "2.6": (
        "kind=verdict clause=lemma-2.2 status=verified checked=1 applicable=1 violations=0\n"
        "kind=verdict clause=thm-2.1:1 status=verified checked=1 applicable=1 violations=0\n"
        "kind=verdict clause=thm-2.1:2 status=verified checked=1 applicable=1 violations=0\n"
        "kind=verdict clause=thm-2.1:3c1 status=verified checked=1 applicable=1 violations=0\n"
        "kind=verdict clause=thm-2.1:3c2 status=hypotheses-unmet checked=1 applicable=0 violations=0 reason=hypothesis_fails:_f(A)_meets_J_beyond_zero\n"
        "kind=verdict clause=thm-2.1:4c1 status=hypotheses-unmet checked=1 applicable=0 violations=0 reason=hypothesis_fails:_f_not_injective\n"
        "kind=verdict clause=thm-2.1:4c2 status=hypotheses-unmet checked=1 applicable=0 violations=0 reason=hypothesis_fails:_f_not_injective\n"
        "kind=verdict clause=cor-2.3 status=hypotheses-unmet checked=1 applicable=0 violations=0 reason=hypothesis_fails:_instance_is_a_duplication\n"
        "kind=verdict clause=prop-2.8:1 status=hypotheses-unmet checked=1 applicable=0 violations=0 reason=hypothesis_fails:_f(A)_meets_J_beyond_zero\n"
        "kind=verdict clause=prop-2.8:2 status=hypotheses-unmet checked=1 applicable=0 violations=0 reason=hypothesis_fails:_f_not_injective\n"
    ),
    "2.9": (
        "kind=verdict clause=lemma-2.2 status=verified checked=1 applicable=1 violations=0\n"
        "kind=verdict clause=thm-2.1:1 status=verified checked=1 applicable=1 violations=0\n"
        "kind=verdict clause=thm-2.1:2 status=hypotheses-unmet checked=1 applicable=0 violations=0 reason=hypothesis_fails:_J^2_:_0\n"
        "kind=verdict clause=thm-2.1:3c1 status=hypotheses-unmet checked=1 applicable=0 violations=0 reason=hypothesis_fails:_f(A)_meets_J_only_in_zero\n"
        "kind=verdict clause=thm-2.1:3c2 status=hypotheses-unmet checked=1 applicable=0 violations=0 reason=hypothesis_fails:_base_ring_reduced\n"
        "kind=verdict clause=thm-2.1:4c1 status=hypotheses-unmet checked=1 applicable=0 violations=0 reason=hypothesis_fails:_f_not_injective\n"
        "kind=verdict clause=thm-2.1:4c2 status=hypotheses-unmet checked=1 applicable=0 violations=0 reason=hypothesis_fails:_f_not_injective\n"
        "kind=verdict clause=cor-2.3 status=verified checked=1 applicable=1 violations=0\n"
        "kind=verdict clause=prop-2.8:1 status=verified checked=1 applicable=1 violations=0\n"
        "kind=verdict clause=prop-2.8:2 status=hypotheses-unmet checked=1 applicable=0 violations=0 reason=hypothesis_fails:_f_not_injective\n"
    ),
    "2.10": (
        "kind=verdict clause=lemma-2.2 status=verified checked=1 applicable=1 violations=0\n"
        "kind=verdict clause=thm-2.1:1 status=verified checked=1 applicable=1 violations=0\n"
        "kind=verdict clause=thm-2.1:2 status=hypotheses-unmet checked=1 applicable=0 violations=0 reason=hypothesis_fails:_J^2_:_0\n"
        "kind=verdict clause=thm-2.1:3c1 status=hypotheses-unmet checked=1 applicable=0 violations=0 reason=hypothesis_fails:_f(A)_meets_J_only_in_zero\n"
        "kind=verdict clause=thm-2.1:3c2 status=hypotheses-unmet checked=1 applicable=0 violations=0 reason=hypothesis_fails:_base_ring_reduced\n"
        "kind=verdict clause=thm-2.1:4c1 status=hypotheses-unmet checked=1 applicable=0 violations=0 reason=hypothesis_fails:_f_not_injective\n"
        "kind=verdict clause=thm-2.1:4c2 status=hypotheses-unmet checked=1 applicable=0 violations=0 reason=hypothesis_fails:_f_not_injective\n"
        "kind=verdict clause=cor-2.3 status=hypotheses-unmet checked=1 applicable=0 violations=0 reason=hypothesis_fails:_instance_is_a_duplication\n"
        "kind=verdict clause=prop-2.8:1 status=verified checked=1 applicable=1 violations=0\n"
        "kind=verdict clause=prop-2.8:2 status=hypotheses-unmet checked=1 applicable=0 violations=0 reason=hypothesis_fails:_f_not_injective\n"
    ),
}


@pytest.mark.parametrize("argv, expected", PROPS_OUTPUTS, ids=[" ".join(argv[1:]) for argv, _ in PROPS_OUTPUTS])
def test_props_output_is_pinned(capsys, argv, expected):
    assert run_cli(capsys, *argv) == (0, expected, "")


def test_verify_reasons_are_pinned(capsys):
    for example_id, expected in VERIFY_RECORDS.items():
        expression = EXAMPLES[example_id].expression
        runs = [
            run_cli(capsys, "verify", cid, expression, "--machine")
            for cid, clause in CLAUSES.items()
            if clause.hypotheses is not None
        ]
        assert {(code, err) for code, _, err in runs} == {(0, "")}
        assert "".join(out for _, out, _ in runs) == expected, example_id
