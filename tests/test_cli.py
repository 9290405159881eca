"""CLI behavior: commands, formats, exit codes, determinism, kv round-trip."""

from fractions import Fraction

import pytest

from autodegree.cli import main
from autodegree.groups import GroupTable
from autodegree.reporting import parse_kv


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def spy_tables(monkeypatch) -> list[int]:
    """Record the order of every GroupTable constructed from here on."""
    built = []
    init = GroupTable.__init__

    def counting(self, table, name=None):
        built.append(len(table))
        init(self, table, name)

    monkeypatch.setattr(GroupTable, "__init__", counting)
    return built


class TestGroupsList:
    def test_lists_catalog(self, capsys):
        code, out, _ = run(capsys, "groups", "list")
        assert code == 0
        assert "C(4) (order 4)" in out
        assert "M16 (order 16)" in out
        assert "S(4) (order 24)" in out

    def test_kv(self, capsys):
        code, out, _ = run(capsys, "groups", "list", "--format", "kv")
        assert code == 0
        kv = parse_kv(out)
        assert kv["group.0.name"] == "C(1)"
        assert kv["group.0.order"] == "1"


class TestCompute:
    def test_c4_whole_human(self, capsys):
        code, out, _ = run(capsys, "compute", "--group", "C(4)", "--subgroup", "whole")
        assert code == 0
        assert "3/4" in out
        assert "orbits: {0} {1,3} {2}" in out
        assert "(1 3)" in out  # cycle notation of the inversion

    def test_s3_all_gives_six_reports(self, capsys):
        code, out, _ = run(capsys, "compute", "--group", "S(3)", "--subgroup", "all",
                           "--format", "kv")
        assert code == 0
        kv = parse_kv(out)
        groups = {k for k in kv if k.endswith(".group") and k.startswith("report.")}
        assert len(groups) == 6

    def test_trivial_group(self, capsys):
        code, out, _ = run(capsys, "compute", "--group", "C(1)", "--subgroup", "whole",
                           "--format", "kv")
        assert code == 0
        kv = parse_kv(out)
        assert Fraction(kv["report.0.pr_definition"]) == 1

    def test_kv_roundtrip_exact_rationals(self, capsys):
        code, out, _ = run(capsys, "compute", "--group", "C(4)", "--subgroup", "whole",
                           "--format", "kv")
        kv = parse_kv(out)
        for key in ("pr_definition", "pr_stab_sum", "pr_fixed_sum", "pr_orbit"):
            assert Fraction(kv[f"report.0.{key}"]) == Fraction(3, 4)

    def test_gens_subgroup(self, capsys):
        code, out, _ = run(capsys, "compute", "--group", "S(3)", "--subgroup", "gens=3",
                           "--format", "kv")
        assert code == 0
        kv = parse_kv(out)
        assert kv["report.0.subgroup"] == "0,3,4"
        assert Fraction(kv["report.0.pr_definition"]) == Fraction(2, 3)

    def test_group_file(self, capsys, tmp_path):
        path = tmp_path / "z3.grp"
        path.write_text("# Z3\n3\n0 1 2\n1 2 0\n2 0 1\n")
        code, out, _ = run(capsys, "compute", "--group", str(path), "--format", "kv")
        assert code == 0
        kv = parse_kv(out)
        assert Fraction(kv["report.0.pr_definition"]) == Fraction(2, 3)

    def test_bad_file_reports_line(self, capsys, tmp_path):
        path = tmp_path / "bad.grp"
        path.write_text("3\n0 1 2\n1 2 9\n2 0 1\n")
        code, _, err = run(capsys, "compute", "--group", str(path))
        assert code == 2
        assert "line 3" in err

    def test_unknown_group_usage_error(self, capsys):
        code, _, err = run(capsys, "compute", "--group", "Nope(3)")
        assert code == 2
        assert "grammar" in err

    def test_bad_subgroup_spec(self, capsys):
        code, _, err = run(capsys, "compute", "--group", "C(4)", "--subgroup", "sdf")
        assert code == 2


class TestVerify:
    def test_formulas_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-order", "8", "--suite", "formulas")
        assert code == 0
        assert "fail=0" in out

    def test_upper_pass_and_equality_instances_listed(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-order", "12", "--suite", "upper")
        assert code == 0
        lines = out.splitlines()
        eq = [l for l in lines if "upper_pq" in l and "equality" in l]
        assert any("C(4)" in l for l in eq)
        assert any("C(3)" in l for l in eq)

    def test_lower_pass_with_findings(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-order", "8", "--suite", "lower")
        assert code == 0
        assert "finding:" in out  # the informational comparison fires

    def test_equalities_record_vacuous(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-order", "12", "--suite", "equalities")
        assert code == 0
        assert "vacuous" in out

    def test_equivalence_reports_known_violations(self, capsys):
        # The five-way equivalence genuinely fails on catalog instances
        # whose autocommutator subgroup escapes H; the scan must say so.
        code, out, _ = run(capsys, "verify", "--max-order", "8", "--suite", "equivalence")
        assert code == 1
        assert "a=T b=T c=F" in out

    def test_isoclinism_reflexive(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-order", "8", "--suite", "isoclinism")
        assert code == 0
        assert "reflexive_witness" in out

    def test_unknown_suite_usage_error(self, capsys):
        code, _, _ = run(capsys, "verify", "--suite", "bogus")
        assert code == 2

    def test_determinism_byte_identical(self, capsys):
        _, out1, _ = run(capsys, "verify", "--max-order", "8", "--suite", "formulas",
                         "--format", "kv")
        _, out2, _ = run(capsys, "verify", "--max-order", "8", "--suite", "formulas",
                         "--format", "kv")
        assert out1 == out2

    def test_kv_roundtrip(self, capsys):
        _, out, _ = run(capsys, "verify", "--max-order", "6", "--suite", "formulas",
                        "--format", "kv")
        kv = parse_kv(out)
        assert kv["scan.suite"] == "formulas"
        values = [v for k, v in kv.items() if k.endswith(".value")]
        assert values
        for v in values:
            Fraction(v)  # every rational parses back exactly


class TestIsoclinic:
    def test_reflexive_c4(self, capsys):
        code, out, _ = run(capsys, "isoclinic", "C(4)", "C(4)")
        assert code == 0
        assert "witness found and verified" in out
        assert "degrees: 3/4 = 3/4" in out

    def test_fast_rejection_c3_c8(self, capsys):
        code, out, _ = run(capsys, "isoclinic", "C(3)", "C(8)")
        assert code == 0
        assert "no witness" in out

    def test_c3_c6_witness_with_degrees(self, capsys):
        code, out, _ = run(capsys, "isoclinic", "C(3)", "C(6)", "--format", "kv")
        assert code == 0
        kv = parse_kv(out)
        assert kv["isoclinic.status"] == "witness"
        assert Fraction(kv["isoclinic.degree1"]) == Fraction(2, 3)
        assert Fraction(kv["isoclinic.degree2"]) == Fraction(2, 3)

    def test_mapping_tables_rendered(self, capsys):
        code, out, _ = run(capsys, "isoclinic", "C(3)", "C(6)")
        assert code == 0
        assert "psi (quotient map):" in out
        assert "gamma (automorphism-group map):" in out
        assert "beta (commutator-subgroup map):" in out

    def test_subgroup_pair_spec(self, capsys):
        code, out, _ = run(capsys, "isoclinic", "S(3):gens=3", "C(3)", "--format", "kv")
        assert code == 0
        kv = parse_kv(out)
        assert kv["isoclinic.pair1"] == "S(3)[0,3,4]"

    def test_cap_exceeded_exit_3(self, capsys):
        code, _, err = run(capsys, "isoclinic", "C(4)", "C(4)", "--aut-cap", "1")
        assert code == 3
        assert "cap 1" in err

    def test_witness_cap_flag(self, capsys):
        code, _, err = run(capsys, "isoclinic", "C(7)", "C(7)", "--witness-cap", "2")
        assert code == 3
        assert "quotient order 7 over cap 2" in err

    def test_default_quotient_cap_names_the_numbers(self, capsys):
        code, _, err = run(capsys, "isoclinic", "S(4)", "S(4)")
        assert code == 3
        assert "24" in err and "16" in err

    def test_missing_args_usage(self, capsys):
        code, _, _ = run(capsys, "isoclinic", "C(4)")
        assert code == 2


class TestOrderCapBeforeTables:
    """A catalog name over the automorphism-search cap is refused from its order."""

    @pytest.mark.parametrize("argv,order", [
        (("compute", "--group", "C(60)×C(60)"), 3600),
        (("compute", "--group", "C(5)×C(5)", "--subgroup", "all"), 25),
        (("isoclinic", "C(60)×C(60)", "C(4)"), 3600),
        (("isoclinic", "C(4)", "C(2)xD(16):whole"), 64),
    ])
    def test_refused_without_its_table(self, capsys, monkeypatch, argv, order):
        built = spy_tables(monkeypatch)
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err == (
            "error: automorphism search is capped at group order 24; "
            f"this group has order {order}\n"
        )
        assert all(n <= 24 for n in built)

    @pytest.mark.parametrize(
        "name", ["E(9,1)", "S(5)", "Dic(4)", "C(2)×", "C(30)×S(5)", "C(30)xE(2,0)", "C(30×3)"],
    )
    def test_bad_names_still_exit_2_whatever_their_order(self, capsys, monkeypatch, name):
        built = spy_tables(monkeypatch)
        code, _, err = run(capsys, "compute", "--group", name)
        assert (code, built) == (2, [])
        assert "accepted grammar" in err

    def test_at_the_cap_still_computes(self, capsys):
        code, out, _ = run(capsys, "compute", "--group", "C(2)×C(3)×C(4)", "--format", "kv")
        assert code == 0
        assert "compute.group=C(2)×C(3)×C(4)" in out
