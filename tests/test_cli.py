"""CLI behavior: commands, formats, exit codes, determinism, kv round-trip."""

import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from autodegree import cli, groups
from autodegree.catalog import catalog_build
from autodegree.cli import main
from autodegree.degree import BoundCheck
from autodegree.groups import GroupTable
from autodegree.reporting import kv_line, parse_kv
from autodegree.scan import CatalogEntry, render_scan_kv, run_scan


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

    @pytest.mark.parametrize("fmt", ["human", "kv"])
    def test_byte_order_mark_is_ignored(self, capsys, tmp_path, fmt):
        # Same file name in two directories, so the label is the same too.
        outs = []
        for folder, bom in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
            path = tmp_path / folder / "c2.grp"
            path.parent.mkdir()
            path.write_bytes(bom + b"2\n0 1\n1 0\n")
            code, out, err = run(capsys, "compute", "--group", str(path), "--format", fmt)
            assert (code, err) == (0, "")
            outs.append(out.encode("utf-8"))
        assert outs[0] == outs[1]

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

    @pytest.mark.parametrize("max_order, kinds", [
        (2, ["converse", "equality_pq", "equality_pq2"]),
        (4, ["equality_pq2"]), (8, ["equality_pq2"]), (24, ["equality_pq2"]),
    ])
    def test_vacuous_kinds(self, max_order, kinds):
        assert run_scan("equalities", max_order=max_order).vacuous == [
            f"{kind}: no applicable instance with |G| <= {max_order} (vacuously true)"
            for kind in kinds
        ]

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


class TestKvRoundTrip:
    """parse_kv reads back exactly what kv_line wrote."""

    @given(st.text().filter(lambda v: "\n" not in v))
    def test_parse_kv_inverts_kv_line(self, value):
        lines = [kv_line("a.value", value), kv_line("b", value + "=x")]
        assert parse_kv("\n".join(lines) + "\n") == {"a.value": value, "b": value + "=x"}

    # A form feed, a carriage return and U+2028 end lines for str.splitlines,
    # and a trailing space was stripped.
    @pytest.mark.parametrize("name", ["c2\x0cgrp.txt", "c2sp.txt ", "c2\rgrp.txt", "c2\u2028grp.txt"])
    def test_file_label_round_trips(self, capsys, tmp_path, name):
        path = tmp_path / name
        path.write_text("2\n0 1\n1 0\n")
        code, out, _ = run(capsys, "compute", "--group", str(path), "--format", "kv")
        assert code == 0
        assert parse_kv(out)["compute.group"] == name
        code, out, _ = run(capsys, "isoclinic", str(path), str(path), "--format", "kv")
        assert code == 0
        kv = parse_kv(out)
        assert kv["isoclinic.pair1"] == kv["isoclinic.pair2"] == name

    @pytest.mark.parametrize("command", ["compute", "isoclinic"])
    def test_label_with_a_newline_is_refused(self, capsys, tmp_path, command):
        path = tmp_path / "c2\ngrp.txt"
        path.write_text("2\n0 1\n1 0\n")
        argv = ["--group", str(path)] if command == "compute" else [str(path), "C(2)"]
        code, out, err = run(capsys, command, *argv, "--format", "kv")
        assert (code, out) == (2, "")
        assert err.startswith("error: unserializable kv pair: ")

    def test_scan_record_with_a_newline_is_refused(self):
        report = run_scan("formulas", catalog=(CatalogEntry("C2\nbad", catalog_build("C(2)")),))
        with pytest.raises(ValueError, match=r"^unserializable kv pair: 'record\.0\.group'="):
            list(render_scan_kv(report))


@pytest.mark.parametrize("argv", [
    ("verify", "--max-order", "-1"),
    ("verify", "--max-order", "0"),
    ("verify", "--max-order", "\u0663"),
    ("verify", "--max-order", "1_2"),
    ("verify", "--aut-cap", "-5"),
    ("verify", "--witness-cap", "0"),
    ("isoclinic", "C(4)", "C(4)", "--aut-cap", "-5"),
    ("isoclinic", "C(4)", "C(4)", "--witness-cap", "\uff12"),
])
def test_numeric_flags_below_one_or_in_other_digits_are_refused(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "expected a positive integer" in err


@pytest.mark.parametrize("spec", ["gens=1_0", "gens=\u0661", "gens= 1"])
def test_generator_list_in_ascii_digits_only(capsys, spec):
    code, out, err = run(capsys, "compute", "--group", "C(4)", "--subgroup", spec)
    assert (code, out) == (2, "")
    assert err.startswith("error: bad generator list")


class TestIsoclinic:
    def test_reflexive_c4(self, capsys):
        code, out, _ = run(capsys, "isoclinic", "C(4)", "C(4)")
        assert code == 0
        assert "witness found and verified" in out
        assert "degrees: 3/4 = 3/4" in out

    def test_unequal_degrees_print_as_unequal(self, capsys, monkeypatch):
        decide = cli.decide_autoisoclinism

        def mismatched(*args, **kwargs):
            witness, why, check = decide(*args, **kwargs)
            return witness, why, BoundCheck(check.name, check.value, Fraction(1, 2), "equal")

        monkeypatch.setattr(cli, "decide_autoisoclinism", mismatched)
        code, out, _ = run(capsys, "isoclinic", "C(4)", "C(4)")
        assert code == 1
        assert "degrees: 3/4 != 1/2" in out
        assert "degrees: 3/4 = 1/2" not in out

    @pytest.mark.parametrize("pair1", ["S(3)", "S(3):whole"])
    def test_whole_group_certified_once(self, capsys, monkeypatch, pair1):
        built = []
        validate = groups.SubgroupSet.__post_init__

        def counting(self):
            built.append(self.members)
            validate(self)

        monkeypatch.setattr(groups.SubgroupSet, "__post_init__", counting)
        code, _, _ = run(capsys, "isoclinic", pair1, "S(3)")
        assert code == 0
        # The whole group through the shared Aut memo, then L and [H, A].
        assert built == [(0, 1, 2, 3, 4, 5), (0,), (0, 3, 4)]

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

    def test_prime_parameter_is_checked_in_bounded_time(self, capsys):
        # p = 2^61 - 1 is prime; trial division up to its square root runs for minutes.
        start = time.monotonic()
        code, out, err = run(capsys, "compute", "--group", "E(2305843009213693951,1)")
        assert time.monotonic() - start < 1
        assert (code, out) == (3, "")
        assert err == (
            "error: automorphism search is capped at group order 24; "
            "this group has order 2305843009213693951\n"
        )

    @pytest.mark.parametrize("name", ["E(2,10000000)", "E(3,30000000)", "E(2,10000)×E(2,10000)"])
    def test_order_too_long_to_print_is_refused_from_its_logarithm(self, capsys, name):
        start = time.monotonic()
        code, out, err = run(capsys, "compute", "--group", name)
        assert time.monotonic() - start < 1
        assert (code, out) == (3, "")
        assert err == f"error: {name} has an order of more than 4300 digits, over every order cap\n"

    def test_longest_printable_elementary_order_keeps_its_cap_message(self, capsys):
        code, out, err = run(capsys, "compute", "--group", "E(2,14000)")
        assert (code, out) == (3, "")
        assert err == (
            "error: automorphism search is capped at group order 24; "
            f"this group has order {2 ** 14000}\n"
        )

    def test_name_too_long_for_a_file_is_read_as_a_catalog_name(self, capsys):
        nines = "9" * 300
        code, out, err = run(capsys, "compute", "--group", f"C({nines})")
        assert (code, out) == (3, "")
        assert err == (
            "error: automorphism search is capped at group order 24; "
            f"this group has order {nines}\n"
        )

    def test_zero_padded_parameter_too_long_for_int_reads_as_its_value(self, capsys):
        padded = run(capsys, "compute", "--group", "C(" + "0" * 4999 + "4)")
        assert padded == run(capsys, "compute", "--group", "C(4)")
        assert padded[0] == 0

    @pytest.mark.parametrize("template", [
        "C({})", "D({})", "E({},1)", "E(2,{})", "C(2)×C({})", "E({0},{0})",
    ])
    def test_parameter_too_long_for_int_is_refused_from_its_digit_count(
        self, capsys, monkeypatch, template
    ):
        built = spy_tables(monkeypatch)
        name = template.format("9" * 5000)
        start = time.monotonic()
        code, out, err = run(capsys, "compute", "--group", name)
        assert time.monotonic() - start < 1
        assert (code, out, built) == (3, "", [])
        assert err == f"error: {name} has an order of more than 4300 digits, over every order cap\n"

    @pytest.mark.parametrize("name,reason", [
        ("S({})", "symmetric groups are limited to n <= 4"),
        ("E(9,{})", "E(p,k) needs a prime p"),
        ("E({},0)", "E(p,k) needs k >= 1"),
    ])
    def test_bad_name_with_a_parameter_too_long_for_int_exits_2(self, capsys, name, reason):
        name = name.format("0" + "7" * 5000)
        code, out, err = run(capsys, "compute", "--group", name)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {reason}: {name!r}; accepted grammar")

    def test_over_cap_table_file_is_refused_before_its_rows(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "c200.grp"
        rows = (" ".join(str((i + j) % 200) for j in range(200)) for i in range(200))
        path.write_text("# C(200)\n\n200\n" + "\n".join(rows) + "\n")

        def validate(g):
            raise AssertionError("the rows of an over-cap table were validated")

        monkeypatch.setattr(groups, "validate_group_table", validate)
        code, out, err = run(capsys, "compute", "--group", str(path))
        assert (code, out) == (3, "")
        assert err == "error: automorphism search is capped at group order 24; this group has order 200\n"

    @pytest.mark.parametrize("text,message", [
        ("# c\n\nx3\n0 1 2\n", "line 3: expected the group order, got 'x3'"),
        ("0\n", "line 1: group order must be positive, got 0"),
        ("# nothing here\n", "empty input: no group order found"),
    ])
    def test_bad_order_line_is_still_a_parse_error(self, capsys, tmp_path, text, message):
        path = tmp_path / "bad.grp"
        path.write_text(text)
        code, out, err = run(capsys, "compute", "--group", str(path))
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_at_the_cap_still_computes(self, capsys):
        code, out, _ = run(capsys, "compute", "--group", "C(2)×C(3)×C(4)", "--format", "kv")
        assert code == 0
        assert "compute.group=C(2)×C(3)×C(4)" in out
