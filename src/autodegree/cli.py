"""Command-line front end: compute, verify, isoclinic, groups list.

Exit codes: 0 all checks passed, 1 theorem violation in a scan or an
unequal-degree witness, 2 usage or input error, 3 a size cap was exceeded.
Identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

from . import automorphisms as am
from . import degree as deg
from .catalog import catalog_build, catalog_order
from .groups import GroupError, GroupTable, SizeCapError, SubgroupSet, enumerate_subgroups, refuse_over_cap, subgroup_closure, whole_subgroup
from .isoclinism import AUT_CAP, QUOTIENT_CAP, decide_autoisoclinism, make_pair
from .reporting import format_members, kv_line, render_degree_human, render_degree_kv
from .scan import SUITES, run_scan, render_scan_human, render_scan_kv


def load_group(spec: str) -> GroupTable:
    """A group from a file path (if it exists) or a catalog name.

    Every command that loads a group computes its Aut, so a catalog name over
    the automorphism-search cap is refused from its order, before any table.
    """
    path = Path(spec)
    if path.exists():
        from .groups import parse_group_table

        g = parse_group_table(path.read_text(encoding="utf-8"))
        return GroupTable(g.table, name=path.name)
    refuse_over_cap("automorphism search", catalog_order(spec))
    return catalog_build(spec)


def select_subgroups(g: GroupTable, spec: str) -> list[SubgroupSet]:
    if spec == "whole":
        return [whole_subgroup(g)]
    if spec == "all":
        return enumerate_subgroups(g)
    if spec.startswith("gens="):
        body = spec[len("gens="):]
        try:
            gens = [int(p) for p in body.split(",") if p != ""]
        except ValueError:
            raise GroupError(f"bad generator list {body!r}; expected gens=i,j,...") from None
        return [subgroup_closure(g, gens)]
    raise GroupError(f"bad subgroup spec {spec!r}; expected all, whole or gens=i,j,...")


def cmd_compute(args) -> int:
    g = load_group(args.group)
    auts = am.compute_aut(g)
    subgroups = select_subgroups(g, args.subgroup)
    cycles = [a.cycle_notation() for a in auts.members]
    lines: list[str] = []
    if args.format == "kv":
        lines.append(kv_line("compute.group", g.label()))
        lines.append(kv_line("compute.subgroup_spec", args.subgroup))
        for i, h in enumerate(subgroups):
            lines.extend(render_degree_kv(deg.degree_report(h, auts), prefix=f"report.{i}"))
            for j, c in enumerate(cycles):
                lines.append(kv_line(f"report.{i}.aut.{j}", c))
    else:
        for i, h in enumerate(subgroups):
            if i:
                lines.append("")
            lines.extend(render_degree_human(deg.degree_report(h, auts), cycles=cycles))
    print("\n".join(lines))
    return 0


def cmd_verify(args) -> int:
    report = run_scan(
        suite=args.suite,
        max_order=args.max_order,
        aut_cap=args.aut_cap,
        quotient_cap=args.witness_cap,
    )
    if args.format == "kv":
        lines = render_scan_kv(report)
    else:
        lines = render_scan_human(report)
    print("\n".join(lines))
    return 1 if report.failures else 0


def parse_pair_spec(spec: str):
    """GROUP or GROUP:whole or GROUP:gens=i,j,... into (group, subgroup)."""
    group_part, sep, sub_part = spec.rpartition(":")
    if sep and (sub_part == "whole" or sub_part.startswith("gens=")):
        g = load_group(group_part)
        h = select_subgroups(g, sub_part)[0]
    else:
        g = load_group(spec)
        h = whole_subgroup(g)
    return g, h


def _render_witness_kv(witness) -> list[str]:
    return [
        kv_line("witness.psi", format_members(witness.psi.image)),
        kv_line("witness.gamma", format_members(witness.gamma.image)),
        kv_line("witness.beta", format_members(witness.beta.image)),
    ]


def _render_witness_human(witness) -> list[str]:
    def table(label, hom):
        mapping = " ".join(f"{a}->{b}" for a, b in enumerate(hom.image))
        return f"{label}: {mapping}"

    return [
        table("psi (quotient map)", witness.psi),
        table("gamma (automorphism-group map)", witness.gamma),
        table("beta (commutator-subgroup map)", witness.beta),
    ]


def cmd_isoclinic(args) -> int:
    g1, h1 = parse_pair_spec(args.pair1)
    g2, h2 = parse_pair_spec(args.pair2)
    p1 = make_pair(g1, h1)
    # Equal tables under equal labels share Aut, so it is computed once.
    same_group = g2 == g1 and g2.label() == g1.label()
    p2 = make_pair(g2, h2, auts=p1.auts if same_group else None)
    kv = args.format == "kv"
    lines: list[str] = []
    if kv:
        lines.append(kv_line("isoclinic.pair1", p1.label()))
        lines.append(kv_line("isoclinic.pair2", p2.label()))
    else:
        lines.append(f"pair 1: {p1.label()}")
        lines.append(f"pair 2: {p2.label()}")
    exit_code = 0
    witness, why, check = decide_autoisoclinism(
        p1, p2, aut_cap=args.aut_cap, quotient_cap=args.witness_cap
    )
    if witness is None:
        lines.append(kv_line("isoclinic.status", "no-witness") if kv else "status: no witness")
    elif check is None:
        lines.append(
            kv_line("isoclinic.status", f"invalid-witness:{why}") if kv
            else f"status: INVALID witness ({why})"
        )
        exit_code = 1
    else:
        status = "witness" if check.holds else "witness-degree-mismatch"
        if kv:
            lines.append(kv_line("isoclinic.status", status))
            lines.extend(_render_witness_kv(witness))
            lines.append(kv_line("isoclinic.degree1", check.value))
            lines.append(kv_line("isoclinic.degree2", check.bound))
        else:
            lines.append("status: witness found and verified")
            lines.extend(_render_witness_human(witness))
            lines.append(f"degrees: {check.value} = {check.bound}")
        if not check.holds:
            exit_code = 1
    print("\n".join(lines))
    return exit_code


def cmd_groups(args) -> int:
    from .scan import default_catalog

    lines = []
    if args.format == "kv":
        for i, entry in enumerate(default_catalog()):
            lines.append(kv_line(f"group.{i}.name", entry.name))
            lines.append(kv_line(f"group.{i}.order", entry.group.order))
    else:
        for entry in default_catalog():
            lines.append(f"{entry.name} (order {entry.group.order})")
    print("\n".join(lines))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="autodegree",
        description=(
            "Exact fixed-point degrees of automorphism actions on subgroups of "
            "small finite groups, with catalog-wide verification of every bound."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("human", "kv"), default="human",
                       help="human-readable or machine-readable key-value output")

    def add_witness_caps(p):
        p.add_argument("--aut-cap", type=int, default=AUT_CAP,
                       help=f"witness-search cap on |Aut| (default {AUT_CAP})")
        p.add_argument("--witness-cap", type=int, default=QUOTIENT_CAP,
                       help=f"witness-search cap on the quotient order (default {QUOTIENT_CAP})")

    p_compute = sub.add_parser("compute", help="degree report for one group (or file)")
    p_compute.add_argument("--group", required=True,
                           help="catalog name (see 'groups list') or path to a table file")
    p_compute.add_argument("--subgroup", default="whole",
                           help="all | whole | gens=i,j,... (default whole)")
    add_format(p_compute)
    p_compute.set_defaults(func=cmd_compute)

    p_verify = sub.add_parser("verify", help="run a verification suite over the catalog")
    p_verify.add_argument("--max-order", type=int, default=12,
                          help="largest group order to scan (default 12)")
    p_verify.add_argument("--suite", default="all", choices=("all",) + SUITES)
    add_witness_caps(p_verify)
    add_format(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_iso = sub.add_parser("isoclinic", help="search for an autoisoclinism between two pairs")
    p_iso.add_argument("pair1", help="GROUP or GROUP:whole or GROUP:gens=i,j,...")
    p_iso.add_argument("pair2", help="GROUP or GROUP:whole or GROUP:gens=i,j,...")
    add_witness_caps(p_iso)
    add_format(p_iso)
    p_iso.set_defaults(func=cmd_isoclinic)

    p_groups = sub.add_parser("groups", help="catalog inspection")
    groups_sub = p_groups.add_subparsers(dest="subcommand", required=True)
    p_list = groups_sub.add_parser("list", help="list the default scan catalog")
    add_format(p_list)
    p_list.set_defaults(func=cmd_groups)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except SizeCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (GroupError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
