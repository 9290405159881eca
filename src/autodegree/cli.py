"""Command-line front end: compute, verify, isoclinic, groups list.

Exit codes: 0 all checks passed, 1 theorem violation in a scan or an
unequal-degree witness, 2 usage or input error, or a reader that closed
stdout early, 3 a size cap was exceeded. Identical invocations produce
byte-identical output.

Output is written while it is produced, in chunks of about ``CHUNK_CHARS``
characters, so ``verify`` and ``compute`` never hold their whole output:
``compute --subgroup all`` prints |subgroups| × |Aut| automorphism lines. Every refusal happens before
the first write, so stdout stays empty on those exits: argparse errors,
catalog name errors and cap refusals, table-file errors, subgroup-spec
errors, and a group label that ``--format kv`` cannot write (a file name
holding a newline). Only an internal ``InvariantError`` raised while the
output is being rendered can leave completed chunks on stdout (exit 2).
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from pathlib import Path
from typing import Iterable, Iterator, Optional

from . import automorphisms as am
from . import degree as deg
from .catalog import catalog_build, catalog_order
from .groups import GroupError, GroupTable, SizeCapError, SubgroupSet, _ascii_int, enumerate_subgroups, parse_group_table, refuse_over_cap, subgroup_closure, table_order, whole_subgroup
from .isoclinism import AUT_CAP, QUOTIENT_CAP, decide_autoisoclinism, make_pair
from .reporting import format_members, kv_line, render_degree_human, render_degree_kv
from .scan import SUITES, run_scan, render_scan_human, render_scan_kv

# One write per chunk keeps the cost per line off the system call even when
# stdout is unbuffered (PYTHONUNBUFFERED).
CHUNK_CHARS = 64 * 1024


def _emit(lines: Iterable[str]) -> None:
    """Write each line and a newline to ``sys.stdout`` in chunks of about ``CHUNK_CHARS``.

    A chunk is written once it reaches ``CHUNK_CHARS``, so none is longer
    than that plus its last line.
    """
    out = sys.stdout
    chunk: list[str] = []
    size = 0
    for line in lines:
        chunk.append(line)
        size += len(line) + 1
        if size >= CHUNK_CHARS:
            out.write("\n".join(chunk) + "\n")
            chunk, size = [], 0
    if chunk:
        out.write("\n".join(chunk) + "\n")


def load_group(spec: str) -> GroupTable:
    """A group from a file path (if it exists) or a catalog name.

    Every command that loads a group computes its Aut, so a group over the
    automorphism-search cap is refused from its order before any table: a
    catalog name's order is read from the name, a file's from its order line.
    """
    path = Path(spec)
    try:
        exists = path.exists()
    except OSError as exc:
        if exc.errno != errno.ENAMETOOLONG:
            raise
        exists = False  # too long for a file name, so it can only be a catalog name
    if exists:
        text = path.read_text(encoding="utf-8-sig")
        refuse_over_cap("automorphism search", table_order(text))
        g = parse_group_table(text)
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
            gens = [_ascii_int(p) for p in body.split(",") if p != ""]
        except ValueError:
            raise GroupError(f"bad generator list {body!r}; expected gens=i,j,...") from None
        return [subgroup_closure(g, gens)]
    raise GroupError(f"bad subgroup spec {spec!r}; expected all, whole or gens=i,j,...")


def cmd_compute(args) -> int:
    g = load_group(args.group)
    auts = am.compute_aut(g)
    subgroups = select_subgroups(g, args.subgroup)
    cycles = [a.cycle_notation() for a in auts.members]

    # Each subgroup's report is computed when its lines are due.
    def lines() -> Iterator[str]:
        if args.format == "kv":
            yield kv_line("compute.group", g.label())
            yield kv_line("compute.subgroup_spec", args.subgroup)
            # The automorphism listing is the same for every subgroup but its prefix.
            listing = [kv_line(f"aut.{j}", c) for j, c in enumerate(cycles)]
            for i, h in enumerate(subgroups):
                yield from render_degree_kv(deg.degree_report(h, auts), prefix=f"report.{i}")
                yield from map(f"report.{i}.".__add__, listing)
        else:
            for i, h in enumerate(subgroups):
                if i:
                    yield ""
                yield from render_degree_human(deg.degree_report(h, auts), cycles=cycles)

    _emit(lines())
    return 0


def cmd_verify(args) -> int:
    report = run_scan(
        suite=args.suite,
        max_order=args.max_order,
        aut_cap=args.aut_cap,
        quotient_cap=args.witness_cap,
    )
    _emit(render_scan_kv(report) if args.format == "kv" else render_scan_human(report))
    return 1 if report.failures else 0


def parse_pair_spec(spec: str):
    """GROUP or GROUP:whole or GROUP:gens=i,j,... into (group, subgroup or None if whole)."""
    group_part, sep, sub_part = spec.rpartition(":")
    if not (sep and (sub_part == "whole" or sub_part.startswith("gens="))):
        return load_group(spec), None
    g = load_group(group_part)
    return g, None if sub_part == "whole" else select_subgroups(g, sub_part)[0]


def cmd_isoclinic(args) -> int:
    g1, h1 = parse_pair_spec(args.pair1)
    g2, h2 = parse_pair_spec(args.pair2)
    p1 = make_pair(g1, h1)
    # Equal tables under equal labels share Aut, so it is computed once.
    same_group = g2 == g1 and g2.label() == g1.label()
    p2 = make_pair(g2, h2, auts=p1.auts if same_group else None)
    witness, why, check = decide_autoisoclinism(
        p1, p2, aut_cap=args.aut_cap, quotient_cap=args.witness_cap
    )
    # Each row is (kv key, kv value, human line); a row without a human line is kv only.
    rows = [
        ("isoclinic.pair1", p1.label(), f"pair 1: {p1.label()}"),
        ("isoclinic.pair2", p2.label(), f"pair 2: {p2.label()}"),
    ]
    if witness is None:
        rows.append(("isoclinic.status", "no-witness", "status: no witness"))
    elif check is None:
        rows.append(("isoclinic.status", f"invalid-witness:{why}",
                     f"status: INVALID witness ({why})"))
    else:
        rows.append(("isoclinic.status", "witness" if check.holds else "witness-degree-mismatch",
                     "status: witness found and verified"))
        for name, role, hom in (("psi", "quotient map", witness.psi),
                                ("gamma", "automorphism-group map", witness.gamma),
                                ("beta", "commutator-subgroup map", witness.beta)):
            mapping = " ".join(f"{a}->{b}" for a, b in enumerate(hom.image))
            rows.append((f"witness.{name}", format_members(hom.image), f"{name} ({role}): {mapping}"))
        relation = "=" if check.holds else "!="
        rows.append(("isoclinic.degree1", check.value,
                     f"degrees: {check.value} {relation} {check.bound}"))
        rows.append(("isoclinic.degree2", check.bound, None))
    if args.format == "kv":
        _emit(kv_line(key, value) for key, value, _ in rows)
    else:
        _emit(line for _, _, line in rows if line is not None)
    return 0 if witness is None or (check is not None and check.holds) else 1


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
    _emit(lines)
    return 0


def _positive_int(text: str) -> int:
    """An argparse type: a positive integer written in ASCII digits."""
    if not (text.isascii() and text.isdigit() and int(text) > 0):
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


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
        p.add_argument("--aut-cap", type=_positive_int, default=AUT_CAP,
                       help=f"witness-search cap on |Aut| (default {AUT_CAP})")
        p.add_argument("--witness-cap", type=_positive_int, default=QUOTIENT_CAP,
                       help=f"witness-search cap on the quotient order (default {QUOTIENT_CAP})")

    p_compute = sub.add_parser("compute", help="degree report for one group (or file)")
    p_compute.add_argument("--group", required=True,
                           help="catalog name (see 'groups list') or path to a table file")
    p_compute.add_argument("--subgroup", default="whole",
                           help="all | whole | gens=i,j,... (default whole)")
    add_format(p_compute)
    p_compute.set_defaults(func=cmd_compute)

    p_verify = sub.add_parser("verify", help="run a verification suite over the catalog")
    p_verify.add_argument("--max-order", type=_positive_int, default=12,
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
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not in the interpreter's last flush
        return code
    except BrokenPipeError as exc:
        # Point stdout at devnull so the shutdown flush has nowhere to fail.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SizeCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (GroupError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
