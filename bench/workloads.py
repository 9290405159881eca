"""The benchmark's workloads and how one op calls the program.

Every input is fixed: a workload is a tuple of ops over named groups. The
benchmark seed only shuffles the op order within each pass, so the
program itself only ever receives group names.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass

# The default scan catalog at the time the benchmark was defined. The
# set-up probe of catalog_verify builds exactly these groups, so the set-up
# work stays fixed even if the program's catalog changes later.
CATALOG_GROUPS = tuple(
    [f"C({n})" for n in range(1, 17)]
    + ["C(2)×C(2)", "C(2)×C(4)", "C(2)×C(2)×C(2)", "C(3)×C(3)"]
    + [f"D({n})" for n in range(3, 9)]
    + ["Q8", "Dic(3)", "S(3)", "S(4)", "A(4)", "M16"]
)

# Scan ops reach past the CLI's order-24 cap through the library entry.
SCAN_MAX_ORDER = 48


@dataclass(frozen=True)
class Op:
    """One call into the program, run in a fresh interpreter.

    ``kind`` is "cli" (what ``python -m autodegree *args`` runs) or "scan"
    (``run_scan`` over the single group ``args[0]``).
    """

    id: str
    kind: str
    args: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]
    groups: tuple[str, ...]  # what the set-up probe builds


def _compute(group: str) -> Op:
    return Op(f"compute:{group}", "cli",
              ("compute", "--group", group, "--subgroup", "all", "--format", "kv"))


def _scan(group: str) -> Op:
    return Op(f"scan:{group}", "scan", (group,))


_VERIFY = Op("verify", "cli", ("verify", "--suite", "all", "--max-order", "24", "--format", "kv"))
_HEAVY_AUT = ("C(2)×C(2)×C(2)×C(3)", "C(2)×Q8", "C(2)×C(2)×C(4)", "C(2)×C(2)×S(3)")
_WIDE_AUT = ("Q8×C(4)", "C(2)×C(2)×C(8)", "C(2)×C(2)×C(2)×C(3)")
_DEEP_LATTICE = ("C(2)×S(4)", "D(4)×S(3)", "C(2)×C(2)×A(4)")

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("catalog_verify", (_VERIFY,), CATALOG_GROUPS),
        Workload("aut_heavy_compute", tuple(map(_compute, _HEAVY_AUT)), _HEAVY_AUT),
        Workload("wide_aut_scan", tuple(map(_scan, _WIDE_AUT)), _WIDE_AUT),
        Workload("deep_lattice_scan", tuple(map(_scan, _DEEP_LATTICE)), _DEEP_LATTICE),
    )
}


def pass_order(ops: tuple[Op, ...], rng: random.Random) -> list[Op]:
    """The ops of one pass in the order the seeded generator picks."""
    order = list(ops)
    rng.shuffle(order)
    return order


def scan_text(group: str) -> str:
    """What a scan op prints: the kv rendering of one single-group scan."""
    import autodegree
    from autodegree import scan

    entry = autodegree.CatalogEntry(group, autodegree.catalog_build(group))
    report = autodegree.run_scan(
        "all", max_order=SCAN_MAX_ORDER, catalog=(entry,), group_cap=SCAN_MAX_ORDER
    )
    return "\n".join(scan.render_scan_kv(report)) + "\n"


def run_in_process(op: Op) -> tuple[int, bytes]:
    """Run one op in this interpreter; (exit code, stdout bytes).

    Byte for byte what the fresh-process op prints, so the frozen digests
    apply to both.
    """
    if op.kind == "scan":
        return 0, scan_text(op.args[0]).encode("utf-8")
    from autodegree import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(op.args))
    return code, buf.getvalue().encode("utf-8")
