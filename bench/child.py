"""The fresh interpreter that runs one op.

    python bench/child.py cli ARGS...         what `python -m autodegree ARGS...` does
    python bench/child.py scan GROUP          print the kv scan of one group
    python bench/child.py setup GROUP...      import autodegree, build the groups, exit

The harness puts the checkout's ``src`` on PYTHONPATH before starting it.
When PEAK_RSS_FD names an open descriptor, the child writes its own peak
resident set (VmHWM, in KiB) there before it exits. The ``ru_maxrss`` that
``wait4`` reports is no use for that: it also counts the parent's resident
set, which the child shares between fork and exec.
"""

from __future__ import annotations

import os
import sys

from workloads import scan_text


def run(argv: list[str]) -> int:
    if argv and argv[0] == "cli":
        from autodegree.cli import main

        code = main(argv[1:])
        sys.stdout.flush()
        return code
    if len(argv) >= 2 and argv[0] == "scan":
        sys.stdout.write(scan_text(argv[1]))
        return 0
    if argv and argv[0] == "setup":
        import autodegree

        for group in argv[1:]:
            autodegree.catalog_build(group)
        return 0
    print(__doc__, file=sys.stderr)
    return 2


def report_peak_rss() -> None:
    fd = os.environ.get("PEAK_RSS_FD")
    if fd is None:
        return
    with open("/proc/self/status", encoding="ascii") as status:
        kib = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    os.write(int(fd), kib.encode("ascii"))


if __name__ == "__main__":
    code = run(sys.argv[1:])
    report_peak_rss()
    sys.exit(code)
