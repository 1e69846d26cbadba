#!/usr/bin/env python3
"""Run every closed-form table against the computed values and report."""

import sys
import time
from itertools import groupby

from liewords.golden import golden_report


def main() -> int:
    started = time.monotonic()
    rows = golden_report()
    elapsed = time.monotonic() - started

    failures = [r for r in rows if not r.ok]
    # golden_report emits the rows of each plan entry together, by n
    for (word, method), group in groupby(rows, lambda r: (r.word, r.method)):
        group = list(group)
        ok = sum(1 for r in group if r.ok)
        certified = all(r.certified for r in group)
        print(
            "%-12s %-9s n=%d..%-4d %4d/%d %s%s"
            % (
                word,
                method,
                group[0].n,
                group[-1].n,
                ok,
                len(group),
                "ok" if ok == len(group) else "FAIL",
                "" if certified else "  (uncertified)",
            )
        )
    for r in failures:
        print(
            "  mismatch: %s %s n=%d expected %d got %d"
            % (r.word, r.method, r.n, r.expected, r.computed)
        )
    print("%d rows in %.1fs" % (len(rows), elapsed))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
