#!/usr/bin/env python3
"""Build the staged low-complexity word at toy parameters, check its
structure, and show what the honest parameters would require."""

import sys

from liewords.construction import (
    ConstructionParams,
    build,
    verify_complexity_bound,
    verify_structure,
)
from liewords.errors import ParameterOverflow, WindowUnstable


def main() -> int:
    depth = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    params = ConstructionParams(depth=depth, mode="toy", growth=(2,) * depth)
    trace = build(params)

    print("toy construction, depth %d, growth 2 at every stage" % depth)
    print("  stage lengths d:   %s" % (trace.d,))
    print("  exponent matrix a: %s" % (trace.a,))
    print("  word lengths s:    %s" % ([len(s) for s in trace.s],))

    failed = [name for name, ok in verify_structure(trace) if not ok]
    print("  structure checks:  %s" % ("all ok" if not failed else "FAIL %s" % failed))

    hi = 1
    rows = []
    while True:
        try:
            rows = verify_complexity_bound(trace, range(1, hi + 1))
        except WindowUnstable:
            break
        hi += 1
    if rows:
        worst = max(rows, key=lambda r: r.p - r.bound)
        print(
            "  factor counts stable for n <= %d; doubly-log budget holds for n <= %d"
            % (rows[-1].n, max((r.n for r in rows if r.ok), default=0))
        )
        print(
            "  worst row: n=%d p=%d vs budget %d (toy growth is far below the honest one)"
            % (worst.n, worst.p, worst.bound)
        )

    try:
        build(ConstructionParams(depth=depth, mode="honest"))
        print("  honest mode unexpectedly fit in memory")
        return 1
    except ParameterOverflow as e:
        print("  honest mode: ParameterOverflow: %s" % e)
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
