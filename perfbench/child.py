"""One cold liewords CLI call, timed from inside its own process.

Usage: child.py INFO_JSON TRACE(0|1) [CLI ARGS...]

Stdout and the exit code are the CLI's own.  INFO_JSON receives the
monotonic clock readings when the package is imported (`ready`), when
tracing is installed (`go`) and when `main` returns (`end`).  That clock
is shared by all processes on the machine, so the parent can subtract
its spawn time.  It also receives the process's peak resident memory
and, with TRACE=1, the spans recorded by `tracing`.  With no CLI
arguments the call only imports the package, which measures set-up.
"""

import json
import resource
import sys
import time


def main() -> int:
    info_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    import liewords.cli

    t_ready = time.monotonic()
    tracer = None
    if trace:
        import tracing

        tracer = tracing.install()
    t_go = time.monotonic()
    rc = liewords.cli.main(argv) if argv else 0
    sys.stdout.flush()
    t_end = time.monotonic()
    info = {
        "ready": t_ready,
        "go": t_go,
        "end": t_end,
        "rc": rc,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        info["trace"] = tracer.dump()
    with open(info_path, "w") as fh:
        json.dump(info, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
