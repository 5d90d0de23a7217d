"""Run one CLI call in a fresh interpreter and report how it went.

    python3 perfbench/child.py REPORT TRACE SRC SUBCOMMAND [CLI ARGS...]

Imports ``subspace_glr.cli`` and loads the config, which is the set-up every
call pays, and stamps the ready time. Then it calls ``cli.main`` with
SUBCOMMAND and the CLI arguments, as ``python -m subspace_glr`` does. REPORT
gets a JSON object with the monotonic ready, start and end times in ns, the
exit code, the peak RSS of this process and of its joined pool workers, the
library versions and, when TRACE is 1, the spans of the traced call.
SRC is the directory the package must be imported from.
"""

import json
import os
import resource
import sys
import time


def _versions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main() -> int:
    report_path, trace, src, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3], sys.argv[4:]
    import subspace_glr.cli as cli

    if not os.path.realpath(cli.__file__).startswith(os.path.realpath(src) + os.sep):
        print(f"subspace_glr was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 4
    cli.load_config(argv[argv.index("--config") + 1], None)
    ready = time.monotonic_ns()
    run = cli.main
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        run = tracer.wrap(cli.main, "cli.main")
    start = time.monotonic_ns()
    rc = run(argv)
    end = time.monotonic_ns()
    own = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    report = {
        "ready_ns": ready,
        "start_ns": start,
        "end_ns": end,
        "rc": rc,
        "peak_rss_kib": max(own.ru_maxrss, workers.ru_maxrss),
        "versions": _versions(),
        "spans": tracer.spans if tracer else None,
    }
    with open(report_path, "w") as fh:
        json.dump(report, fh, separators=(",", ":"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
