"""Run a list of ``qp`` requests in one process, closed loop.

Reads ``{"requests": [argv, ...], "trace": bool}`` on stdin, calls
``qpolar.cli.main(argv)`` for each request in order (the next starts
only after the previous returns) with stdout and stderr captured, and
writes one JSON line per request to stdout: exit code, seconds spent
in ``main``, and the captured output.  A last line carries the
process's peak RSS and, when tracing, the tracer's raw results.

The program must be importable (``src`` on ``PYTHONPATH``).
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import sys
import time
import traceback


def peak_rss_kb() -> int:
    """High-water RSS of this process image.

    ``ru_maxrss`` is not used where /proc is readable: Linux carries it
    over exec from the parent that spawned the worker, so it can report
    the harness's memory instead of the worker's.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    config = json.load(sys.stdin)
    out = sys.stdout
    import qpolar.cli as cli

    tracer = None
    if config["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    gc.freeze()
    for index, argv in enumerate(config["requests"]):
        captured_out, captured_err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.request = index
        with contextlib.redirect_stdout(captured_out), contextlib.redirect_stderr(captured_err):
            start = time.perf_counter()
            try:
                rc = cli.main(argv)
            except SystemExit as exc:  # argparse refusals
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crash is a result: record it and go on
                rc = -1
                traceback.print_exc()
            elapsed = time.perf_counter() - start
        gc.collect()
        record = {"rc": rc, "s": elapsed, "out": captured_out.getvalue(), "err": captured_err.getvalue()}
        out.write(json.dumps(record) + "\n")
    summary = {"rss_kb": peak_rss_kb()}
    if tracer is not None:
        summary["trace"] = tracer.raw()
    out.write(json.dumps({"summary": summary}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
