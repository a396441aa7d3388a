"""Child processes of the benchmark; run.py starts them, one at a time.

    child.py cli <trace.json> <tglab argv...>
        One traced CLI call.  Behaves as ``python -m tglab.cli <argv...>``
        (same stdout, stderr and exit code) with spans installed, and
        writes the aggregated spans to <trace.json> at exit.

    child.py session <job.json> <result.json>
        One long-lived session: import tglab once, then call
        ``tglab.cli.main(argv)`` for every call of the job, ``passes``
        times over the same order.  Writes JSON lines to <result.json>:
        the import time, one outcome per call, then the spans (empty
        unless the job asks for tracing).

Both record ``time.monotonic()`` right after ``import tglab.cli``; on
Linux that clock is shared across processes, so run.py subtracts its own
launch time from it to get interpreter start plus import.
"""

import time
import sys

import tglab.cli

IMPORTED_AT = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import signal  # noqa: E402
import traceback  # noqa: E402

from tracer import Tracer  # noqa: E402


class CallTimeout(BaseException):
    """Raised by SIGALRM; a BaseException so no handler in tglab eats it."""


def _on_alarm(signum, frame):
    raise CallTimeout()


def run_cli(trace_path: str, argv: list[str]) -> int:
    tracer = Tracer()
    tracer.install()
    try:
        return tglab.cli.main(argv)
    finally:
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"imported_at": IMPORTED_AT, **tracer.snapshot()}, fh)


def _session_call(argv: list[str], timeout: float) -> dict:
    out, err = io.StringIO(), io.StringIO()
    signal.setitimer(signal.ITIMER_REAL, timeout)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = tglab.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:
                traceback.print_exc()
                rc = 1
    except CallTimeout:
        rc = None
    finally:
        wall = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
    return {"wall": wall, "rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def run_session(job_path: str, result_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    tracer = None
    if job["trace"]:
        tracer = Tracer()
        tracer.install()
    signal.signal(signal.SIGALRM, _on_alarm)
    # One JSON line per call, written as it ends, so the session holds no
    # reports in memory and its peak RSS stays its own.
    with open(result_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"imported_at": IMPORTED_AT}) + "\n")
        for i in range(job["passes"]):
            for argv in job["calls"]:
                fh.write(json.dumps({"pass": i, **_session_call(argv, job["timeout"])}) + "\n")
        fh.write(json.dumps(tracer.snapshot() if tracer else {}) + "\n")
    return 0


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "cli":
        sys.exit(run_cli(sys.argv[2], sys.argv[3:]))
    if mode == "session":
        sys.exit(run_session(sys.argv[2], sys.argv[3]))
    sys.exit(f"unknown mode {mode!r}")
