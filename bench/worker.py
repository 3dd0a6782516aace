"""One workload process: import the CLI, serve a list of requests, report.

Usage: ``python3 worker.py SRC_DIR < job.json``, where the job is

    {"warmup": [argv, ...], "timed": [argv, ...], "trace": bool}

and writes one JSON object to stdout with the import time, the peak RSS,
the wall time of the timed stream, the calibration times (below), and per
request the exit status, captured output and latency. Requests run one
after another in this one thread (a closed loop with one client). With ``trace`` the layer wrappers
of ``tracer`` are installed after the import and removed before reporting.

The worker also times a fixed piece of stdlib-only work, the calibration
unit: a few times right after the import, and once before the next request
whenever 20 ms of stream have passed since the last one. The caller uses
these times to correct for the speed of the machine, which on a shared
host changes from second to second. Calibration time is not part of any
request or of the stream time.
"""

import sys
import time

# the import is timed before anything else is loaded, so the stdlib modules
# the CLI needs count toward set-up
_t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import twoside.cli  # noqa: E402

SETUP_S = time.perf_counter() - _t0

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402

SETUP_CALIBRATION_UNITS = 9
CALIBRATION_EVERY_S = 0.02


def _unit_work() -> None:
    """A fixed piece of work like a CLI request's: build and run an argparse
    parser, some float math, a JSON dump."""
    parser = argparse.ArgumentParser(prog="calibration")
    sub = parser.add_subparsers(dest="command")
    for name in ("a", "b", "c"):
        cmd = sub.add_parser(name)
        for option in ("--x", "--y", "--z"):
            cmd.add_argument(option, type=float, default=1.0)
    args = parser.parse_args(["b", "--x", "2.5"])
    values = [math.lgamma(1.0 + i * args.x) for i in range(200)]
    json.dumps({"sum": math.fsum(values), "values": values[:20]}, indent=2)


def calibration_unit() -> float:
    """Seconds taken by the second of two back-to-back runs of the unit work.

    The first, untimed run refills the caches the last request left cold,
    so the time does not depend on how much memory that request touched.
    Each run allocates and frees the same few kilobytes of objects, which
    come back from the allocator's free lists, and garbage collection is
    off, so the size of the program's heap does not enter either."""
    gc.disable()
    try:
        _unit_work()
        t0 = time.perf_counter()
        _unit_work()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def peak_rss_mb() -> float:
    """Peak resident set size of this process since its exec (VmHWM).
    ``ru_maxrss`` would also count the parent's pages, which the child maps
    between fork and exec."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _serve(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = twoside.cli.main(argv)
    except Exception as exc:  # a crash is a recorded failure, not a benchmark abort
        status = type(exc).__name__
        err.write(f"{type(exc).__name__}: {exc}\n")
    elapsed = time.perf_counter() - t0
    return {"status": status, "stdout": out.getvalue(), "stderr": err.getvalue(), "t": elapsed}


def main() -> int:
    setup_calibration = statistics.median(
        calibration_unit() for _ in range(SETUP_CALIBRATION_UNITS))
    job = json.load(sys.stdin)
    tracer_obj = None
    if job.get("trace"):
        import tracer

        tracer_obj = tracer.Tracer()
        tracer_obj.install()
    for argv in job["warmup"]:
        _serve(argv)
    if tracer_obj is not None:
        tracer_obj.reset()
    results = []
    calibrations = []
    paused = 0.0  # wall time spent calibrating, both runs of each unit
    t0 = time.perf_counter()
    next_calibration = t0
    for argv in job["timed"]:
        if time.perf_counter() >= next_calibration:
            c0 = time.perf_counter()
            calibrations.append(calibration_unit())
            next_calibration = time.perf_counter()
            paused += next_calibration - c0
            next_calibration += CALIBRATION_EVERY_S
        result = _serve(argv)
        result["calibration"] = len(calibrations) - 1  # the unit run last before it
        results.append(result)
    stream_s = time.perf_counter() - t0 - paused
    report = {
        "setup_s": SETUP_S,
        "setup_calibration_s": setup_calibration,
        "stream_s": stream_s,
        "calibrations_s": calibrations,
        "rss_mb": peak_rss_mb(),
        "results": results,
    }
    if tracer_obj is not None:
        report["unwrapped_during_run"] = tracer_obj.unwrapped_references()
        report["trace"] = tracer_obj.metrics()
        tracer_obj.uninstall()
        report["left_after_uninstall"] = tracer_obj.leftover_wrappers()
    json.dump(report, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
