"""twoside benchmark: drive ``twoside.cli.main`` on a seeded workload.

    python3 bench/run.py --workload exact_tests --seed 1 --seconds 35 --trace 0

Runs the workload in fresh worker processes, one at a time, for about
``--seconds`` seconds, checks every response (outside the timed region),
prints a readable summary and, as the last line of standard output, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the same
requests with and without the layer tracer and reports the per-layer
metrics. Failed requests are listed on standard error. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import checks
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKER = BENCH_DIR / "worker.py"

# a stream's p99 needs ten samples beyond it; a paper pass is its own block
P99_BLOCK = {"exact_tests": 1000, "continuous_tests": 1000, "paper_artifacts": 1}
MIN_TIMED = {"exact_tests": 1000, "continuous_tests": 1000, "paper_artifacts": 0}
MIN_SESSIONS = {"exact_tests": 1, "continuous_tests": 1, "paper_artifacts": 3}
# extra import-only processes after each session, so set-up has enough samples
# spread over the run
IMPORT_PROBES = 2
WORKER_TIMEOUT_S = 150
# Times are reported as they would read on a machine where one calibration
# unit (see worker.py) takes REFERENCE_UNIT_S: each request's latency is
# scaled by REFERENCE_UNIT_S over the median of the units run around it
# (CALIBRATION_WINDOW on each side of the last one before it, about 60 ms),
# and an import by the units run right after it. The constant is roughly
# the unit's time on the 2-vCPU machine the benchmark was defined on; it only
# sets the scale.
REFERENCE_UNIT_S = 0.0006
CALIBRATION_WINDOW = 3
# workers cache bytecode next to the sources (inside the checkout), so set-up
# is the import an installed package pays, whatever the caller's settings
WORKER_ENV = {k: v for k, v in os.environ.items()
              if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def run_worker(job: dict, cwd: str) -> dict:
    proc = subprocess.run([sys.executable, str(WORKER), str(SRC)], input=json.dumps(job),
                          capture_output=True, text=True, cwd=cwd, env=WORKER_ENV,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout)


def digest(requests: list[list[str]], results: list[dict]) -> str:
    """SHA-256 of every (request, exit status, output), sorted by request so
    that the digest of a pass does not depend on its order."""
    h = hashlib.sha256()
    for line in sorted(f"{' '.join(argv)}\n{res['status']}\n{res['stdout']}"
                       for argv, res in zip(requests, results)):
        h.update(line.encode())
    return h.hexdigest()


def scaled_latencies(rep: dict) -> list[float]:
    """Each request's latency in seconds, scaled to the reference speed by
    the calibration units run around it."""
    units = rep["calibrations_s"]
    out = []
    for res in rep["results"]:
        k = res["calibration"]
        window = units[max(0, k - CALIBRATION_WINDOW): k + CALIBRATION_WINDOW + 1]
        out.append(res["t"] * REFERENCE_UNIT_S / statistics.median(window))
    return out


def scaled_stream_s(rep: dict) -> float:
    """Stream wall time, scaled by the latency-weighted mean of the factors."""
    raw = math.fsum(res["t"] for res in rep["results"])
    return rep["stream_s"] * math.fsum(scaled_latencies(rep)) / raw


def scaled_setup_s(rep: dict) -> float:
    return rep["setup_s"] * REFERENCE_UNIT_S / rep["setup_calibration_s"]


def interquartile_mean(values: list[float]) -> float:
    """Mean of the middle half of the values (all of them when fewer than 4)."""
    values = sorted(values)
    k = len(values) // 4
    return statistics.fmean(values[k:len(values) - k])


def p99_of_blocks(sessions: list[list[float]], min_block: int) -> float:
    """Interquartile mean over blocks of whole consecutive sessions holding at
    least ``min_block`` latencies (the last block takes any remainder) of the
    block's 99th percentile; one noisy session then moves a single block,
    which the mean leaves out."""
    blocks: list[list[float]] = [[]]
    for latencies in sessions:
        if len(blocks[-1]) >= min_block:
            blocks.append([])
        blocks[-1] += latencies
    if len(blocks) > 1 and len(blocks[-1]) < min_block:
        last = blocks.pop()
        blocks[-1] += last
    return interquartile_mean([statistics.quantiles(b, n=100)[98] for b in blocks])


def _keep_going(workload: str, start: float, seconds: float, walls: list[float], timed: int) -> bool:
    """Start another session while half of one still fits in the budget."""
    if len(walls) < MIN_SESSIONS[workload] or timed < MIN_TIMED[workload]:
        return True
    return time.perf_counter() - start + 0.5 * statistics.fmean(walls) <= seconds


# ---------------------------------------------------------------------------
# checking


def check_sessions(workload: str, sessions: list[tuple[list, dict]]) -> tuple[list, dict]:
    """Failures as (kind, argv, detail, session index), and the output digests."""
    check = checks.check_paper_response if workload == "paper_artifacts" else checks.check_response
    failures = []
    checked: dict[tuple[str, str], list[str]] = {}
    for si, (requests, report) in enumerate(sessions):
        for argv, res in zip(requests, report["results"]):
            status = res["status"]
            if status != 0:
                kind = f"exit {status}" if isinstance(status, int) else status
                failures.append((kind, argv, res["stderr"].strip().splitlines()[-1:], si))
                continue
            key = (" ".join(argv), res["stdout"])
            if key not in checked:  # identical outputs of a repeated pass are checked once
                checked[key] = check(argv, res["stdout"])
            if checked[key]:
                failures.append(("wrong output", argv, checked[key][:3], si))
    digests = [digest(requests, report["results"]) for requests, report in sessions]
    return failures, {"first_session_sha256": digests[0], "sessions": len(digests),
                      "distinct_digests": len(set(digests))}


# ---------------------------------------------------------------------------
# runs


def _time_metrics(workload: str, done: list[tuple[list, dict]], failed_in: Counter,
                  scaled: bool) -> dict:
    """Throughput, p50, p99 and regen_s of the sessions, scaled or as measured."""
    if scaled:
        per_session = [[1000.0 * t for t in scaled_latencies(rep)] for _, rep in done]
        stream_s = [scaled_stream_s(rep) for _, rep in done]
    else:
        per_session = [[1000.0 * res["t"] for res in rep["results"]] for _, rep in done]
        stream_s = [rep["stream_s"] for _, rep in done]
    # per session: successful requests over the wall time of its timed stream
    throughputs = [(len(timed) - failed_in[si]) / stream_s[si]
                   for si, (timed, _) in enumerate(done)]
    return {
        "throughput_rps": (statistics.median(throughputs), "req/s"),
        "latency_p50_ms": (statistics.median(t for session in per_session for t in session), "ms"),
        "latency_p99_ms": (p99_of_blocks(per_session, P99_BLOCK[workload]), "ms"),
        "regen_s": (statistics.median(stream_s), "s"),
    }


def untraced_run(workload: str, seed: int, seconds: float, cwd: str) -> tuple[dict, list]:
    sessions = workloads.sessions(workload, seed)
    done: list[tuple[list, dict]] = []
    walls: list[float] = []
    probes: list[dict] = []
    start = time.perf_counter()
    while _keep_going(workload, start, seconds, walls, sum(len(r) for r, _ in done)):
        t0 = time.perf_counter()
        warmup, timed = next(sessions)
        rep = run_worker({"warmup": warmup, "timed": timed}, cwd)
        done.append((timed, rep))
        probes += [rep] + [run_worker({"warmup": [], "timed": []}, cwd)
                           for _ in range(IMPORT_PROBES)]
        walls.append(time.perf_counter() - t0)

    failures, digests = check_sessions(workload, done)
    failed_in = Counter(si for *_, si in failures)
    metrics = _time_metrics(workload, done, failed_in, scaled=True)
    metrics["peak_rss_mb"] = (statistics.median(rep["rss_mb"] for _, rep in done), "MB")
    metrics["setup_s"] = (statistics.median(scaled_setup_s(probe) for probe in probes), "s")
    unscaled = {name: value for name, (value, _) in _time_metrics(workload, done, failed_in, False).items()}
    unscaled["setup_s"] = statistics.median(probe["setup_s"] for probe in probes)
    unscaled["calibration_unit_ms"] = 1000.0 * statistics.median(
        u for _, rep in done for u in rep["calibrations_s"])
    info = {"attempted": sum(len(timed) for timed, _ in done), "digests": digests,
            "consistent": workload != "paper_artifacts" or digests["distinct_digests"] == 1,
            "unscaled": unscaled}
    return {"metrics": metrics, **info}, failures


def traced_run(workload: str, seed: int, seconds: float, cwd: str) -> tuple[dict, list]:
    """The seed's first session, repeated in pairs of untraced and traced
    workers (alternating which goes first) while the budget lasts."""
    warmup, timed = next(workloads.sessions(workload, seed))
    plain: list[dict] = []
    traced: list[dict] = []
    walls: list[float] = []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start + 0.5 * statistics.fmean(walls) <= seconds:
        t0 = time.perf_counter()
        order = (False, True) if len(walls) % 2 == 0 else (True, False)
        for trace in order:
            rep = run_worker({"warmup": warmup, "timed": timed, "trace": trace}, cwd)
            (traced if trace else plain).append(rep)
            if trace and (rep["unwrapped_during_run"] or rep["left_after_uninstall"]):
                raise BenchError(f"tracer incomplete: unwrapped {rep['unwrapped_during_run']}, "
                                 f"left installed {rep['left_after_uninstall']}")
        walls.append(time.perf_counter() - t0)

    sessions = [(timed, rep) for rep in plain + traced]
    failures, digests = check_sessions(workload, sessions)
    first = traced[0]["trace"]
    metrics = {}
    for name, value in first.items():
        if name.endswith("_s"):
            value = statistics.median(rep["trace"][name] for rep in traced)
            metrics[name] = (value, "s")
        elif name.endswith("_ratio"):
            metrics[name] = (value, "ratio")
        else:
            metrics[name] = (value, "count")
    ratios = [scaled_stream_s(t) / scaled_stream_s(p) for t, p in zip(traced, plain)]
    metrics["trace.overhead_ratio"] = (statistics.median(ratios), "ratio")
    # tracing must not change a single output byte, and counts must repeat
    info = {"attempted": len(timed) * len(sessions), "digests": digests,
            "consistent": (digests["distinct_digests"] == 1
                            and all(rep["trace"].keys() == first.keys() for rep in traced)
                            and all(rep["trace"][k] == first[k] for rep in traced for k in first
                                    if not k.endswith("_s")))}
    return {"metrics": metrics, **info}, failures


# ---------------------------------------------------------------------------


def _summary(workload: str, seed: int, trace: bool, result: dict, failures: list) -> None:
    attempted = result["attempted"]
    print(f"twoside benchmark: workload={workload} seed={seed} trace={int(trace)}")
    print(f"  requests attempted={attempted} failed={len(failures)} "
          f"error_rate={len(failures) / attempted:.4f}")
    for kind, count in sorted(Counter(f[0] for f in failures).items()):
        print(f"    {kind}: {count}")
    d = result["digests"]
    print(f"  output sha256 (first session) {d['first_session_sha256']} "
          f"sessions={d['sessions']} distinct={d['distinct_digests']}")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    if "unscaled" in result:
        print("  unscaled: " + " ".join(f"{k}={v:.6g}" for k, v in result["unscaled"].items()))
    for kind, argv, detail, _ in failures:
        print(f"failure [{kind}] {' '.join(argv)} :: {' | '.join(detail)}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that the running worker is killed and reaped and
    # the temporary directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "twoside" / "cli.py").is_file():
        print(f"error: no twoside sources under {SRC}", file=sys.stderr)
        return 2
    try:
        with tempfile.TemporaryDirectory(prefix=".bench_run_", dir=ROOT) as cwd:
            (Path(cwd) / workloads.SAMPLE_FILE).write_text(workloads.SAMPLE_DATA)
            # compile the package's bytecode once, so set-up is the warm import
            run_worker({"warmup": [], "timed": []}, cwd)
            run = traced_run if args.trace else untraced_run
            result, failures = run(args.workload, args.seed, args.seconds, cwd)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _summary(args.workload, args.seed, bool(args.trace), result, failures)
    wrong = any(f[0] == "wrong output" for f in failures)
    print(json.dumps({
        "correct": not wrong and result["consistent"],
        "attempted": result["attempted"],
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
