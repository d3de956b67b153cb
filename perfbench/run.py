"""Benchmark of the cliffinv package.

Run from the repository root:

    python3 perfbench/run.py --workload witt-q --seed 1 --seconds 20 --trace 0

One client runs whole rounds of seeded cases in a closed loop until
``--seconds`` have passed and the workload's minimum number of rounds is
done.  Every answer is then checked by an independent route.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before
it gives the details: answer digest, errors by type, the percentile and
sample count behind ``case_tail_ms``.

The traced run replays the workload's minimum rounds twice, untraced and
then traced, and reports the difference in wall time as the tracing
overhead.  Workload records live in ``workloads.json`` beside this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "cliffinv"
SETUP_PROBES = 9
END_TO_END_UNITS = {
    "setup_s": "s",
    "verified_per_s": "1/s",
    "case_p50_ms": "ms",
    "case_tail_ms": "ms",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def _import_package():
    """Import cliffinv from this checkout's sources, never from elsewhere."""
    if not (PACKAGE / "__init__.py").is_file():
        sys.exit(f"perfbench: package sources not found at {PACKAGE}")
    sys.path.insert(0, str(PACKAGE.parent))
    import cliffinv

    if Path(cliffinv.__file__).resolve().parent != PACKAGE.resolve():
        sys.exit(f"perfbench: imported cliffinv from {cliffinv.__file__}, not {PACKAGE}")


def _setup(name, seed, smoke):
    """Build the workload, warm every layer it calls, make its first round."""
    import workloads

    cls = workloads.WORKLOADS[name]
    if smoke:
        small = {"witt-q": {"reference_pairs": 8}, "clifford-alg": {"max_rank": 4}}
        wl = cls(seed, **small.get(name, {}))
    else:
        wl = cls(seed)
    wl.warm_up()
    first = wl.round(0)
    return wl, first


def _measure_setup(args):
    """Median seconds from starting a fresh interpreter until it is ready."""
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    for _ in range(1 if args.smoke else SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter() - start
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            sys.exit(f"perfbench: setup probe failed with code {proc.returncode}")
        samples.append(ready)
    return statistics.median(samples)


def _run_cases(cases, results):
    """Run cases in order, appending (kind, payload, answer, error, seconds)."""
    import workloads

    for kind, payload in cases:
        start = time.perf_counter()
        try:
            answer, error = workloads.RUN[kind](payload), None
        except Exception as e:  # the case's outcome, counted by type
            answer, error = None, type(e).__name__
            if error not in workloads.TYPED_ERRORS:
                traceback.print_exc(file=sys.stderr)
        results.append((kind, payload, answer, error, time.perf_counter() - start))


def _digest(results):
    """Hash of every case's canonical answer or error type, in order."""
    import workloads

    h = hashlib.sha256()
    for kind, payload, answer, error, _ in results:
        if error is None:
            answer = workloads.CANONICAL.get(kind, lambda a: a)(answer)
        h.update(repr((kind, payload, error or answer)).encode())
    return h.hexdigest()


def _verify(results):
    """Check every answer; return the failures of the checks."""
    import workloads

    wrong = []
    for kind, payload, answer, error, _ in results:
        if error is None:
            msg = workloads.CHECK[kind](payload, answer)
            if msg:
                wrong.append(f"{kind} {payload!r}: {msg}")
    return wrong


def _percentile(sorted_values, q):
    """Nearest-rank q-th percentile."""
    k = max(1, math.ceil(q / 100 * len(sorted_values)))
    return sorted_values[k - 1]


def _summary(results, wrong):
    import workloads

    errors = Counter(r[3] for r in results if r[3] is not None)
    return {
        "attempted": len(results),
        "errors_by_type": dict(sorted(errors.items())),
        "failed": sum(n for e, n in errors.items() if e not in workloads.TYPED_ERRORS),
        "verified": sum(1 for r in results if r[3] is None) - len(wrong),
        "wall_s": sum(r[4] for r in results),
        "wrong": wrong[:5],
    }


def _timed(args, record, wl, first):
    """Closed loop of whole rounds; returns (end-to-end metrics, details)."""
    min_rounds = 1 if args.smoke else record["min_rounds"]
    results, rounds, cases = [], 0, first
    start = time.perf_counter()
    while rounds < min_rounds or time.perf_counter() - start < args.seconds:
        _run_cases(cases, results)
        rounds += 1
        if rounds == min_rounds:
            digest = _digest(results)
        cases = wl.round(rounds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wrong = _verify(results)
    s = _summary(results, wrong)
    times = sorted(r[4] for r in results)
    q = record["case_tail_percentile"]
    metrics = {
        "verified_per_s": s["verified"] / s["wall_s"],
        "case_p50_ms": statistics.median(times) * 1000,
        "case_tail_ms": _percentile(times, q) * 1000,
        "ok_ratio": s["verified"] / s["attempted"],
        "peak_rss_mb": peak_rss_mb,
    }
    details = dict(s, rounds=rounds, digest=digest, digest_rounds=min_rounds,
                   case_tail={"percentile": q, "samples": len(times)})
    return metrics, details


def _traced(args, record, wl, first):
    """The minimum rounds untraced, then traced; per-layer metrics."""
    import spans

    min_rounds = 1 if args.smoke else record["min_rounds"]
    cases = first + [c for r in range(1, min_rounds) for c in wl.round(r)]
    plain, traced = [], []
    _run_cases(cases, plain)
    tracer = spans.Tracer()
    with tracer.installed():
        _run_cases(cases, traced)
    wrong = _verify(traced)
    s = _summary(traced, wrong)
    if _digest(plain) != _digest(traced):
        s["wrong"].append("answers differ between the untraced and the traced run")
    overhead = s["wall_s"] - sum(r[4] for r in plain)
    details = dict(s, rounds=min_rounds, digest=_digest(traced), digest_rounds=min_rounds,
                   untraced_wall_s=s["wall_s"] - overhead, trace_overhead_s=overhead)
    return tracer.metrics(overhead), details


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny rounds, for the smoke test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    records = json.loads((HERE / "workloads.json").read_text())["workloads"]
    if args.workload not in records:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(records)}")
    record = records[args.workload]
    _import_package()
    if args.setup_probe:
        _setup(args.workload, args.seed, args.smoke)
        print("ready", flush=True)
        return 0

    setup_s = None if args.trace else _measure_setup(args)
    wl, first = _setup(args.workload, args.seed, args.smoke)
    if args.trace:
        metrics, details = _traced(args, record, wl, first)
    else:
        values, details = _timed(args, record, wl, first)
        values["setup_s"] = setup_s
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    print(json.dumps(dict(details, workload=args.workload, seed=args.seed, trace=args.trace)))
    correct = not details["wrong"]
    print(json.dumps({"correct": correct, "attempted": details["attempted"],
                      "failed": details["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
