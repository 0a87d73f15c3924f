"""Benchmark of bandgame: relay maps, utility regions and single-position queries.

    python3 bench/run.py --workload maps-paper --seed 1 --seconds 20 --trace 0

Runs from the root of a source tree, importing the package from ``src``
(no install step). It makes the workload's inputs from the seed, times the
program's set-up in child processes, runs whole rounds of operations until
``--seconds`` of measured time have passed, checks every output against the
independent reference in ``reference.py`` and prints, as its last line, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics from the
traced run with ``--trace 1``. A fuller run report (failures by reason, the
sha256 of every CSV written, work counters) goes to
``.bench_build/bench/reports/``. See ``bench/README.md``.
"""

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_PROBES = 7
MIN_ROUNDS = 2  # every operation is timed at least twice

sys.path.insert(0, str(BENCH_DIR))

from workloads import NAMED_FAULT, REASONS, WORKLOADS  # noqa: E402


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def time_setup(files) -> float:
    """Median seconds of importing bandgame and parsing ``files``, each in a
    fresh interpreter."""
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC), *map(str, files)],
            check=True, capture_output=True, text=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def import_package():
    sys.path.insert(0, str(SRC))
    import bandgame
    import bandgame.cli  # noqa: F401
    if Path(bandgame.__file__).resolve().parent != (SRC / "bandgame").resolve():
        raise SystemExit(f"bench: imported bandgame from {bandgame.__file__}, not {SRC}")
    return bandgame


def check_rounds(workload, outputs_per_round):
    """Reasons per operation of every round; outputs that repeat an earlier
    round's byte for byte reuse its verdicts."""
    verdicts = {}
    hashes = []
    reasons = []
    for outputs in outputs_per_round:
        key, csv = workload.fingerprint(outputs)
        if csv:
            hashes.append(csv)
        if key not in verdicts:
            verdicts[key] = workload.check(outputs)
        reasons.extend(verdicts[key])
    return reasons, hashes, len(verdicts)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bandgame" / "__init__.py").is_file():
        print(f"bench: no bandgame source tree under {SRC}", file=sys.stderr)
        return 2
    base = ROOT / ".bench_build" / "bench"
    work = base / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    reports = base / "reports"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    reports.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, work, reports)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, work, reports) -> int:
    workload = WORKLOADS[args.workload](args.seed, ROOT, work)
    setup_s = time_setup(workload.scenario_files)

    bandgame = import_package()
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
        workload.tracer = tracer
    from setup_probe import load_scenarios
    workload.bind(bandgame, load_scenarios(workload.scenario_files))
    mark = tracer.mark() if tracer else None

    samples_per_round, outputs_per_round = [], []
    measured = 0.0
    while len(outputs_per_round) < MIN_ROUNDS or measured < args.seconds:
        round_samples, outputs = workload.run_round(len(outputs_per_round))
        samples_per_round.append(round_samples)
        outputs_per_round.append(outputs)
        measured += sum(s for s, _ in round_samples)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rounds = len(outputs_per_round)

    reasons, hashes, distinct = check_rounds(workload, outputs_per_round)
    attempted = rounds * workload.ops_per_round
    failed = sum(1 for r in reasons if r)
    by_reason = {name: sum(1 for r in reasons if name in r) for name in REASONS}
    unexpected = [r for r in reasons if r and not set(r) <= set(NAMED_FAULT)]
    correct = len(reasons) == attempted and not unexpected and distinct == 1

    ops_per_s = attempted / measured
    # Latency of one operation: the time of one call, or a command's time
    # shared over the positions it computes (maps-paper). Each operation
    # counts once, at its fastest over the rounds: single calls on a shared
    # machine catch stalls from other tenants that swamp the tail.
    fastest = [min(times) for times in zip(*([s for s, _ in r] for r in samples_per_round))]
    latencies = [1e3 * s / n for s, (_, n) in zip(fastest, samples_per_round[0])
                 for _ in range(n)]
    if tracer:
        metrics = {k: {"value": v, "unit": "s" if k.endswith("_s") else "count"}
                   for k, v in tracer.summary(mark, rounds).items()}
        metrics["trace.ops_per_s"] = {"value": ops_per_s, "unit": "op/s"}
        tracer.write(reports / f"{args.workload}-seed{args.seed}-spans.jsonl")
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": ops_per_s, "unit": "op/s"},
            "op_p50_ms": {"value": statistics.median(latencies), "unit": "ms"},
            "op_p99_ms": {"value": statistics.quantiles(latencies, n=100, method="inclusive")[98],
                          "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": rounds, "ops_per_round": workload.ops_per_round,
        "measured_s": measured, "latency_samples": len(latencies),
        "attempted": attempted, "failed": failed, "failed_by_reason": by_reason,
        "unexpected_failures": len(unexpected), "distinct_round_outputs": distinct,
        "csv_sha256": hashes, "correct": correct, "metrics": metrics,
        "inputs": workload.inputs,
    }
    path = reports / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")

    print(f"{args.workload}: {rounds} round(s), {attempted} operations, {failed} failed "
          f"({', '.join(f'{k} {v}' for k, v in by_reason.items() if v) or 'none'}); "
          f"report {path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
