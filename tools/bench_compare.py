#!/usr/bin/env python3
"""Compare two kernel-benchmark JSON files and flag regressions.

Dependency-free (stdlib only); wired into CTest as `bench_compare_selftest`.
Two uses:

  compare   bench_compare.py BASELINE CANDIDATE [--threshold 0.25]
            Exits 1 if any benchmark present in both files regressed by
            more than the threshold on real_time (default 25%). Prints a
            per-benchmark table either way. CI runs this against the
            committed BENCH_kernels.json trajectory.

  gate      bench_compare.py BASELINE CANDIDATE --gate 'BM_Store' [--threshold 0.25]
            Hard regression gate over the benchmarks whose names match the
            regex: compares *throughput* (bytes_per_second, else
            items_per_second, else inverted real_time) and exits 1 if any
            matched benchmark dropped by more than the threshold OR is
            missing from the candidate (a silently-deleted benchmark must
            not pass the gate). Unlike compare mode this step is not
            advisory — CI's bench-smoke job fails on it.

  ingest    bench_compare.py --ingest RAW.json --rev LABEL --out BENCH.json
            Appends one entry (rev label + name->metrics map) to the
            trajectory file, creating it if missing. This is how
            BENCH_kernels.json entries are produced; see README "Kernel
            benchmarks".

Both raw google-benchmark JSON ({"benchmarks": [...]}) and the trajectory
format written by --ingest ({"schema": "ca-bench-kernels-v1",
"entries": [...]}) are accepted on the compare path; a trajectory file
contributes its *last* entry. In raw JSON a benchmark that repeats
(--benchmark_repetitions) contributes its best run, as the trajectory's
entries are best-of-3 runs.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import sys
from typing import Dict, Optional, Tuple

SCHEMA = "ca-bench-kernels-v1"

# Aggregate rows (name like "BM_Foo/8_mean") would double-count the base
# benchmark; plain runs don't emit them but --benchmark_repetitions does.
AGGREGATE_SUFFIXES = ("_mean", "_median", "_stddev", "_cv", "_min", "_max")


def extract_metrics(doc: dict) -> Dict[str, dict]:
    """Returns {benchmark name: metrics} from either accepted format."""
    if doc.get("schema") == SCHEMA:
        entries = doc.get("entries", [])
        if not entries:
            raise ValueError("trajectory file has no entries")
        return dict(entries[-1]["benchmarks"])
    if "benchmarks" in doc:
        out = {}
        for bench in doc["benchmarks"]:
            name = bench["name"]
            if name.endswith(AGGREGATE_SUFFIXES):
                continue
            metrics = {
                "real_time": bench["real_time"],
                "cpu_time": bench.get("cpu_time"),
                "time_unit": bench.get("time_unit", "ns"),
                "items_per_second": bench.get("items_per_second"),
                "bytes_per_second": bench.get("bytes_per_second"),
            }
            if name not in out or (throughput_of(metrics)[0] or 0) > (throughput_of(out[name])[0] or 0):
                out[name] = metrics
        return out
    raise ValueError("unrecognised benchmark JSON (no 'benchmarks' or known schema)")


def load_metrics(path: pathlib.Path) -> Dict[str, dict]:
    with path.open() as f:
        return extract_metrics(json.load(f))


def compare(baseline: Dict[str, dict], candidate: Dict[str, dict],
            threshold: float) -> Tuple[list, list]:
    """Returns (report rows, regressed names)."""
    rows = []
    regressed = []
    for name in sorted(set(baseline) & set(candidate)):
        base = baseline[name]["real_time"]
        cand = candidate[name]["real_time"]
        if base <= 0:
            continue
        ratio = cand / base
        flag = ""
        if ratio > 1.0 + threshold:
            flag = "REGRESSION"
            regressed.append(name)
        elif ratio < 1.0 - threshold:
            flag = "improved"
        rows.append((name, base, cand, ratio, flag))
    return rows, regressed


def throughput_of(metrics: dict) -> Tuple[Optional[float], str]:
    """Best available 'bigger is better' figure for one benchmark."""
    for key in ("bytes_per_second", "items_per_second"):
        value = metrics.get(key)
        if value:
            return float(value), key
    real = metrics.get("real_time")
    if real and real > 0:
        # No throughput counter: gate on inverted time so the comparison
        # direction stays uniform.
        return 1.0 / float(real), "1/real_time"
    return None, ""


def gate(baseline: Dict[str, dict], candidate: Dict[str, dict],
         pattern: str, threshold: float) -> Tuple[list, list]:
    """Returns (report rows, failure messages) for the named-benchmark gate."""
    regex = re.compile(pattern)
    names = sorted(n for n in baseline if regex.search(n))
    rows = []
    failures = []
    for name in names:
        base_tp, key = throughput_of(baseline[name])
        if base_tp is None:
            continue
        if name not in candidate:
            failures.append(f"{name}: missing from candidate run")
            rows.append((name, key, base_tp, None, 0.0, "MISSING"))
            continue
        cand_tp = candidate[name].get(key) if key != "1/real_time" else None
        if key == "1/real_time":
            real = candidate[name].get("real_time")
            cand_tp = (1.0 / float(real)) if real and real > 0 else None
        if not cand_tp:
            failures.append(f"{name}: candidate lacks {key}")
            rows.append((name, key, base_tp, None, 0.0, "NO METRIC"))
            continue
        ratio = float(cand_tp) / base_tp
        flag = ""
        if ratio < 1.0 - threshold:
            flag = "REGRESSION"
            failures.append(f"{name}: {key} dropped to {ratio:.2f}x of baseline")
        elif ratio > 1.0 + threshold:
            flag = "improved"
        rows.append((name, key, base_tp, float(cand_tp), ratio, flag))
    return rows, failures


def cmd_gate(args: argparse.Namespace) -> int:
    baseline = load_metrics(pathlib.Path(args.baseline))
    candidate = load_metrics(pathlib.Path(args.candidate))
    rows, failures = gate(baseline, candidate, args.gate, args.threshold)
    if not rows:
        print(f"bench_compare: no baseline benchmark matches gate '{args.gate}'",
              file=sys.stderr)
        return 2
    width = max(len(r[0]) for r in rows)
    print(f"{'benchmark':<{width}}  {'metric':>16}  {'baseline':>12}  {'candidate':>12}  {'ratio':>7}")
    for name, key, base_tp, cand_tp, ratio, flag in rows:
        cand_str = f"{cand_tp:.3g}" if cand_tp is not None else "-"
        print(f"{name:<{width}}  {key:>16}  {base_tp:>12.3g}  {cand_str:>12}  "
              f"{ratio:>6.2f}x  {flag}")
    if failures:
        print(f"bench_compare: gate '{args.gate}' FAILED "
              f"(threshold {args.threshold:.0%}):", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"bench_compare: gate '{args.gate}' OK "
          f"({len(rows)} benchmarks within {args.threshold:.0%})")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    baseline = load_metrics(pathlib.Path(args.baseline))
    candidate = load_metrics(pathlib.Path(args.candidate))
    rows, regressed = compare(baseline, candidate, args.threshold)
    if not rows:
        print("bench_compare: no common benchmarks between the two files", file=sys.stderr)
        return 2
    width = max(len(r[0]) for r in rows)
    print(f"{'benchmark':<{width}}  {'base ns':>14}  {'cand ns':>14}  {'ratio':>7}")
    for name, base, cand, ratio, flag in rows:
        print(f"{name:<{width}}  {base:>14.1f}  {cand:>14.1f}  {ratio:>6.2f}x  {flag}")
    missing = sorted(set(baseline) ^ set(candidate))
    if missing:
        print(f"(not in both files, skipped: {', '.join(missing)})")
    if regressed:
        print(f"bench_compare: {len(regressed)} benchmark(s) regressed by more than "
              f"{args.threshold:.0%}: {', '.join(regressed)}", file=sys.stderr)
        return 1
    print(f"bench_compare: OK ({len(rows)} benchmarks within {args.threshold:.0%})")
    return 0


def cmd_ingest(args: argparse.Namespace) -> int:
    raw = pathlib.Path(args.ingest)
    with raw.open() as f:
        metrics = extract_metrics(json.load(f))
    out_path = pathlib.Path(args.out)
    if out_path.exists():
        with out_path.open() as f:
            doc = json.load(f)
        if doc.get("schema") != SCHEMA:
            print(f"bench_compare: {out_path} is not a {SCHEMA} file", file=sys.stderr)
            return 2
    else:
        doc = {"schema": SCHEMA, "entries": []}
    doc["entries"].append({"rev": args.rev, "benchmarks": metrics})
    with out_path.open("w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    print(f"bench_compare: appended entry '{args.rev}' "
          f"({len(metrics)} benchmarks) to {out_path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("baseline", nargs="?", help="baseline JSON (compare mode)")
    parser.add_argument("candidate", nargs="?", help="candidate JSON (compare mode)")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="relative real_time regression to flag (default 0.25)")
    parser.add_argument("--gate", metavar="REGEX",
                        help="hard throughput gate over matching benchmark names "
                             "(exit 1 on >threshold drop or missing benchmark)")
    parser.add_argument("--ingest", metavar="RAW",
                        help="raw google-benchmark JSON to append to --out")
    parser.add_argument("--rev", default="unlabelled", help="entry label for --ingest")
    parser.add_argument("--out", default="BENCH_kernels.json",
                        help="trajectory file for --ingest")
    args = parser.parse_args(argv)
    if args.ingest:
        return cmd_ingest(args)
    if not args.baseline or not args.candidate:
        parser.error("compare mode needs BASELINE and CANDIDATE (or use --ingest)")
    if args.gate:
        return cmd_gate(args)
    return cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
