#!/usr/bin/env python3
"""Unit tests for tools/bench_compare.py: regression detection must fire on
a seeded slowdown and stay quiet within the threshold, and the ingest path
must round-trip raw google-benchmark JSON into the trajectory format.
Stdlib only; wired into CTest as `bench_compare_selftest`."""

import json
import pathlib
import sys
import tempfile
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import bench_compare  # noqa: E402


def raw_doc(times):
    """Raw google-benchmark JSON with the given {name: real_time} map."""
    return {
        "context": {"host_name": "test"},
        "benchmarks": [
            {"name": n, "real_time": t, "cpu_time": t, "time_unit": "ns",
             "items_per_second": 1e9 / t}
            for n, t in times.items()
        ],
    }


def throughput_doc(rates):
    """Raw google-benchmark JSON with the given {name: bytes_per_second} map."""
    return {
        "context": {"host_name": "test"},
        "benchmarks": [
            {"name": n, "real_time": 1000.0, "cpu_time": 1000.0, "time_unit": "ns",
             "bytes_per_second": r}
            for n, r in rates.items()
        ],
    }


class ExtractTest(unittest.TestCase):
    def test_raw_format(self):
        metrics = bench_compare.extract_metrics(raw_doc({"BM_A/8": 100.0}))
        self.assertEqual(metrics["BM_A/8"]["real_time"], 100.0)
        self.assertEqual(metrics["BM_A/8"]["time_unit"], "ns")

    def test_aggregate_rows_skipped(self):
        doc = raw_doc({"BM_A/8": 100.0, "BM_A/8_mean": 101.0, "BM_A/8_stddev": 2.0})
        metrics = bench_compare.extract_metrics(doc)
        self.assertEqual(sorted(metrics), ["BM_A/8"])

    def test_repeated_benchmark_keeps_best_run(self):
        doc = throughput_doc({"BM_S": 5e9})
        doc["benchmarks"] += throughput_doc({"BM_S": 7e9, "BM_S_mean": 6e9})["benchmarks"]
        doc["benchmarks"] += throughput_doc({"BM_S": 6e9})["benchmarks"]
        metrics = bench_compare.extract_metrics(doc)
        self.assertEqual(sorted(metrics), ["BM_S"])
        self.assertEqual(metrics["BM_S"]["bytes_per_second"], 7e9)

    def test_trajectory_uses_last_entry(self):
        doc = {
            "schema": bench_compare.SCHEMA,
            "entries": [
                {"rev": "old", "benchmarks": {"BM_A": {"real_time": 200.0}}},
                {"rev": "new", "benchmarks": {"BM_A": {"real_time": 50.0}}},
            ],
        }
        self.assertEqual(bench_compare.extract_metrics(doc)["BM_A"]["real_time"], 50.0)

    def test_unknown_format_rejected(self):
        with self.assertRaises(ValueError):
            bench_compare.extract_metrics({"something": "else"})


class CompareTest(unittest.TestCase):
    def metrics(self, times):
        return bench_compare.extract_metrics(raw_doc(times))

    def test_within_threshold_passes(self):
        base = self.metrics({"BM_A": 100.0, "BM_B": 50.0})
        cand = self.metrics({"BM_A": 110.0, "BM_B": 45.0})
        _, regressed = bench_compare.compare(base, cand, 0.25)
        self.assertEqual(regressed, [])

    def test_regression_flagged(self):
        base = self.metrics({"BM_A": 100.0, "BM_B": 50.0})
        cand = self.metrics({"BM_A": 140.0, "BM_B": 50.0})
        _, regressed = bench_compare.compare(base, cand, 0.25)
        self.assertEqual(regressed, ["BM_A"])

    def test_only_common_benchmarks_compared(self):
        base = self.metrics({"BM_A": 100.0, "BM_OLD": 10.0})
        cand = self.metrics({"BM_A": 100.0, "BM_NEW": 999.0})
        rows, regressed = bench_compare.compare(base, cand, 0.25)
        self.assertEqual([r[0] for r in rows], ["BM_A"])
        self.assertEqual(regressed, [])


class GateTest(unittest.TestCase):
    def metrics(self, doc):
        return bench_compare.extract_metrics(doc)

    def test_gate_passes_within_threshold(self):
        base = self.metrics(throughput_doc({"BM_Store/1": 10e9, "BM_Other": 1e9}))
        cand = self.metrics(throughput_doc({"BM_Store/1": 9e9, "BM_Other": 0.1e9}))
        rows, failures = bench_compare.gate(base, cand, "BM_Store", 0.25)
        # BM_Other regressed 10x but is outside the gate pattern.
        self.assertEqual([r[0] for r in rows], ["BM_Store/1"])
        self.assertEqual(failures, [])

    def test_gate_fails_on_throughput_drop(self):
        base = self.metrics(throughput_doc({"BM_Store/1": 10e9}))
        cand = self.metrics(throughput_doc({"BM_Store/1": 5e9}))
        _, failures = bench_compare.gate(base, cand, "BM_Store", 0.25)
        self.assertEqual(len(failures), 1)
        self.assertIn("BM_Store/1", failures[0])

    def test_gate_fails_on_missing_benchmark(self):
        # A deleted benchmark must not silently pass the gate.
        base = self.metrics(throughput_doc({"BM_Store/1": 10e9, "BM_Store/2": 10e9}))
        cand = self.metrics(throughput_doc({"BM_Store/1": 10e9}))
        _, failures = bench_compare.gate(base, cand, "BM_Store", 0.25)
        self.assertEqual(len(failures), 1)
        self.assertIn("missing", failures[0])

    def test_gate_falls_back_to_inverted_real_time(self):
        # No throughput counters: slower real_time must still fail the gate.
        base = self.metrics(raw_doc({"BM_StorePutAccess": 100.0}))
        for name in base:
            base[name]["items_per_second"] = None
        cand = self.metrics(raw_doc({"BM_StorePutAccess": 200.0}))
        for name in cand:
            cand[name]["items_per_second"] = None
        _, failures = bench_compare.gate(base, cand, "BM_Store", 0.25)
        self.assertEqual(len(failures), 1)

    def test_gate_cli_exit_codes(self):
        tmp = tempfile.TemporaryDirectory()
        self.addCleanup(tmp.cleanup)
        d = pathlib.Path(tmp.name)
        base = d / "base.json"
        base.write_text(json.dumps(throughput_doc({"BM_Store/1": 10e9})))
        ok = d / "ok.json"
        ok.write_text(json.dumps(throughput_doc({"BM_Store/1": 11e9})))
        bad = d / "bad.json"
        bad.write_text(json.dumps(throughput_doc({"BM_Store/1": 2e9})))
        self.assertEqual(bench_compare.main([str(base), str(ok), "--gate", "BM_Store"]), 0)
        self.assertEqual(bench_compare.main([str(base), str(bad), "--gate", "BM_Store"]), 1)
        # A pattern matching nothing is a usage error, not a pass.
        self.assertEqual(bench_compare.main([str(base), str(ok), "--gate", "BM_Nope"]), 2)


class CliTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.dir = pathlib.Path(self._tmp.name)

    def tearDown(self):
        self._tmp.cleanup()

    def write(self, name, doc):
        path = self.dir / name
        path.write_text(json.dumps(doc))
        return str(path)

    def test_compare_exit_codes(self):
        base = self.write("base.json", raw_doc({"BM_A": 100.0}))
        ok = self.write("ok.json", raw_doc({"BM_A": 105.0}))
        bad = self.write("bad.json", raw_doc({"BM_A": 200.0}))
        self.assertEqual(bench_compare.main([base, ok]), 0)
        self.assertEqual(bench_compare.main([base, bad]), 1)

    def test_ingest_creates_and_appends(self):
        raw = self.write("raw.json", raw_doc({"BM_A": 100.0}))
        out = str(self.dir / "BENCH.json")
        self.assertEqual(bench_compare.main(["--ingest", raw, "--rev", "r1", "--out", out]), 0)
        self.assertEqual(bench_compare.main(["--ingest", raw, "--rev", "r2", "--out", out]), 0)
        doc = json.loads(pathlib.Path(out).read_text())
        self.assertEqual(doc["schema"], bench_compare.SCHEMA)
        self.assertEqual([e["rev"] for e in doc["entries"]], ["r1", "r2"])
        # The trajectory file is itself valid compare input (last entry wins).
        self.assertEqual(bench_compare.main([out, raw]), 0)


if __name__ == "__main__":
    unittest.main()
