"""Tests of the benchmark itself (not of qcluster).

    python3 -m unittest bench/selftest.py

They run small CLI calls in fresh processes, about half a minute in all.
The file is not named test_*.py, so the repository's pytest run does not
collect it.
"""
from __future__ import annotations

import json
import re
import sys
import time
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import probe  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SMALL = [entry for entry in run.LECLERC_CALLS["ladder-small"] if entry[1] != "a3p"]


def leclerc_argv(runner, label, seed_file, options):
    return ["leclerc", run.SEEDS / f"{seed_file}.json", *options,
            "--json", runner.tmp / f"{label}.json"]


class BenchSelfTest(unittest.TestCase):
    def runner(self, seed):
        runner = run.Runner(seed, run.expected_outputs(), time.monotonic() + 600)
        self.addCleanup(runner.close)
        return runner

    def traced_layers(self, runner, entries):
        for label, seed_file, options in entries:
            call, _ = runner.timed_call(label, leclerc_argv(runner, label, seed_file, options),
                                        "trace", runner.tmp)
            self.assertEqual(call.rc, 0, label)
        return run.per_layer(sorted(runner.tmp.glob("*.trace")), 1.0)

    def test_metric_names_and_benchmark_json(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        declared_e2e = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
        self.assertEqual(declared_e2e, list(run.END_TO_END))
        declared_layers = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
        self.assertEqual(declared_layers, run.layer_metric_specs())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        for name, _, _ in declared_e2e + declared_layers:
            self.assertRegex(name, NAME)
        names = [n for n, _, _ in declared_e2e + declared_layers]
        self.assertEqual(len(names), len(set(names)))

    def test_counts_repeat_across_processes_and_hash_seeds(self):
        first = self.traced_layers(self.runner(0), SMALL)
        second = self.traced_layers(self.runner(1), SMALL)
        for name, unit, _ in run.layer_metric_specs():
            self.assertRegex(name, NAME)
            if unit in ("count", "ratio") and name != "trace_overhead":
                self.assertEqual(first[name], second[name], name)
        self.assertGreater(first["qtorus.lam_pair.calls"], 0)

    def test_wrappers_see_every_call_cprofile_sees(self):
        runner = self.runner(0)
        label, seed_file, options = run.LECLERC_CALLS["ladder-small"][0]
        self.assertEqual(label, "a2-cap3")
        traced = self.traced_layers(runner, [(label, seed_file, options)])
        call, res = runner.timed_call(label, leclerc_argv(runner, label, seed_file, options),
                                      "profile")
        self.assertEqual(call.rc, 0)
        profiled = {}
        for filename, func, ncalls in res["profile_calls"]:
            path = Path(filename)
            if path.parent.name == "qcluster":
                profiled.setdefault((path.stem, func), []).append(ncalls)
        for span in tracer.LAYERS:
            module, _, qual = span.partition(".")
            func = qual.rpartition(".")[2]
            if func == "CandidateBasis":
                func = "__init__"
            counts = profiled.get((module, func), [0])
            self.assertEqual(len(counts), 1, f"{span} is not the only {func} in {module}")
            self.assertEqual(traced[run.metric_prefix(span) + ".calls"], counts[0], span)

    def test_digests_match_under_two_hash_seeds(self):
        for seed in (0, 1):
            calls = self.runner(seed).repetition("ladder-small", "light")
            for call in calls:
                self.assertTrue(call.ok, f"{call.label} under seed {seed}: {call.detail}")
                self.assertEqual(call.failed, 0)

    def test_setup_pass_stops_at_first_pair(self):
        runner = self.runner(0)
        label, seed_file, options = run.LECLERC_CALLS["ladder-small"][0]
        call, res = runner.timed_call(label, leclerc_argv(runner, label, seed_file, options),
                                      "light", setup_only=True)
        self.assertIsNone(call.rc)
        self.assertEqual([s[0] for s in res["spans"]][-1], "leclerc.verify_pair")
        self.assertLess(call.setup_ns, call.wall_ns + 1)

    def test_probe_scaling(self):
        ref = probe.REF_NS
        samples = [(t * 10**8, ref) for t in range(10)] + [(t * 10**8, 2 * ref)
                                                          for t in range(10, 20)]
        self.assertEqual(probe.speed(samples, 0, 9 * 10**8), 1.0)
        self.assertEqual(probe.speed(samples, 10**9, 19 * 10**8), 0.5)
        self.assertEqual(probe.speed(samples, 5 * 10**8, 14 * 10**8), 0.75)
        # an interval with no sample inside takes the nearest one
        self.assertEqual(probe.speed(samples, 25 * 10**8, 26 * 10**8), 0.5)
        # short intervals take the median of the samples within PAD_NS
        self.assertEqual(probe.local_speed(samples, 2 * 10**8, 2 * 10**8 + 1000), 1.0)
        self.assertEqual(probe.local_speed(samples, 17 * 10**8, 17 * 10**8 + 1000), 0.5)
        busy = [(100, 200), (300, 400), (1000, 1100)]
        self.assertEqual(probe.stalled_ns(busy, 150, 350), 100)
        self.assertEqual(probe.stalled_ns(busy, 0, 2000), 300)
        self.assertEqual(probe.stalled_ns(busy, 500, 900), 0)


if __name__ == "__main__":
    unittest.main()
