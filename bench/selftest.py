"""Self-tests of the benchmark: `python3 bench/selftest.py` from the root of a checkout.

They check that inputs follow the seed, that emitted names are well formed and
match BENCHMARK.json, and that a wrong reference digest is caught.
"""

import copy
import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def result_of(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


class Inputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for w in workloads.WORKLOADS:
            for p in range(3):
                self.assertEqual(workloads.make_inputs(w, 7, p), workloads.make_inputs(w, 7, p))

    def test_other_seed_other_sweep_windows(self):
        a = workloads.make_inputs("sweep", 1, 1)["windows"]
        b = workloads.make_inputs("sweep", 2, 1)["windows"]
        self.assertNotEqual(a, b)

    def test_drawn_cli_argv_succeed(self):
        run.import_fano3()
        for seed in range(10):
            for argv in workloads.make_inputs("cli", seed, 1)["argv"]:
                self.assertEqual(workloads.run_main(argv)[0], 0, argv)

    def test_windows_stay_inside_the_reference(self):
        ref = json.loads(run.REFERENCE.read_text())
        top = ref["g_min"] + len(ref["links"]["line"])
        for seed in range(50):
            for _, start in workloads.make_inputs("sweep", seed, 1)["windows"]:
                self.assertGreater(start, 40)
                self.assertLessEqual(start + workloads.SWEEP_WIDTH, top)


class Checks(unittest.TestCase):
    def test_wrong_reference_digest_fails(self):
        run.import_fano3()
        ref = json.loads(run.REFERENCE.read_text())
        inputs = workloads.make_inputs("sweep", 5, 1)
        good = run.run_pass(workloads.build_ops("sweep", inputs, workloads.Context(ROOT, ref)))
        self.assertEqual(good.failed, 0)
        bad_ref = copy.deepcopy(ref)
        center, start = inputs["windows"][0]
        bad_ref["links"][center][start - ref["g_min"]] = "0" * 16
        bad = run.run_pass(workloads.build_ops("sweep", inputs, workloads.Context(ROOT, bad_ref)))
        self.assertEqual(bad.failed, 1)


class Names(unittest.TestCase):
    def test_spec_names(self):
        for key in ("workloads", "end_to_end", "per_layer"):
            for item in SPEC[key]:
                self.assertTrue(NAME.fullmatch(item["name"]), item["name"])

    def test_emitted_names_match_the_spec(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            for w in workloads.WORKLOADS:
                result = result_of(w, trace)
                self.assertEqual(result["failed"], 0)
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, want)
                self.assertTrue(all(NAME.fullmatch(k) for k in got))


if __name__ == "__main__":
    unittest.main()
