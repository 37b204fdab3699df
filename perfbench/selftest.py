"""Self-test of the benchmark at a tiny size (L = 3, one op per phase).

    python3 perfbench/selftest.py

Checks that
* every end-to-end metric of BENCHMARK.json is emitted with its unit, and
  the report names failed_frac and total_s;
* one seed gives identical inputs and identical accuracy metrics in two
  invocations;
* the traced run emits every per-layer metric with its unit, and its module
  self times add up to the op wall time within the tracing overhead;
* in a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits non-zero without printing a result.
At L = 3 some correctness gates fail by design (the discretization is too
coarse), so ``correct`` is not checked here.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7


def _run(cwd, *args):
    cmd = [sys.executable, "perfbench/run.py", "--seed", str(SEED), "--seconds", "0", "--tiny", *args]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=170)


def _result(proc):
    if proc.returncode != 0:
        raise SystemExit(f"run failed with exit code {proc.returncode}")
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


def _record(workload, trace):
    return json.loads((HERE / "out" / f"run-{workload}-s{SEED}-t{trace}-tiny.json").read_text())


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []

    def expect(cond, what):
        print(("ok   " if cond else "FAIL ") + what)
        if not cond:
            problems.append(what)

    workload = spec["workloads"][0]["name"]
    out1, res1 = _result(_run(ROOT, "--workload", workload, "--trace", "0"))
    rec1 = _record(workload, 0)
    out2, res2 = _result(_run(ROOT, "--workload", workload, "--trace", "0"))
    rec2 = _record(workload, 0)
    expect(set(res1) == {"correct", "attempted", "failed", "metrics"}, "result keys")
    for m in spec["end_to_end"]:
        got = res1["metrics"].get(m["name"], {})
        expect(got.get("unit") == m["unit"] and isinstance(got.get("value"), float),
               f"end-to-end {m['name']} [{m['unit']}]")
    expect(set(res1["metrics"]) == {m["name"] for m in spec["end_to_end"]}, "no extra end-to-end metrics")
    for name in ("total_s", "failed_frac"):
        expect(f"metric {name} = " in out1, f"report names {name}")
    expect(rec1["inputs_sha256"] == rec2["inputs_sha256"], "same seed, same inputs")
    for name in ("energy_defect", "mie_rel_l2", "gap_AB", "gap_AC"):
        expect(res1["metrics"][name] == res2["metrics"][name], f"same seed, same {name}")
    expect(rec1["seeded_accuracy"] == rec2["seeded_accuracy"], "same seed, same seeded accuracy")

    out3, res3 = _result(_run(ROOT, "--workload", workload, "--trace", "1"))
    for m in spec["per_layer"]:
        got = res3["metrics"].get(m["name"], {})
        expect(got.get("unit") == m["unit"] and isinstance(got.get("value"), (int, float)),
               f"per-layer {m['name']} [{m['unit']}]")
    lay = res3["metrics"]
    self_sum = sum(v["value"] for k, v in lay.items() if k.endswith(".self_s"))
    rec3 = _record(workload, 1)
    op_wall = sum(rec3["round_s"]) / rec3["rounds"]
    slack = lay["trace_overhead"]["value"] * op_wall + 1e-3
    expect(abs(self_sum - op_wall) <= slack,
           f"self times {self_sum:.4f} s sum to op wall {op_wall:.4f} s")

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = _run(bare, "--workload", workload, "--trace", "0")
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout, "bare directory fails without a result")
    shutil.rmtree(bare)

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
