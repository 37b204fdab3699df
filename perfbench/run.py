"""dielshape benchmark: seeded forward / sweep / jacobian rounds, one command.

    python3 perfbench/run.py --workload threaded --seed 0 --seconds 40 --trace 0

Run from the root of a checkout.  Each run starts ``worker.py`` in a fresh
process (plus ``SETUP_PROBES`` set-up-only processes, for ``setup_s``), with
the BLAS thread count the workload fixes.  The report lines name every
metric with its unit; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` -- the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Full records go to ``perfbench/out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Both workloads run the same rounds; they differ in BLAS threading.  Dense
# products (the N x N transforms, operator-block products, LU) use the BLAS
# threads, while the elementwise kernel evaluation and the Python glue run on
# one core either way, so a change to one kind of layer moves the two
# workloads by different amounts.  The single-threaded run is the baseline.
WORKLOADS = {
    "threaded": lambda: len(os.sched_getaffinity(0)),
    "serial": lambda: 1,
}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 4
BUDGET_S = 170  # the whole run, probes included, ends within this

# end-to-end timing -> worker op kind; each is the median over rounds of the
# round's mean op time, so a round's batch of cheap ops counts as one sample
TIMINGS = {
    "solve_s": "solve",
    "assemble_s": "assemble",
    "incidence_s": "incidence",
    "routeA_s": "routeA",
    "routeB_s": "routeB",
    "routeC_s": "routeC",
}
ACCURACY = ("energy_defect", "mie_rel_l2", "gap_AB", "gap_AC")


def _worker(args, env, deadline, extra=()):
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--spawn-time", repr(time.time()),
        *(["--tiny"] if args.tiny else []),
        *extra,
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def _tail(values):
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    n = len(values)
    for q in (99, 95, 90, 75):
        if n * (100 - q) / 100 >= 10:
            return q, statistics.quantiles(values, n=100, method="inclusive")[q - 1]
    return None


def end_to_end(rec, setup):
    """(name, value, unit, note) of every end-to-end metric, in report order."""
    rows = [("setup_s", statistics.median(setup), "s", f"median of {len(setup)} set-ups")]
    rows.append(("round_s", statistics.median(rec["round_s"]), "s", f"median of {rec['rounds']} rounds"))
    for name, kind in TIMINGS.items():
        means = [sum(r) / len(r) for r in rec["samples"][kind] if r]
        ops = [t for r in rec["samples"][kind] for t in r]
        note = f"median of {len(means)} round means, {len(ops)} ops"
        tail = _tail(ops)
        if tail:
            note += f"; op p{tail[0]} {tail[1]:.6g} s"
        rows.append((name, statistics.median(means) if means else None, "s", note))
    rows.append(("peak_rss_mb", rec["peak_rss_mb"], "MB", "worker ru_maxrss"))
    seeded, ref = rec["seeded_accuracy"], rec["reference_accuracy"]
    for name in ACCURACY:
        s = seeded[name]
        smax = f"{max(s):.3e}" if s else "n/a"
        rows.append((name, ref.get(name), "ratio", f"reference case; seeded max {smax} over {len(s)}"))
    return rows


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true", help="L = 3, one op per phase (self-test)")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "dielshape" / "__init__.py").is_file():
        print(f"perfbench: no dielshape sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = dict(os.environ)
    threads = str(WORKLOADS[args.workload]())
    env.update({k: threads for k in THREAD_VARS})
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}{'-tiny' if args.tiny else ''}"

    deadline = time.monotonic() + BUDGET_S
    try:
        setup = [_worker(args, env, deadline, ["--setup-only"])["setup_s"] for _ in range(SETUP_PROBES)]
        extra = ["--spans-out", str(OUT / f"spans-{tag}.json")] if args.trace else []
        rec = _worker(args, env, deadline, extra)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    setup.append(rec["setup_s"])

    env_rec = rec["env"]
    print(
        f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} rounds={rec['rounds']} client=1 closed-loop"
    )
    print(
        "env python={python} numpy={numpy} scipy={scipy} blas={blas} nproc={nproc} "
        "machine={machine} src_lines={src_lines}".format(**env_rec)
        + " threads="
        + ",".join(f"{k}={v}" for k, v in env_rec["threads"].items())
    )
    print(f"inputs sha256={rec['inputs_sha256']}")
    total = sum(sum(r) for v in rec["samples"].values() for r in v)
    failed_frac = rec["failed"] / rec["attempted"]
    if args.trace == 0:
        e2e = end_to_end(rec, setup)
        for name, value, unit, note in e2e:
            print(f"metric {name} = {value if value is None else format(value, '.6g')} {unit}  ({note})")
        print(f"metric total_s = {total:.6g} s  (wall time of all timed ops)")
        print(f"metric failed_frac = {failed_frac:.6g} ratio  ({rec['failed']} of {rec['attempted']} ops)")
        metrics = {n: {"value": v, "unit": u} for n, v, u, _ in e2e}
    else:
        import spans

        layers = rec["layers"]
        op_wall = layers.pop("_op_wall_per_round")
        metrics = {}
        for name, unit, _ in spans.per_layer_names():
            metrics[name] = {"value": layers[name], "unit": unit}
            print(f"layer {name} = {layers[name]:.6g} {unit}")
        self_sum = sum(v for k, v in layers.items() if k.endswith(".self_s"))
        print(
            f"check sum of self_s {self_sum:.6g} s vs op wall {op_wall:.6g} s per round "
            f"(trace_overhead {layers['trace_overhead']:.3g})"
        )
    for f in rec["failures"]:
        print(f"failure {f}")

    rec.update({"workload": args.workload, "seed": args.seed, "setup_runs": setup,
                "metrics": metrics, "failed_frac": failed_frac, "total_s": total})
    (OUT / f"run-{tag}.json").write_text(json.dumps(rec, indent=1))
    print(
        json.dumps(
            {
                "correct": rec["failed"] == 0,
                "attempted": rec["attempted"],
                "failed": rec["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
