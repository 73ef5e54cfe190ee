"""choqrisk benchmark: one command, three seeded workloads, every metric by name.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep|premium|large-n --seed N --seconds S --trace 0|1

With ``--trace 0`` it prints the end-to-end metrics (set-up time, wall time of
one pass of the workload's fixed work, peak resident memory, error rate and,
on ``premium``, per-scenario throughput and latency).  With ``--trace 1`` it
prints the per-layer metrics of one traced pass instead.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when a result was produced.

Every timed process runs single-threaded (OMP/OpenBLAS/MKL set to 1) and
holds one workload only.  ``setup_s`` is the median over SETUP_SAMPLES fresh
processes, each of which imports the package, generates the inputs and
warms up; ``wall_s`` is the median pass of the measured process.  Both are
scaled to the machine's reference speed by a speed sampler that runs during
every timed interval (calibrate.py), because other tenants of a shared host
change its speed by up to 1.8x for minutes at a time; the raw medians are
printed beside them.
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
WORKER = HERE / "worker.py"
WORKLOADS = ("sweep", "premium", "large-n")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0  # the whole command must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_worker(args: list[str], deadline: float) -> dict:
    """Run one worker process to completion and return its JSON result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT, env=child_env(),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as exc:  # subprocess.run has killed and reaped the child
        raise BenchError(f"worker {' '.join(args)} exceeded the time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"worker {' '.join(args)} printed no result")
    return json.loads(lines[-1])


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    setups = [run_worker([*common, "--trace", "0", "--setup-only"], deadline)
              for _ in range(SETUP_SAMPLES - 1)]
    res = run_worker([*common, "--trace", "0"], deadline)
    setups.append(res)
    metrics = {
        "setup_s": metric(statistics.median(r["setup_s"] for r in setups), "s"),
        "wall_s": metric(statistics.median(res["passes"]), "s"),
        "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
    }
    shown = dict(metrics)
    shown["setup_raw_s"] = metric(statistics.median(r["setup_raw_s"] for r in setups), "s")
    shown["wall_raw_s"] = metric(statistics.median(res["raw_passes"]), "s")
    shown["error_rate"] = metric(res["failed"] / res["attempted"], "ratio")
    notes = {
        "setup_s": f"median of {len(setups)} set-ups, at reference speed",
        "wall_s": f"median of {len(res['passes'])} passes, at reference speed",
        "peak_rss_mb": "measured process, set-up and first pass",
        "setup_raw_s": "as timed",
        "wall_raw_s": "as timed",
        "error_rate": f"{res['failed']} of {res['attempted']} operations",
    }
    for name, m in res.get("extra", {}).items():
        shown[name] = metric(m["value"], m["unit"])
        notes[name] = f"{m['samples']} samples, as timed" if "samples" in m else "as timed"
    return res, {"metrics": metrics, "shown": shown, "notes": notes}


def trace(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    deadline = time.monotonic() + DEADLINE_S
    res = run_worker(["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                      "--trace", "1"], deadline)
    metrics = res["per_layer"]
    return res, {"metrics": metrics, "shown": metrics, "notes": {}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="choqrisk benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        res, table = (trace if args.trace else measure)(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    inputs = "fixed command line" if args.workload == "sweep" else f"inputs of seed {res['bank_seed']}"
    print(f"choqrisk benchmark: workload {args.workload}, seed {args.seed} ({inputs}), trace {args.trace}")
    for name, m in table["shown"].items():
        note = table["notes"].get(name, "")
        print(f"  {name:<28} {m['value']:>14.6g} {m['unit']:<6} {note}")
    if res["first_mismatch"] is not None:
        print(f"  first mismatch: {json.dumps(res['first_mismatch'])[:400]}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": table["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
