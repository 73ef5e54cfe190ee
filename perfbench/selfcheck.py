"""Self-check: a deliberately wrong reference must show up in the error rate.

For each workload this copies the recorded references into a temporary
directory, perturbs one reference value, runs one measured pass against the
copy and requires ``failed > 0``.  Run from the root of a checkout::

    python3 perfbench/selfcheck.py
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import worker
from run import child_env

SEED = 0  # bank seed whose reference is perturbed


def perturb(name: str, doc: dict) -> str:
    if name == "sweep":
        ref = doc["reference"]["full"]
        ref["report_sha256"] = ref["report_sha256"][::-1]
        return "sweep report sha256 reversed"
    ref = doc["seeds"][str(SEED)]
    if name == "premium":
        values = worker.unpack(ref["premium"])
        i = next(i for i, v in enumerate(values) if v == v)
        values[i] += 10 * worker.PREMIUM_TOL
        ref["premium"] = worker.pack(values)
        return f"premium row {i} moved by 10 * PREMIUM_TOL"
    values = worker.unpack(ref["integrals"])
    values[0] = math.nextafter(values[0], math.inf)
    ref["integrals"] = worker.pack(values)
    return "first n=20 integral moved by one ulp"


def main() -> int:
    tmp = worker.HERE / "_work" / f"selfcheck-{os.getpid()}"
    ok = True
    try:
        for name in worker.WORKLOADS:
            shutil.rmtree(tmp, ignore_errors=True)
            shutil.copytree(worker.REFERENCE_DIR, tmp)
            path = tmp / f"{name}.json"
            doc = json.loads(path.read_text())
            what = perturb(name, doc)
            path.write_text(json.dumps(doc))
            proc = subprocess.run(
                [sys.executable, str(worker.HERE / "worker.py"), "--workload", name, "--seed", str(SEED),
                 "--seconds", "1", "--reference-dir", str(tmp)],
                cwd=worker.ROOT, env=child_env(), capture_output=True, text=True, timeout=170)
            if proc.returncode != 0:
                print(f"{name}: worker exited {proc.returncode}\n{proc.stderr}")
                ok = False
                continue
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            caught = res["failed"] > 0
            ok = ok and caught
            print(f"{name}: {what}: error_rate {res['failed']}/{res['attempted']} "
                  f"-> {'caught' if caught else 'MISSED'}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
