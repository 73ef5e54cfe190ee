"""Record the reference outputs the benchmark checks every pass against.

Run once, at the commit whose behaviour is the reference::

    python3 perfbench/record.py

It writes ``perfbench/reference/<workload>.json``.  The sweep reference is the
sha256 of the ``verify --json`` report (full run and one per theorem); the
premium and large-n references hold the summarized outputs of one pass for
each of the BANK input seeds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import worker


def commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=worker.ROOT, capture_output=True,
                             text=True, timeout=30)
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def main() -> int:
    cq = worker.import_choqrisk()
    workdir = worker.HERE / "_work" / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    worker.REFERENCE_DIR.mkdir(exist_ok=True)
    meta = {"commit": commit(), "choqrisk_version": cq.__version__}
    try:
        sweep = worker.Sweep(0, workdir)
        doc = dict(meta, reference=sweep.record())
        write("sweep", doc)
        for name in ("premium", "large-n"):
            seeds = {}
            for seed in range(worker.BANK):
                wl = worker.WORKLOADS[name](seed, workdir)
                seeds[str(seed)] = wl.summarize(wl.run_pass(worker.no_span))
                print(f"recorded {name} seed {seed}", file=sys.stderr)
            write(name, dict(meta, bank=worker.BANK, seeds=seeds))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def write(name: str, doc: dict):
    path = worker.REFERENCE_DIR / f"{name}.json"
    path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    print(f"wrote {path}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
