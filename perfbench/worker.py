"""One benchmark process: set up one workload, time it, check its outputs.

``run.py`` starts this script once per set-up sample and once for the
measured run, so that import time is paid afresh and ``peak_rss_mb`` belongs
to one workload alone.  The last line of standard output is a JSON object
that ``run.py`` reads; everything the library prints goes to a buffer.

Usage (normally through run.py)::

    python3 perfbench/worker.py --workload premium --seed 3 --seconds 25 --trace 0
"""

from __future__ import annotations

import argparse
import base64
import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import struct
import sys
import time
from pathlib import Path

import calibrate
from tracer import LAYERS, LayerTracer

clock = time.perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_DIR = HERE / "reference"

# Tolerances of the seed commit (choqrisk.capacity.STRUCT_TOL and
# choqrisk.premium.PREMIUM_TOL), frozen here so that a later change to the
# library's constants cannot loosen the benchmark's checks.
STRUCT_TOL = 1e-12
PREMIUM_TOL = 1e-9

# Reference outputs were recorded at the seed commit for these input seeds;
# a run with --seed s uses the inputs of seed s % BANK.
BANK = 4


def import_choqrisk():
    """Import the package from this checkout's ``src`` and nowhere else."""
    if not (SRC / "choqrisk" / "__init__.py").is_file():
        raise SystemExit(f"worker: no choqrisk sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import choqrisk

    if Path(choqrisk.__file__).resolve().parent != (SRC / "choqrisk").resolve():
        raise SystemExit(f"worker: imported choqrisk from {choqrisk.__file__}, not from {SRC}")
    return choqrisk


def pack(values) -> str:
    """float64 column (None as NaN) as base64, so references stay small and exact."""
    floats = [float("nan") if v is None else float(v) for v in values]
    return base64.b64encode(struct.pack(f"<{len(floats)}d", *floats)).decode()


def unpack(text: str) -> list[float]:
    raw = base64.b64decode(text)
    return list(struct.unpack(f"<{len(raw) // 8}d", raw))


def same_float(a: float, b: float, tol: float) -> bool:
    if a != a or b != b:  # NaN marks a missing value; both must be missing
        return a != a and b != b
    return abs(a - b) <= tol


def quietly(fn, *args):
    """Call ``fn`` with the library's printing captured; return (result, text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        result = fn(*args)
    return result, buf.getvalue()


class Checker:
    """Counts operations and reference mismatches; keeps the first mismatch."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first_mismatch = None

    def op(self, name: str, ok: bool, detail=None):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.first_mismatch is None:
                self.first_mismatch = {"op": name, "detail": detail}


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Sweep:
    """``choqrisk verify`` over all 81 pairs of the n=2 three-level grid, in-process."""

    ARGS = ["verify", "--n", "2", "--levels", "0,0.5,1", "--seed", "42"]
    THEOREMS = ("lemma", "1", "2", "3", "4")

    def __init__(self, seed: int, workdir: Path):
        # The sweep's inputs are its command line; the seed does not enter.
        from choqrisk import cli

        self.cli = cli
        self.report = workdir / "report.json"

    def warmup(self):
        quietly(self.cli.main, ["verify", "--n", "2", "--levels", "0,1", "--theorem", "lemma",
                                "--json", str(self.report)])

    def verify(self, extra=()):
        rc, _ = quietly(self.cli.main, [*self.ARGS, *extra, "--json", str(self.report)])
        return rc, self.report.read_bytes()

    def run_pass(self, span):
        with span("verify"):
            return self.verify()

    def summarize(self, out):
        rc, data = out
        return {"rc": rc, "report_sha256": hashlib.sha256(data).hexdigest(),
                "clean": json.loads(data)["clean"] if rc == 0 else None}

    def compare(self, out, ref, check: Checker):
        summary = self.summarize(out)
        check.op("verify report", summary == ref["full"], summary)

    def per_theorem(self, check: Checker, ref, timer):
        """One ``verify --theorem K`` each, outside the tracer; returns seconds per theorem."""
        times = {}
        for k in self.THEOREMS:
            with timer.interval():
                out = self.verify(["--theorem", k])
            times[k] = timer.scaled[-1]
            summary = self.summarize(out)
            check.op(f"verify --theorem {k}", summary == ref["theorem"][k], summary)
        return times

    def record(self):
        full = self.summarize(self.verify())
        theorem = {k: self.summarize(self.verify(["--theorem", k])) for k in self.THEOREMS}
        return {"full": full, "theorem": theorem}


class Premium:
    """Certainty-equivalent pricing of seeded n=8 scenarios under several utilities."""

    N = 8
    OUTCOMES = 250
    # exp is in class everywhere; power and log have domain x > -1, so rows
    # with w - X <= -1 are out of class; utable inverts by bisection.
    FAMILIES = ("exp:1", "power:1,0.5", "log:1", "utable:-3,-6;-1,-1.5;0,0;1,0.8;2,1.4;4,2.2;6,2.8")
    # pairs ordered by risk aversion, so each comparison scans the whole batch
    COMPARISONS = (("exp:1", "exp:0.5"), ("power:1,0.5", "linear"))

    def __init__(self, seed: int, workdir: Path):
        from choqrisk.capacity import GroundSet
        from choqrisk.errors import ChoqriskError, OutOfClass
        from choqrisk.sampling import random_dominant_pair, rng_from_seed
        from choqrisk.utility import parse_utility

        # the package re-exports the function premium(), which hides the module attribute
        pm = importlib.import_module("choqrisk.premium")
        self.pm, self.ChoqriskError, self.OutOfClass = pm, ChoqriskError, OutOfClass
        rng = rng_from_seed(seed)
        ground = GroundSet(self.N)
        self.mu, self.nu = random_dominant_pair(rng, ground)
        self.batch = pm.sample_outcomes(rng, ground, self.OUTCOMES)
        # nonneg_loss_check needs X <= w pointwise: the rows of the batch that satisfy it
        self.capped = [(w, x) for w, x in self.batch if max(x.values) <= w]
        self.utils = {spec: parse_utility(spec) for spec in self.FAMILIES}
        for pair in self.COMPARISONS:
            for spec in pair:
                self.utils.setdefault(spec, parse_utility(spec))
        self.scenarios = [
            pm.Scenario(w, x, self.mu, self.nu, self.utils[spec])
            for spec in self.FAMILIES
            for w, x in self.batch
        ]
        self.latencies: list[float] = []

    def price(self, s):
        pm = self.pm
        try:
            status, pi = "ok", pm.premium(s)
        except self.OutOfClass as exc:
            status, pi = exc.reason, None
        rn = pm.risk_neutral_premium(s)
        try:
            approx, approx_err = pm.approx_premium(s), None
        except self.ChoqriskError as exc:
            approx, approx_err = None, type(exc).__name__
        return status, pi, rn, approx, approx_err

    def warmup(self):
        for s in self.scenarios[:: self.OUTCOMES // 2]:
            self.price(s)

    def run_pass(self, span):
        rows = []
        lat = self.latencies
        for s in self.scenarios:
            with span("scenario"):
                t0 = clock()
                row = self.price(s)
                lat.append(clock() - t0)
            rows.append(row)
        pm = self.pm
        scans = {}
        for spec in self.FAMILIES:
            u = self.utils[spec]
            with span("is_risk_averse"):
                scans[f"risk_averse {spec}"] = pm.is_risk_averse(u, self.mu, self.nu, self.batch)
            with span("nonneg_loss_check"):
                scans[f"nonneg {spec}"] = pm.nonneg_loss_check(u, self.mu, self.nu, self.capped)
        for a, b in self.COMPARISONS:
            with span("compare_agents"):
                scans[f"compare {a} {b}"] = pm.compare_agents(
                    self.utils[a], self.utils[b], self.mu, self.nu, self.batch)
        return rows, scans

    @staticmethod
    def _witness(s):
        return None if s is None else [s.w, list(s.x.values)]

    def summarize(self, out):
        rows, scans = out
        status, pis, rns, approxs, approx_errs = (list(col) for col in zip(*rows))
        scan_out = {}
        for key, r in scans.items():
            if key.startswith("risk_averse"):
                scan_out[key] = {"averse": r.averse, "checked": r.checked, "skipped": r.skipped,
                                 "witness": self._witness(r.witness), "gap": r.gap}
            elif key.startswith("nonneg"):
                scan_out[key] = {"averse": r.averse, "concave": r.concave_on_nonneg, "agree": r.agree,
                                 "checked": r.checked, "witness": self._witness(r.witness)}
            else:
                scan_out[key] = {"hypotheses": r.hypotheses_met, "premium_order": r.premium_order_holds,
                                 "r_order": r.r_order_holds, "composition_concave": r.composition_concave,
                                 "checked": r.checked, "witness": self._witness(r.witness)}
        return {"status": status, "premium": pack(pis), "risk_neutral": pack(rns),
                "approx": pack(approxs), "approx_error": approx_errs, "scans": scan_out}

    def compare(self, out, ref, check: Checker):
        summary = self.summarize(out)
        cols = {k: (unpack(summary[k]), unpack(ref[k])) for k in ("premium", "risk_neutral", "approx")}
        for i, st in enumerate(summary["status"]):
            # an out-of-class row that matches the reference is a correct result
            ok = st == ref["status"][i] and summary["approx_error"][i] == ref["approx_error"][i]
            ok = ok and all(same_float(got[i], want[i], PREMIUM_TOL) for got, want in cols.values())
            check.op(f"scenario {i}", ok, {k: (got[i], want[i]) for k, (got, want) in cols.items()})
        for key, got in summary["scans"].items():
            want = ref["scans"][key]
            ok = got.keys() == want.keys() and all(got[k] == want[k] for k in got if k != "gap")
            ok = ok and same_float(got.get("gap", 0.0), want.get("gap", 0.0), PREMIUM_TOL)
            check.op(key, ok, {"got": got, "want": want})

    def extra_metrics(self):
        lat = sorted(self.latencies)
        if not lat:
            return {}
        q = statistics.quantiles(lat, n=100, method="inclusive")
        return {
            "scenarios_per_s": {"value": len(lat) / sum(lat), "unit": "1/s"},
            "scenario_p50_us": {"value": q[49] * 1e6, "unit": "us", "samples": len(lat)},
            "scenario_p99_us": {"value": q[98] * 1e6, "unit": "us", "samples": len(lat)},
        }


def additive_table(weights):
    """P(A) for every bitmask A, built one element at a time."""
    import numpy as np

    table = np.zeros(1 << len(weights))
    for i, w in enumerate(weights):
        table[1 << i: 2 << i] = table[: 1 << i] + w
    return table


def pinned(table):
    table[0], table[-1] = 0.0, 1.0
    return table


class LargeN:
    """Capacity algebra, transforms and JSON I/O on ground sets of 12 to 20 elements."""

    N_BIG, N_MID, N_SMALL = 20, 16, 12
    INTEGRALS = 2000
    ORACLE_STEP = 1e-4
    KT = "kt:0.61"

    def __init__(self, seed: int, workdir: Path):
        import numpy as np
        from choqrisk import capacity as cap
        from choqrisk import cli, integral
        from choqrisk.sampling import random_mass_function, random_variable, rng_from_seed
        from choqrisk.weighting import parse_weighting

        self.np, self.cap, self.cli, self.integral = np, cap, cli, integral
        rng = rng_from_seed(seed)
        self.g20 = cap.GroundSet(self.N_BIG)
        p20 = additive_table(rng.dirichlet(np.ones(self.N_BIG)))
        self.mu20 = pinned(p20 ** 1.5)
        self.nu20 = pinned(np.sqrt(p20))
        self.mu20_list, self.nu20_list = self.mu20.tolist(), self.nu20.tolist()
        self.xs = [random_variable(rng, self.g20) for _ in range(self.INTEGRALS)]
        self.x_cli = json.dumps(list(self.xs[0].values))
        inputs = cached_inputs_dir(f"large-n-seed{seed}")
        self.mu20_file = write_capacity_doc(inputs / "mu20.json", self.mu20_list)

        self.g16 = cap.GroundSet(self.N_MID)
        self.w16 = rng.dirichlet(np.ones(self.N_MID)).tolist()
        self.kt = parse_weighting(self.KT)
        psi = rng.uniform(0.0, 1.0, self.N_MID)
        psi[int(rng.integers(self.N_MID))] = 1.0
        self.psi16 = psi.tolist()
        self.mass16 = random_mass_function(rng, self.g16, focal=64)
        self.c16 = pinned(additive_table(rng.dirichlet(np.ones(self.N_MID))) ** 0.8).tolist()
        self.c16_file = write_capacity_doc(inputs / "c16.json", self.c16)
        self.c16_out = workdir / "c16.out.json"

        self.g12 = cap.GroundSet(self.N_SMALL)
        self.c12 = pinned(additive_table(rng.dirichlet(np.ones(self.N_SMALL))) ** 2).tolist()

    def warmup(self):
        cap, g = self.cap, self.cap.GroundSet(4)
        p = cap.from_probability(g, [0.25] * 4)
        cap.distort(p, self.kt).dual()
        cap.dominates_dual(p, p)
        cap.is_superadditive(p)
        self.integral.gen_choquet(p, p, self.integral.RandomVariable(g, (1.0, -2.0, 0.5, 3.0)))

    def run_pass(self, span):
        cap, cli = self.cap, self.cli
        out = {}
        with span("n20 build"):
            mu = out["build mu20"] = cap.new_capacity(self.g20, self.mu20_list)
            nu = out["build nu20"] = cap.new_capacity(self.g20, self.nu20_list)
        with span("n20 dual"):
            out["dual nu20"] = nu.dual()
        with span("n20 dominates_dual"):
            out["dominates_dual"] = cap.dominates_dual(mu, nu)
        with span("n20 gen_choquet"):
            gen = self.integral.gen_choquet
            out["integrals"] = [gen(mu, nu, x) for x in self.xs]
        with span("n20 cli integrate"):
            out["cli integrate"] = quietly(cli.main, [
                "integrate", "--mu", str(self.mu20_file), "--mode", "choquet",
                "--x", self.x_cli, "--oracle-step", repr(self.ORACLE_STEP)])
        with span("n16 transforms"):
            p16 = out["from_probability"] = cap.from_probability(self.g16, self.w16)
            out["distort kt"] = cap.distort(p16, self.kt)
            out["possibility"] = cap.possibility(self.g16, self.psi16)
            out["belief"] = cap.belief(self.mass16)
            out["plausibility"] = cap.plausibility(self.mass16)
        with span("n16 cli check-capacity"):
            out["check-capacity"] = quietly(cli.main, [
                "check-capacity", str(self.c16_file), "--rewrite", str(self.c16_out)])
        with span("n12 is_superadditive"):
            out["is_superadditive"] = cap.is_superadditive(cap.new_capacity(self.g12, self.c12))
        return out

    # -- checking ------------------------------------------------------------

    def expected_tables(self):
        """Independent numpy evaluation of each construction from the same inputs.

        Recomputed for every check and dropped after it, so that later passes
        do not run with more memory held than the first.
        """
        np = self.np
        p16 = pinned(additive_table(self.w16))
        g = self.kt.gamma
        inner = p16[1:-1]
        kt = np.concatenate(([0.0], inner**g / (inner**g + (1 - inner) ** g) ** (1 / g), [1.0]))
        masks = np.arange(1 << self.N_MID)
        poss = np.zeros(1 << self.N_MID)
        for i, v in enumerate(self.psi16):
            poss = np.where((masks >> i) & 1, np.maximum(poss, v), poss)
        zeta = np.array(self.mass16.mass)
        for i in range(self.N_MID):
            view = zeta.reshape(-1, 2, 1 << i)
            view[:, 1, :] += view[:, 0, :]
        return {
            "build mu20": self.mu20, "build nu20": self.nu20, "dual nu20": 1.0 - self.nu20[::-1],
            "from_probability": p16, "distort kt": kt, "possibility": poss,
            "belief": pinned(zeta.copy()), "plausibility": pinned(zeta[-1] - zeta[::-1]),
        }

    def summarize(self, out):
        """Reference form: everything except the big tables, which are checked against numpy."""
        dom, sup = out["dominates_dual"], out["is_superadditive"]
        rc, text = out["cli integrate"]
        lines = text.splitlines()
        return {
            "dominates_dual": {"holds": dom.holds, "worst_set": dom.worst_set, "gap": dom.gap},
            "integrals": pack(out["integrals"]),
            "cli integrate": {"rc": rc, "value": lines[0] if lines else None},
            "is_superadditive": {"holds": sup.holds, "witness": list(sup.witness) if sup.witness else None,
                                 "gap": sup.gap},
        }

    def compare(self, out, ref, check: Checker):
        summary = self.summarize(out)
        np = self.np
        for name, want in self.expected_tables().items():
            got = np.asarray(out[name].table, dtype=float)
            err = float(np.max(np.abs(got - want))) if got.shape == want.shape else float("inf")
            check.op(f"table {name}", err <= STRUCT_TOL, {"max_abs_error": err})
        got, want = summary["dominates_dual"], ref["dominates_dual"]
        check.op("dominates_dual", got["holds"] == want["holds"] and got["worst_set"] == want["worst_set"]
                 and same_float(got["gap"], want["gap"], STRUCT_TOL), {"got": got, "want": want})
        got_vals, want_vals = unpack(summary["integrals"]), unpack(ref["integrals"])
        for i, (a, b) in enumerate(zip(got_vals, want_vals)):
            # bit-identical, including the sign of zero
            check.op(f"gen_choquet {i}", struct.pack("<d", a) == struct.pack("<d", b), {"got": a, "want": b})
        _, text = out["cli integrate"]
        delta = None
        for line in text.splitlines():
            if line.startswith("oracle delta:"):
                delta = float(line.split(":", 1)[1])
        ok = summary["cli integrate"] == ref["cli integrate"] and delta is not None
        check.op("cli integrate --oracle-step", ok and delta <= 2 * self.ORACLE_STEP,
                 {"got": summary["cli integrate"], "want": ref["cli integrate"], "oracle_delta": delta})
        rc, _ = out["check-capacity"]
        check.op("check-capacity --rewrite round trip", rc == 0 and read_capacity_doc(self.c16_out) == self.c16)
        got, want = summary["is_superadditive"], ref["is_superadditive"]
        check.op("is_superadditive", got["holds"] == want["holds"] and got["witness"] == want["witness"]
                 and same_float(got["gap"], want["gap"], STRUCT_TOL), {"got": got, "want": want})


def cached_inputs_dir(name: str) -> Path:
    path = HERE / "_work" / "inputs" / name
    path.mkdir(parents=True, exist_ok=True)
    return path


def write_capacity_doc(path: Path, table: list[float]) -> Path:
    """Write a capacity document unless an earlier run of this checkout already did.

    The documents are a deterministic function of the seed; writing them
    (seconds at n=20) is the benchmark's own cost, so set-up pays it once per
    checkout and ``setup_s`` keeps measuring the library.
    """
    if not path.exists():
        n = len(table).bit_length() - 1
        doc = {"n": n, "table": {str(mask): v for mask, v in enumerate(table)}}
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        tmp.write_text(json.dumps(doc))
        tmp.replace(path)
    return path


def read_capacity_doc(path: Path) -> list[float] | None:
    """Reparse a capacity document with the standard library only."""
    try:
        doc = json.loads(path.read_text())
        table = doc["table"]
        return [float(table[str(mask)]) for mask in range(1 << doc["n"])]
    except (OSError, ValueError, KeyError, TypeError):
        return None


WORKLOADS = {"sweep": Sweep, "premium": Premium, "large-n": LargeN}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def no_span(name):
    return contextlib.nullcontext()


def load_reference(ref_dir: Path, name: str, seed: int):
    doc = json.loads((ref_dir / f"{name}.json").read_text())
    return doc["seeds"][str(seed)] if "seeds" in doc else doc["reference"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help="stop after set-up and report its time")
    ap.add_argument("--reference-dir", type=Path, default=REFERENCE_DIR,
                    help="recorded reference outputs (the self-check passes a perturbed copy)")
    args = ap.parse_args(argv)

    workdir = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    try:
        with calibrate.SpeedSampler() as sampler:
            result = run(args, sampler, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


class Timer:
    """Raw seconds of an interval and the same seconds at the machine's reference speed."""

    def __init__(self, sampler: calibrate.SpeedSampler):
        self.sampler = sampler
        self.raw = []
        self.scaled = []

    @contextlib.contextmanager
    def interval(self):
        mark, t0 = self.sampler.mark(), clock()
        yield
        raw = clock() - t0
        self.raw.append(raw)
        self.scaled.append(raw * self.sampler.factor(mark, self.sampler.mark()))


def run(args, sampler: calibrate.SpeedSampler, workdir: Path) -> dict:
    setup, passes = Timer(sampler), Timer(sampler)
    bank_seed = args.seed % BANK
    tracer = LayerTracer() if args.trace else None
    with setup.interval():
        import_choqrisk()
        workdir.mkdir(parents=True, exist_ok=True)
        cls = WORKLOADS[args.workload]
        if tracer is not None:
            with tracer.active(), tracer.span("setup"):
                workload = cls(bank_seed, workdir)
        else:
            workload = cls(bank_seed, workdir)
        workload.warmup()
    result = {"setup_s": setup.scaled[0], "setup_raw_s": setup.raw[0], "bank_seed": bank_seed}
    if args.setup_only:
        return result

    ref = load_reference(args.reference_dir, args.workload, bank_seed)
    check = Checker()
    if tracer is None:
        start = clock()
        while True:
            with passes.interval():
                out = workload.run_pass(no_span)
            workload.compare(out, ref, check)
            del out
            if len(passes.raw) == 1:
                # set-up plus one pass: later passes only add allocator
                # fragmentation, and their number depends on the machine's speed
                result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if clock() - start + statistics.median(passes.raw) > args.seconds:
                break
    else:
        # untraced passes on both sides of the traced one, so that a drift in
        # machine speed does not read as tracing overhead
        traced = Timer(sampler)
        for traced_pass in (False, True, False):
            if traced_pass:
                with tracer.active(), tracer.span("pass"), traced.interval():
                    out = workload.run_pass(tracer.span)
            else:
                with passes.interval():
                    out = workload.run_pass(no_span)
            workload.compare(out, ref, check)
            del out
        untraced = statistics.mean(passes.scaled)
        theorem_s = workload.per_theorem(check, ref, Timer(sampler)) if isinstance(workload, Sweep) else {}
        result["per_layer"] = per_layer_metrics(tracer, untraced, traced.scaled[0], theorem_s)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"trace-{args.workload}-seed{args.seed}.json",
                    {"workload": args.workload, "seed": args.seed, "untraced_pass_s": untraced,
                     "traced_pass_s": traced.scaled[0], "per_layer": result["per_layer"]})
    result.update(raw_passes=passes.raw, passes=passes.scaled, attempted=check.attempted,
                  failed=check.failed, first_mismatch=check.first_mismatch)
    if hasattr(workload, "extra_metrics"):
        result["extra"] = workload.extra_metrics()
    return result


def per_layer_metrics(tracer, untraced: float, traced: float, theorem_s: dict) -> dict:
    totals = tracer.layer_totals()
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = {"value": totals[layer]["calls"], "unit": "count"}
        metrics[f"{layer}.self_s"] = {"value": totals[layer]["self_s"], "unit": "s"}
    # one exact integral evaluation: gen_choquet's own time per call that entered the layer
    entries, _, gen_self = tracer.fn_stats.get(("integral", "gen_choquet"), [0, 0, 0.0])
    metrics["integral.us_per_call"] = {"value": gen_self / entries * 1e6 if entries else 0.0, "unit": "us"}
    metrics["integral.rv_builds"] = {"value": tracer.counters["integral.rv_builds"], "unit": "count"}
    metrics["capacity.builds"] = {"value": tracer.counters["capacity.builds"], "unit": "count"}
    for k in Sweep.THEOREMS:
        metrics[f"theorems.verify_{k}_s"] = {"value": theorem_s.get(k, 0.0), "unit": "s"}
    traced_total = sum(s["end_s"] - s["start_s"] for s in tracer.spans if s["parent"] is None)
    metrics["bench.self_s"] = {
        "value": traced_total - sum(t["self_s"] for t in totals.values()), "unit": "s"}
    metrics["trace.overhead_frac"] = {"value": traced / untraced - 1.0, "unit": "ratio"}
    return metrics


if __name__ == "__main__":
    sys.exit(main())
