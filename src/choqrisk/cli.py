"""Command-line front end.

Subcommands: check-capacity, integrate, premium, compare, figures, verify.
Exit codes: 0 success, 1 validation error, 2 theorem violation found under
``verify --expect-clean``.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from pathlib import Path

from . import __version__
from .errors import ChoqriskError
from .integral import RandomVariable, gen_choquet, riemann_oracle
from .io import (
    fmt17,
    load_capacity,
    load_scenario_doc,
    load_values_array,
    save_capacity,
    write_csv,
)
from .premium import (
    Scenario,
    approx_premium,
    compare_agents,
    premium,
    risk_neutral_premium,
    sample_outcomes,
)
from .sampling import rng_from_seed
from .theorems import THEOREM_IDS, run_full_report
from .utility import parse_utility
from .weighting import _DominanceTally, _figure_rows, parse_weighting

PUBLISHED_FIGURES = (
    ("figure1.csv", "kt:0.61", "kt:0.69"),
    ("figure2.csv", "ge:0.65,0.60", "ge:0.84,0.65"),
    ("figure3.csv", "prelec:1,0.74", "prelec:1,0.74"),
)
#: each published figure under the kind of its g spec, the ``figures --family`` choices
_FIGURE_OF_FAMILY = {g.partition(":")[0]: (name, g, h) for name, g, h in PUBLISHED_FIGURES}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="choqrisk",
        description="Generalized Choquet integrals, capacity checks and risk premiums on finite ground sets.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-capacity", help="validate a capacity JSON document")
    p.add_argument("file", help="capacity JSON (schema: {n, labels?, table})")
    p.add_argument("--rewrite", metavar="OUT", help="re-emit the validated table to OUT")

    p = sub.add_parser("integrate", help="evaluate the generalized Choquet integral")
    p.add_argument("--mu", required=True, help="gains-side capacity JSON file")
    p.add_argument("--nu", help="losses-side capacity JSON file (defaults per --mode)")
    p.add_argument("--x", required=True, help="outcome values as a JSON array (inline or file)")
    p.add_argument("--mode", choices=("gen", "choquet", "sipos"), default="gen")
    p.add_argument("--oracle-step", type=float, metavar="STEP",
                   help="also run the midpoint-quadrature oracle and print the delta")

    p = sub.add_parser("premium", help="price a scenario JSON document")
    p.add_argument("scenario", help="scenario JSON: {w, X, mu_file, nu_file, utility}")
    p.add_argument("--compare", metavar="UTILITY", help="second utility spec for agent comparison")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--samples", type=int, default=200, help="scenario samples for --compare")

    p = sub.add_parser("compare", help="three-way risk-aversion comparison of two agents")
    p.add_argument("--u", required=True, help="first utility spec, e.g. exp:2")
    p.add_argument("--v", required=True, help="second utility spec, e.g. exp:1")
    p.add_argument("--mu", required=True, help="gains-side capacity JSON file")
    p.add_argument("--nu", required=True, help="losses-side capacity JSON file")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--samples", type=int, default=500)

    p = sub.add_parser("figures", help="emit weighting-function curve data as CSV")
    p.add_argument("--family", choices=tuple(_FIGURE_OF_FAMILY),
                   help="published parameter set to emit (default: all three)")
    p.add_argument("--g", help="gains weighting: bare parameters with --family, else a full spec like kt:0.61")
    p.add_argument("--h", help="losses weighting, same format as --g")
    p.add_argument("--grid-size", type=int, default=1001)
    p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("verify", help="run the exhaustive theorem sweep")
    p.add_argument("--n", type=int, default=2, choices=(2, 3, 4))
    p.add_argument("--levels", default="0,0.25,0.5,0.75,1",
                   help="comma-separated level grid including 0 and 1")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument(
        "--theorem", default="all",
        help="all | lemma | 1 | 2 | 3 | 4 (comma-separated); lemma = integral "
             "properties, 1 = dominance/Jensen characterization, 2 = zero-one "
             "collapse, 3 = two-valued concavity, 4 = nonnegative axis",
    )
    p.add_argument("--json", metavar="OUT", help="write the JSON report to OUT")
    p.add_argument("--expect-clean", action="store_true",
                   help="exit 2 if any unexpected verdict is found")
    return parser


def _cmd_check_capacity(args) -> int:
    cap = load_capacity(args.file)
    print(f"ok: valid capacity on {cap.ground.n} elements ({cap.ground.size} subsets)")
    if args.rewrite:
        save_capacity(cap, args.rewrite)
        print(f"wrote {args.rewrite}")
    return 0


def _cmd_integrate(args) -> int:
    mu = load_capacity(args.mu)
    if args.mode == "gen":
        if not args.nu:
            raise ChoqriskError("--mode gen requires --nu")
        nu = load_capacity(args.nu)
    elif args.mode == "choquet":
        nu = mu.dual()
    else:
        nu = mu
    x = RandomVariable(mu.ground, tuple(load_values_array(args.x)))
    value = gen_choquet(mu, nu, x)
    # the oracle runs before anything is printed, so a refused step prints no result
    approx = None if args.oracle_step is None else riemann_oracle(mu, nu, x, args.oracle_step)
    print(fmt17(value))
    if approx is not None:
        print(f"oracle delta: {fmt17(abs(value - approx))}")
    return 0


def _load_scenario(args) -> Scenario:
    doc = load_scenario_doc(args.scenario)
    base = doc["_dir"]
    mu = load_capacity(base / doc["mu_file"])
    nu = load_capacity(base / doc["nu_file"])
    u = parse_utility(doc["utility"])
    x = RandomVariable(mu.ground, tuple(doc["X"]))
    return Scenario(doc["w"], x, mu, nu, u)


def _cmd_premium(args) -> int:
    s = _load_scenario(args)
    pi = premium(s)
    pi0 = risk_neutral_premium(s)
    print(f"premium:              {fmt17(pi)}")
    print(f"risk_neutral_premium: {fmt17(pi0)}")
    try:
        pih = approx_premium(s)
        print(f"approx_premium:       {fmt17(pih)}")
    except ChoqriskError as exc:
        print(f"approx_premium:       unavailable ({exc})")
    if args.compare:
        _run_comparison(s.u, parse_utility(args.compare), s.mu, s.nu, args)
    return 0


def _run_comparison(u, v, mu, nu, args) -> None:
    """Sample ``args.samples`` outcomes from ``args.seed``, compare u and v, print the verdicts."""
    if args.samples < 1:
        raise ChoqriskError(f"--samples must be at least 1, got {args.samples}")
    outcomes = sample_outcomes(rng_from_seed(args.seed), mu.ground, args.samples)
    comp = compare_agents(u, v, mu, nu, outcomes)
    print(f"hypotheses met (dominance + coexistence set): {comp.hypotheses_met}")
    print(f"premium order holds:   {comp.premium_order_holds} ({comp.checked} scenarios)")
    print(f"arrow-pratt order:     {comp.r_order_holds}")
    print(f"composition concave:   {comp.composition_concave}")
    if comp.witness is not None:
        print(f"premium-order witness: w={comp.witness.w}, X={list(comp.witness.x.values)}")


def _cmd_compare(args) -> int:
    u = parse_utility(args.u)
    v = parse_utility(args.v)
    _run_comparison(u, v, load_capacity(args.mu), load_capacity(args.nu), args)
    return 0


def _cmd_figures(args) -> int:
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    jobs = []
    if args.family is None and not (args.g or args.h):
        jobs = [(name, g, h) for name, g, h in PUBLISHED_FIGURES]
    else:
        if args.family:
            name, g_default, h_default = _FIGURE_OF_FAMILY[args.family]
            g_spec = args.g or g_default
            h_spec = args.h or h_default
            if ":" not in g_spec:
                g_spec = f"{args.family}:{g_spec}"
            if ":" not in h_spec:
                h_spec = f"{args.family}:{h_spec}"
        else:
            if not (args.g and args.h):
                raise ChoqriskError("without --family, both --g and --h specs are required")
            name, g_spec, h_spec = "figure.csv", args.g, args.h
        jobs = [(name, g_spec, h_spec)]
    for name, g_spec, h_spec in jobs:
        g = parse_weighting(g_spec)
        h = parse_weighting(h_spec)
        rows = _figure_rows(g, h, args.grid_size)
        path = outdir / name
        tally = _DominanceTally()
        write_csv(path, "p,g,h_bar", tally.watch(rows))
        scan = tally.scan()
        status = "holds" if scan.holds else "FAILS"
        print(
            f"{path}: {scan.grid_size} rows; dominance g <= h_bar {status} "
            f"(max gap {fmt17(scan.max_gap)} at p={scan.argmax:g})"
        )
    return 0


def _refuse_unwritable(path: str) -> None:
    """Raise the OSError that writing a file at path would, when path is a directory or its
    parent is not one; the file itself is neither opened nor created."""
    target = Path(path)
    if target.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if not target.parent.is_dir():
        code = errno.ENOTDIR if target.parent.exists() else errno.ENOENT
        raise OSError(code, os.strerror(code), path)


def _cmd_verify(args) -> int:
    if args.json:  # before the sweep, which can take minutes
        _refuse_unwritable(args.json)
    levels = tuple(float(t) for t in args.levels.split(","))
    theorems = THEOREM_IDS if args.theorem == "all" else tuple(args.theorem.split(","))
    report = run_full_report(n=args.n, levels=levels, seed=args.seed, theorems=theorems)
    print(report.to_text())
    if args.json:
        Path(args.json).write_text(json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.json}")
    if args.expect_clean and not report.clean:
        return 2
    return 0


_COMMANDS = {
    "check-capacity": _cmd_check_capacity,
    "integrate": _cmd_integrate,
    "premium": _cmd_premium,
    "compare": _cmd_compare,
    "figures": _cmd_figures,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ChoqriskError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
