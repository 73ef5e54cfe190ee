"""The package surface: lazy re-exports, the layers each entry point loads, and the test settings.

Each check runs in a fresh interpreter, because the modules a process has loaded are what it
asserts on.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

ALL_NAMES = [
    "Capacity", "CapacityEnumerator", "DominanceCheck", "Exponential", "GoldsteinEinhorn", "GroundSet",
    "Identity", "IntervalI", "KahnemanTversky", "Linear", "Logarithmic", "MassFunction", "NegSqrtKink",
    "PiecewiseLinearKink", "Power", "PowerExpo", "Prelec", "RandomVariable", "Scenario", "TabulatedUtility",
    "TabulatedWeighting", "UtilityFunction", "Verdict", "WeightingFunction", "approx_premium", "arrow_pratt",
    "ax_bx", "belief", "capacity", "choquet", "compare_agents", "compose_via_inverse", "credibility", "distort",
    "dominance_check", "dominates_dual", "enumerate_capacities", "errors", "figure_data", "from_probability",
    "gen_choquet", "gen_choquet_batch", "hurwicz", "in_l_class", "integral", "integral_property_checks",
    "is_concave_on", "is_risk_averse", "is_superadditive", "is_uncertainty_measure",
    "is_weakly_superadditive_on", "jensen_counterexample", "jensen_holds", "lower_tail", "necessity",
    "new_capacity", "nonneg_loss_check", "nonnegative_axis_check", "parse_utility", "parse_weighting",
    "plausibility", "possibility", "premium", "riemann_oracle", "risk_neutral_premium", "run_full_report",
    "scaled_integral", "sipos", "step_integral", "survival", "theorems", "translation_gap",
    "two_valued_concavity_probe", "unanimity", "utility", "weighting", "zero_one_collapse_check",
]

#: what ``import choqrisk`` loads: premium() is bound eagerly, with the layers it imports
PACKAGE_LAYERS = ["choqrisk", "choqrisk.capacity", "choqrisk.errors", "choqrisk.integral", "choqrisk.premium",
                  "choqrisk.utility"]


def run_python(code):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env, capture_output=True, text=True,
                          timeout=120)


def loaded_after(code):
    """The choqrisk modules in sys.modules after code runs, read from the last line of its stdout."""
    listing = "print(json.dumps(sorted(m for m in sys.modules if m.startswith('choqrisk'))))"
    run = run_python(f"{textwrap.dedent(code)}\n{listing}")
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.splitlines()[-1])


def test_all_is_the_pinned_name_list():
    import choqrisk

    assert len(ALL_NAMES) == 77
    assert choqrisk.__all__ == ALL_NAMES
    assert set(ALL_NAMES) <= set(dir(choqrisk))


def test_import_loads_only_the_premium_layers():
    assert loaded_after("import json, sys\nimport choqrisk") == PACKAGE_LAYERS


def test_every_name_resolves_to_its_layer_object():
    code = """
        import json
        from importlib import import_module
        import choqrisk
        bad = [name for name in choqrisk.__all__ if name not in choqrisk._SUBMODULES
               and getattr(choqrisk, name) is not getattr(import_module(f"choqrisk.{choqrisk._SOURCE[name]}"), name)]
        bad += [name for name in choqrisk._SUBMODULES
                if getattr(choqrisk, name) is not import_module(f"choqrisk.{name}")]
        namespace = {}
        exec("from choqrisk import *", namespace)
        bad += [name for name in choqrisk.__all__ if namespace[name] is not getattr(choqrisk, name)]
        print(json.dumps(bad))
    """
    run = run_python(code)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == []


@pytest.mark.parametrize("first", ["import choqrisk", "import choqrisk.premium", "from choqrisk import premium",
                                   "from choqrisk import Scenario"])
def test_premium_stays_the_function_in_every_import_order(first):
    code = f"""
        {first}
        import choqrisk
        before = choqrisk.premium
        import choqrisk.premium
        from choqrisk import premium
        print(callable(before), before is choqrisk.premium is premium, type(premium).__name__)
    """
    run = run_python(code)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["True", "True", "function"]


def test_unknown_names_raise_attribute_error():
    run = run_python("import choqrisk\ntry:\n    choqrisk.no_such_name\nexcept AttributeError as e:\n    print(e)")
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "module 'choqrisk' has no attribute 'no_such_name'"


@pytest.mark.parametrize("argv,layers", [
    (["verify", "--n", "2", "--levels", "0,1", "--theorem", "lemma"], ["theorems"]),
    (["integrate", "--mu", "{mu}", "--x", "[1, 2]", "--mode", "choquet"], ["io"]),
    (["check-capacity", "{mu}"], ["io"]),
    (["premium", "{scenario}"], ["io"]),
    (["compare", "--u", "exp:2", "--v", "exp:1", "--mu", "{mu}", "--nu", "{mu}", "--samples", "5"],
     ["io", "sampling"]),
    (["figures", "--family", "kt", "--grid-size", "11", "--out", "{out}"], ["io", "weighting"]),
])
def test_each_command_loads_only_its_layers(tmp_path, argv, layers):
    mu = tmp_path / "mu.json"
    mu.write_text(json.dumps({"n": 2, "table": {"0": 0.0, "1": 0.3, "2": 0.5, "3": 1.0}}))
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"w": 1.0, "X": [0.5, -0.5], "mu_file": "mu.json", "nu_file": "mu.json",
                                    "utility": "exp:2"}))
    argv = [a.format(mu=mu, scenario=scenario, out=tmp_path / "out") for a in argv]
    code = f"""
        import contextlib, io, json, sys
        from choqrisk.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            assert main({argv!r}) == 0
    """
    expected = sorted({*PACKAGE_LAYERS, "choqrisk.cli", *(f"choqrisk.{layer}" for layer in layers)})
    assert loaded_after(code) == expected


def test_a_failing_property_test_is_reported_as_one_failure(tmp_path):
    # hypothesis imports libcst to write out a failing example, and libcst raises a
    # DeprecationWarning that the repository's filterwarnings = ["error"] would turn into an
    # INTERNALERROR ending the whole session
    (tmp_path / "test_probe.py").write_text(textwrap.dedent("""
        from hypothesis import given, settings, strategies as st


        @settings(database=None, max_examples=20)
        @given(st.integers())
        def test_fails(x):
            assert x < 0


        def test_passes():
            pass
    """))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "-p", "no:cacheprovider", "-q",
         str(tmp_path / "test_probe.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert len([line for line in run.stdout.splitlines() if line.startswith("FAILED")]) == 1
    assert "1 failed, 1 passed" in run.stdout
