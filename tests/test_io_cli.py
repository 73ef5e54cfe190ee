"""JSON schemas, CSV emission, and the CLI surface end to end."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from choqrisk import GroundSet, new_capacity
from choqrisk.cli import main
from choqrisk.errors import SchemaError
from choqrisk.utility import parse_utility
from choqrisk.weighting import parse_weighting
from choqrisk.io import (
    capacity_from_dict,
    fmt17,
    load_capacity,
    load_values_array,
    mass_from_dict,
    save_capacity,
)

MU_DOC = {"n": 2, "table": {"0": 0.0, "1": 0.3, "2": 0.5, "3": 1.0}}
NU_DOC = {"n": 2, "table": {"0": 0.0, "1": 0.5, "2": 0.7, "3": 1.0}}


@pytest.fixture
def mu_file(tmp_path):
    path = tmp_path / "mu.json"
    path.write_text(json.dumps(MU_DOC))
    return path


@pytest.fixture
def nu_file(tmp_path):
    path = tmp_path / "nu.json"
    path.write_text(json.dumps(NU_DOC))
    return path


# --- schema -----------------------------------------------------------------

def test_capacity_document_round_trip(tmp_path):
    cap = new_capacity(GroundSet(2, ("a", "b")), [0.0, 0.125, 0.7000000000000001, 1.0])
    path = tmp_path / "cap.json"
    save_capacity(cap, path)
    back = load_capacity(path)
    assert back.table == cap.table  # entrywise identical, not merely close
    assert back.ground.labels == ("a", "b")


def test_label_set_keys():
    doc = {
        "n": 2,
        "labels": ["rain", "sun"],
        "table": {"": 0.0, "rain": 0.3, "sun": 0.5, "rain,sun": 1.0},
    }
    cap = capacity_from_dict(doc)
    assert cap.table == (0.0, 0.3, 0.5, 1.0)


def test_missing_entry_rejected():
    with pytest.raises(SchemaError, match="omitted entries"):
        capacity_from_dict({"n": 2, "table": {"0": 0.0, "3": 1.0}})


def test_duplicate_key_rejected():
    doc = {"n": 1, "labels": ["a"], "table": {"0": 0.0, "": 0.0, "a": 1.0, "1": 1.0}}
    with pytest.raises(SchemaError, match="twice"):
        capacity_from_dict(doc)


def test_unknown_label_rejected():
    with pytest.raises(SchemaError, match="unknown label"):
        capacity_from_dict({"n": 1, "labels": ["a"], "table": {"": 0.0, "b": 1.0}})


def test_invalid_capacity_surfaces_domain_error():
    from choqrisk.errors import NotMonotone

    with pytest.raises(NotMonotone):
        capacity_from_dict({"n": 2, "table": {"0": 0.0, "1": 0.6, "2": 0.1, "3": 0.5}})


def test_mass_document():
    m = mass_from_dict({"n": 2, "mass": [0.0, 0.5, 0.0, 0.5]})
    assert m.mass == (0.0, 0.5, 0.0, 0.5)
    with pytest.raises(SchemaError):
        mass_from_dict({"n": 2, "mass": [0.0, 0.5, 0.5]})
    with pytest.raises(SchemaError, match="numbers"):
        mass_from_dict({"n": 2, "mass": [0.0, 0.5, 0.0, True]})
    # Python's json reads NaN; it must fail the sum check
    with pytest.raises(SchemaError, match="sum"):
        mass_from_dict(json.loads('{"n": 1, "mass": [0, NaN]}'))


def test_values_array_inline_and_file(tmp_path):
    assert load_values_array("[4, -2]") == [4.0, -2.0]
    p = tmp_path / "x.json"
    p.write_text("[1.5, 2.5]")
    assert load_values_array(str(p)) == [1.5, 2.5]
    with pytest.raises(SchemaError):
        load_values_array("not-a-file")
    with pytest.raises(SchemaError):
        load_values_array("[true,false]")


def test_fmt17_round_trips():
    for x in (0.1, 1 / 3, 2.5e-17, -0.7000000000000001, 1e300):
        assert float(fmt17(x)) == x


# --- CLI ---------------------------------------------------------------------

def test_cli_check_capacity_ok(mu_file, capsys):
    assert main(["check-capacity", str(mu_file)]) == 0
    assert "valid capacity" in capsys.readouterr().out


def test_cli_check_capacity_rejects_bad_table(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    for doc, message in [
        ({"n": 2, "table": {"0": 0.0, "1": 0.6, "2": 0.1, "3": 0.5}}, "monotonicity"),
        ({"n": True, "table": {"0": False, "1": True}}, "positive integer"),
        ({"n": 1, "table": {"0": False, "1": True}}, "not a number"),
        ({"n": 2, "table": {"0": 0.0, "1": 0.3, "2": 0.5, "3": 1.0, "4": 1.0}}, "out of range"),
    ]:
        bad.write_text(json.dumps(doc))
        assert main(["check-capacity", str(bad)]) == 1
        err = capsys.readouterr().err
        assert message in err


def test_cli_check_capacity_rewrite_round_trip(mu_file, tmp_path):
    out = tmp_path / "copy.json"
    assert main(["check-capacity", str(mu_file), "--rewrite", str(out)]) == 0
    assert load_capacity(out).table == load_capacity(mu_file).table


def test_cli_integrate_worked_example(mu_file, nu_file, capsys):
    assert main(["integrate", "--mu", str(mu_file), "--nu", str(nu_file), "--x", "[4,-2]"]) == 0
    out = capsys.readouterr().out.strip().splitlines()[0]
    assert float(out) == pytest.approx(-0.2, abs=1e-14)


def test_cli_integrate_oracle_delta(mu_file, nu_file, capsys):
    code = main(
        ["integrate", "--mu", str(mu_file), "--nu", str(nu_file), "--x", "[4,-2]",
         "--oracle-step", "1e-4"]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert float(lines[1].split(":")[1]) < 3e-4


def test_cli_integrate_oracle_cell_cap(mu_file, nu_file, capsys, monkeypatch):
    """A step far too fine for the cell cap fails before any array is built."""
    from choqrisk import integral

    class NoArrays:
        def __getattr__(self, name):
            raise AssertionError(f"oracle reached np.{name} before checking its cell count")

    monkeypatch.setattr(integral, "np", NoArrays())
    code = main(
        ["integrate", "--mu", str(mu_file), "--nu", str(nu_file), "--x", "[10,-10]",
         "--oracle-step", "1e-9"]
    )
    assert code == 1
    assert "cap" in capsys.readouterr().err


@pytest.mark.parametrize("step", ["0", "-1", "nan", "inf"])
def test_cli_integrate_rejects_bad_oracle_step(mu_file, nu_file, capsys, step):
    code = main(
        ["integrate", "--mu", str(mu_file), "--nu", str(nu_file), "--x", "[4,-2]",
         "--oracle-step", step]
    )
    assert code == 1
    assert "step must be positive and finite" in capsys.readouterr().err


def test_cli_integrate_choquet_mode(mu_file, capsys):
    assert main(["integrate", "--mu", str(mu_file), "--x", "[1,3]", "--mode", "choquet"]) == 0
    assert float(capsys.readouterr().out.strip()) == pytest.approx(2.0, abs=1e-14)


def test_cli_integrate_mismatched_x(mu_file, nu_file, capsys):
    assert main(["integrate", "--mu", str(mu_file), "--nu", str(nu_file), "--x", "[1,2,3]"]) == 1


def test_cli_premium(tmp_path, mu_file, nu_file, capsys):
    doc = {
        "w": 0.0,
        "X": [-4.0, 2.0],
        "mu_file": "mu.json",
        "nu_file": "nu.json",
        "utility": "linear",
    }
    sc = tmp_path / "scenario.json"
    sc.write_text(json.dumps(doc))
    assert main(["premium", str(sc)]) == 0
    out = capsys.readouterr().out
    line = [l for l in out.splitlines() if l.startswith("premium:")][0]
    assert float(line.split()[-1]) == pytest.approx(0.2, abs=1e-12)
    assert "risk_neutral_premium" in out


@pytest.mark.parametrize("field,value", [("w", True), ("X", [True, 2.0])])
def test_cli_premium_rejects_booleans(tmp_path, mu_file, nu_file, capsys, field, value):
    doc = {"w": 1.0, "X": [0.5, -0.5], "mu_file": "mu.json", "nu_file": "nu.json",
           "utility": "linear", field: value}
    sc = tmp_path / "scenario.json"
    sc.write_text(json.dumps(doc))
    assert main(["premium", str(sc)]) == 1
    assert f"'{field}' must be" in capsys.readouterr().err


def test_cli_premium_with_comparison(tmp_path, mu_file, nu_file, capsys):
    doc = {"w": 1.0, "X": [0.5, -0.5], "mu_file": "mu.json", "nu_file": "nu.json",
           "utility": "exp:2"}
    sc = tmp_path / "scenario.json"
    sc.write_text(json.dumps(doc))
    assert main(["premium", str(sc), "--compare", "exp:1", "--samples", "60"]) == 0
    out = capsys.readouterr().out
    assert "premium order holds:   True" in out
    assert "arrow-pratt order:     True" in out


def test_cli_compare(mu_file, nu_file, capsys):
    code = main(
        ["compare", "--u", "exp:2", "--v", "exp:1", "--mu", str(mu_file),
         "--nu", str(nu_file), "--samples", "60"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "composition concave:   True" in out


TABLE_SPEC = "utable:-1,-2;0,0;1,0.5"


@pytest.mark.parametrize(
    "u, v, r_order", [(TABLE_SPEC, "exp:1", False), ("exp:1", TABLE_SPEC, True)]
)
def test_cli_compare_tabulated_utility(mu_file, nu_file, capsys, u, v, r_order):
    code = main(
        ["compare", "--u", u, "--v", v, "--mu", str(mu_file), "--nu", str(nu_file), "--samples", "60"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert f"arrow-pratt order:     {r_order}" in out
    assert f"composition concave:   {r_order}" in out


def test_python_dash_m_runs_the_cli(capsys):
    argv = ["verify", "--n", "2", "--levels", "0,1", "--seed", "1"]
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run(
        [sys.executable, "-m", "choqrisk", *argv], env=env, capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr
    assert main(argv) == 0
    assert run.stdout == capsys.readouterr().out


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_cli_comparisons_reject_samples_below_one(tmp_path, mu_file, nu_file, capsys, samples):
    sc = tmp_path / "scenario.json"
    sc.write_text(json.dumps({"w": 1.0, "X": [0.5, -0.5], "mu_file": "mu.json",
                              "nu_file": "nu.json", "utility": "exp:2"}))
    for argv in (
        ["compare", "--u", "exp:2", "--v", "exp:1", "--mu", str(mu_file), "--nu", str(nu_file)],
        ["premium", str(sc), "--compare", "exp:1"],
    ):
        assert main(argv + ["--samples", samples]) == 1
        assert "--samples must be at least 1" in capsys.readouterr().err


def test_cli_comparisons_refuse_samples_above_the_cap(tmp_path, mu_file, nu_file, capsys):
    from choqrisk.premium import _MAX_SAMPLES

    sc = tmp_path / "scenario.json"
    sc.write_text(json.dumps({"w": 1.0, "X": [0.5, -0.5], "mu_file": "mu.json",
                              "nu_file": "nu.json", "utility": "exp:2"}))
    for argv in (
        ["compare", "--u", "exp:2", "--v", "exp:1", "--mu", str(mu_file), "--nu", str(nu_file)],
        ["premium", str(sc), "--compare", "exp:1"],
    ):
        assert main(argv + ["--samples", str(_MAX_SAMPLES + 1)]) == 1
        assert f"above the cap of {_MAX_SAMPLES}" in capsys.readouterr().err


def test_cli_figures_refuse_a_grid_above_the_cap(tmp_path, capsys):
    from choqrisk.weighting import _MAX_GRID_POINTS

    assert main(["figures", "--out", str(tmp_path), "--grid-size", str(_MAX_GRID_POINTS + 1)]) == 1
    assert f"above the cap of {_MAX_GRID_POINTS} rows" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_cli_refuses_nan_utility_parameters(mu_file, nu_file, capsys):
    argv = ["compare", "--u", "exp:nan", "--v", "exp:1", "--mu", str(mu_file), "--nu", str(nu_file)]
    assert main(argv) == 1
    assert "finite" in capsys.readouterr().err


def test_cli_names_a_utility_whose_shape_check_overflows(mu_file, nu_file, capsys):
    argv = ["compare", "--u", "exp:100", "--v", "exp:1", "--mu", str(mu_file), "--nu", str(nu_file)]
    assert main(argv) == 1
    assert "exp:100: u(-10.0) is not a finite float (overflow)" in capsys.readouterr().err


def test_readme_spec_forms_match_the_readers():
    """Every kind README names parses, with the parameter count README shows."""
    from choqrisk.utility import _UTILITY_FAMILIES
    from choqrisk.weighting import _WEIGHTING_FAMILIES

    examples = {
        "linear": "linear", "exp": "exp:1", "power": "power:4,0.5", "log": "log:1",
        "powerexpo": "powerexpo:1,0.5", "negsqrt": "negsqrt", "kink": "kink",
        "utable": "utable:-1,-2;0,0;1,0.5", "identity": "identity", "kt": "kt:0.61",
        "ge": "ge:0.65,0.6", "prelec": "prelec:1,0.74", "table": "table:0,0;0.4,0.5;1,1",
    }
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    utility_text, _, weighting_text = readme.partition("Utility specs:")[2].partition("Weighting specs:")
    weighting_text = weighting_text.partition("\n\n")[0]
    for text, families, parse in (
        (utility_text, _UTILITY_FAMILIES, parse_utility),
        (weighting_text, _WEIGHTING_FAMILIES, parse_weighting),
    ):
        forms = dict(form.partition(":")[::2] for form in re.findall(r"`([^`]+)`", text))
        assert set(forms) == set(families)
        for kind, params in forms.items():
            count = families[kind][1]
            if count is None:
                assert ";" in params
            else:
                assert (len(params.split(",")) if params else 0) == count, kind
            assert parse(examples[kind]).spec().partition(":")[0] == kind


def test_cli_figures_all(tmp_path, capsys):
    assert main(["figures", "--out", str(tmp_path), "--grid-size", "101"]) == 0
    for name in ("figure1.csv", "figure2.csv", "figure3.csv"):
        text = (tmp_path / name).read_text().splitlines()
        assert text[0] == "p,g,h_bar"
        assert len(text) == 102
    out = capsys.readouterr().out
    assert "figure2.csv" in out and "holds" in out


def test_cli_figures_single_family(tmp_path, capsys):
    assert main(
        ["figures", "--family", "kt", "--g", "0.61", "--h", "0.69",
         "--out", str(tmp_path), "--grid-size", "51"]
    ) == 0
    rows = (tmp_path / "figure1.csv").read_text().splitlines()
    assert len(rows) == 52
    first = rows[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 0.0


def test_cli_figures_custom_specs(tmp_path, capsys):
    assert main(
        ["figures", "--g", "prelec:1,0.74", "--h", "prelec:1,0.74", "--out", str(tmp_path),
         "--grid-size", "21"]
    ) == 0
    assert (tmp_path / "figure.csv").exists()


def test_cli_verify_small_sweep(capsys, tmp_path):
    out_json = tmp_path / "report.json"
    code = main(
        ["verify", "--n", "2", "--levels", "0,1", "--seed", "7",
         "--json", str(out_json), "--expect-clean"]
    )
    assert code == 0
    doc = json.loads(out_json.read_text())
    assert doc["clean"] is True and doc["pair_count"] == 16
    assert "unexpected verdicts: none" in capsys.readouterr().out


def test_cli_verify_single_theorem(capsys):
    assert main(["verify", "--n", "2", "--levels", "0,0.5,1", "--theorem", "lemma"]) == 0
    assert "property translation" in capsys.readouterr().out


def test_cli_verify_rejects_unknown_theorem(capsys):
    assert main(["verify", "--n", "2", "--levels", "0,1", "--theorem", "5", "--expect-clean"]) == 1
    captured = capsys.readouterr()
    assert "lemma, 1, 2, 3, 4" in captured.err
    assert "verdicts" not in captured.out


def test_cli_verify_refuses_a_sweep_above_the_pair_cap(capsys):
    # n = 3 at the five default levels is 3,549,456 pairs, about 19 h of checks
    assert main(["verify", "--n", "3"]) == 1
    captured = capsys.readouterr()
    assert "3549456" in captured.err and "100000" in captured.err
    assert "verdicts" not in captured.out


def test_cli_verify_report_digest(tmp_path, capsys):
    """The three-level sweep report, pinned byte for byte (sha256)."""
    out = tmp_path / "report.json"
    main(["verify", "--n", "2", "--levels", "0,0.5,1", "--seed", "42", "--json", str(out)])
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "6d302b13bae46601f86076596b8a8a3d86be6171516e94b3407585c3f270903c"


def test_cli_verify_default_levels_report_digest(tmp_path, capsys):
    """The 625-pair sweep at the default five levels, pinned byte for byte (sha256)."""
    out = tmp_path / "report.json"
    main(["verify", "--n", "2", "--json", str(out)])
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "801816d48a16cf594be74026c32bffd2cce3c57ca4afd6f16c130b9520384158"


def test_cli_figures_byte_reproducible(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["figures", "--family", "ge", "--out", str(a), "--grid-size", "201"])
    main(["figures", "--family", "ge", "--out", str(b), "--grid-size", "201"])
    assert (a / "figure2.csv").read_bytes() == (b / "figure2.csv").read_bytes()


def test_cli_verify_byte_reproducible(tmp_path, capsys):
    outs = []
    for name in ("r1.json", "r2.json"):
        main(["verify", "--n", "2", "--levels", "0,1", "--seed", "5",
              "--theorem", "1", "--json", str(tmp_path / name)])
        outs.append((tmp_path / name).read_bytes())
    assert outs[0] == outs[1]


def test_cli_reports_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["check-capacity", str(bad)]) == 1
    assert "malformed JSON" in capsys.readouterr().err


def test_cli_rejects_unknown_flags(mu_file):
    with pytest.raises(SystemExit):
        main(["check-capacity", str(mu_file), "--bogus"])
