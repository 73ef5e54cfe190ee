"""JSON schemas, CSV emission, and the CLI surface end to end."""

import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from choqrisk import GroundSet, new_capacity
from choqrisk import io as choqrisk_io
from choqrisk.capacity import _zeta
from choqrisk.cli import main
from choqrisk.errors import ChoqriskError, SchemaError
from choqrisk.utility import parse_utility
from choqrisk.weighting import parse_weighting
from choqrisk.io import (
    capacity_from_dict,
    fmt17,
    load_capacity,
    load_scenario_doc,
    load_values_array,
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


def test_cli_integrate_sipos_mode(mu_file, capsys):
    assert main(["integrate", "--mu", str(mu_file), "--x", "[1, -2]", "--mode", "sipos"]) == 0
    assert capsys.readouterr().out == "-0.69999999999999996\n"


def test_cli_integrate_gen_mode_requires_nu(mu_file, capsys):
    assert main(["integrate", "--mu", str(mu_file), "--x", "[1, -2]"]) == 1
    assert capsys.readouterr().err == "error: --mode gen requires --nu\n"


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


def test_cli_premium_reports_a_utility_overflow(tmp_path, mu_file, nu_file, capsys):
    # w - X = (-20, -1) and exp:70 overflows a float at u(-20) = 1 - exp(1400)
    doc = {"w": 0.0, "X": [20.0, 1.0], "mu_file": "mu.json", "nu_file": "nu.json", "utility": "exp:70"}
    sc = tmp_path / "scenario.json"
    sc.write_text(json.dumps(doc))
    assert main(["premium", str(sc)]) == 1
    assert capsys.readouterr().err == "error: exp:70: u(-20.0) is not a finite float (overflow)\n"


def test_cli_premium_without_a_derivative_at_the_wealth(tmp_path, mu_file, nu_file, capsys):
    doc = {"w": 0.0, "X": [0.5, -0.5], "mu_file": "mu.json", "nu_file": "nu.json", "utility": "kink"}
    sc = tmp_path / "scenario.json"
    sc.write_text(json.dumps(doc))
    assert main(["premium", str(sc)]) == 0
    assert "approx_premium:       unavailable (kink: kink at 0)\n" in capsys.readouterr().out


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


def test_cli_compare_with_a_steep_second_utility(mu_file, capsys):
    # v'(-10) = 70 exp(700) is a float but its square is not
    code = main(["compare", "--u", "exp:1", "--v", "exp:70", "--mu", str(mu_file), "--nu", str(mu_file)])
    assert code == 0
    out = capsys.readouterr().out
    for verdict in ("premium order holds:   False", "arrow-pratt order:     False", "composition concave:   False"):
        assert verdict in out


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


@pytest.mark.parametrize("flag", ["--g", "--h"])
def test_cli_figures_refuse_one_spec_without_a_family(tmp_path, capsys, flag):
    assert main(["figures", flag, "prelec:1,0.74", "--out", str(tmp_path), "--grid-size", "21"]) == 1
    assert "without --family, both --g and --h specs are required" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


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


def test_cli_verify_refuses_n4_at_the_default_levels_before_any_check(capsys, monkeypatch):
    """Four elements at the five default levels: the sweep builds a bounded number of capacities
    and refuses before any check runs; five elements are refused by the parser."""
    from choqrisk import theorems

    def refuse(*args):
        raise AssertionError("a check ran")

    monkeypatch.setattr(theorems, "_sweep_verdicts", refuse)
    assert main(["verify", "--n", "4"]) == 1
    captured = capsys.readouterr()
    assert f"at least {(theorems._SWEEP_MAX_BUILT + 1) ** 2}" in captured.err and "100000" in captured.err
    assert "verdicts" not in captured.out
    with pytest.raises(SystemExit):
        main(["verify", "--n", "5"])


@pytest.mark.parametrize(
    "argv, sha256",
    [
        # the three-level sweep
        (["--n", "2", "--levels", "0,0.5,1", "--seed", "42"],
         "6d302b13bae46601f86076596b8a8a3d86be6171516e94b3407585c3f270903c"),
        # the 625-pair sweep at the default five levels
        (["--n", "2"], "801816d48a16cf594be74026c32bffd2cce3c57ca4afd6f16c130b9520384158"),
        # theorems 1 and 2 over the 16,641 three-level n = 3 pairs: at n = 3 the four
        # entries a two-point scan reads are not the whole tables, so this pins the
        # keying of those scans, which n = 2 cannot
        (["--n", "3", "--levels", "0,0.5,1", "--theorem", "1,2", "--seed", "42"],
         "e2a79ca706ee77fe63f23f0e631f80368c28b4dcd1be8811fd9b8164ad462fd6"),
        # every check family over the same pairs: the lemma trials of all pairs share
        # one memo of draws and per-capacity halves, pinned here at n = 3 as well
        (["--n", "3", "--levels", "0,0.5,1", "--seed", "42"],
         "102d1cb3757b3497c56efe435dde78dba2846bc905c3b1bdfbc47c42f25b74d5"),
        # the 27,556 pairs of the 166 {0,1}-valued capacities on four elements; recorded with the
        # per-pair sweep driver that preceded the verdict arrays, with only n = 4 admitted
        (["--n", "4", "--levels", "0,1"], "06626be59258dceed93071daf1ef4a5fc31e7a861f871e511ca05e7b3f91b316"),
    ],
    ids=["n2-three-levels", "n2-default-levels", "n3-jensen-theorems", "n3", "n4-zero-one"],
)
def test_cli_verify_report_digest(tmp_path, capsys, argv, sha256):
    """A sweep report, pinned byte for byte."""
    out = tmp_path / "report.json"
    main(["verify", *argv, "--json", str(out)])
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


def test_cli_verify_verifies_converses_whose_gap_lies_between_the_tolerances(tmp_path, capsys):
    """A level 5e-11 above 0.5 gives 57 pairs dominance gaps of about 5e-11 and 1e-10: above
    STRUCT_TOL (1e-12), which classes them non-dominant, and below VIOLATION_TOL (1e-9).  The
    constructed witness realizes each gap exactly, so every converse verifies."""
    out = tmp_path / "report.json"
    argv = ["verify", "--n", "2", "--levels", "0,0.5,0.50000000005,1", "--json", str(out), "--expect-clean"]
    assert main(argv) == 0
    doc = json.loads(out.read_text())
    assert doc["clean"] is True and doc["pair_count"] == 256
    assert doc["verdict_counts"]["jensen converse"] == [192, 192]
    assert "constructed counterexamples verified: 192" in capsys.readouterr().out


@pytest.mark.parametrize("levels", ["0,0.5,1", "-0,0.5,1", "0.5,-0,1", "0,-0,0.5,1", "1,0.5,0,0.5"])
def test_cli_verify_reads_every_spelling_of_the_levels_as_one_grid(tmp_path, capsys, levels):
    """A level grid is a set of floats in [0, 1], with -0.0 read as 0.0: every spelling of the
    three-level grid writes the three-level report, byte for byte."""
    out = tmp_path / "report.json"
    assert main(["verify", "--n", "2", f"--levels={levels}", "--seed", "42", "--json", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "6d302b13bae46601f86076596b8a8a3d86be6171516e94b3407585c3f270903c"
    )


def test_cli_verify_refuses_a_negative_seed_before_building_a_capacity(capsys, monkeypatch):
    from choqrisk import theorems

    def refuse(*args):
        raise AssertionError("a capacity was built")

    monkeypatch.setattr(theorems, "enumerate_capacities", refuse)
    for theorem in ("1", "all"):
        assert main(["verify", "--seed", "-1", "--theorem", theorem]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "seed" in captured.err and "-1" in captured.err
        assert "verdicts" not in captured.out


@pytest.mark.parametrize("argv", [["check-capacity", "{dir}"],
                                  ["verify", "--levels", "0,1", "--theorem", "1", "--json", "{dir}"]],
                         ids=["check-capacity", "verify-json"])
def test_cli_maps_an_os_error_to_exit_1(tmp_path, capsys, argv):
    """A directory where a file is read or written: exit 1 with one error line, no traceback."""
    assert main([arg.format(dir=tmp_path) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("out", ["{dir}", "{dir}/missing/report.json", "{dir}/file.txt/report.json"],
                         ids=["directory", "missing-parent", "file-as-parent"])
def test_cli_verify_refuses_an_unwritable_json_path_before_the_sweep(tmp_path, capsys, monkeypatch, out):
    """``verify --json`` refuses a path it cannot write before any capacity is built, with the
    error that writing there would raise, and creates no file."""
    from choqrisk import theorems

    def refuse(*args):
        raise AssertionError("a capacity was built")

    (tmp_path / "file.txt").write_text("kept")
    before = sorted(tmp_path.rglob("*"))
    monkeypatch.setattr(theorems, "enumerate_capacities", refuse)
    path = out.format(dir=tmp_path)
    assert main(["verify", "--n", "3", "--levels", "0,0.5,1", "--json", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    with pytest.raises(OSError) as raised:
        Path(path).write_text("")
    assert captured.err == f"error: {raised.value}\n"
    assert sorted(tmp_path.rglob("*")) == before and (tmp_path / "file.txt").read_text() == "kept"


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


# --- dense tables, the keyed read and oversized integers -----------------------

HUGE = 10**400  # a JSON integer above the float range


def _tied_table(rng, n):
    """Monotone table on n elements with values on a coarse grid, so many entries tie."""
    masses = rng.random(1 << n)
    masses[0] = 0.0
    table = _zeta(masses)
    levels = int(rng.integers(2, 9))
    table = [round(v / table[-1] * levels) / levels for v in table]
    table[0], table[-1] = 0.0, 1.0
    return table


def test_dense_table_equals_the_keyed_table_bitwise(tmp_path):
    rng = np.random.default_rng(3)
    table = (_zeta(rng.random(32)) / 7.0).tolist()  # sums with rounding error in the last bits
    table = [0.0] + [v / table[-1] for v in table[1:-1]] + [1.0]
    dense = capacity_from_dict({"n": 5, "table": table})
    keyed = capacity_from_dict({"n": 5, "table": {str(m): v for m, v in enumerate(table)}})
    assert [v.hex() for v in dense.table] == [v.hex() for v in keyed.table]
    # the writer stays keyed
    path = tmp_path / "dense.json"
    path.write_text(json.dumps({"n": 5, "table": table}))
    out = tmp_path / "rewritten.json"
    assert main(["check-capacity", str(path), "--rewrite", str(out)]) == 0
    assert json.loads(out.read_text())["table"] == {str(m): v for m, v in enumerate(table)}


@pytest.mark.parametrize(
    "table, message",
    [
        ([0.0, 0.5, 1.0], "'table' must have 2^n = 4 entries"),
        ([0.0, 0.5, True, 1.0], "table entry 2 is not a number"),
        ([0.0, "0.5", 0.5, 1.0], "table entry 1 is not a number"),
        ([0.0, None, 0.5, 1.0], "table entry 1 is not a number"),
        ([0, 0.5, 0.5, HUGE], "table entry 3 is too large for a float"),
    ],
)
def test_dense_table_refusals(table, message):
    with pytest.raises(SchemaError, match=re.escape(message)):
        capacity_from_dict({"n": 2, "table": table})


@pytest.mark.parametrize("n", range(1, 11))
def test_numpy_keyed_read_matches_the_entry_loop(n):
    rng = np.random.default_rng(100 + n)
    table = _tied_table(rng, n)
    # exact integers where a value is integral, on about half of those entries
    values = [int(v) if v in (0.0, 1.0) and rng.random() < 0.5 else v for v in table]
    order = rng.permutation(1 << n)
    entries = {str(int(m)): values[m] for m in order}
    doc = {"n": n, "table": entries}
    loop = choqrisk_io._keyed_loop(entries, GroundSet(n), "capacity")
    fast = capacity_from_dict(doc).table
    assert [v.hex() for v in fast] == [v.hex() for v in loop] == [float(v).hex() for v in table]
    assert all(type(v) is float for v in fast)
    # the same document keyed by label sets
    labels = [f"e{i}" for i in range(n)]
    labelled = {"" if key == "0" else key: v for key, v in entries.items()}
    assert capacity_from_dict({"n": n, "labels": labels, "table": labelled}).table == fast


@pytest.mark.parametrize(
    "entries, message",
    [
        ({"0": 0.0, "1": 0.3, "01": 0.3, "3": 1.0}, "capacity: subset '01' given twice"),
        ({"0": 0.0, "1": 0.3, "2": 0.5, "4": 1.0}, "capacity: subset key '4' out of range"),
        ({"0": 0.0, "1": 0.3, "3": 1.0},
         "capacity: missing entries for subsets [2] (omitted entries are disallowed)"),
        ({"0": 0.0, "1": 0.3, "2": True, "3": 1.0}, "capacity: value for key '2' is not a number"),
        ({"0": 0.0, "1": 0.3, "2": 0.5, "3": HUGE}, "capacity: value for key '3' is too large for a float"),
    ],
    ids=["given-twice", "out-of-range", "missing", "bool", "huge-int"],
)
def test_keyed_read_keeps_the_loop_messages(entries, message):
    with pytest.raises(SchemaError) as info:
        capacity_from_dict({"n": 2, "table": entries})
    assert str(info.value) == message


def test_keyed_read_takes_a_non_ascii_digit_key_as_its_mask():
    cap = capacity_from_dict({"n": 2, "table": {"0": 0.0, "١": 0.3, "2": 0.5, "3": 1.0}})
    assert cap.table == (0.0, 0.3, 0.5, 1.0)


def test_oversized_integers_are_named_schema_errors(tmp_path):
    with pytest.raises(SchemaError, match=re.escape("array entry 1 is too large for a float")):
        load_values_array(json.dumps([1, HUGE]))
    for field, value, message in [("w", HUGE, "'w' is too large"), ("X", [0.5, HUGE], "'X' entry 1 is too large")]:
        doc = {"w": 1.0, "X": [0.5, -0.5], "mu_file": "mu.json", "nu_file": "nu.json",
               "utility": "linear", field: value}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match=re.escape(message)):
            load_scenario_doc(path)


def test_cli_reports_oversized_integers(tmp_path, mu_file, nu_file, capsys):
    bad = tmp_path / "huge.json"
    bad.write_text(json.dumps({"n": 1, "table": {"0": 0, "1": HUGE}}))
    assert main(["check-capacity", str(bad)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {bad}: value for key '1' is too large for a float")
    x = json.dumps([HUGE, 1])
    assert main(["integrate", "--mu", str(mu_file), "--nu", str(nu_file), "--x", x]) == 1
    assert capsys.readouterr().err.startswith("error: array entry 0 is too large for a float")
    sc = tmp_path / "scenario.json"
    sc.write_text(json.dumps({"w": HUGE, "X": [0.5, -0.5], "mu_file": "mu.json",
                              "nu_file": "nu.json", "utility": "linear"}))
    assert main(["premium", str(sc)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {sc}: 'w' is too large for a float")


# --- the flat keyed-text read ---------------------------------------------------

TEXT_TABLE = [0.0, 1e-05, 0.1, 1 / 3, 0.2, 0.30000000000000004, 2 / 3, 1.0]
TEXT_DOC = {"n": 3, "table": {str(m): v for m, v in enumerate(TEXT_TABLE)}}
PLAIN = json.dumps(TEXT_DOC)
SHUFFLED = np.random.default_rng(5).permutation(8)


def _outcome(read, *args):
    """The table ``read`` returns, as hex strings, or the type and text of its error."""
    try:
        table = read(*args).table
    except (ChoqriskError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    assert all(type(v) is float for v in table)
    return [v.hex() for v in table]


def _saved_text(tmp_path):
    path = tmp_path / "saved.json"
    save_capacity(new_capacity(GroundSet(3), TEXT_TABLE), path)
    return path.read_text()


FLAT_READ_CASES = [
    PLAIN,
    json.dumps(TEXT_DOC, separators=(",", ":")),
    _saved_text,
    json.dumps({"n": 3, "table": {str(m): TEXT_TABLE[m] for m in SHUFFLED}}),
    PLAIN.replace('"0": 0.0', '"0": 0').replace('"7": 1.0', '"7": 1'),
    PLAIN.replace('"0": 0.0', '"0": -0.0'),
    PLAIN.replace('"1": 1e-05', '"1": 1E-5'),
    PLAIN.replace('"1": 1e-05', '"1":1e-5').replace("{", "{\r\n\t").replace(", ", " ,\r\n\t "),
    json.dumps({"n": 3, "labels": ["a", "b", "c"], **TEXT_DOC}),
    PLAIN.replace('"7": 1.0', '"7": 1E0'),
    PLAIN.replace('"0": 0.0', '"0": 0E0'),
    PLAIN.replace('"7": 1.0', '"7": 1.0e0'),
    PLAIN.replace('"0": 0.0', '"0": -0'),
    PLAIN.replace('"1": 1e-05', '"1"' + " " * 64 + ":" + "\t" * 64 + "1e-05"),
]
FLAT_READ_IDS = [
    "default", "compact", "save_capacity", "shuffled", "ints", "negative-zero", "1E-5", "crlf-tabs", "labels",
    "1E0", "0E0", "1.0e0", "-0", "long-runs",
]


@pytest.mark.parametrize("text", FLAT_READ_CASES, ids=FLAT_READ_IDS)
def test_flat_keyed_read_matches_the_dict_read(text, tmp_path, monkeypatch):
    if callable(text):
        text = text(tmp_path)
    path = tmp_path / "doc.json"
    path.write_bytes(text.encode())
    want = _outcome(capacity_from_dict, json.loads(text), str(path))
    assert isinstance(want, list)
    monkeypatch.setattr(choqrisk_io, "_read_json", lambda path: pytest.fail("parsed as a dict"))
    assert _outcome(load_capacity, path) == want


TABLE_OBJECT = '{"0": 0.0, "1": 0.3, "2": 0.5, "3": 1.0}'
BASE = '{"n": 2, "table": ' + TABLE_OBJECT + "}"
FLAT = "[0, 0.0, 1, 0.3, 2, 0.5, 3, 1.0]"  # the flat form of TABLE_OBJECT, a dense table of the wrong length


DECLINED_CASES = [
    BASE.replace('"1"', '"01"'),
    BASE.replace('"1"', '" 1"'),
    BASE.replace('"1"', '""'),
    BASE.replace('"2"', '"1"'),
    BASE.replace("0.3", '"0.3"'),
    BASE.replace("0.3", "NaN"),
    BASE.replace("0.3", "Infinity"),
    BASE.replace("0.3", "+0.3"),
    BASE.replace("0.3", ".5"),
    BASE.replace("0.3", "1."),
    BASE.replace('"1":', '"1",'),
    BASE.replace('0.3, "2"', '0.3: "2"'),
    BASE.replace("1.0}", "1.0,}"),
    BASE.replace('"3": 1.0', '"3": {"x": 1.0}'),
    BASE[:-1] + ', "table": {"0": 0.0, "1": 0.5, "2": 0.5, "3": 1.0}}',
    BASE.replace('"n": 2,', '"n": 2, "labels": ["table\\": {", "b"],'),
    BASE.replace('"n": 2,', '"n": 2, "labels": ["é", "b"],'),
    "\ufeff" + BASE,
    BASE.replace("1.0", "1" + "0" * 400),
    BASE.replace('"1"', '"1000000000000000001"'),
    BASE.replace('"1"', '"10000000000000000001"'),
    BASE[:-12],
    # number characters beside a key, which would join it if its quotes were dropped
    BASE.replace('"1"', '"1"2'),
    BASE.replace('"1"', '1""'),
    # a key that is "table" only once unescaped
    '{"n": 2, "\\"table": ' + TABLE_OBJECT + ', "\\u0074able": ' + FLAT + "}",
    # a nested "table" object beside a top-level array
    '{"n": 2, "x": {"table": ' + TABLE_OBJECT + '}, "table": ' + FLAT + "}",
    '{"n": 2, "table": ' + FLAT + ', "x": {"table": ' + TABLE_OBJECT + "}}",
    BASE.replace('"2": 0.5, ', ""),
    BASE.replace('"3": 1.0', '"3": 1.0, "4": 1.0'),
    # keys of number characters that are not digits
    BASE.replace('"1"', '"1e2"'),
    BASE.replace('"1"', '"1E2"'),
    BASE.replace('"1"', '"-1"'),
    BASE.replace('"1"', '"+1"'),
    BASE.replace('"1"', '"1.5"'),
    BASE.replace('"1"', '"1 "'),
    # an entry with no value after its colon, and a number elsewhere in it
    BASE.replace('"1": 0.3', '"1"3:'),
    BASE.replace('"1": 0.3', '3"1":'),
    # whitespace runs longer than io._SPACE_RUN, which the dict read takes
    BASE.replace('"1": 0.3', '"1":' + " " * 65 + "0.3"),
    BASE.replace('"1": 0.3', '"1"' + "\n" * 65 + ": 0.3"),
]
DECLINED_IDS = [
    "key-01", "key-space-1", "key-empty", "duplicate", "string-value", "NaN", "Infinity", "+0.3", ".5",
    "1.", "comma-for-colon", "colon-for-comma", "trailing-comma", "nested-object", "second-table",
    "table-label", "non-ascii-label", "bom", "huge-int", "key-19-digits", "key-20-digits", "truncated",
    "digit-after-key", "digit-before-empty-key", "escaped-table-key", "nested-table-first",
    "nested-table-last", "missing-entry", "extra-entry", "key-1e2", "key-1E2", "key-minus-1", "key-plus-1",
    "key-1.5", "key-1-space", "number-before-colon", "number-before-key", "long-run-after-colon",
    "long-run-before-colon",
]


@pytest.mark.parametrize("text", DECLINED_CASES, ids=DECLINED_IDS)
def test_declined_documents_read_as_the_dict_read(text, tmp_path):
    path = tmp_path / "doc.json"
    path.write_bytes(text.encode())
    assert choqrisk_io._flat_keyed_capacity(path) is None
    dict_read = _outcome(lambda p: capacity_from_dict(choqrisk_io._read_json(p), what=str(p)), path)
    assert _outcome(load_capacity, path) == dict_read


# a 1-byte chunk cuts the body at every comma, a 13-byte one after every entry or two
@pytest.mark.parametrize("chunk", [1, 13])
@pytest.mark.parametrize("text", FLAT_READ_CASES, ids=FLAT_READ_IDS)
def test_flat_keyed_read_in_small_chunks(text, chunk, tmp_path, monkeypatch):
    monkeypatch.setattr(choqrisk_io, "_CHUNK_BYTES", chunk)
    test_flat_keyed_read_matches_the_dict_read(text, tmp_path, monkeypatch)


@pytest.mark.parametrize("chunk", [1, 13])
@pytest.mark.parametrize("text", DECLINED_CASES, ids=DECLINED_IDS)
def test_declined_documents_in_small_chunks(text, chunk, tmp_path, monkeypatch):
    monkeypatch.setattr(choqrisk_io, "_CHUNK_BYTES", chunk)
    test_declined_documents_read_as_the_dict_read(text, tmp_path)


@pytest.mark.parametrize("value", [2**53 + 1, 2**63, 2**64 + 1])
def test_an_integer_value_is_read_as_the_dict_read_reads_it(value, tmp_path, monkeypatch):
    """The NotMonotone message carries the value's repr, so both reads take the integer as one float."""
    text = json.dumps({"n": 2, "table": {"0": 0, "1": value, "2": 0.5, "3": 1}})
    path = tmp_path / "doc.json"
    path.write_text(text)
    want = _outcome(capacity_from_dict, json.loads(text), str(path))
    assert want == ("NotMonotone", f"monotonicity violated: table[0b1]={float(value)!r} > table[0b11]=1.0")
    monkeypatch.setattr(choqrisk_io, "_read_json", lambda path: pytest.fail("parsed as a dict"))
    assert _outcome(load_capacity, path) == want


def _key_masks(keys: list[bytes]):
    """``io._key_masks`` of ``keys``, each quoted, between commas."""
    buf = np.frombuffer(b"[" + b",".join(b'"%b"' % k for k in keys) + b"]", np.uint8)
    masks = choqrisk_io._key_masks(buf, np.flatnonzero(buf == ord('"')))
    return None if masks is None else masks.tolist()


def test_key_masks_read_every_width_as_int():
    rng = np.random.default_rng(3)
    keys = [b"0"]
    for width in range(1, 19):
        low = 10 ** (width - 1) if width > 1 else 1
        keys += [str(k).encode() for k in (low, 10 * low - 1, *rng.integers(low, 10 * low, 20).tolist())]
    rng.shuffle(keys)
    assert _key_masks(keys) == [int(k) for k in keys]


@pytest.mark.parametrize("bad", [b"01", b"00", b"0123", b"1" * 19, b"9" * 25, b""])
def test_key_masks_decline_leading_zeros_widths_and_empty_keys(bad):
    assert _key_masks([b"1", bad, b"23"]) is None


@pytest.mark.parametrize("byte", list(b"eE.+- \t\n\r"), ids=lambda byte: repr(chr(byte)))
def test_key_masks_decline_each_non_digit_the_skeleton_admits(byte):
    char = bytes([byte])
    for key in (char, char + b"1", b"1" + char, b"12" + char + b"4", b"1" * 17 + char):
        assert _key_masks([b"7", key, b"123456"]) is None, key
        assert _key_masks([key]) is None, key


def _sorted_table(n: int, seed: int) -> list[float]:
    """A random capacity table: values ascending in the bitmask are monotone under inclusion."""
    table = np.sort(np.random.default_rng(seed).random(1 << n))
    table[0], table[-1] = 0.0, 1.0
    return table.tolist()


def test_flat_keyed_read_across_many_chunks(tmp_path, monkeypatch):
    table = _sorted_table(17, 11)
    order = np.random.default_rng(12).permutation(len(table)).tolist()
    doc = {"n": 17, "table": {str(m): table[m] for m in order}}
    doc["table"]["0"], doc["table"][str(len(table) - 1)] = 0, 1
    text = json.dumps(doc)
    assert len(text) > 2 * choqrisk_io._CHUNK_BYTES
    path = tmp_path / "doc.json"
    path.write_text(text)
    want = _outcome(capacity_from_dict, json.loads(text), str(path))
    monkeypatch.setattr(choqrisk_io, "_read_json", lambda path: pytest.fail("parsed as a dict"))
    assert _outcome(load_capacity, path) == want


def test_flat_keyed_read_peak_memory_is_bounded_by_the_table(tmp_path, monkeypatch):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"n": 18, "table": dict(enumerate(_sorted_table(18, 13)))}))
    monkeypatch.setattr(choqrisk_io, "_read_json", lambda path: pytest.fail("parsed as a dict"))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        cap = load_capacity(path)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(cap.table) == 1 << 18
    # the peak, in bytes of the float64 table the capacity keeps
    assert peak - base <= 12 * 8 * (1 << 18)


def test_a_loaded_capacity_and_its_dual_hold_one_float64_array(tmp_path, monkeypatch):
    """At n = 18 a loaded capacity retains one float64 array and ``dual()`` allocates one more."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"n": 18, "table": dict(enumerate(_sorted_table(18, 14)))}))
    monkeypatch.setattr(choqrisk_io, "_read_json", lambda path: pytest.fail("parsed as a dict"))
    array_bytes = 8 * (1 << 18)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        cap = load_capacity(path)
        kept = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        dual = cap.dual()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dual.table == tuple(1.0 - v for v in reversed(cap.table))
    assert kept - base <= 1.5 * array_bytes
    assert peak - kept <= 1.5 * array_bytes


def test_save_capacity_writes_the_bytes_of_the_json_encoder(tmp_path):
    path = tmp_path / "saved.json"
    for n in range(1, 13):
        table = _sorted_table(n, n)
        table[0] = -0.0
        for labels in (None, [f"e{i}" for i in range(n)], [f'\u00e9 "{i}"\\\n\u2603' for i in range(n)]):
            cap = new_capacity(GroundSet(n, labels), table)
            save_capacity(cap, path)
            want = json.dumps(choqrisk_io.capacity_to_dict(cap), indent=2, sort_keys=True) + "\n"
            assert path.read_bytes() == want.encode()


def test_undecodable_bytes_name_the_file(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    raw = BASE.replace('"n": 2,', '"n": 2, "labels": ["\xff", "b"],').encode("latin-1")
    path.write_bytes(raw)
    assert main(["check-capacity", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: malformed JSON: 'utf-8' codec can't decode byte 0xff in position "
        f"{raw.index(0xFF)}: invalid start byte\n"
    )


def test_undecodable_values_file_names_the_file(mu_file, tmp_path, capsys):
    path = tmp_path / "x.json"
    path.write_bytes(b"[1, 2]\xff")
    assert main(["integrate", "--mu", str(mu_file), "--mode", "choquet", "--x", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: malformed JSON array: 'utf-8' codec can't decode byte 0xff in position 6: "
        "invalid start byte\n"
    )
    path.write_text("[1, 2")
    with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}: malformed JSON array"):
        load_values_array(str(path))
