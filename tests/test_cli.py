"""Command-line interface: subcommands, config layering, determinism, exit codes."""
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from torusdyn import cli
from torusdyn.cli import EXIT_CAPACITY, EXIT_OK, EXIT_VALIDATION, build_parser, main


def run(argv):
    """Invoke the CLI in-process; argparse errors become plain return codes."""
    try:
        return main(argv)
    except SystemExit as exc:
        return int(exc.code or 0)


# --- classify -------------------------------------------------------------------


def test_classify_human_and_json(capsys):
    assert run(["classify", "--matrix", "2", "1", "1", "1"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "family        hyperbolic" in out
    doc = json.loads(out[out.index("{"):])
    assert doc["schema"] == "torusdyn.run.v1"
    assert doc["command"] == "classify"
    res = doc["results"]
    assert res["lambda"] == pytest.approx(2.618033988749895, rel=1e-12)
    assert res["xi"] == pytest.approx(0.9624236501192069, rel=1e-12)
    assert res["shear"] is None and res["period"] is None


def test_classify_optional_breaking_block(capsys, tmp_path):
    out_path = tmp_path / "c.json"
    code = run([
        "classify", "--matrix", "1", "1", "0", "1", "--size", "1024",
        "--gamma", "2.0", "--steps", "4", "--output", str(out_path),
    ])
    assert code == EXIT_OK
    doc = json.loads(out_path.read_text())
    res = doc["results"]
    assert res["family"] == "parabolic"
    assert res["shear"] == pytest.approx(0.5, abs=1e-15)
    assert res["breaking_time"] == 31
    assert res["diameter"] == pytest.approx(2 + math.sqrt(5), rel=1e-12)


def test_classify_rejects_trivial_and_non_unimodular(capsys):
    assert run(["classify", "--matrix", "1", "0", "0", "1"]) == EXIT_VALIDATION
    assert run(["classify", "--matrix", "2", "0", "0", "2"]) == EXIT_VALIDATION


def test_classify_negative_steps_is_validation_error(capsys):
    assert run(["classify", "--matrix", "2", "1", "1", "1", "--steps", "-3"]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == "ValueError: step count must be >= 0, got -3"


def test_missing_required_flag_is_validation_error(capsys):
    assert run(["classify"]) == EXIT_VALIDATION
    assert run([]) == EXIT_VALIDATION  # bare invocation prints help


# --- config files ----------------------------------------------------------------


def test_config_file_supplies_options(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\nmatrix = 2,1,1,1\nsteps-max = 3\nsamples = 500\n")
    assert run(["diameters", "--config", str(cfg)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "# schema=torusdyn.csv.v1" in out
    assert "# command=diameters" in out
    assert out.splitlines()[-5].startswith("n,") or "n,formula,bruteforce,rel_err" in out


def test_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("matrix = 2,1,1,1\nsteps-max = 9\nsamples=500\n")
    assert run(["diameters", "--config", str(cfg), "--steps-max", "2"]) == EXIT_OK
    out = capsys.readouterr().out
    rows = [l for l in out.splitlines() if l and not l.startswith("#") and not l.startswith("n,")]
    assert len(rows) == 3  # n = 0, 1, 2: the flag won
    assert "# steps-max=2" in out


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("matrix = 2,1,1,1\nstep-count = 9\n")
    assert run(["diameters", "--config", str(cfg)]) == EXIT_VALIDATION


def test_config_respects_choices(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("matrix=2,1,1,1\nsize=64\nsteps=2\nseed=1\ncheck=telepathy\n")
    assert run(["localize", "--config", str(cfg)]) == EXIT_VALIDATION


# --- diameters --------------------------------------------------------------------


def test_diameters_csv_shape(tmp_path):
    out_path = tmp_path / "d.csv"
    code = run([
        "diameters", "--matrix", "0", "1", "-1", "0", "--steps-max", "4",
        "--samples", "2000", "--output", str(out_path),
    ])
    assert code == EXIT_OK
    lines = out_path.read_text().splitlines()
    header = [l for l in lines if not l.startswith("#")][0]
    assert header == "n,formula,bruteforce,rel_err"
    rows = [l.split(",") for l in lines if not l.startswith("#")][1:]
    assert [r[0] for r in rows] == ["0", "1", "2", "3", "4"]
    assert all(float(r[1]) == 1.0 for r in rows)  # rotations never stretch


# --- localize ---------------------------------------------------------------------


def test_localize_json_report(capsys):
    code = run([
        "localize", "--matrix", "2", "1", "1", "1", "--size", "256", "--steps", "3",
        "--trials", "2000", "--seed", "5",
    ])
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"]["violations"] == 0
    assert doc["results"]["premise_satisfied"] is True


def test_localize_shadowing_report(capsys):
    code = run([
        "localize", "--matrix", "2", "1", "1", "1", "--size", "10000", "--steps", "3",
        "--trials", "2000", "--seed", "5", "--check", "shadowing",
    ])
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"]["max_ratio"] <= 1.0


def test_localize_shadowing_coarse_lattice_fails_validation(capsys):
    code = run([
        "localize", "--matrix", "2", "1", "1", "1", "--size", "16", "--steps", "3",
        "--trials", "100", "--seed", "5", "--check", "shadowing",
    ])
    assert code == EXIT_VALIDATION


# --- egorov ----------------------------------------------------------------------


def test_egorov_csv(tmp_path):
    out_path = tmp_path / "eg.csv"
    code = run([
        "egorov", "--matrix", "2", "1", "1", "1", "--sizes", "32", "64",
        "--steps-max", "2", "--grid-factor", "2", "--quadrature", "2",
        "--output", str(out_path),
    ])
    assert code == EXIT_OK
    lines = out_path.read_text().splitlines()
    header = [l for l in lines if not l.startswith("#")][0]
    assert header == "j,N,defect"
    rows = [l.split(",") for l in lines if not l.startswith("#")][1:]
    assert len(rows) == 6  # (steps_max + 1) rows per size
    assert [r[1] for r in rows] == ["32", "32", "32", "64", "64", "64"]
    # defect grows with j at fixed N
    assert float(rows[2][2]) > float(rows[0][2])


def test_egorov_thread_count_is_immaterial(tmp_path, monkeypatch):
    argv = [
        "egorov", "--matrix", "2", "1", "1", "1", "--sizes", "48", "32", "--steps-max", "2",
        "--grid-factor", "1", "--quadrature", "2", "--output", "eg.csv",
    ]
    outputs = []
    for threads, sub in (("1", "a"), ("3", "b")):
        d = tmp_path / sub
        d.mkdir()
        monkeypatch.chdir(d)
        monkeypatch.setenv("TORUSDYN_THREADS", threads)
        assert run(argv) == EXIT_OK
        outputs.append((d / "eg.csv").read_bytes())
    assert outputs[0] == outputs[1]


# --- entropy ----------------------------------------------------------------------


def test_entropy_compare_outputs(tmp_path):
    out_path = tmp_path / "ent.csv"
    code = run([
        "entropy", "--matrix", "2", "1", "1", "1", "--sizes", "32", "64",
        "--n-max", "6", "--samples", "20000", "--seed", "7",
        "--output", str(out_path),
    ])
    assert code == EXIT_OK
    lines = out_path.read_text().splitlines()
    header = [l for l in lines if not l.startswith("#")][0]
    assert header == "n,N,S_cs,S_ks,gap,rate"
    rows = [l.split(",") for l in lines if not l.startswith("#")][1:]
    assert len(rows) == 12
    manifest = json.loads((tmp_path / "ent.csv.manifest.json").read_text())
    assert manifest["schema"] == "torusdyn.run.v1"
    res = manifest["results"]
    assert res["family"] == "hyperbolic"
    assert len(res["breaking"]) == 2
    assert res["fannes_violations"] == 0


def test_entropy_compare_reruns_are_byte_identical(tmp_path):
    argv_base = [
        "entropy", "--matrix", "2", "1", "1", "1", "--sizes", "32",
        "--n-max", "4", "--samples", "10000", "--seed", "3",
    ]
    blobs = []
    for name in ("r1.csv", "r2.csv"):
        path = tmp_path / name
        assert run(argv_base + ["--output", str(path), "--manifest", str(tmp_path / "m.json")]) == EXIT_OK
        text = path.read_text()
        blobs.append("\n".join(l for l in text.splitlines() if not l.startswith("# output=")))
    assert blobs[0] == blobs[1]


def test_entropy_compare_requires_seed(tmp_path):
    code = run([
        "entropy", "--matrix", "2", "1", "1", "1", "--sizes", "32", "--n-max", "3",
        "--output", str(tmp_path / "x.csv"),
    ])
    assert code == EXIT_VALIDATION


def test_entropy_matrix_identity_conflict(tmp_path):
    code = run([
        "entropy", "--matrix", "2", "1", "1", "1", "--identity-dynamics",
        "--sizes", "32", "--n-max", "3", "--seed", "1",
        "--output", str(tmp_path / "x.csv"),
    ])
    assert code == EXIT_VALIDATION
    code = run([
        "entropy", "--sizes", "32", "--n-max", "3", "--seed", "1",
        "--output", str(tmp_path / "x.csv"),
    ])
    assert code == EXIT_VALIDATION


def test_entropy_components_identity_rows(tmp_path):
    out_path = tmp_path / "comp.csv"
    code = run([
        "entropy", "--mode", "components", "--identity-dynamics",
        "--partition", "quadrants", "--sizes", "16", "--n-max", "3",
        "--output", str(out_path),
    ])
    assert code == EXIT_OK
    lines = out_path.read_text().splitlines()
    header = [l for l in lines if not l.startswith("#")][0]
    assert header == "n,N,total,measurement,dynamical,per_step_dynamical,snap_shift"
    rows = [l.split(",") for l in lines if not l.startswith("#")][1:]
    # identity dynamics: no dynamical production at any length
    for r in rows:
        assert float(r[2]) == pytest.approx(math.log(4), abs=1e-12)
        assert float(r[4]) == 0.0


def test_entropy_bad_partition_string(tmp_path):
    code = run([
        "entropy", "--matrix", "2", "1", "1", "1", "--partition", "dodecahedron",
        "--sizes", "32", "--n-max", "3", "--seed", "1",
        "--output", str(tmp_path / "x.csv"),
    ])
    assert code == EXIT_VALIDATION


@pytest.mark.parametrize("argv", [
    ["entropy", "--mode", "components", "--identity-dynamics", "--sizes", "0", "--n-max", "3"],
    ["entropy", "--mode", "components", "--matrix", "2", "1", "1", "1", "--sizes", "0",
     "--n-max", "3"],
    ["entropy", "--mode", "components", "--identity-dynamics", "--sizes", "1", "--n-max", "3"],
    ["classify", "--matrix", "2", "1", "1", "1", "--size", "0"],
])
def test_lattice_size_below_two_is_validation_error(argv, capsys, tmp_path):
    if argv[0] == "entropy":
        argv = argv + ["--output", str(tmp_path / "x.csv")]
    assert run(argv) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip()
    assert err.startswith("ValueError: lattice size must be >= 2, got ")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err
    assert not (tmp_path / "x.csv").exists()


def test_capacity_exit_code(tmp_path):
    code = run([
        "entropy", "--mode", "components", "--identity-dynamics", "--sizes", "200",
        "--n-max", "1", "--capacity", "100", "--output", str(tmp_path / "x.csv"),
    ])
    assert code == EXIT_CAPACITY


@pytest.mark.parametrize("capacity, expected", [(20_000_000, EXIT_OK), (1000, EXIT_CAPACITY)])
def test_capacity_reaches_the_lattice_walk(capacity, expected, tmp_path):
    # 4100**2 = 16,810,000 points, above the default capacity of 2**24; with a
    # matrix the walk builds the permutation, which must honour --capacity.
    code = run([
        "entropy", "--mode", "components", "--matrix", "2", "1", "1", "1",
        "--sizes", "4100", "--n-max", "2", "--capacity", str(capacity),
        "--output", str(tmp_path / "x.csv"),
    ])
    assert code == expected


@pytest.mark.parametrize("n_max, expected", [(31, EXIT_OK), (32, EXIT_CAPACITY)])
def test_word_length_budget_of_three_bands(n_max, expected, capsys, tmp_path):
    # Three atoms take 2 bits a symbol, so the 62-bit walk codes hold 31 symbols.
    out = tmp_path / "x.csv"
    code = run([
        "entropy", "--matrix", "2", "1", "1", "1", "--partition", "bands-x2:3",
        "--sizes", "16", "--n-max", str(n_max), "--samples", "1000", "--seed", "1",
        "--output", str(out),
    ])
    assert code == expected
    err = capsys.readouterr().err.strip()
    if expected == EXIT_OK:
        assert err == "" and out.exists()
    else:
        assert err.startswith("CapacityExceededError: ") and "32 symbols" in err
        assert len(err.splitlines()) == 1 and not out.exists()


def test_egorov_bad_observable(tmp_path):
    code = run([
        "egorov", "--matrix", "2", "1", "1", "1", "--sizes", "32", "--steps-max", "1",
        "--observable", "warp-field", "--output", str(tmp_path / "x.csv"),
    ])
    assert code == EXIT_VALIDATION


def test_egorov_indicator_observable(tmp_path):
    # A proper indicator (area 1/2) need not tile the torus like a partition atom.
    out_path = tmp_path / "x.csv"
    code = run([
        "egorov", "--matrix", "1", "1", "0", "1", "--sizes", "20", "--steps-max", "2",
        "--observable", "indicator:0,1/2,0,1", "--output", str(out_path),
    ])
    assert code == EXIT_OK
    rows = [l.split(",") for l in out_path.read_text().splitlines() if not l.startswith("#")][1:]
    assert len(rows) == 3
    assert all(math.isfinite(float(r[2])) for r in rows)


def test_egorov_malformed_indicator_rect(tmp_path):
    code = run([
        "egorov", "--matrix", "1", "1", "0", "1", "--sizes", "20", "--steps-max", "2",
        "--observable", "indicator:0,1/2,0", "--output", str(tmp_path / "x.csv"),
    ])
    assert code == EXIT_VALIDATION


# --- module entry point -------------------------------------------------------------


def test_python_dash_m_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "torusdyn", "classify", "--matrix", "0", "1", "-1", "0"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "elliptic" in proc.stdout
    assert '"period": 4' in proc.stdout


# --- one parser per process --------------------------------------------------------


def test_cached_parser_serves_successive_calls(tmp_path, capsys):
    """Errors, help and config files leave the shared parser as it was."""
    classify_argv = ["classify", "--matrix", "3", "2", "1", "1", "--steps", "4"]
    assert run(classify_argv) == EXIT_OK
    first = capsys.readouterr().out
    assert run(["localize", "--matrix", "2", "1", "1", "1", "--size", "64", "--steps", "-1",
                "--seed", "1"]) == EXIT_VALIDATION
    cfg = tmp_path / "run.cfg"
    cfg.write_text("matrix = 1,1,0,1\nsteps-max = 2\nsamples = 64\n")
    assert run(["diameters", "--config", str(cfg)]) == EXIT_OK
    with pytest.raises(SystemExit) as exc:
        main(["egorov", "--help"])
    assert exc.value.code == 0
    capsys.readouterr()
    assert run(classify_argv) == EXIT_OK
    assert capsys.readouterr().out == first
    assert build_parser() is build_parser()


# --- float overflow -----------------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ["classify", "--matrix", "2", "1", "1", "1", "--steps", "800"],
    ["diameters", "--matrix", "2", "1", "1", "1", "--steps-max", "800"],
    # D(n) itself overflows from n = 370 although sinh(n xi) is still finite.
    ["classify", "--matrix", "2", "1", "1", "1", "--steps", "380"],
    ["diameters", "--matrix", "2", "1", "1", "1", "--steps-max", "380"],
])
def test_float_overflow_is_validation_error(argv, capsys):
    assert run(argv) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip()
    assert err.startswith("OverflowError: ")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("matrix, check, steps, d0", [
    ("2 1 1 1", "localization", "100000", "0.1"),
    ("2 1 1 1", "shadowing", "100000", "0.1"),
    # lambda**736 is a float, but the localization threshold, about
    # lambda**736 / (d0 sin(beta)), is not; it used to be written as Infinity.
    ("2 1 1 1", "localization", "736", "0.1"),
    # so was the shear's threshold, about 1 / d0, with a subnormal d0
    ("1 1 0 1", "localization", "3", "1e-310"),
])
def test_localize_threshold_past_the_float_range_names_the_steps(matrix, check, steps, d0, capsys):
    argv = ["localize", "--matrix", *matrix.split(), "--size", "16", "--steps", steps,
            "--seed", "1", "--check", check, "--d0", d0]
    assert run(argv) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip()
    assert err.startswith("ValueError: ") and f"steps = {steps}" in err
    assert len(err.splitlines()) == 1


# --- form factor and float options -----------------------------------------------------

LOCALIZE = ["localize", "--matrix", "2", "1", "1", "1", "--size", "64", "--steps", "2",
            "--seed", "1", "--trials", "100"]
ENTROPY = ["entropy", "--matrix", "2", "1", "1", "1", "--sizes", "16", "--n-max", "3",
           "--samples", "100", "--seed", "1", "--output", "{out}"]


@pytest.mark.parametrize("argv, message", [
    (LOCALIZE + ["--gamma", "0"], "ValueError: gamma must exceed 1, got 0.0"),
    (LOCALIZE + ["--gamma", "-1"], "ValueError: gamma must exceed 1, got -1.0"),
    (LOCALIZE + ["--gamma", "nan"], "--gamma: expected a finite number, got nan"),
    (LOCALIZE + ["--d0", "inf"], "--d0: expected a finite number, got inf"),
    (["classify", "--matrix", "0", "1", "-1", "0", "--size", "64", "--gamma", "nan"],
     "--gamma: expected a finite number, got nan"),
    (["classify", "--matrix", "0", "1", "-1", "0", "--size", "64", "--gamma", "0.5"],
     "ValueError: gamma must exceed 1, got 0.5"),
    (ENTROPY + ["--abs-gap-threshold", "nan"],
     "--abs-gap-threshold: expected a finite number, got nan"),
    (ENTROPY + ["--break-increment-fraction", "inf"],
     "--break-increment-fraction: expected a finite number, got inf"),
    # A gamma the run does not use is refused too, not echoed into the config.
    (LOCALIZE + ["--check", "shadowing", "--gamma", "0.5"],
     "ValueError: gamma must exceed 1, got 0.5"),
    (["classify", "--matrix", "2", "1", "1", "1", "--gamma", "0"],
     "ValueError: gamma must exceed 1, got 0.0"),
])
def test_bad_form_factor_or_float_option_is_validation_error(argv, message, capsys, tmp_path):
    out = tmp_path / "x.csv"
    argv = [str(out) if a == "{out}" else a for a in argv]
    assert run(argv) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().splitlines()[-1].endswith(message)
    assert "Traceback" not in captured.err
    assert not out.exists()


def test_non_finite_float_in_config_file_is_validation_error(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("gamma = nan\n")
    assert run(LOCALIZE + ["--config", str(cfg)]) == EXIT_VALIDATION
    assert capsys.readouterr().err.strip().endswith("config key 'gamma': expected a finite "
                                                   "number, got 'nan'")


def test_form_factor_in_config_file_is_checked_unused(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("gamma = 1\n")
    assert run(["classify", "--matrix", "2", "1", "1", "1", "--config", str(cfg)]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == "ValueError: gamma must exceed 1, got 1.0"


def test_overlapping_indicator_rectangles_are_validation_error(capsys, tmp_path):
    out = tmp_path / "eg.csv"
    argv = ["egorov", "--matrix", "2", "1", "1", "1", "--sizes", "16", "--steps-max", "1",
            "--observable", "indicator:0,1/2,0,1;1/4,1/2,0,1", "--output", str(out)]
    assert run(argv) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.err.strip().endswith("--observable: indicator rectangles 0 and 1 overlap")
    assert not out.exists()


# --- memory ---------------------------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ["localize", "--matrix", "2", "1", "1", "1", "--size", "256", "--steps", "3", "--seed", "5",
     "--trials", "10000000000000"],
    ["diameters", "--matrix", "1", "1", "0", "1", "--steps-max", "3",
     "--samples", "10000000000000", "--output", "{out}"],
    ["entropy", "--matrix", "2", "1", "1", "1", "--sizes", "16", "--n-max", "2",
     "--samples", "10000000000000", "--seed", "1", "--output", "{out}"],
])
def test_unallocatable_request_is_capacity_error(argv, capsys, tmp_path):
    # Each request asks numpy for tens of TiB at once, which fails before
    # anything is allocated.
    argv = [str(tmp_path / "x.csv") if a == "{out}" else a for a in argv]
    assert run(argv) == EXIT_CAPACITY
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip()
    assert err.startswith("MemoryError: ")
    assert len(err.splitlines()) == 1


# --- unwritable output paths ------------------------------------------------------------

CLASSIFY_OUT = ["classify", "--matrix", "2", "1", "1", "1", "--output", "{out}"]
DIAMETERS_OUT = ["diameters", "--matrix", "1", "1", "0", "1", "--steps-max", "2",
                 "--samples", "64", "--output", "{out}"]
LOCALIZE_OUT = LOCALIZE + ["--output", "{out}"]
EGOROV_OUT = ["egorov", "--matrix", "2", "1", "1", "1", "--sizes", "16", "--steps-max", "1",
              "--output", "{out}"]
ENTROPY_OUT = ["entropy", "--matrix", "2", "1", "1", "1", "--sizes", "16", "--n-max", "3",
               "--samples", "100", "--seed", "1", "--output", "{out}"]
COMPONENTS_OUT = ["entropy", "--mode", "components", "--identity-dynamics", "--sizes", "16",
                  "--n-max", "3", "--output", "{out}"]


@pytest.mark.parametrize("argv", [CLASSIFY_OUT, DIAMETERS_OUT, LOCALIZE_OUT, EGOROV_OUT,
                                  ENTROPY_OUT, COMPONENTS_OUT])
@pytest.mark.parametrize("where, error", [
    ("missing/x.out", "FileNotFoundError"),
    (".", "IsADirectoryError"),
])
def test_unwritable_output_is_validation_error(argv, where, error, capsys, tmp_path):
    out = tmp_path / where
    argv = [str(out) if a == "{out}" else a for a in argv]
    assert run(argv) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip()
    assert err.startswith(f"{error}: ") and str(out) in err
    assert len(err.splitlines()) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [ENTROPY_OUT, COMPONENTS_OUT])
@pytest.mark.parametrize("where, error", [
    ("missing/m.json", "FileNotFoundError"),
    (".", "IsADirectoryError"),
])
def test_unwritable_manifest_leaves_no_csv(argv, where, error, capsys, tmp_path):
    out = tmp_path / "x.csv"
    manifest = tmp_path / where
    argv = [str(out) if a == "{out}" else a for a in argv] + ["--manifest", str(manifest)]
    assert run(argv) == EXIT_VALIDATION
    err = capsys.readouterr().err.strip()
    assert err.startswith(f"{error}: ") and str(manifest) in err
    assert len(err.splitlines()) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag", ["--output", "--manifest"])
def test_unwritable_path_is_refused_before_the_work(flag, monkeypatch, capsys, tmp_path):
    def planted(*args, **kwargs):
        raise AssertionError("compare_entropy_production ran")

    monkeypatch.setattr(cli, "compare_entropy_production", planted)
    missing = tmp_path / "missing" / "x.csv"
    argv = [str(tmp_path / "x.csv") if a == "{out}" else a for a in ENTROPY_OUT]
    argv += [flag, str(missing)]
    assert run(argv) == EXIT_VALIDATION
    err = capsys.readouterr().err.strip()
    assert err.startswith("FileNotFoundError: ") and str(missing) in err
    assert len(err.splitlines()) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == []


# --- the contract over every option ------------------------------------------------------

# Each option draws a usual value, mostly, or a boundary one: zero, one,
# minus one, 2**31, 2**63, NaN, infinities, fractions, malformed specs, and
# missing or directory paths.
INT_EDGES = ["0", "1", "-1", "2147483648", "9223372036854775808", "nan", "inf", "1/2", "0.5"]
FLOAT_EDGES = INT_EDGES + ["-inf", "1e308", "2.5", "1e-300"]
# (usual, boundary) tokens of the options that set the amount of work,
# bounded so that one example takes milliseconds: lattice sizes, samples,
# trials, and the step and length counts that the commands loop over.
COSTS = {
    "size": (["8", "16", "32", "64"], ["-1", "0", "1", "2", "3", "17"]),
    "samples": (["100", "1000"], ["-1", "0", "1", "2"]),
    "trials": (["10", "100"], ["-1", "0", "1", "2"]),
    "steps-max": (["0", "3", "10"], ["-1", "1", "40"]),
    "n-max": (["1", "4", "12"], ["-1", "0", "2", "31", "32", "62", "63", "64", "2147483648"]),
    "grid-factor": (["1", "2"], ["-1", "0", "8"]),
    "quadrature": (["1", "4"], ["-1", "0", "8"]),
    # localize's shadowing check steps every orbit, one step at a time (an
    # elliptic map at most its order less one)
    "localize --steps": (["1", "3"], ["-1", "0", "2", "60", "1000", "2147483648"]),
}
COSTS["sizes"] = COSTS["size"]
MATRICES = (
    [["2", "1", "1", "1"], ["3", "2", "1", "1"], ["1", "1", "0", "1"], ["0", "1", "-1", "0"],
     ["1", "1", "-1", "0"], ["-2", "1", "-1", "0"]],
    [["1", "0", "0", "1"], ["2", "0", "0", "2"], ["1", "2147483648", "0", "1"],
     ["1", "9223372036854775808", "0", "1"]],
)
PARTITIONS = (
    ["quadrants", "halves", "halves-x2", "bands-x2:3", "rects:0,1/2,0,1;1/2,1/2,0,1"],
    ["bands-x2:0", "bands-x2:1", "bands-x2:300", "rects:0,1/3,0,1", "rects:0,0,0,1", "bogus"],
)
OBSERVABLES = (
    ["sin-x1", "cos-x2", "sin-sum", "indicator:0,1/2,0,1"],
    ["indicator:0,0,0,1", "indicator:0,1/2,0,1;1/4,1/2,0,1", "bogus"],
)
# Path placeholders, filled in per example: a new file, a missing
# directory, and an existing directory.
PATHS = (["{work}/{name}.out"], ["{work}/missing/{name}.out", "{work}/adir"])
CONFIGS = ["{work}/seed.cfg", "{work}/bogus.cfg", "{work}/missing.cfg", "{work}/adir"]


def _usual_or_edge(usual, edges):
    """One of `usual`, or one of `edges` (a list or a strategy) about one time in six."""
    edge = edges if isinstance(edges, st.SearchStrategy) else st.sampled_from(edges)
    return st.integers(0, 5).flatmap(lambda k: st.sampled_from(usual) if k else edge)


def _one(usual, edges):
    return _usual_or_edge(usual, edges).map(lambda token: [token])


def _cost_name(command, opt):
    name = f"{command} --{opt.name}"
    return name if name in COSTS else opt.name if opt.name in COSTS else None


def _option_tokens(command, opt):
    """Strategy for the value tokens of one Opt of `command`."""
    if opt.check is cli._check_output_path:
        return _one(*PATHS).map(lambda p: [p[0].replace("{name}", opt.name)])
    if opt.choices is not None:
        return _one(list(opt.choices), ["bogus"])
    if opt.parse is cli.parse_partition:
        return _one(*PARTITIONS)
    if opt.parse is cli.parse_observable:
        return _one(*OBSERVABLES)
    if opt.nargs == 4:
        usual, edges = MATRICES
        return _usual_or_edge(usual, st.one_of(st.sampled_from(edges), st.lists(
            st.sampled_from(INT_EDGES), min_size=4, max_size=4)))
    cost = _cost_name(command, opt)
    if cost is not None:
        usual, edges = COSTS[cost][0], COSTS[cost][1] + ["nan", "1/2"]
        if opt.nargs == "+":
            return st.lists(_usual_or_edge(usual, edges), min_size=1, max_size=3)
        return _one(usual, edges)
    if opt.flag_type in (int, float):
        usual = [str(opt.default)] if opt.default is not None else ["1", "7"]
        return _one(usual, INT_EDGES if opt.flag_type is int else FLOAT_EDGES)
    raise AssertionError(f"no strategy for {command} --{opt.name}")


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(cli._SUBCOMMANDS)))
    argv = [command]
    if draw(st.integers(0, 7)) == 0:
        argv += ["--config", draw(st.sampled_from(CONFIGS))]
    for opt in cli._SUBCOMMANDS[command][1]:
        # Cost options are always given, so no default exceeds the bounds;
        # a required option is left out now and then.
        if _cost_name(command, opt) is None:
            if draw(st.integers(0, 9)) >= (9 if opt.required else 5):
                continue
        if opt.is_flag:
            argv.append(f"--{opt.name}")
        else:
            argv += [f"--{opt.name}", *draw(_option_tokens(command, opt))]
    return argv


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


def _check_output(text):
    """Parse one output strictly: JSON with no NaN or Infinity, CSV with finite cells."""
    if text.startswith("# schema="):
        lines = [line for line in text.splitlines() if not line.startswith("#")]
        for line in lines[1:]:
            for cell in line.split(","):
                assert math.isfinite(float(cell)), line
    elif text.startswith("{"):
        json.loads(text, parse_constant=_no_constant)
    else:
        # classify's text block, followed by its JSON record unless that went to a file
        assert text.startswith("matrix ")
        if "\n{" in text:
            json.loads(text[text.index("\n{"):], parse_constant=_no_constant)


@settings(max_examples=300, deadline=None)
@given(argvs())
# A size given twice once fitted a line through one log(size), with a RankWarning.
@example(["entropy", "--identity-dynamics", "--sizes", "2", "3", "3", "--n-max", "1",
          "--samples", "100", "--seed", "1", "--output", "{work}/output.out"])
# An elliptic map meets the tracking threshold at any step count.
@example(["localize", "--matrix", "0", "1", "-1", "0", "--size", "64", "--steps", "2147483648",
          "--check", "shadowing", "--trials", "1", "--seed", "1"])
# One atom is a symbol of one bit in the word budget, though it packs none.
@example(["entropy", "--mode", "components", "--identity-dynamics", "--partition", "bands-x2:1",
          "--sizes", "4", "--n-max", "2147483648", "--output", "{work}/output.out"])
def test_cli_contract_over_every_option(argv):
    """Any argv exits 0, 2 or 3, with no traceback; a failed run writes nothing.

    An exit of 0 writes strict JSON and finite CSV cells.  A non-zero exit
    prints one stderr line, or argparse's usage block and its error line,
    and leaves stdout and the working directory as they were.
    """
    with tempfile.TemporaryDirectory() as work:
        Path(work, "adir").mkdir()
        Path(work, "seed.cfg").write_text("seed = 1\n")
        Path(work, "bogus.cfg").write_text("bogus = 1\n")
        before = set(os.listdir(work))
        argv = [token.replace("{work}", work) for token in argv]
        out, err = io.StringIO(), io.StringIO()
        # A warning would print to stderr beside the result: fail on it.
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(argv)
        written = sorted(set(os.listdir(work)) - before)
        assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_CAPACITY)
        lines = err.getvalue().splitlines()
        assert not any("Traceback" in line for line in lines)
        if code == EXIT_OK:
            assert lines == []
            texts = [out.getvalue()] if out.getvalue() else []
            texts += [Path(work, name).read_text() for name in written]
            assert texts
            for text in texts:
                _check_output(text)
        else:
            assert out.getvalue() == "" and written == []
            # argparse prints its usage block, then one error line.
            usage = (lines[0].startswith(f"usage: torusdyn {argv[0]} ")
                     and lines[-1].startswith(f"torusdyn {argv[0]}: error: "))
            assert len(lines) == 1 or (usage and len(lines) <= 12), lines
