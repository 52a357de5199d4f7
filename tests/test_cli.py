import dataclasses
import errno
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from defectchain import cli
from defectchain.cli import main
from defectchain.lattice import LatticeSpec
from defectchain.oracle import defect_decomposition, time_average_exact
from defectchain.single_defect import (DefectSpec, build_defect_system,
                                       steady_moment_defect, steady_occupation)

README = Path(__file__).resolve().parent.parent / "README.md"


def run_cli(args):
    return main(args)


def test_free_mode_csv(tmp_path):
    out = tmp_path / "free.csv"
    assert run_cli(["free", "--N", "12", "--tsteps", "17", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "observable,N,gamma,q,nd,n0,n,t,value,provenance"
    assert any(line.startswith("tstar,") for line in lines)
    assert all("\r" not in line for line in lines)


def test_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["single", "--N", "10", "--nd", "4", "--n0", "2",
            "--q", "0.5", "--q", "2.0", "--q", "8.0"]
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_single_mode_probabilities_normalized(tmp_path):
    out = tmp_path / "single.json"
    assert run_cli(["single", "--N", "14", "--nd", "5", "--n0", "1", "--q", "1.5",
                    "--format", "json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["schema_version"] == 1
    probs = [r["value"] for r in payload["records"]
             if r["observable"] == "steady_occupation" and r["provenance"] == "analytic"]
    assert abs(sum(probs) - 1.0) < 1e-8
    diffs = [r["value"] for r in payload["records"] if r["provenance"] == "abs_diff"]
    assert diffs and max(diffs) < 1e-10


def test_q_log_sweep(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run_cli(["single", "--N", "10", "--nd", "3", "--q-log", "0.1:10:5",
                    "--out", str(out)]) == 0
    text = out.read_text()
    for q in np.geomspace(0.1, 10, 5):
        assert repr(float(q)) in text


def test_two_mode(tmp_path):
    out = tmp_path / "two.csv"
    assert run_cli(["two", "--N", "8", "--nd", "2", "--nd", "5",
                    "--q", "1.0", "--q", "-0.5", "--tsteps", "5",
                    "--out", str(out)]) == 0
    rows = [l.split(",") for l in out.read_text().splitlines()[1:]]
    diffs = [float(r[8]) for r in rows if r[0] == "occupation_max_abs_diff"]
    assert diffs and max(diffs) < 1e-10
    # every emitted probability slice sums to one
    sums = {}
    for r in rows:
        if r[0] == "occupation":
            sums[r[7]] = sums.get(r[7], 0.0) + float(r[8])
    assert sums and all(abs(s - 1.0) < 1e-8 for s in sums.values())


def test_two_mode_three_defects(tmp_path):
    out = tmp_path / "three.csv"
    assert run_cli(["two", "--N", "96", "--n0", "5", "--nd", "0", "--nd", "32", "--nd", "64",
                    "--q", "1.0", "--q", "1.0", "--q", "-0.7", "--tsteps", "9",
                    "--out", str(out)]) == 0
    rows = [l.split(",") for l in out.read_text().splitlines()[1:]]
    diffs = [float(r[8]) for r in rows if r[0] == "occupation_max_abs_diff"]
    assert len(diffs) == 9 and max(diffs) < 1e-12


def test_two_mode_needs_one_strength_per_site():
    assert run_cli(["two", "--N", "12", "--nd", "1", "--nd", "5", "--nd", "8",
                    "--q", "1.0", "--q", "0.5"]) == 1
    assert run_cli(["two", "--N", "12", "--nd", "1", "--q", "1.0"]) == 1
    assert run_cli(["two", "--N", "12", "--nd", "1", "--nd", "5", "--q", "1.0"]) == 1


def test_two_mode_large_ring_symmetric_pair(tmp_path):
    # equal strengths on opposite sites used to exit 2 (NormalizationDrift)
    assert run_cli(["two", "--N", "1000", "--nd", "0", "--nd", "500", "--n0", "1",
                    "--q", "1", "--q", "1", "--tsteps", "3",
                    "--out", str(tmp_path / "big.csv")]) == 0


@pytest.mark.parametrize("N, n0, nd, q", [(50, 2, 4, 1e-7), (5, 0, 2, -0.8), (51, 3, 10, -1e-12),
                                          (400, 5, 100, 1e-11)])
def test_single_small_q_and_odd_band_edge(tmp_path, N, n0, nd, q):
    # small |q| drifted off normalization (C_k = gamma (c_k - x_j) cancelled next
    # to a level), and q / 2 gamma = -2/N on an odd ring raised NonSimplePole
    out = tmp_path / "single.csv"
    assert run_cli(["single", "--N", str(N), "--n0", str(n0), "--nd", str(nd),
                    f"--q={q!r}", "--out", str(out)]) == 0
    rows = [l.split(",") for l in out.read_text().splitlines()[1:]]
    prof = np.array([float(r[8]) for r in rows if r[0] == "steady_occupation" and r[9] == "analytic"])
    assert prof.size == N
    dense = time_average_exact(defect_decomposition(LatticeSpec(N, 1.0, n0), nd, q), n0)
    assert np.max(np.abs(prof - dense)) < 1e-12


@pytest.mark.parametrize("q", ["1e-7", "1e-9"])
def test_single_oracle_columns_where_levels_split_by_q_over_N(tmp_path, capsys, q):
    # the full-ring oracle merged level pairs split by ~q/N: it skipped these
    # columns at q=1e-7 (DegeneracyAmbiguity) and was 0.010 off at q=1e-9
    out = tmp_path / "single.csv"
    assert run_cli(["single", "--N", "50", "--n0", "2", "--nd", "4", f"--q={q}",
                    "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    rows = [l.split(",") for l in out.read_text().splitlines()[1:]]
    diffs = [float(r[8]) for r in rows if r[9] == "abs_diff"]
    assert len(diffs) == 50 and max(diffs) <= 1e-14


def test_non_finite_strength_is_a_config_error(capsys):
    # each command rejects the strength up front: no NaN roots, no drift, no LinAlgError
    for args in (["single", "--N", "10", "--nd", "3", "--q", "nan"],
                 ["single", "--N", "10", "--nd", "3", "--q", "1", "--q-log", "nan:1:3"],
                 ["two", "--N", "10", "--nd", "2", "--nd", "5", "--q", "nan", "--q", "1"],
                 ["oracle-check", "--N", "10", "--nd", "3", "--q", "inf"],
                 ["oracle-check", "--N", "10", "--nd", "3", "--nd", "7", "--q=-inf"],
                 ["single", "--N", "10", "--nd", "3", "--q", "-inf"],
                 ["single", "--N", "10", "--nd", "3", "--q", "1", "--q", "-nan"],
                 ["two", "--N", "10", "--nd", "2", "--nd", "5", "--q", "1", "--q", "-Infinity"],
                 ["single", "--N", "10", "--nd", "3", "--q", "1", "--gamma", "1e-320"],
                 ["two", "--N", "10", "--nd", "2", "--nd", "5", "--q", "-1", "--q", "1",
                  "--gamma", "1e-320"]):
        assert run_cli(args) == 1, args
        assert "config error: q must be finite" in capsys.readouterr().err
    assert run_cli(["single", "--N", "10", "--nd", "3", "--q-log", "1:inf:3"]) == 1
    assert "config error: --q-log" in capsys.readouterr().err


def test_non_finite_run_parameters_are_config_errors(capsys):
    # a NaN or infinite tmax printed NaN rows with exit 0, an infinite gamma
    # left a ValueError traceback
    for args in (["free", "--N", "10", "--tmax", "nan"],
                 ["free", "--N", "10", "--tmax", "inf"],
                 ["two", "--N", "10", "--nd", "2", "--nd", "5", "--q", "1", "--q", "1",
                  "--tmax", "-inf"],
                 ["free", "--N", "10", "--gamma", "1e-320"]):
        assert run_cli(args) == 1, args
        assert "config error: need a finite tmax > 0" in capsys.readouterr().err
    for args in (["single", "--N", "10", "--nd", "3", "--q", "1", "--gamma", "inf"],
                 ["free", "--N", "10", "--gamma", "nan"]):
        assert run_cli(args) == 1, args
        assert "config error: gamma must be positive and finite" in capsys.readouterr().err


def _csv_rows(path):
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


def test_fig3_sweep_rows_equal_point_by_point(tmp_path):
    # fig3 shares one pole solve and one row FFT per strength across its five sites;
    # its rows, in nd-major order, are the per-point builds' moments
    prefix = tmp_path / "p"
    assert run_cli(["figure", "--panel", "fig3a", "--out", str(prefix)]) == 0
    spec = LatticeSpec(200, 1.0, 2)
    want = [(str(nd), repr(float(q)), repr(steady_moment_defect(
                build_defect_system(spec, DefectSpec(nd, q)), 1)))
            for nd in (2, 3, 4, 5, 6) for q in np.geomspace(0.01, 100.0, 41)]
    assert [(r[4], r[3], r[8]) for r in _csv_rows(tmp_path / "p_fig3a.csv")] == want


def test_single_sweep_rows_equal_point_by_point(tmp_path):
    # a free point, a geometric sweep and a negative strength in one call
    out = tmp_path / "sweep.csv"
    assert run_cli(["single", "--N", "50", "--n0", "2", "--nd", "4", "--q", "0",
                    "--q-log", "0.05:50:40", "--q=-3", "--out", str(out)]) == 0
    spec = LatticeSpec(50, 1.0, 2)
    want = []
    for q in [0.0, -3.0, *np.geomspace(0.05, 50.0, 40)]:         # --q values, then --q-log
        system = build_defect_system(spec, DefectSpec(4, q))
        prof = steady_occupation(system).values
        want += [("steady_occupation", repr(float(q)), str(n), repr(float(v))) for n, v in enumerate(prof)]
        want += [("steady_at_defect", repr(float(q)), "4", repr(float(prof[4]))),
                 ("steady_at_start", repr(float(q)), "2", repr(float(prof[2])))]
        want += [(name, repr(float(q)), "", repr(steady_moment_defect(system, p)))
                 for p, name in ((1, "mean_displacement_steady"), (2, "msd_steady"))]
    rows = _csv_rows(out)
    assert [(r[0], r[3], r[6], r[8]) for r in rows if r[9] == "analytic"] == want
    assert any(r[9] == "oracle" for r in rows)


def test_solver_error_exit_two():
    # duplicate defect sites surface as a solver error
    assert run_cli(["two", "--N", "8", "--nd", "2", "--nd", "10",
                    "--q", "1.0", "--q", "0.5", "--tsteps", "3"]) == 2


def test_infq_mode(tmp_path):
    out = tmp_path / "infq.csv"
    assert run_cli(["infq", "--N", "50", "--nd", "25", "--n0", "22",
                    "--out", str(out)]) == 0
    rows = [l.split(",") for l in out.read_text().splitlines()[1:]]
    vals = {int(r[6]): float(r[8]) for r in rows if r[0] == "steady_occupation_infq"}
    assert abs(vals[22] - 0.03) < 1e-14 and vals[25] == 0.0


def test_classical_mode(tmp_path):
    out = tmp_path / "cl.csv"
    assert run_cli(["classical", "--N", "20", "--f", "0.1", "--f", "0.9",
                    "--out", str(out)]) == 0
    rows = [l.split(",") for l in out.read_text().splitlines()[1:]]
    msd = [float(r[8]) for r in rows if r[0] == "msd_steady_time_integrated"]
    assert len(msd) == 2 and abs(msd[0] - msd[1]) < 1e-8


def _cli_command(argv):
    """`python -m defectchain.cli argv` and the environment that runs it on
    this checkout's src."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return [sys.executable, "-m", "defectchain.cli", *argv], dict(os.environ, PYTHONPATH=path)


def _cli_run(argv):
    """(exit code, stdout, stderr) of one CLI run; a run that hangs is
    killed and fails the test after 60 s instead of holding the suite."""
    cmd, env = _cli_command(argv)
    done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=60)
    return done.returncode, done.stdout, done.stderr


@pytest.mark.parametrize("rates, code", [
    (["--F", "inf", "--f", "1"], 1),             # an uncaught LinAlgError before
    (["--F", "1e308", "--f", "1e308"], 1),       # never returned: 2F overflows
    (["--F", "1e-320", "--f", "1e-320"], 1),     # t_relax overflows
])
def test_classical_bad_rates_end_cleanly(rates, code):
    got, _, err = _cli_run(["classical", "--N", "20", *rates])
    assert got == code, err
    assert "Traceback" not in err and "Warning" not in err
    assert err.startswith("config error:" if code == 1 else "solver error (NotConverged):")


@pytest.mark.parametrize("argv", [["figure", "--panel", "fig2a"], ["figure", "--panel", "fig3b"],
                                  ["single", "--N", "2000", "--nd", "1102", "--n0", "3",
                                   "--q", "0.68", "--q", "-40"]])
def test_one_defect_steady_bytes_do_not_depend_on_the_blas_thread_count(argv):
    # each site adds one vector-matrix product per row block to its level
    # sums, whose bits hold on any thread count; one matrix product over all
    # sites would not
    cmd, env = _cli_command(argv)
    outs = [subprocess.run(cmd, env=dict(env, OPENBLAS_NUM_THREADS=threads), capture_output=True,
                           timeout=60, check=True).stdout for threads in ("1", "2")]
    assert outs[0] == outs[1] and outs[0].count(b"\n") > 200


@pytest.mark.parametrize("f", ["1e-14", "1e-300", "1e-320"])
def test_classical_nearly_closed_barrier_is_flat(f):
    # a time unit from f never returned (1e-320), overflowed exp (1e-300) or
    # printed 47.77 from a profile summing to 1.43 (1e-14); sum_n d^2 / N = 33.5
    code, out, err = _cli_run(["classical", "--N", "20", "--F", "1", "--f", f])
    assert code == 0 and err == "", err
    msd = [float(r.split(",")[8]) for r in out.splitlines()[1:] if r.startswith("msd_steady")]
    assert len(msd) == 2 and np.max(np.abs(np.array(msd) - 33.5)) < 1e-9


@pytest.mark.parametrize("F", ["1e-12", "1e-9", "1e4", "1e-304"])
def test_classical_msd_does_not_depend_on_rate_unit(F):
    # the absolute stop test gave 18.68 (F = 1e-12) and 32.75 (1e-9) and
    # exited 2 at F = 1e4; at F = 1e-304, 1 / eps overflowed in rate units
    # (exit 2); sum_n d^2 / N = 33.5 at N = 20
    code, out, err = _cli_run(["classical", "--N", "20", "--F", F, "--f", F])
    assert code == 0, err
    rows = [line.split(",") for line in out.splitlines()[1:]]
    msd = [float(r[8]) for r in rows if r[0].startswith("msd_steady")]
    assert len(msd) == 2 and np.max(np.abs(np.array(msd) - 33.5)) < 1e-8


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-1"])
def test_oracle_check_tolerance_must_be_comparable(tmp_path, capsys, tolerance):
    # nan passed every comparison (exit 0 whatever the differences), -1
    # failed every one (exit 3)
    argv = ["oracle-check", "--N", "10", "--nd", "3", "--q", "1", "--tsteps", "3"]
    assert run_cli(argv + ["--tolerance", tolerance]) == 1
    conf = tmp_path / "c.conf"
    conf.write_text(f"schema_version = 1\ntolerance = {tolerance}\n")
    assert run_cli(argv + ["--config", str(conf)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(e.startswith("config error: --tolerance") for e in err)


def test_oracle_check_exit_codes(tmp_path):
    ok = run_cli(["oracle-check", "--N", "10", "--nd", "4", "--q", "1.5",
                  "--tsteps", "4", "--out", str(tmp_path / "ok.csv")])
    assert ok == 0
    breach = run_cli(["oracle-check", "--N", "10", "--nd", "4", "--q", "1.5",
                      "--tsteps", "4", "--tolerance", "1e-30",
                      "--out", str(tmp_path / "breach.csv")])
    assert breach == 3


@pytest.mark.parametrize("q", ["0.01", "0.001"])
def test_oracle_check_weak_defect(tmp_path, q):
    # the oracle's pole classes used to keep spectator states whose coupling
    # is rounding noise of a nearly degenerate pair (exit 2)
    assert run_cli(["oracle-check", "--N", "100", "--nd", "1", "--q", q,
                    "--tsteps", "3", "--out", str(tmp_path / "o.csv")]) == 0


@pytest.mark.parametrize("argv", [
    ["--N", "50", "--nd", "16", "--n0", "1", "--q", "1e8"],   # full ring 3.0e-8 off (exit 3)
    ["--N", "50", "--nd", "4", "--n0", "2", "--q", "1e-7"],   # DegeneracyAmbiguity (exit 2)
])
def test_oracle_check_one_defect_by_parity_sector(tmp_path, argv):
    assert run_cli(["oracle-check", *argv, "--out", str(tmp_path / "o.csv")]) == 0


def test_oracle_check_residue_cuts_cannot_disagree(tmp_path):
    # the oracle and the root finder cut small residues separately, and
    # disagreed here ("retained 21 poles but the spectrum oracle has 22", exit
    # 2); validation now compares every level with the dense spectrum
    assert run_cli(["oracle-check", "--N", "42", "--n0", "17", "--nd", "25", "--q=-233.07",
                    "--out", str(tmp_path / "o.csv")]) == 0


def _abs_diffs(path) -> list[float]:
    rows = [l.split(",") for l in path.read_text().splitlines()[1:]]
    return [float(r[8]) for r in rows if r[9] == "abs_diff"]


@pytest.mark.parametrize("argv", [
    ["two", "--N", "10", "--n0", "1", "--nd", "0", "--nd", "5", "--q", "1e-8", "--q", "1e-8"],
    ["oracle-check", "--N", "10", "--n0", "1", "--nd", "0", "--nd", "5", "--q", "1e-8"],
])
def test_dense_evolution_does_not_read_degeneracy_classes(tmp_path, argv):
    # the full ring has gaps of 4e-9 inside its class band (1e-9, 1e-8); it
    # raised DegeneracyAmbiguity (exit 2) when built, though only the time
    # average reads the classes
    out = tmp_path / "o.csv"
    assert run_cli([*argv, "--out", str(out)]) == 0
    diffs = _abs_diffs(out)
    assert diffs and max(diffs) <= 1e-13


def test_oracle_check_three_sites(tmp_path):
    # once a config error ("one or two --nd sites")
    out = tmp_path / "o.csv"
    assert run_cli(["oracle-check", "--N", "20", "--nd", "1", "--nd", "5", "--nd", "9",
                    "--q", "1", "--q", "-3", "--out", str(out)]) == 0
    diffs = _abs_diffs(out)
    assert len(diffs) == 2 * 16 and max(diffs) <= 1e-13


def test_oracle_check_builds_one_reference_per_strength(tmp_path, monkeypatch):
    # the root check and the comparison rows share one dense reference (each
    # strength's was built twice)
    import defectchain.cli
    import defectchain.oracle
    calls = []

    def counted(*args):
        calls.append(args)
        return defect_decomposition(*args)

    monkeypatch.setattr(defectchain.oracle, "defect_decomposition", counted)
    monkeypatch.setattr(defectchain.cli, "defect_decomposition", counted)
    assert run_cli(["oracle-check", "--N", "128", "--nd", "40", "--n0", "3", "--q", "1.5",
                    "--q", "10", "--q", "0.1", "--out", str(tmp_path / "o.csv")]) == 0
    assert len(calls) == 3


def test_oracle_check_root_mismatch_is_a_solver_error(tmp_path, monkeypatch, capsys):
    import defectchain.single_defect as sd
    find_poles = sd.find_poles

    def shifted(*args):
        poles = find_poles(*args)
        return dataclasses.replace(poles, x=poles.x + 1e-6)

    monkeypatch.setattr(sd, "find_poles", shifted)
    assert run_cli(["oracle-check", "--N", "10", "--nd", "4", "--q", "1.5",
                    "--out", str(tmp_path / "o.csv")]) == 2
    assert "PoleCountMismatch" in capsys.readouterr().err


def test_negative_exponent_strength(tmp_path):
    # argparse took "-1e-12" for an option ("expected one argument", exit 1)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["single", "--N", "51", "--n0", "3", "--nd", "10"]
    assert run_cli(args + ["--q", "-1e-12", "--out", str(a)]) == 0
    assert run_cli(args + ["--q=-1e-12", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert ",-1e-12," in a.read_text()


def test_sweep_threads_option_is_gone():
    assert run_cli(["single", "--N", "10", "--nd", "3", "--q", "1.0", "--threads", "2"]) == 1


def test_config_errors_exit_one(tmp_path):
    assert run_cli(["single", "--nd", "3", "--q", "1.0"]) == 1        # missing N
    assert run_cli(["free", "--N", "2"]) == 1                         # invalid N
    assert run_cli(["single", "--N", "10", "--nd", "3"]) == 1         # missing q
    assert run_cli(["single", "--N", "10", "--nd", "3", "--q-log", "junk"]) == 1


@pytest.mark.parametrize("argv", [["free", "--N", "10"], ["figure", "--panel", "fig1"]])
def test_unwritable_out_is_a_config_error(tmp_path, capsys, argv):
    # a path that cannot be opened ended in a FileNotFoundError traceback
    out = tmp_path / "missing" / "x.csv"
    assert run_cli(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write ") and err.count("\n") == 1
    assert not out.parent.exists()


@pytest.mark.parametrize("argv", [["single", "--N", "6000", "--nd", "7", "--q", "0.5", "--q=-3"],
                                  ["figure", "--panel", "fig1"]])
def test_unwritable_out_stops_before_the_run(tmp_path, capsys, monkeypatch, argv):
    # --out is checked before any solve: an unwritable path costs no run
    def run(args):
        raise AssertionError("the run started")

    monkeypatch.setitem(cli._MODES, argv[0], (run, *cli._MODES[argv[0]][1:]))
    suffix = "_fig1.csv" if argv[0] == "figure" else ""
    (tmp_path / ("dir" + suffix)).mkdir()
    (tmp_path / "file").write_text("")
    for out, code in ((tmp_path / "missing" / "x", errno.ENOENT), (tmp_path / "dir", errno.EISDIR),
                      (tmp_path / "file" / "x", errno.ENOTDIR)):
        assert run_cli(argv + ["--out", str(out)]) == 1
        target = f"{out}{suffix}"
        assert capsys.readouterr().err == (
            f"config error: cannot write {target}: [Errno {code}] {os.strerror(code)}: '{target}'\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["dir" + suffix, "file"])


def test_failed_run_leaves_an_old_output(tmp_path):
    # the --out check opens nothing: a run that fails after it neither
    # truncates an old output nor creates a new one
    old, new = tmp_path / "old.csv", tmp_path / "new.csv"
    old.write_text("old\n")
    for out in (old, new):
        assert run_cli(["single", "--N", "10", "--nd", "3", "--out", str(out)]) == 1   # no --q
        assert run_cli(["two", "--N", "10", "--nd", "3", "--nd", "5", "--q", "1", "--q", "2",
                        "--tmax", "1e308", "--out", str(out)]) == 1
    assert old.read_text() == "old\n" and not new.exists()


def test_config_file(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("schema_version = 1\nN = 12\nnd = 4\nq = 0.5, 2.0\nn0 = 1\n")
    out = tmp_path / "conf.csv"
    assert run_cli(["single", "--config", str(conf), "--out", str(out)]) == 0
    assert "steady_at_defect" in out.read_text()
    bad = tmp_path / "bad.conf"
    bad.write_text("N = 12\n")                  # missing schema_version
    assert run_cli(["single", "--config", str(bad)]) == 1


@pytest.mark.parametrize("mode, lines", [
    ("single", "N = abc"),                       # an uncaught ValueError before
    ("single", "q = 1.5, x"),
    ("single", "format = xml"),                  # accepted before
    ("single", "F = 2"),                         # a classical flag, accepted before
    ("single", "tolerance = 1e-30"),             # an oracle-check flag, ignored before
    ("single", "r = 5"),
    ("single", "config = other.conf"),
    ("single", "tol = 1e-8"),                    # keys are whole flag names
    ("classical", "gamma = 2"),
])
def test_config_faults_exit_one(tmp_path, capsys, mode, lines):
    conf = tmp_path / "c.conf"
    conf.write_text(f"schema_version = 1\nN = 10\nnd = 3\nq = 1\n{lines}\n"
                    if mode == "single" else f"schema_version = 1\nN = 10\n{lines}\n")
    assert run_cli([mode, "--config", str(conf)]) == 1
    assert capsys.readouterr().err.startswith("config error:")


def test_config_values_with_defaults_take_effect(tmp_path, capsys):
    # format, tolerance and r have non-None defaults, and a file's value was
    # ignored for them
    conf = tmp_path / "c.conf"
    conf.write_text("schema_version = 1\nN = 10\nnd = 3\nq = 1\nformat = json\n")
    assert run_cli(["single", "--config", str(conf)]) == 0
    assert json.loads(capsys.readouterr().out)["meta"]["mode"] == "single"
    conf.write_text("schema_version = 1\nN = 10\nnd = 3\nq = 1\ntolerance = 1e-30\n")
    assert run_cli(["oracle-check", "--config", str(conf), "--tsteps", "3"]) == 3
    capsys.readouterr()
    conf.write_text("schema_version = 1\nN = 20\nr = 5\n")
    assert run_cli(["classical", "--config", str(conf)]) == 0
    from_file = capsys.readouterr().out
    assert run_cli(["classical", "--N", "20", "--r", "5"]) == 0
    assert capsys.readouterr().out == from_file
    assert run_cli(["classical", "--N", "20"]) == 0
    assert capsys.readouterr().out != from_file


def test_command_line_beats_config_file(tmp_path, capsys):
    # a single-valued flag overrides the file's value, a repeatable one
    # replaces the file's list
    conf = tmp_path / "c.conf"
    conf.write_text("schema_version = 1\nN = 10\nnd = 3\nq = 1, 2\nformat = json\n")
    assert run_cli(["single", "--config", str(conf), "--N", "12", "--q", "5",
                    "--format", "csv"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert {(r[1], r[3]) for r in rows} == {("12", "5.0")}


def test_config_format_does_not_outlive_its_run(tmp_path, capsys):
    # the parser is built once per process; a config file must not change it
    conf = tmp_path / "c.conf"
    conf.write_text("schema_version = 1\nformat = json\n")
    assert run_cli(["infq", "--N", "10", "--nd", "3", "--config", str(conf)]) == 0
    assert capsys.readouterr().out.startswith("{")
    assert run_cli(["infq", "--N", "10", "--nd", "3"]) == 0
    assert capsys.readouterr().out.startswith("observable,")


@pytest.mark.parametrize("argv", [
    ["figure", "--panel", "fig1", "--N", "5"],
    ["infq", "--N", "10", "--nd", "3", "--q", "1"],
    ["two", "--N", "10", "--nd", "2", "--nd", "5", "--q", "1", "--q", "1", "--q-log", "1:2:2"],
    ["single", "--N", "10", "--nd", "3", "--q", "1", "--tsteps", "5"],
    ["classical", "--N", "20", "--gamma", "2"],
])
def test_flag_the_mode_ignores_is_a_config_error(capsys, argv):
    assert run_cli(argv) == 1
    assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize("argv", [
    ["free", "--N", "12", "--tsteps", "5"],
    ["single", "--N", "10", "--nd", "3", "--q", "1", "--q-log", "0.1:10:3"],
    ["infq", "--N", "10", "--nd", "3", "--n0", "1"],
    ["two", "--N", "8", "--nd", "2", "--nd", "5", "--q", "1", "--q", "-0.5", "--tsteps", "3"],
    ["oracle-check", "--N", "10", "--nd", "3", "--q", "1", "--tsteps", "3"],
    ["classical", "--N", "12", "--f", "0.2"],
    ["figure", "--panel", "fig2b"],
])
def test_csv_and_json_hold_the_same_records(capsys, argv):
    assert run_cli(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert run_cli(argv + ["--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema_version"] == 1
    assert payload["meta"]["mode"] == argv[0]
    header = lines[0].split(",")
    assert [list(rec) for rec in payload["records"]] == [header] * (len(lines) - 1)
    # a JSON value prints as its CSV field: an int coordinate stays an int
    as_csv = [",".join("" if v is None else str(v) for v in rec.values())
              for rec in payload["records"]]
    assert as_csv == lines[1:]


def test_figure_panel_writes_file(tmp_path):
    prefix = tmp_path / "panel"
    assert run_cli(["figure", "--panel", "fig4a", "--out", str(prefix)]) == 0
    data = (tmp_path / "panel_fig4a.csv").read_text().splitlines()
    rows = [l.split(",") for l in data[1:]]
    vals = {(int(r[5]), int(r[6])): float(r[8]) for r in rows}
    assert abs(vals[(22, 22)] - 0.03) < 1e-14    # n0 = 22 start site
    assert vals[(22, 25)] == 0.0                 # defect site empty
    assert abs(vals[(15, 35)] - 0.03) < 1e-14    # inset: mirror for n0 = 15


def test_figure_fig1_rows_and_tstar_fit(tmp_path):
    # two MSD curves of 1025 times, their steady values, six t* and the line
    # through them, which a plain least-squares refit of the t* rows redraws
    prefix = tmp_path / "p"
    assert run_cli(["figure", "--panel", "fig1", "--out", str(prefix)]) == 0
    rows = _csv_rows(tmp_path / "p_fig1.csv")
    count = {name: sum(r[0] == name for r in rows) for name in {r[0] for r in rows}}
    assert count == {"msd": 2050, "msd_steady": 2, "tstar": 6, "tstar_fit_slope": 1,
                     "tstar_fit_intercept": 1, "tstar_fit_r2": 1}
    assert [(r[1], r[5]) for r in rows if r[0] == "msd_steady"] == [("150", "75"), ("200", "100")]
    x = np.array([float(r[1]) for r in rows if r[0] == "tstar"])
    y = np.array([float(r[8]) for r in rows if r[0] == "tstar"])
    fit = {r[0]: float(r[8]) for r in rows if r[0].startswith("tstar_fit_")}
    slope = np.sum((x - x.mean()) * (y - y.mean())) / np.sum((x - x.mean()) ** 2)
    intercept = y.mean() - slope * x.mean()
    r2 = 1.0 - np.sum((y - slope * x - intercept) ** 2) / np.sum((y - y.mean()) ** 2)
    assert abs(slope - fit["tstar_fit_slope"]) < 1e-9
    assert abs(intercept - fit["tstar_fit_intercept"]) < 1e-9
    assert abs(r2 - fit["tstar_fit_r2"]) < 1e-9 and r2 >= 0.999


def test_figure_fig3b_limit_row(tmp_path):
    # the leading-order limit MSD of N = 200, n0 = 2: (N^2 + 2) / 12
    prefix = tmp_path / "p"
    assert run_cli(["figure", "--panel", "fig3b", "--out", str(prefix)]) == 0
    (row,) = [r for r in _csv_rows(tmp_path / "p_fig3b.csv") if r[0] == "msd_steady_infq"]
    assert (row[4], float(row[8])) == ("4", 3333.5)


@pytest.mark.parametrize("argv, message", [
    (["single", "--N", "10", "--q", "1"], "exactly one --nd is required here"),
    (["single", "--N", "10", "--nd", "2", "--nd", "3", "--q", "1"], "exactly one --nd is required here"),
    (["infq", "--N", "10"], "exactly one --nd is required here"),
    (["infq", "--N", "10", "--nd", "2", "--nd", "3"], "exactly one --nd is required here"),
    (["oracle-check", "--N", "129", "--nd", "3", "--q", "1"], "oracle-check needs N <= 128"),
    (["oracle-check", "--N", "10", "--q", "1"], "--nd is required"),
    # a tmax whose phase 2 gamma t overflows printed NaN rows with exit 0
    (["free", "--N", "3", "--tmax", "1e308", "--tsteps", "3"],
     "tmax 1e+308 overflows the phase (2 gamma + max|q|) tmax"),
    (["two", "--N", "10", "--nd", "2", "--nd", "5", "--q", "1e8", "--q", "1",
      "--tmax", "1e301", "--tsteps", "3"], "tmax 1e+301 overflows the phase (2 gamma + max|q|) tmax"),
])
def test_run_parameters_a_run_cannot_use_exit_one(capsys, argv, message):
    assert run_cli(argv) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_config_file_unreadable_or_bad_line(tmp_path, capsys):
    bad = tmp_path / "bad.conf"
    bad.write_text("schema_version = 1\nN 12\n")
    assert run_cli(["free", "--config", str(bad)]) == 1
    assert capsys.readouterr().err == "config error: bad config line 'N 12'\n"
    assert run_cli(["free", "--config", str(tmp_path / "missing.conf")]) == 1
    assert capsys.readouterr().err.startswith(
        f"config error: cannot read config file {tmp_path / 'missing.conf'}: ")


def test_infq_mirror_collision_is_reported(tmp_path, capsys):
    # nd half a ring from n0: the mirror site 2 nd - n0 lands on n0
    out = tmp_path / "infq.csv"
    assert run_cli(["infq", "--N", "10", "--n0", "1", "--nd", "6", "--out", str(out)]) == 0
    assert capsys.readouterr().err == "mirror site coincides with n0 or nd (collision geometry)\n"
    prof = [float(r[8]) for r in _csv_rows(out) if r[0] == "steady_occupation_infq"]
    assert prof[1] == 0.2 and prof[6] == 0.0 and abs(sum(prof) - 1.0) < 1e-15


def test_figure_fig2a_inset_monotone(tmp_path):
    prefix = tmp_path / "fig2a"
    assert run_cli(["figure", "--panel", "fig2a", "--out", str(prefix)]) == 0
    rows = [l.split(",") for l in (tmp_path / "fig2a_fig2a.csv").read_text().splitlines()[1:]]
    inset = sorted((float(r[3]), float(r[8])) for r in rows if r[0] == "steady_at_defect")
    vals = [v for _, v in inset]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    diffs = [float(r[8]) for r in rows if r[9] == "abs_diff"]
    assert max(diffs) < 1e-10


def test_infq_moments_outside_closed_form_domain(tmp_path, capsys):
    # infq prints the moments of the profile it prints, for every geometry:
    # |nd - n0| > N/4 wraps the mirror site, inside N/4 the MSD gains the
    # d^2/N the leading closed form drops, nd = n0 localizes completely
    out = tmp_path / "infq.csv"
    dist = {n: min(n, 40 - n) for n in range(40)}
    for nd, mean, msd in ((15, 9.750000000000002, 129.125), (10, 10.0, 136.0), (0, 0.0, 0.0)):
        assert run_cli(["infq", "--N", "40", "--n0", "0", "--nd", str(nd),
                        "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        rows = [l.split(",") for l in out.read_text().splitlines()[1:]]
        prof = {int(r[6]): float(r[8]) for r in rows if r[0] == "steady_occupation_infq"}
        moments = {r[0]: float(r[8]) for r in rows if r[0].endswith("_steady_infq")}
        assert abs(moments["msd_steady_infq"] - msd) < 1e-12
        assert abs(moments["mean_displacement_steady_infq"] - mean) < 1e-12
        assert abs(moments["msd_steady_infq"]
                   - sum(dist[n] ** 2 * v for n, v in prof.items())) < 1e-12
        assert abs(moments["mean_displacement_steady_infq"]
                   - sum(dist[n] * v for n, v in prof.items())) < 1e-12


@pytest.mark.parametrize("argv, lines, code", [
    (["figure", "--panel", "fig1"], 1, 0),
    # a table small enough for the pipe's buffer: close before it is written
    (["oracle-check", "--N", "12", "--nd", "3", "--q", "1.0", "--tolerance", "0"], 0, 3),
    (["figure", "--panel", "fig1", "--format", "json"], 1, 0),
])
def test_closed_stdout_stops_quietly(argv, lines, code):
    # `defectchain ... | head -n 1`: no traceback, and the exit code the run
    # would have had with its reader still there
    cmd, env = _cli_command(argv)
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    for _ in range(lines):
        assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == code, err
    assert "Traceback" not in err and "BrokenPipeError" not in err, err


def _readme_blocks(section):
    """The fenced code blocks of one `## ` section of README.md, as (language, text)."""
    body = README.read_text().split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```(\w*)\n(.*?)```", body, flags=re.S)


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    # every `defectchain ...` line of the Command line section, with the
    # run.conf it shows, exits 0; the Library section's code runs as written
    monkeypatch.chdir(tmp_path)
    blocks = _readme_blocks("Command line")
    conf = [text for _, text in blocks if text.startswith("# run.conf")]
    assert len(conf) == 1
    (tmp_path / "run.conf").write_text(conf[0])
    commands = [line for lang, text in blocks if lang == "sh"
                for line in text.replace("\\\n", " ").splitlines() if line.startswith("defectchain ")]
    assert len(commands) >= 10
    for line in commands:
        assert main(shlex.split(line, comments=True)[1:]) == 0, line
    capsys.readouterr()
    (library,) = [text for lang, text in _readme_blocks("Library") if lang == "python"]
    exec(compile(library, "README.md", "exec"), {})
