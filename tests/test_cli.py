import json

import numpy as np
import pytest

from defectchain.cli import main


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


def _dense_steady(N, n0, nd, q):
    """Long-time average of P_n from a dense eigh of the ring, one block per
    parity under the reflection n -> 2 nd - n: the defect's levels sit ~q/N
    from the free ones of the other parity, closer than eigh can resolve
    the eigenvectors of one matrix, while every level of a block is simple."""
    n, m = np.arange(N), np.arange(N // 2 + 1)
    H = np.zeros((N, N))
    H[n, (n + 1) % N] = H[(n + 1) % N, n] = 1.0
    H[nd, nd] += q
    out = np.zeros(N)
    for parity in (1.0, -1.0):
        B = np.zeros((N, m.size))
        B[(nd + m) % N, m] += 1.0
        B[(nd - m) % N, m] += parity
        norm = np.linalg.norm(B, axis=0)
        B = B[:, norm > 0] / norm[norm > 0]
        V = B @ np.linalg.eigh(B.T @ H @ B)[1]
        out += ((V * V[n0]) ** 2).sum(axis=1)
    return out


@pytest.mark.parametrize("N, n0, nd, q", [(50, 2, 4, 1e-7), (5, 0, 2, -0.8), (51, 3, 10, -1e-12),
                                          (400, 5, 100, 1e-11)])
def test_single_small_q_and_odd_band_edge(tmp_path, N, n0, nd, q):
    # small |q| drifted off normalization (C_k = gamma (c_k - x_j) cancelled next
    # to a level; at N=50, q=1e-7 the oracle columns are skipped, DegeneracyAmbiguity),
    # and q / 2 gamma = -2/N on an odd ring raised NonSimplePole
    out = tmp_path / "single.csv"
    assert run_cli(["single", "--N", str(N), "--n0", str(n0), "--nd", str(nd),
                    f"--q={q!r}", "--out", str(out)]) == 0
    rows = [l.split(",") for l in out.read_text().splitlines()[1:]]
    prof = np.array([float(r[8]) for r in rows if r[0] == "steady_occupation" and r[9] == "analytic"])
    assert prof.size == N
    assert np.max(np.abs(prof - _dense_steady(N, n0, nd, q))) < 1e-12


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


def test_oracle_check_residue_cuts_cannot_disagree(tmp_path):
    # the oracle and the root finder cut small residues separately, and
    # disagreed here ("retained 21 poles but the spectrum oracle has 22", exit
    # 2); validation now compares every level with the dense spectrum
    assert run_cli(["oracle-check", "--N", "42", "--n0", "17", "--nd", "25", "--q=-233.07",
                    "--out", str(tmp_path / "o.csv")]) == 0


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


def test_config_file(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("schema_version = 1\nN = 12\nnd = 4\nq = 0.5, 2.0\nn0 = 1\n")
    out = tmp_path / "conf.csv"
    assert run_cli(["single", "--config", str(conf), "--out", str(out)]) == 0
    assert "steady_at_defect" in out.read_text()
    bad = tmp_path / "bad.conf"
    bad.write_text("N = 12\n")                  # missing schema_version
    assert run_cli(["single", "--config", str(bad)]) == 1


def test_figure_panel_writes_file(tmp_path):
    prefix = tmp_path / "panel"
    assert run_cli(["figure", "--panel", "fig4a", "--out", str(prefix)]) == 0
    data = (tmp_path / "panel_fig4a.csv").read_text().splitlines()
    rows = [l.split(",") for l in data[1:]]
    vals = {(int(r[5]), int(r[6])): float(r[8]) for r in rows}
    assert abs(vals[(22, 22)] - 0.03) < 1e-14    # n0 = 22 start site
    assert vals[(22, 25)] == 0.0                 # defect site empty
    assert abs(vals[(15, 35)] - 0.03) < 1e-14    # inset: mirror for n0 = 15


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
