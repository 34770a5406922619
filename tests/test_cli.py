"""End-to-end command-line behavior, including exit codes."""
import json
import os
from dataclasses import replace

import numpy as np
import pytest

from koopmetrics import cli, conjugacy, io, koopman
from koopmetrics.cli import main
from koopmetrics.io import load_model, read_trajectory_csv


def write_geometric_csv(path, ratio=0.5, n=40):
    t = np.arange(n) * 0.1
    x = ratio ** np.arange(n)
    io.write_trajectory_csv(str(path), ["x"], x[None, :], t=t)


def write_linear_csv(path, h=np.eye(3), decay=0.9, n=120):
    """x_{k+1} = A x_k (a damped rotation and a decay), observed as h x."""
    c, s = 0.98 * np.cos(0.3), 0.98 * np.sin(0.3)
    a = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, decay]])
    x = np.empty((3, n))
    x[:, 0] = (1.0, 0.5, -0.8)
    for k in range(n - 1):
        x[:, k + 1] = a @ x[:, k]
    io.write_trajectory_csv(str(path), ["x1", "x2", "x3"], h @ x, t=np.arange(n) * 0.1)


def identify_linear(tmp_path, name, *extra, aux=False, **system):
    """Model file that identify writes for ``write_linear_csv(**system)``.

    Without aux the fit is exact least squares (ridge 0).
    """
    csv, out = tmp_path / f"{name}.csv", tmp_path / f"{name}.json"
    write_linear_csv(csv, **system)
    flags = [] if aux else ["--no-aux", "--ridge", "0"]
    assert main(["identify", "--input", str(csv), "--output", str(out), *flags, *extra]) == 0
    return out


# g = H f: identify's models of f and g are conjugate.
CONJUGATING_H = np.array([[1.0, 0.5, 0.0], [-0.3, 1.2, 0.1], [0.2, 0.0, 0.8]])


class TestIdentify:
    def test_geometric_sequence_recovers_ratio(self, tmp_path, capsys):
        csv = tmp_path / "geo.csv"
        write_geometric_csv(csv)
        out = tmp_path / "model.json"
        code = main(
            ["identify", "--input", str(csv), "--output", str(out), "--no-aux"]
        )
        assert code == 0
        record = load_model(str(out))
        assert record.model.n_psi == 2  # constant row + the observable
        k = record.model.K
        assert abs(k[1, 1] - 0.5) < 1e-8 and abs(k[1, 0]) < 1e-8
        assert abs(k[0, 0] - 1.0) < 1e-10
        printed = capsys.readouterr().out
        assert "n_psi: 2" in printed

    def test_missing_input_exits_2_with_path(self, tmp_path, capsys):
        code = main(
            [
                "identify",
                "--input", str(tmp_path / "nope.csv"),
                "--output", str(tmp_path / "m.json"),
            ]
        )
        assert code == 2
        assert "nope.csv" in capsys.readouterr().err

    def test_lifted_dimension_formula(self, tmp_path):
        # hopping trace -> n_psi = 1 + 4 primary + train_steps aux rows
        prefix = tmp_path / "hop"
        assert main(
            ["hopping", "--actuator", "nlm", "--steps", "700",
             "--output-prefix", str(prefix)]
        ) == 0
        out = tmp_path / "hop_model.json"
        code = main(
            ["identify", "--input", f"{prefix}_primary.csv",
             "--output", str(out), "--train-steps", "120"]
        )
        assert code == 0
        record = load_model(str(out))
        assert record.model.n_psi == 1 + 4 + 120
        # Real data: K is real and stored as float64, its imaginary zeros all +0.0.
        assert json.loads(out.read_text())["K"]["dtype"] == "<f8"
        assert not np.any(np.signbit(record.model.K.imag))


    def test_saved_scales_are_the_trajectory_scales(self, tmp_path, monkeypatch):
        # The saved model's re-lifted trajectory is identify's own Phi = W Psi,
        # bit for bit, with and without auxiliary rows.
        fitted = []

        def recording(name):
            original = getattr(cli, name)

            def record(*args):
                fitted.append(original(*args))
                return fitted[-1]

            monkeypatch.setattr(cli, name, record)

        recording("build_observables")
        recording("decompose")
        csv = tmp_path / "lin.csv"
        write_linear_csv(csv, n=60)
        for flags, n_psi in (([], 1 + 3 + 40), (["--no-aux"], 1 + 3)):
            fitted.clear()
            out = tmp_path / "model.json"
            assert main(["identify", "--input", str(csv), "--output", str(out),
                         "--train-steps", "40", *flags]) == 0
            obs, model = fitted
            want = koopman.eigenfunction_trajectories(model, obs)
            got = load_model(str(out)).implied_trajectory()
            assert got.n_psi == n_psi and got.n_steps == 40
            assert got.phi.tobytes() == want.phi.tobytes()
            assert got.scales.tobytes() == want.scales.tobytes()
            assert got.degenerate_rows == want.degenerate_rows


class TestCompare:
    def test_report_diagnostics(self, tmp_path):
        a = identify_linear(tmp_path, "f")
        b = identify_linear(tmp_path, "g", decay=0.7)
        report = tmp_path / "r.json"
        assert main(["compare", "--model-a", str(a), "--model-b", str(b),
                     "--output", str(report)]) == 0
        doc = json.loads(report.read_text())
        diag = doc["diagnostics"]
        assert set(diag) == {"unitarityDefects", "assignmentCost", "lsqRank", "omegaReplaced",
                             "procrustesRank", "procrustesSigmaMin"}
        assert set(diag["unitarityDefects"]) == {"C_r1", "C_r2"}
        assert all(0.0 <= d < 1e-12 for d in diag["unitarityDefects"].values())
        lf, lg = load_model(str(a)).model.lambdas, load_model(str(b)).model.lambdas
        pi = np.array(doc["permutation"])
        assert diag["assignmentCost"] == pytest.approx(np.sum(np.abs(lf - lg[pi]) ** 2), rel=1e-12)
        assert diag["lsqRank"] == 4
        assert diag["omegaReplaced"] == {"T_C_r1": 0, "T_C_r2": 0}
        assert diag["procrustesRank"] == 4
        assert diag["procrustesSigmaMin"] > 0.0

    def test_model_against_itself(self, tmp_path):
        model_path = identify_linear(tmp_path, "f")
        report_path = tmp_path / "report.json"
        code = main(
            ["compare", "--model-a", str(model_path), "--model-b", str(model_path),
             "--output", str(report_path)]
        )
        assert code == 0
        doc = json.load(open(report_path))
        assert doc["deviations"]["dMax"] < 1e-9

    def test_conjugate_pair_models(self, tmp_path):
        a = identify_linear(tmp_path, "f")
        b = identify_linear(tmp_path, "g", h=CONJUGATING_H)
        report_path = tmp_path / "report.json"
        code = main(
            ["compare", "--model-a", str(a), "--model-b", str(b),
             "--output", str(report_path), "--emit-matrices"]
        )
        assert code == 0
        doc = json.load(open(report_path))
        assert doc["deviations"]["dMax"] < 1e-9
        assert set(doc["matrices"]) == {"C_r1", "C_r2", "T_C_r1", "T_C_r2", "T_LSQ"}
        assert np.asarray(doc["matrices"]["C_r1"]).shape == (16, 2)
        assert doc["systems"]["a"]["sha256"] != doc["systems"]["b"]["sha256"]

    def test_reference_scaling_consistent(self, tmp_path):
        a = identify_linear(tmp_path, "f")
        b = identify_linear(tmp_path, "g", decay=0.7)
        raw_path, ref_path = tmp_path / "raw.json", tmp_path / "ref.json"
        assert main(["compare", "--model-a", str(a), "--model-b", str(b),
                     "--output", str(raw_path)]) == 0
        assert main(["compare", "--model-a", str(a), "--model-b", str(b),
                     "--reference", "a", "--output", str(ref_path)]) == 0
        raw = json.load(open(raw_path))
        ref = json.load(open(ref_path))
        phi_norm, lam_norm = ref["refNorms"]
        assert raw["refNorms"] == [1.0, 1.0]
        assert ref["residuals"]["r1_cr1"] == pytest.approx(
            raw["residuals"]["r1_cr1"] / phi_norm, rel=1e-9
        )
        assert ref["residuals"]["r2_cr2"] == pytest.approx(
            raw["residuals"]["r2_cr2"] / lam_norm, rel=1e-9
        )

    def test_dimension_mismatch_is_usage_error(self, tmp_path, capsys):
        csv, small = tmp_path / "geo.csv", tmp_path / "small.json"
        write_geometric_csv(csv)
        assert main(["identify", "--input", str(csv), "--output", str(small), "--no-aux"]) == 0
        big = identify_linear(tmp_path, "f")
        code = main(["compare", "--model-a", str(small), "--model-b", str(big),
                     "--output", str(tmp_path / "r.json")])
        assert code == 2
        assert "dimensions differ" in capsys.readouterr().err


    def test_model_missing_key_is_usage_error(self, tmp_path, capsys):
        good = identify_linear(tmp_path, "good")
        doc = json.loads(good.read_text())
        del doc["K"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = main(["compare", "--model-a", str(good), "--model-b", str(bad),
                     "--output", str(tmp_path / "r.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert "'K'" in err and "Traceback" not in err

    @pytest.mark.parametrize("aux", [True, False])
    def test_report_matches_library_compare(self, tmp_path, aux):
        # The CLI lifts each model's stored series as the library does. Without
        # aux the two models differ in T, and the first min(T_a, T_b) snapshots
        # are compared.
        a = identify_linear(tmp_path, "a", aux=aux, n=50)
        b = identify_linear(tmp_path, "b", "--train-steps", "50" if aux else "45",
                            aux=aux, decay=0.7, n=50)
        report_path = tmp_path / "r.json"
        assert main(["compare", "--model-a", str(a), "--model-b", str(b),
                     "--reference", "a", "--output", str(report_path)]) == 0
        doc = json.loads(report_path.read_text())

        rec_a, rec_b = load_model(str(a)), load_model(str(b))
        horizon = min(rec_a.series.n_steps, rec_b.series.n_steps)
        assert horizon == (50 if aux else 45)
        phi_a, phi_b = (
            replace(phi, phi=phi.phi[:, :horizon])
            for phi in (
                koopman.eigenfunction_trajectories(
                    rec.model, koopman.build_observables(rec.series, rec.aux)
                )
                for rec in (rec_a, rec_b)
            )
        )
        report = conjugacy.compare(rec_a.model, phi_a, rec_b.model, phi_b, "f")
        c, d = report.corners, report.deviations
        assert doc["deviations"] == {"dMin": d.d_min, "dAvg": d.d_avg, "dMax": d.d_max}
        assert doc["residuals"] == {"r1_cr1": c.r1_at_cr1, "r2_cr1": c.r2_at_cr1,
                                    "r1_cr2": c.r1_at_cr2, "r2_cr2": c.r2_at_cr2}
        assert doc["psiResiduals"] == {
            name: {"operator": op, "trajectory": traj}
            for name, (op, traj) in report.psi_residuals.items()
        }

    def test_singular_lsq_operator_residual_is_null(self, tmp_path):
        # Hopping models have n_psi = 1 + 4 + T > T snapshots, so Psi_f is
        # rank-deficient and T_LSQ singular; the T_C transforms stay invertible.
        prefix = tmp_path / "hop"
        assert main(["hopping", "--actuator", "nlm", "--steps", "700",
                     "--output-prefix", str(prefix)]) == 0
        model = tmp_path / "m.json"
        assert main(["identify", "--input", f"{prefix}_primary.csv",
                     "--output", str(model), "--train-steps", "40"]) == 0
        report = tmp_path / "r.json"
        assert main(["compare", "--model-a", str(model), "--model-b", str(model),
                     "--output", str(report)]) == 0
        text = report.read_text()
        psi = json.loads(text)["psiResiduals"]
        assert psi["T_LSQ"]["operator"] is None
        assert '"operator": null' in text
        # Psi_f has rank T = 40: T_LSQ fits the trajectory exactly.
        assert psi["T_LSQ"]["trajectory"] == 0.0
        for name in ("T_C_r1", "T_C_r2"):
            assert np.isfinite(psi[name]["operator"])
        assert json.loads(text)["diagnostics"]["lsqRank"] < load_model(str(model)).model.n_psi

    def test_full_rank_lsq_operator_residual_is_a_number(self, tmp_path):
        a = identify_linear(tmp_path, "f")
        b = identify_linear(tmp_path, "g", h=CONJUGATING_H)
        report = tmp_path / "r.json"
        assert main(["compare", "--model-a", str(a), "--model-b", str(b),
                     "--output", str(report)]) == 0
        op = json.loads(report.read_text())["psiResiduals"]["T_LSQ"]["operator"]
        assert op is not None and op < 1e-6


class TestBenchmarkSweep:
    def test_single_conjugate_point(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(
            ["benchmark-sweep", "--alpha-min", "1", "--alpha-max", "1",
             "--beta-min", "1", "--beta-max", "1", "--step", "0.05",
             "--output", str(out)]
        )
        assert code == 0
        lines = open(out).read().strip().splitlines()
        assert len(lines) == 2
        header = lines[0].split(",")
        assert header == ["alpha", "beta", "d_min", "d_avg", "d_max", "r1_cr1",
                          "r2_cr1", "r1_cr2", "r2_cr2", "c_gap", "error"]
        row = lines[1].split(",")
        assert float(row[2]) < 1e-9 and float(row[4]) < 1e-9

    def test_row_count_matches_grid(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(
            ["benchmark-sweep", "--alpha-min", "0.9", "--alpha-max", "1.1",
             "--beta-min", "0.9", "--beta-max", "1.0", "--step", "0.1",
             "--steps", "200", "--output", str(out)]
        ) == 0
        lines = open(out).read().strip().splitlines()
        assert len(lines) == 1 + 3 * 2

    def test_parallel_output_identical(self, tmp_path):
        args = ["benchmark-sweep", "--alpha-min", "0.9", "--alpha-max", "1.1",
                "--beta-min", "1.0", "--beta-max", "1.1", "--step", "0.1",
                "--steps", "200"]
        one, eight = tmp_path / "p1.csv", tmp_path / "p8.csv"
        assert main(args + ["--parallel", "1", "--output", str(one)]) == 0
        assert main(args + ["--parallel", "8", "--output", str(eight)]) == 0
        assert open(one, "rb").read() == open(eight, "rb").read()


class TestHopping:
    def test_trace_row_count_and_files(self, tmp_path):
        prefix = tmp_path / "hop"
        code = main(
            ["hopping", "--actuator", "nlm", "--steps", "800",
             "--output-prefix", str(prefix)]
        )
        assert code == 0
        trace = open(f"{prefix}_trace.csv").read().strip().splitlines()
        assert len(trace) == 801  # header + one row per step
        assert trace[0] == "t,y,ydot,yddot,u,F_L,sensor,contact"
        mc = open(f"{prefix}_mc.csv").read().strip().splitlines()
        assert mc[0] == "t,w,i_world,i_control,mc"
        assert len(mc) == 800
        series = read_trajectory_csv(f"{prefix}_primary.csv")
        assert series.names == ("y", "ydot", "u", "mc")

    def test_muscle_ordering_via_cli_outputs(self, tmp_path):
        means = {}
        for actuator in ("nlm", "lm"):
            prefix = tmp_path / actuator
            assert main(
                ["hopping", "--actuator", actuator, "--steps", "3501",
                 "--output-prefix", str(prefix)]
            ) == 0
            series = read_trajectory_csv(f"{prefix}_primary.csv")
            means[actuator] = series.values[series.names.index("mc")].mean()
        assert means["nlm"] > means["lm"]

    def test_dc_without_reference_is_usage_error(self, tmp_path, capsys):
        code = main(
            ["hopping", "--actuator", "dc", "--steps", "400",
             "--output-prefix", str(tmp_path / "dc")]
        )
        assert code == 2
        assert "reference" in capsys.readouterr().err

    def test_dc_with_auto_reference(self, tmp_path):
        prefix = tmp_path / "dc"
        code = main(
            ["hopping", "--actuator", "dc", "--steps", "900",
             "--auto-reference", "--output-prefix", str(prefix)]
        )
        assert code == 0
        assert os.path.exists(f"{prefix}_trace.csv")

    def test_bad_override_is_usage_error(self, tmp_path, capsys):
        code = main(
            ["hopping", "--actuator", "nlm", "--steps", "400",
             "--output-prefix", str(tmp_path / "x"), "--set", "f_max=soft"]
        )
        assert code == 2
        assert "f_max" in capsys.readouterr().err


class TestExitCodes:
    def test_singular_identification_is_computational_failure(self, tmp_path, capsys):
        # proportional observables make X X* singular; ridge 0 must refuse
        t = np.arange(30) * 0.1
        x = 0.7 ** np.arange(30)
        io.write_trajectory_csv(
            str(tmp_path / "dup.csv"), ["x", "x2"], np.vstack([x, 2.0 * x]), t=t
        )
        code = main(
            ["identify", "--input", str(tmp_path / "dup.csv"),
             "--output", str(tmp_path / "m.json"), "--no-aux", "--ridge", "0"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "computation failed" in err and "ridge" in err

    def test_unstable_simulation_is_computational_failure(self, tmp_path, capsys, monkeypatch):
        from koopmetrics import cli, hopper

        def explode(cfg):
            raise hopper.IntegrationError("state blew up at step 7")

        monkeypatch.setattr(cli.hopper, "simulate_hopping", explode)
        code = main(
            ["hopping", "--actuator", "nlm", "--steps", "400",
             "--output-prefix", str(tmp_path / "boom")]
        )
        assert code == 1
        assert "step 7" in capsys.readouterr().err

    def test_non_finite_csv_is_usage_error(self, tmp_path, capsys):
        csv = tmp_path / "geo.csv"
        write_geometric_csv(csv)
        lines = csv.read_text().splitlines()
        lines[5] = lines[5].split(",")[0] + ",nan"
        csv.write_text("\n".join(lines) + "\n")
        code = main(["identify", "--input", str(csv), "--output", str(tmp_path / "m.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "row 6, column 'x'" in err

    def test_non_uniform_time_column_is_usage_error(self, tmp_path, capsys):
        csv = tmp_path / "jitter.csv"
        io.write_trajectory_csv(str(csv), ["x"], np.array([[1.0, 0.5, 0.25, 0.125]]),
                                t=np.array([0, 0.1, 0.5, 0.6]))
        code = main(["identify", "--input", str(csv), "--output", str(tmp_path / "m.json"),
                     "--no-aux"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "uniformly" in err
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize(
        "flag", [["--steps", "2"], ["--dt", "0"], ["--set", "bogus=1"], ["--bins", "1"]]
    )
    def test_bad_hopper_settings_are_usage_errors(self, tmp_path, capsys, flag):
        code = main(["hopping", "--actuator", "nlm", "--output-prefix", str(tmp_path / "h")]
                    + flag)
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["identify", "--ridge", "-1"],
            ["identify", "--theta", "0,1,1"],
            ["identify", "--fit-theta", "--train-steps", "20", "--theta-grid", "0,1"],
            ["identify", "--dt", "-1"],
            ["benchmark-sweep", "--dt", "0"],
            ["benchmark-sweep", "--steps", "1"],
        ],
        ids=["ridge", "theta", "theta-grid", "identify-dt", "sweep-dt", "sweep-steps"],
    )
    def test_out_of_range_flags_are_usage_errors(self, tmp_path, capsys, argv):
        csv, out = tmp_path / "lin.csv", tmp_path / "out"
        write_linear_csv(csv, n=40)
        io_flags = ["--output", str(out)]
        if argv[0] == "identify":
            io_flags += ["--input", str(csv)]
        code = main(argv + io_flags)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert argv[-2].lstrip("-") in err
        assert not out.exists()

    def test_empty_sweep_grid_is_usage_error(self, tmp_path, capsys):
        code = main(
            ["benchmark-sweep", "--alpha-min", "2.0", "--alpha-max", "1.0",
             "--step", "0.1", "--output", str(tmp_path / "s.csv")]
        )
        assert code == 2
        assert "grid" in capsys.readouterr().err
