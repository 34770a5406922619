"""End-to-end command-line behavior, including exit codes."""
import csv
import errno
import json
import os
import warnings
import zipfile

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
        m = record.model
        k = (m.R * m.lambdas) @ m.W
        assert abs(k[1, 1] - 0.5) < 1e-8 and abs(k[1, 0]) < 1e-8
        assert abs(k[0, 0] - 1.0) < 1e-10
        printed = capsys.readouterr().out
        assert "n_psi: 2" in printed

    def test_output_is_exactly_the_path_given(self, tmp_path):
        csv, out = tmp_path / "geo.csv", tmp_path / "out"
        write_geometric_csv(csv)
        out.mkdir()
        assert main(["identify", "--input", str(csv), "--output", str(out / "m.json"),
                     "--no-aux"]) == 0
        assert os.listdir(out) == ["m.json"]
        assert zipfile.is_zipfile(out / "m.json")

    @pytest.mark.parametrize("spelling", ["same", "through-symlink"])
    def test_output_naming_the_input_is_usage_error(self, tmp_path, capsys, spelling):
        csv = tmp_path / "geo.csv"
        write_geometric_csv(csv)
        before = csv.read_bytes()
        (tmp_path / "link").symlink_to(tmp_path, target_is_directory=True)
        out = csv if spelling == "same" else tmp_path / "link" / "geo.csv"
        code = main(["identify", "--input", str(csv), "--output", str(out), "--no-aux"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: --output ") and err.count("\n") == 1
        assert csv.read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == ["geo.csv", "link"]

    def test_missing_input_exits_2_with_path(self, tmp_path, capsys):
        code = main(
            [
                "identify",
                "--input", str(tmp_path / "nope.csv"),
                "--output", str(tmp_path / "m.json"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: [Errno 2] No such file or directory: '{tmp_path / 'nope.csv'}'\n"

    @pytest.mark.parametrize("pair", [("--no-aux", "--theta"), ("--no-aux", "--fit-theta"),
                                      ("--theta", "--fit-theta")],
                             ids=["no-aux-theta", "no-aux-fit-theta", "theta-fit-theta"])
    def test_conflicting_theta_flags_are_usage_errors(self, tmp_path, capsys, pair):
        csv, out = tmp_path / "lin.csv", tmp_path / "m.npz"
        write_linear_csv(csv, n=40)
        values = {"--no-aux": [], "--theta": ["1,2,3"], "--fit-theta": []}
        flags = [arg for flag in pair for arg in [flag, *values[flag]]]
        code = main(["identify", "--input", str(csv), "--output", str(out),
                     "--train-steps", "30", *flags])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert all(flag in err for flag in pair)
        assert not out.exists()

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
        # Real data: W_b is W_re, stored as float64 and loaded as float64.
        assert record.model.basis.is_real and record.model.W_b.dtype == np.float64
        with np.load(out) as archive:
            assert archive.files == ["header", "W", "Lambda", "primary"]
            assert archive["W"].dtype.str == "<f8"


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
        report_path, matrices_path = tmp_path / "report.json", tmp_path / "m.npz"
        code = main(
            ["compare", "--model-a", str(a), "--model-b", str(b),
             "--output", str(report_path), "--emit-matrices", str(matrices_path)]
        )
        assert code == 0
        doc = json.load(open(report_path))
        assert doc["deviations"]["dMax"] < 1e-9
        assert doc["matrices"]["path"] == str(matrices_path)
        assert doc["systems"]["a"]["sha256"] != doc["systems"]["b"]["sha256"]
        # Psi = (1, x) and g = H f, so every transform is 1 (+) H.
        conjugacy_map = np.block([[np.eye(1), np.zeros((1, 3))],
                                  [np.zeros((3, 1)), CONJUGATING_H]])
        with np.load(matrices_path, allow_pickle=False) as mats:
            assert mats.files == ["C_r1", "C_r2", "T_C_r1", "T_C_r2", "T_LSQ"]
            assert all(mats[name].shape == (4, 4) for name in mats.files)
            for name in ("T_C_r1", "T_C_r2", "T_LSQ"):
                np.testing.assert_allclose(mats[name], conjugacy_map, atol=1e-8)

    @pytest.mark.parametrize("clash", ["output-is-model-a", "matrices-is-model-b",
                                       "matrices-is-output"])
    def test_output_naming_an_input_or_output_is_usage_error(self, tmp_path, capsys, clash):
        a = identify_linear(tmp_path, "f")
        b = identify_linear(tmp_path, "g", h=CONJUGATING_H)
        report = tmp_path / "r.json"
        output, matrices = {
            "output-is-model-a": (a, tmp_path / "m.npz"),
            "matrices-is-model-b": (report, b),
            "matrices-is-output": (report, report),
        }[clash]
        listing, models = sorted(os.listdir(tmp_path)), (a.read_bytes(), b.read_bytes())
        capsys.readouterr()
        code = main(["compare", "--model-a", str(a), "--model-b", str(b),
                     "--output", str(output), "--emit-matrices", str(matrices)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "names the same file as" in err
        assert (a.read_bytes(), b.read_bytes()) == models
        assert sorted(os.listdir(tmp_path)) == listing

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

    def test_auxiliary_model_longer_than_the_other_is_usage_error(self, tmp_path, capsys):
        # n_psi = 7 either way: 1 + 1 primary + 5 auxiliary rows, or 1 + 6
        # primary rows over 3 snapshots. The first cannot be cut to 3.
        rng = np.random.default_rng(8)
        paths = []
        for n_primary, n_steps, aux in ((1, 5, koopman.AuxiliaryConfig((1.0,))),
                                        (6, 3, None)):
            series = koopman.PrimarySeries(tuple(f"p{i}" for i in range(n_primary)),
                                           rng.standard_normal((n_primary, n_steps)), 0.1)
            model = koopman.decompose(rng.standard_normal((7, 7)), 0.1)
            paths.append(str(tmp_path / f"{n_primary}.npz"))
            io.save_model(io.ModelRecord(model, series, aux, 0.0), paths[-1])
        code = main(["compare", "--model-a", paths[0], "--model-b", paths[1],
                     "--output", str(tmp_path / "r.json")])
        assert code == 2
        assert "auxiliary rows" in capsys.readouterr().err

    def test_dimension_mismatch_is_usage_error(self, tmp_path, capsys):
        csv, small = tmp_path / "geo.csv", tmp_path / "small.json"
        write_geometric_csv(csv)
        assert main(["identify", "--input", str(csv), "--output", str(small), "--no-aux"]) == 0
        big = identify_linear(tmp_path, "f")
        code = main(["compare", "--model-a", str(small), "--model-b", str(big),
                     "--output", str(tmp_path / "r.json")])
        assert code == 2
        assert "dimensions differ" in capsys.readouterr().err

    def test_missing_model_is_usage_error(self, tmp_path, capsys):
        model, missing = identify_linear(tmp_path, "lin"), tmp_path / "missing.npz"
        capsys.readouterr()
        code = main(["compare", "--model-a", str(missing), "--model-b", str(model),
                     "--output", str(tmp_path / "r.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: [Errno 2] No such file or directory: '{missing}'\n"
        assert not (tmp_path / "r.json").exists()

    def test_missing_required_flag_is_one_line_usage_error(self, tmp_path, capsys):
        model = identify_linear(tmp_path, "lin")
        capsys.readouterr()
        code = main(["compare", "--model-a", str(model), "--output", str(tmp_path / "r.json")])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: the following arguments are required: --model-b\n"
        assert not (tmp_path / "r.json").exists()


    def test_model_missing_key_is_usage_error(self, tmp_path, capsys):
        good = identify_linear(tmp_path, "good")
        bad = tmp_path / "bad.npz"
        with zipfile.ZipFile(good) as src, zipfile.ZipFile(bad, "w") as dst:
            for name in src.namelist():
                if name != "W.npy":
                    dst.writestr(name, src.read(name))
        code = main(["compare", "--model-a", str(good), "--model-b", str(bad),
                     "--output", str(tmp_path / "r.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert "'W.npy'" in err and "Traceback" not in err

    @pytest.mark.parametrize("aux", [True, False])
    def test_report_matches_library_compare(self, tmp_path, aux):
        # The CLI lifts each model's stored series as the library does. Without
        # aux the two models differ in T, and the first min(T_a, T_b) snapshots
        # are lifted and compared, so every Phi row peaks at modulus 1 over
        # them. Model a's growing mode peaks after that horizon.
        a = identify_linear(tmp_path, "a", aux=aux, decay=1.02, n=50)
        b = identify_linear(tmp_path, "b", "--train-steps", "50" if aux else "45",
                            aux=aux, decay=0.7, n=50)
        report_path, matrices_path = tmp_path / "r.json", tmp_path / "m.npz"
        assert main(["compare", "--model-a", str(a), "--model-b", str(b), "--reference", "a",
                     "--output", str(report_path), "--emit-matrices", str(matrices_path)]) == 0
        doc = json.loads(report_path.read_text())

        rec_a, rec_b = load_model(str(a)), load_model(str(b))
        horizon = min(rec_a.series.n_steps, rec_b.series.n_steps)
        assert horizon == (50 if aux else 45)
        phi_a, phi_b = (
            koopman.eigenfunction_trajectories(
                rec.model, koopman.build_observables(rec.series.window(0, horizon), rec.aux)
            )
            for rec in (rec_a, rec_b)
        )
        for phi in (phi_a, phi_b):
            np.testing.assert_allclose(np.abs(phi.phi).max(axis=1), 1.0, rtol=1e-12)
        prepared_a = conjugacy.prepare(rec_a.model, phi_a)
        report = conjugacy.compare_prepared(prepared_a, conjugacy.prepare(rec_b.model, phi_b), "f")
        c, d = report.corners, report.deviations
        assert doc["deviations"] == {"dMin": d.d_min, "dAvg": d.d_avg, "dMax": d.d_max}
        assert doc["residuals"] == {"r1_cr1": c.r1_at_cr1, "r2_cr1": c.r2_at_cr1,
                                    "r1_cr2": c.r1_at_cr2, "r2_cr2": c.r2_at_cr2}
        assert doc["psiResiduals"] == {
            name: {"operator": op, "trajectory": traj}
            for name, (op, traj) in report.psi_residuals.items()
        }

        # The matrices file holds the library's transforms bit for bit, each
        # in the dtype it is held in, and the report records its hash: each
        # T_C from compare's Omega^-1, T_C_r2 from C_r2 as (permutation,
        # gamma), and T_LSQ as lsq_transform gives it.
        want = {"C_r1": c.c_r1, "C_r2": c.c_r2}
        for name, c_in in (("C_r1", c.c_r1), ("C_r2", (c.permutation, c.gamma))):
            want[f"T_{name}"] = conjugacy.recover_t(c_in, rec_a.model, rec_b.model,
                                                    report.omega_inv[f"T_{name}"])
        want["T_LSQ"] = conjugacy.lsq_transform(phi_a.psi, phi_b.psi)
        assert doc["matrices"] == {"path": str(matrices_path),
                                   "sha256": io.file_sha256(str(matrices_path))}
        with np.load(matrices_path, allow_pickle=False) as mats:
            assert mats.files == list(want)
            for name, arr in want.items():
                assert mats[name].dtype.str == ("<c16" if np.iscomplexobj(arr) else "<f8")
                assert mats[name].shape == arr.shape
                assert mats[name].tobytes() == np.ascontiguousarray(arr).tobytes()
        assert want["T_LSQ"].dtype == np.float64 and want["C_r1"].dtype == np.complex128

    @pytest.mark.parametrize("emit", [False, True])
    def test_one_pinv_and_one_procrustes_svd(self, tmp_path, monkeypatch, emit):
        # --emit-matrices builds every T from what the comparison holds:
        # no second pinv(Psi_a), no second SVD.
        a = identify_linear(tmp_path, "a", aux=True, n=50)
        b = identify_linear(tmp_path, "b", aux=True, decay=0.7, n=50)
        calls = {"pinv": [], "svd": []}

        def counted(name):
            original = getattr(conjugacy, name)

            def wrapper(m, *args, **kwargs):
                calls[name].append(np.shape(m))
                return original(m, *args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(conjugacy, name, counted(name))
        argv = ["compare", "--model-a", str(a), "--model-b", str(b),
                "--output", str(tmp_path / "r.json")]
        assert main(argv + (["--emit-matrices", str(tmp_path / "m.npz")] if emit else [])) == 0
        n_psi, n_steps = 1 + 3 + 50, 50
        assert calls == {"pinv": [(n_psi, n_steps)], "svd": [(n_psi, n_psi)]}

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

    def test_overflowing_point_is_a_quiet_error_row(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(
                ["benchmark-sweep", "--alpha-min", "-2", "--alpha-max", "-2",
                 "--beta-min", "1", "--beta-max", "1", "--dt", "10", "--steps", "100000",
                 "--output", str(out)]
            )
        assert code == 0 and not caught
        assert capsys.readouterr().err == ""
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 1
        assert rows[0]["error"] == "ValueError: a mode overflows float64: max Re(lambda) t_max = 3999.96"

    def test_row_count_matches_grid(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(
            ["benchmark-sweep", "--alpha-min", "0.9", "--alpha-max", "1.1",
             "--beta-min", "0.9", "--beta-max", "1.0", "--step", "0.1",
             "--steps", "200", "--output", str(out)]
        ) == 0
        lines = open(out).read().strip().splitlines()
        assert len(lines) == 1 + 3 * 2


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

    def test_missing_reference_trace_is_usage_error(self, tmp_path, capsys):
        missing = tmp_path / "ref.csv"
        code = main(
            ["hopping", "--actuator", "dc", "--steps", "400", "--reference-trace", str(missing),
             "--output-prefix", str(tmp_path / "dc")]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1 and str(missing) in err
        assert os.listdir(tmp_path) == []

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
        # cli.main maps it like any compute failure: one line on stderr.
        assert capsys.readouterr().err == "computation failed: state blew up at step 7\n"

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
        "flag",
        [["--steps", "2"], ["--dt", "0"], ["--set", "bogus=1"], ["--bins", "1"],
         ["--set", "tau_act=0"], ["--set", "dl_width=0"], ["--set", "f_max=nan"],
         ["--dt", "nan"], ["--actuator", "dc", "--auto-reference", "--set", "resistance=0"]],
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
            ["identify", "--train-steps", "0"],
            ["benchmark-sweep", "--dt", "0"],
            ["benchmark-sweep", "--steps", "1"],
            ["benchmark-sweep", "--parallel", "2"],
            ["identify", "--dt", "inf"],
            ["identify", "--theta", "inf,1,1"],
            ["identify", "--ridge", "inf"],
            ["benchmark-sweep", "--dt", "nan"],
            ["benchmark-sweep", "--x0", "nan,1"],
            ["benchmark-sweep", "--alpha-max", "inf"],
            ["identify", "--train-steps", "abc"],
        ],
        ids=["ridge", "theta", "theta-grid", "identify-dt", "train-steps-zero", "sweep-dt",
             "sweep-steps", "sweep-parallel", "identify-dt-inf", "theta-inf", "ridge-inf",
             "sweep-dt-nan", "sweep-x0-nan", "sweep-alpha-max-inf", "train-steps-abc"],
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

    @pytest.mark.parametrize("where", ["compare-output", "compare-output-emitting",
                                       "compare-matrices", "compare-model", "identify-input"])
    def test_directory_given_as_a_file_is_usage_error(self, tmp_path, capsys, where):
        model = identify_linear(tmp_path, "lin")
        folder = tmp_path / "folder"
        folder.mkdir()
        argv = {
            "compare-output": ["compare", "--model-a", model, "--model-b", model,
                               "--output", folder],
            # The archive is written first and removed again when the report fails.
            "compare-output-emitting": ["compare", "--model-a", model, "--model-b", model,
                                        "--output", folder, "--emit-matrices", tmp_path / "m.npz"],
            "compare-matrices": ["compare", "--model-a", model, "--model-b", model,
                                 "--output", tmp_path / "r.json", "--emit-matrices", folder],
            "compare-model": ["compare", "--model-a", folder, "--model-b", model,
                              "--output", tmp_path / "r.json"],
            "identify-input": ["identify", "--input", folder, "--output", tmp_path / "m.npz"],
        }[where]
        capsys.readouterr()
        assert main([str(arg) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        if where.startswith("compare-output"):
            # The failed rename names the report path, not the temp file.
            assert err == f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: '{folder}'\n"
        # Nothing written, no temp file left behind.
        assert sorted(os.listdir(tmp_path)) == ["folder", "lin.csv", "lin.json"]
        assert os.listdir(folder) == []

    def test_empty_sweep_grid_is_usage_error(self, tmp_path, capsys):
        code = main(
            ["benchmark-sweep", "--alpha-min", "2.0", "--alpha-max", "1.0",
             "--step", "0.1", "--output", str(tmp_path / "s.csv")]
        )
        assert code == 2
        assert "grid" in capsys.readouterr().err
