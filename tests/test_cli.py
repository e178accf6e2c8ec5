import argparse
import hashlib
import json
import math
import warnings

import numpy as np
import pytest

import casfluct as cf
from casfluct.cli import _COMMANDS, _build_parser, _merge_opts, main
from casfluct.provenance import config_hash, file_hash

DATA_ROWS = [
    "0.62, 380.0, 11.0, 10, 0.1",
    "0.8, 295.0, 10.0, 10, 0.1",
    "1.0, 240.0, 8.0, 10, 0.1",
    "1.5, 150.0, 6.0, 10, 0.1",
    "2.2, 98.0, 5.0, 100, 1.0",
    "3.0, 71.5, 4.0, 100, 1.0",
    "4.0, 53.8, 3.5, 100, 1.0",
    "6.0, 35.9, 3.0, 100, 1.0",
]


def read_csv(path):
    """(comment lines, header columns, float rows)"""
    comments, header, rows = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append([float(v) for v in line.split(",")])
    return comments, header, np.array(rows)


def _optical_table(path):
    om = np.geomspace(0.01, 100.0, 200)
    loss = cf.drude_loss_spectrum(cf.GOLD_DRUDE, om)
    path.write_text(
        "omega_ev,eps_imag\n"
        + "\n".join(f"{float(a)!r},{float(b)!r}" for a, b in zip(om, loss)) + "\n"
    )
    return path


def _theory_curve(path):
    d = np.linspace(0.5, 6.5, 40)
    lines = ["d_um,F_udyne"] + [f"{float(x)!r},{float(215.0 / x + 33.76 / x**3)!r}" for x in d]
    path.write_text("\n".join(lines) + "\n")
    return path


def _profile_table(path, rows=("0.5,0.1", "6.5,0.2")):
    path.write_text("d_um,delta_um\n" + "\n".join(rows) + "\n")
    return path


def _eps_table(path):
    xi = np.geomspace(0.05, 50.0, 30)
    eps = cf.eps_imag_axis(cf.GOLD_DRUDE, xi)
    path.write_text("xi_ev,eps\n" + "\n".join(f"{float(a)!r},{float(b)!r}" for a, b in zip(xi, eps)) + "\n")
    return path


@pytest.fixture
def data_csv(write_dataset_csv):
    return write_dataset_csv(DATA_ROWS)


class TestForceCommand:
    def test_writes_curve_with_provenance(self, tmp_path):
        out = tmp_path / "curve.csv"
        rc = main([
            "force", "--model", "drude", "--d-min", "0.5", "--d-max", "6",
            "--points", "8", "-o", str(out),
        ])
        assert rc == 0
        comments, header, rows = read_csv(out)
        assert header == ["d_um", "F_udyne"]
        assert rows.shape == (8, 2)
        assert np.all(np.diff(rows[:, 1]) < 0)
        joined = "\n".join(comments)
        assert "tool_version" in joined and "config_hash" in joined

    def test_zero_temperature_is_the_closed_form(self, tmp_path):
        # T = 0 is asked for by the temperature alone, and the header says so
        out = tmp_path / "t0.csv"
        rc = main(["force", "--model", "perfect", "--temperature", "0", "--d-min", "0.5",
                   "--d-max", "3", "--points", "6", "-o", str(out)])
        assert rc == 0
        comments, _, rows = read_csv(out)
        assert "# temperature_K: 0.0" in comments
        d = rows[:, 0] * 1e-6
        want = math.pi**3 * 1.054571817e-34 * 299792458.0 * 0.124 / (360.0 * d**3) / 1e-11
        np.testing.assert_allclose(rows[:, 1], want, rtol=1e-12, atol=0)

    def test_byte_identical_reruns(self, tmp_path):
        out = tmp_path / "a.csv"
        args = ["force", "--model", "plasma", "--d-min", "1", "--d-max", "3",
                "--points", "5", "-o", str(out)]
        assert main(args) == 0
        first = out.read_bytes()
        assert main(args) == 0
        assert out.read_bytes() == first

    def test_validation_error_exit_code(self, tmp_path, capsys):
        rc = main(["force", "--points", "1", "-o", str(tmp_path / "x.csv")])
        assert rc == 1
        assert "grid" in capsys.readouterr().err

    def test_numerical_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        import casfluct.lifshitz as lif

        def boom(*a, **k):
            raise lif.ConvergenceError("no convergence", partial_sum=0.1, terms=3)

        monkeypatch.setattr(lif, "_thermal_sum", boom)
        rc = main(["force", "--points", "3", "-o", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "numerical" in capsys.readouterr().err

    def test_unconverged_n0_te_energy_exits_2(self, tmp_path, monkeypatch, capsys):
        import casfluct.lifshitz as lif

        monkeypatch.setattr(lif, "_N0_TE_T", np.linspace(-3.5, 2.5, 13))
        out = tmp_path / "x.csv"
        rc = main(["force", "--model", "plasma", "--points", "3", "-o", str(out)])
        assert rc == 2
        assert "n = 0 TE energy integral did not converge" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_d_exits_1_before_any_sum(self, tmp_path, capsys):
        # a perfect mirror at 1 nm does not converge within the Matsubara term cap
        # (exit 2 if summed); 2 um on a 10 um sphere has d/R = 0.2, which the PFA
        # check rejects first
        out = tmp_path / "x.csv"
        rc = main(["force", "--model", "perfect", "--d-min", "0.001", "--d-max", "2",
                   "--points", "2", "--radius-cm", "0.001", "-o", str(out)])
        assert rc == 1
        assert "proximity-force approximation invalid" in capsys.readouterr().err
        assert not out.exists()

    def test_one_pfa_warning_per_grid(self, tmp_path):
        # every d of 130-200 um has d/R > 1e-3 on the default 12.4 cm sphere
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["force", "--d-min", "130", "--d-max", "200", "--points", "5",
                       "-o", str(tmp_path / "x.csv")])
        assert rc == 0
        assert [str(w.message) for w in caught if w.category is UserWarning] == [
            "5 of 5 separations have 1e-3 < d/R < 0.1 (largest 0.00161): "
            "proximity-force approximation degraded"
        ]

    def test_no_temp_files_left(self, tmp_path):
        out = tmp_path / "c.csv"
        main(["force", "--points", "3", "--d-min", "1", "--d-max", "2", "-o", str(out)])
        leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".tmp-")]
        assert leftovers == []


class TestCorrectCommand:
    def test_default_columns(self, tmp_path):
        out = tmp_path / "corr.csv"
        rc = main([
            "correct", "--model", "drude", "--beta", "215", "--delta-rms", "0.1",
            "--d-min", "0.6", "--d-max", "3", "--points", "6", "-o", str(out),
        ])
        assert rc == 0
        _, header, rows = read_csv(out)
        assert header == ["d_um", "F_udyne", "F_apparent_udyne", "delta_rms_um",
                          "sigma_inflation_udyne"]
        # correction increases apparent attraction; inflation positive
        assert np.all(rows[:, 2] >= rows[:, 1])
        assert np.all(rows[:, 4] > 0)
        assert np.all(rows[:, 3] == 0.1)

    def test_fig1_emission(self, tmp_path):
        out = tmp_path / "fig1.csv"
        rc = main(["correct", "--emit", "fig1", "--points", "6",
                   "--d-min", "0.6", "--d-max", "6", "-o", str(out)])
        assert rc == 0
        _, header, rows = read_csv(out)
        assert "Fd3_drude_udyne_um3" in header
        assert "Fad3_plasma_udyne_um3" in header
        assert rows.shape[0] == 6

    def test_unknown_emit_mode(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["correct", "--emit", "fig9", "-o", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert "invalid choice: 'fig9'" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_unconverged_pressure_exit_code(self, tmp_path, monkeypatch, capsys):
        import casfluct.lifshitz as lif

        monkeypatch.setattr(lif, "_QUAD_REL_TOL", 1e-16)
        rc = main(["correct", "--points", "3", "-o", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "numerical" in capsys.readouterr().err

    def test_one_kernel_pass_per_force_row(self, tmp_path, monkeypatch):
        import casfluct.lifshitz as lif

        passes, calls = [], []
        real_sum, real_kernels = lif._thermal_sum, lif._plate_kernels

        def counting(*args):
            passes.extend(args[1])  # the separations summed
            return real_sum(*args)

        def recording(model, ds, T, *args):
            calls.append((type(model).__name__, len(ds), T == 0))
            return real_kernels(model, ds, T, *args)

        def forbidden(*args, **kwargs):
            raise AssertionError("correct must not run this")

        monkeypatch.setattr(lif, "_thermal_sum", counting)
        monkeypatch.setattr(lif, "_plate_kernels", recording)
        monkeypatch.setattr(lif, "_zero_t_integral", forbidden)
        monkeypatch.setattr(lif, "derivative", forbidden)
        assert main(["correct", "--points", "25", "-o", str(tmp_path / "c.csv")]) == 0
        assert len(passes) == 25
        assert calls == [("Drude", 25, False)]  # one pass over the whole grid
        passes.clear()
        calls.clear()
        assert main(["correct", "--emit", "fig1", "--points", "25",
                     "-o", str(tmp_path / "f.csv")]) == 0
        assert len(passes) == 50  # plasma and Drude; the T = 0 mirror is closed form
        assert sorted(calls) == [("Drude", 25, False), ("PerfectConductor", 25, True),
                                 ("Plasma", 25, False)]

    def test_sqrt_profile(self, tmp_path):
        out = tmp_path / "sq.csv"
        rc = main(["correct", "--model", "drude", "--profile", "sqrt",
                   "--d-min", "0.75", "--d-max", "3", "--points", "4", "-o", str(out)])
        assert rc == 0
        _, _, rows = read_csv(out)
        assert rows[0, 3] == pytest.approx(0.5, rel=1e-9)  # sqrt(0.75/3)
        assert rows[-1, 3] == pytest.approx(1.0, rel=1e-9)


class TestFitBetaCommand:
    def test_fit_report(self, tmp_path, write_dataset_csv):
        d = np.array([2.2, 3.0, 4.0, 5.0, 6.0])
        rows = [f"{x}, {215.0 / x}, 2.0, 100, 0.2" for x in d]
        data = write_dataset_csv(rows, name="bg.csv")
        out = tmp_path / "fit.json"
        rc = main(["fit-beta", "--data", str(data), "-o", str(out)])
        assert rc == 0
        blob = json.loads(out.read_text())
        assert blob["beta_udyne_um"] == pytest.approx(215.0, rel=1e-9)
        assert abs(blob["d0_um"]) < 1e-6
        assert blob["points_used"] == 5
        assert "_meta" in blob and "input_hash:data" in blob["_meta"]

    def test_subtract_drude_output_is_pinned(self, tmp_path, monkeypatch, write_dataset_csv):
        # recorded when the subtractor was called once per selected point
        pinned = """{
  "_meta": {
    "command": "fit-beta",
    "config_hash": "9fa680c6a615",
    "input_hash:data": "10489b8db603",
    "tool_version": "0.1.0"
  },
  "beta_sigma": 5.281579763585888,
  "beta_udyne_um": 220.63991854612237,
  "chi2": 0.43725088729676553,
  "d0_at_bounds": false,
  "d0_sigma": 0.04935784013503638,
  "d0_um": -0.11164171734244188,
  "dof": 9,
  "points_used": 11
}
"""
        points = [(1.2, 181.0, 4.0), (1.5, 144.5, 3.5), (2.0, 108.1, 3.0), (2.5, 86.9, 2.5),
                  (3.0, 72.2, 2.5), (3.5, 61.6, 2.0), (4.0, 54.1, 2.0), (4.5, 48.0, 2.0),
                  (5.0, 43.3, 2.0), (5.5, 39.1, 2.0), (6.0, 35.9, 2.0)]
        write_dataset_csv([f"{d}, {f}, {s}, 100, 0.2" for d, f, s in points])
        monkeypatch.chdir(tmp_path)  # relative paths keep the config hash fixed
        argv = ["fit-beta", "--data", "data.csv", "--subtract", "drude", "--d-min", "1"]
        assert main(argv + ["-o", "fit.json"]) == 0
        assert (tmp_path / "fit.json").read_text() == pinned

    def test_missing_file(self, tmp_path, capsys):
        rc = main(["fit-beta", "--data", str(tmp_path / "nope.csv"),
                   "-o", str(tmp_path / "f.json")])
        assert rc == 1

    def test_unconverged_d0_search_exits_2(self, tmp_path, data_csv, capsys, monkeypatch):
        monkeypatch.setattr(cf.background, "_D0_MAXFUN", 10)
        out = tmp_path / "fit.json"
        assert main(["fit-beta", "--data", str(data_csv), "-o", str(out)]) == 2
        assert "numerical failure: d0 search did not converge in 10 evaluations" in capsys.readouterr().err
        assert not out.exists()


class TestChi2Command:
    def test_report(self, tmp_path, data_csv):
        theory = _theory_curve(tmp_path / "theory.csv")
        out = tmp_path / "chi2.json"
        rc = main(["chi2", "--data", str(data_csv), "--theory", str(theory),
                   "--dof", "6", "-o", str(out)])
        assert rc == 0
        blob = json.loads(out.read_text())
        assert blob["dof"] == 6
        assert blob["reduced"] == pytest.approx(blob["chi2"] / 6.0, rel=1e-12)
        assert 0.0 <= blob["p_value"] <= 1.0
        assert len(blob["residuals"]) == len(DATA_ROWS)


    def test_theory_file_closed(self, tmp_path, data_csv):
        theory = _theory_curve(tmp_path / "theory.csv")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            rc = main(["chi2", "--data", str(data_csv), "--theory", str(theory),
                       "-o", str(tmp_path / "chi2.json")])
        assert rc == 0
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


class TestChi2ColumnSelection:
    def test_named_column(self, tmp_path, data_csv):
        theory = tmp_path / "corrected.csv"
        d = np.linspace(0.5, 6.5, 30)
        lines = ["d_um,F_udyne,F_apparent_udyne"]
        for x in d:
            f = 215.0 / x
            lines.append(f"{float(x)!r},{float(f)!r},{float(f + 2.15 / x**3)!r}")
        theory.write_text("\n".join(lines) + "\n")
        out_plain = tmp_path / "plain.json"
        out_col = tmp_path / "col.json"
        assert main(["chi2", "--data", str(data_csv), "--theory", str(theory),
                     "-o", str(out_plain)]) == 0
        assert main(["chi2", "--data", str(data_csv), "--theory", str(theory),
                     "--column", "F_apparent_udyne", "-o", str(out_col)]) == 0
        plain = json.loads(out_plain.read_text())
        col = json.loads(out_col.read_text())
        assert plain["chi2"] != col["chi2"]

    def test_quoted_column_name(self, tmp_path, data_csv):
        plain = _theory_curve(tmp_path / "plain.csv")
        quoted = tmp_path / "quoted.csv"
        quoted.write_text(plain.read_text().replace("d_um,F_udyne", 'd_um, "F,udyne"', 1))
        outs = [tmp_path / "plain.json", tmp_path / "quoted.json"]
        assert main(["chi2", "--data", str(data_csv), "--theory", str(plain),
                     "-o", str(outs[0])]) == 0
        assert main(["chi2", "--data", str(data_csv), "--theory", str(quoted),
                     "--column", "F,udyne", "-o", str(outs[1])]) == 0
        chi2 = [json.loads(out.read_text())["chi2"] for out in outs]
        assert chi2[0] == chi2[1]

    def test_unknown_column(self, tmp_path, data_csv, capsys):
        theory = tmp_path / "t.csv"
        theory.write_text("d_um,F_udyne\n1,1\n2,2\n3,3\n4,4\n")
        rc = main(["chi2", "--data", str(data_csv), "--theory", str(theory),
                   "--column", "nope", "-o", str(tmp_path / "o.json")])
        assert rc == 1
        assert "no column" in capsys.readouterr().err

    @pytest.mark.parametrize("column", [None, "F_udyne", "F_UDYNE", "f_udyne"])
    def test_column_name_ignores_case(self, tmp_path, data_csv, column):
        lower = _theory_curve(tmp_path / "lower.csv")
        upper = tmp_path / "upper.csv"
        upper.write_text(lower.read_text().replace("d_um,F_udyne", "D_UM,F_Udyne", 1))
        outs = [tmp_path / "lower.json", tmp_path / "upper.json"]
        pick = [] if column is None else ["--column", column]
        for theory, out in zip((lower, upper), outs):
            assert main(["chi2", "--data", str(data_csv), "--theory", str(theory),
                         *pick, "-o", str(out)]) == 0
        blobs = [json.loads(out.read_text()) for out in outs]
        for blob in blobs:
            del blob["_meta"]  # the input path differs
        assert blobs[0] == blobs[1]

    def test_no_force_column(self, tmp_path, data_csv, capsys):
        theory = tmp_path / "t.csv"
        theory.write_text("d_um\n1\n2\n3\n4\n")
        rc = main(["chi2", "--data", str(data_csv), "--theory", str(theory),
                   "-o", str(tmp_path / "o.json")])
        assert rc == 1
        assert f"{theory}: no force column after d_um; header has ['d_um']" in capsys.readouterr().err


class TestScanDeltaCommand:
    def test_scan(self, tmp_path, data_csv):
        out = tmp_path / "scan.csv"
        rc = main(["scan-delta", "--data", str(data_csv), "--model", "drude",
                   "--beta", "215", "--delta-min", "0", "--delta-max", "0.2",
                   "--steps", "5", "-o", str(out)])
        assert rc == 0
        comments, header, rows = read_csv(out)
        assert header == ["delta_um", "chi2", "reduced", "p"]
        assert rows.shape == (5, 4)
        assert any("argmin_delta_um" in c for c in comments)
        assert np.all(np.isfinite(rows))


    def test_one_force_evaluation_per_scan(self, tmp_path, data_csv, monkeypatch):
        import casfluct.analysis as analysis

        shapes = []
        real = analysis.scan_delta

        class Counting:
            def __init__(self, force):
                self.force = force

            def __call__(self, d):
                shapes.append(("F", np.shape(d)))
                return self.force(d)

            def curvature(self, d):
                shapes.append(("F''", np.shape(d)))
                return self.force.curvature(d)

        counted = lambda data, force, grid: real(data, Counting(force), grid)
        monkeypatch.setattr(analysis, "scan_delta", counted)
        rc = main(["scan-delta", "--data", str(data_csv), "--steps", "31",
                   "-o", str(tmp_path / "scan.csv")])
        assert rc == 0
        assert shapes == [("F", (len(DATA_ROWS),)), ("F''", (len(DATA_ROWS),))]


class TestSimulateCommand:
    def test_report_schema(self, tmp_path):
        out = tmp_path / "sim.json"
        rc = main(["simulate", "--d", "1.0", "--delta-rms", "0.05",
                   "--beta", "215", "--f-lo", "0.1", "--duration", "1000",
                   "--trials", "10", "--seed", "5", "-o", str(out)])
        assert rc == 0
        blob = json.loads(out.read_text())
        for key in ("seed", "d_um", "delta_rms_um", "mc_mean", "analytic_mean",
                    "mc_sigma", "analytic_sigma", "verdicts"):
            assert key in blob
        assert len(blob["verdicts"]) == 10
        assert blob["n_mean_pass"] >= 9

    @pytest.mark.parametrize("delta_rms", ["0.02", "0.005", "0"])
    def test_model_at_small_and_zero_delta(self, delta_rms, tmp_path):
        # the spline spans d -+ 0.1 d at least, where the fourth-order allowance samples it
        out = tmp_path / "sim.json"
        rc = main(["simulate", "--d", "3", "--delta-rms", delta_rms, "--model", "drude",
                   "--duration", "2000", "--f-lo", "0.1", "-o", str(out)])
        assert rc == 0
        blob = json.loads(out.read_text())
        assert not any(v["expansion_breakdown"] for v in blob["verdicts"])
        assert blob["n_mean_pass"] == 10  # at 0 the mean differs from F(d) by rounding alone
        if delta_rms != "0":
            assert blob["n_scatter_pass"] == 10

    def test_casimir_alone(self, tmp_path):
        # --beta 0 with a model averages the Casimir force alone
        out = tmp_path / "sim.json"
        rc = main(["simulate", "--beta", "0", "--model", "drude", "--f-lo", "1",
                   "--duration", "200", "-o", str(out)])
        assert rc == 0
        blob = json.loads(out.read_text())
        casimir = cf.sphere_plate_force(cf.Drude(9.0, 0.035), 1e-6, cf.ExperimentGeometry()) / 1e-11
        # the mean exceeds F(d) by the small positive 0.5 F'' delta^2, far below the 215 background
        assert casimir < blob["analytic_mean"] < 1.1 * casimir
        assert blob["n_mean_pass"] == blob["trials"] == 10

    def test_requires_force_choice(self, tmp_path):
        rc = main(["simulate", "--beta", "0", "-o", str(tmp_path / "s.json")])
        assert rc == 1

    @pytest.mark.parametrize(
        "name, extra, sha256",
        [
            ("sim_beta.json", ["--beta", "215"],
             "425ce4dec932e3fd2b774bd637ea96f325f65acc24e8cafd913a3b22600b7371"),
            ("sim_drude.json", ["--model", "drude", "--kind", "one-over-f"],
             "3451e3ec64e2647d6514577f06efba82e7b7a73eb86ae3228116c39a9cc3dce0"),
        ],
        ids=["beta-white", "drude-one-over-f"],
    )
    def test_seeded_report_bytes_pinned(self, name, extra, sha256, tmp_path):
        # 2e5 samples per trial, several force-evaluation blocks.  Every value
        # outside the _meta header is pinned, so a new option or version bump
        # (which moves the header's hashes) leaves the pin alone.
        rc = main(["simulate", "--duration", "10000", "--trials", "10", *extra,
                   "-o", str(tmp_path / name)])
        assert rc == 0
        blob = json.loads((tmp_path / name).read_text())
        del blob["_meta"]
        assert hashlib.sha256(json.dumps(blob, sort_keys=True).encode()).hexdigest() == sha256


def test_no_subcommand_evaluates_a_scipy_spline(monkeypatch, tmp_path, data_csv):
    """simulate, chi2 and scan-delta evaluate every force spline in numpy."""
    from scipy.interpolate import PPoly

    def scipy_evaluation(*args, **kwargs):
        raise AssertionError("PPoly.__call__ reached")

    monkeypatch.setattr(PPoly, "__call__", scipy_evaluation)
    theory = _theory_curve(tmp_path / "theory.csv")
    for argv in (["simulate", "--model", "drude", "--f-lo", "0.1", "--duration", "1000"],
                 ["chi2", "--data", str(data_csv), "--theory", str(theory)],
                 ["scan-delta", "--data", str(data_csv), "--steps", "5"]):
        assert main(argv + ["-o", str(tmp_path / "out")]) == 0, argv


class TestTiltCommand:
    def test_stdout_value(self, capsys):
        rc = main(["tilt-estimate", "--ref-noise-nm", "20", "--ref-length-cm", "4",
                   "--length-cm", "80", "--mode-freq-ratio", "6.3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "159.4" in out

    def test_json_output(self, tmp_path):
        out = tmp_path / "tilt.json"
        rc = main(["tilt-estimate", "-o", str(out)])
        assert rc == 0
        blob = json.loads(out.read_text())
        assert blob["estimate_nm"] == pytest.approx(189.148, rel=1e-4)


class TestKKCommand:
    def test_transform_table(self, tmp_path):
        table = _optical_table(tmp_path / "optical.csv")
        out = tmp_path / "eps.csv"
        rc = main(["kk", "--table", str(table), "--xi-min", "0.1", "--xi-max", "5",
                   "--points", "6", "-o", str(out)])
        assert rc == 0
        _, header, rows = read_csv(out)
        assert header == ["xi_ev", "eps"]
        assert np.all(rows[:, 1] >= 1.0)
        assert np.all(np.diff(rows[:, 1]) < 0)
        want = cf.eps_imag_axis(cf.GOLD_DRUDE, rows[:, 0])
        assert np.max(np.abs(rows[:, 1] / want - 1.0)) < 5e-3

    def test_unconverged_table_exits_2(self, tmp_path, capsys):
        table = tmp_path / "edge.csv"
        table.write_text("omega_ev,eps_imag\n1.0,1e-300\n2.0,1e300\n")
        out = tmp_path / "eps.csv"
        rc = main(["kk", "--table", str(table), "--xi-min", "5", "--xi-max", "10",
                   "--points", "2", "-o", str(out)])
        assert rc == 2
        assert "orders 64 and 128" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize(
    "command, dest, default",
    [("kk", "log_spacing", True), ("force", "log_spacing", False)],
)
def test_boolean_flag_equals_config_file(command, dest, default, tmp_path):
    """--x and --no-x set the same option as a config file, and override it."""
    if command == "kk":
        base = ["kk", "--table", str(_optical_table(tmp_path / "optical.csv")), "--points", "5"]
        lo, hi, n = 0.05, 10.0, 5
    else:
        base = ["force", "--model", "perfect", "--d-min", "1", "--d-max", "2", "--points", "3"]
        lo, hi, n = 1.0, 2.0, 3
    on = "--" + dest.replace("_", "-")
    off = "--no-" + dest.replace("_", "-")
    cfg = tmp_path / "flipped.json"
    cfg.write_text(json.dumps({dest: not default}))
    runs = {
        "default": [],
        "flag": [off if default else on],
        "config": ["--config", str(cfg)],
        "config+flag": ["--config", str(cfg), on if default else off],
    }
    rows = {}
    for name, extra in runs.items():
        out = tmp_path / f"{name}.csv"
        assert main([*base, *extra, "-o", str(out)]) == 0
        rows[name] = read_csv(out)[2]
    assert rows["flag"].tobytes() == rows["config"].tobytes()
    assert rows["config+flag"].tobytes() == rows["default"].tobytes()
    assert rows["flag"].tobytes() != rows["default"].tobytes()
    spacing = {True: np.geomspace, False: np.linspace}
    np.testing.assert_allclose(rows["flag"][:, 0], spacing[not default](lo, hi, n), rtol=0, atol=0)
    np.testing.assert_allclose(rows["default"][:, 0], spacing[default](lo, hi, n), rtol=0, atol=0)


def _full_parser():
    """Every option of every subcommand in one parser: what the parsers main builds must read like."""
    parser = argparse.ArgumentParser(
        prog="casfluct", description=cf.cli.__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=cf.__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        p.add_argument("--config", help="JSON config file; explicit flags override it")
        for dest, _, kwargs in options:
            flags = ("-o", "--output") if dest == "output" else ("--" + dest.replace("_", "-"),)
            p.add_argument(*flags, dest=dest, **kwargs)
    return parser


def _parse_outcome(parse, argv, capsys):
    """(exit code, stdout, stderr) of a parse that ends in SystemExit."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out, err = capsys.readouterr()
    return exc.value.code, out, err


@pytest.mark.parametrize(
    "argv",
    [pytest.param([name, "--help"], id=f"{name}-help") for name in _COMMANDS]
    + [
        pytest.param(["--help"], id="help"),
        pytest.param([], id="no-arguments"),
        pytest.param(["frobnicate"], id="unknown-subcommand"),
        pytest.param(["simulate", "--points", "x"], id="unrecognized-argument"),
        pytest.param(["--version"], id="version"),
        pytest.param(["force", "--no-such-flag"], id="unknown-flag"),
        # the subcommand after an unknown flag: the names-only parser finds it
        pytest.param(["--no-such-flag", "force", "--points", "3"], id="flag-before-subcommand"),
        pytest.param(["--no-such-flag", "force", "--also-no-flag"], id="flags-around-subcommand"),
        pytest.param(["--no-such-flag", "kk", "--help"], id="help-after-subcommand"),
    ],
)
def test_parser_output_matches_full_parser(argv, capsys, monkeypatch):
    """main builds only the subcommand it runs, or only the names; what a user reads is unchanged."""
    monkeypatch.setenv("COLUMNS", "100")
    full = _parse_outcome(lambda a: _full_parser().parse_args(a), argv, capsys)
    assert _parse_outcome(main, argv, capsys) == full
    assert full[1] or full[2]


def test_main_builds_only_the_invoked_subcommand(monkeypatch, tmp_path):
    import casfluct.cli as cli

    built = []

    def spy(command=None):
        built.append(command)
        return _build_parser(command)

    monkeypatch.setattr(cli, "_build_parser", spy)
    assert main(["tilt-estimate", "-o", str(tmp_path / "tilt.json")]) == 0
    assert built == ["tilt-estimate"]
    subparsers = _build_parser("kk")._subparsers._group_actions[0].choices
    assert list(subparsers) == ["kk"]
    assert [a.dest for a in subparsers["kk"]._actions][-1] == "output"


def test_parallel_map_keeps_order():
    from casfluct.provenance import parallel_map

    assert parallel_map(lambda x: x * x, range(7)) == [x * x for x in range(7)]


@pytest.mark.parametrize(
    "argv, sha256",
    [
        pytest.param(["force"],
                     "8a5b0dfa3b14fcdef6464263c74ef3409769f810ba6ea6eff3e0ff519872c589", id="force"),
        pytest.param(["correct"],
                     "5e33c90a5a8291febdb6f5727cda8b7b72ed1c9e6a738e784dd1ba1b67f9ed49", id="correct"),
        pytest.param(["correct", "--emit", "fig1"],
                     "9286b5a31645bcb833d1e16e4876b4dc6176201c0df9abe299252392628ab04c", id="fig1"),
        pytest.param(["correct", "--profile", "sqrt"],
                     "9db56ce196a96c835ff6c499e841b17add7f56c327db26c99121d07d324c124d",
                     id="correct-sqrt"),
        pytest.param(["correct", "--profile", "table", "--profile-table", "{profile}"],
                     "13ee064be95e185c902fd1dde1daa935d194a75b16642620072538a370d034b3",
                     id="correct-profile-table"),
        pytest.param(["correct", "--model", "perfect", "--d0", "0.01"],
                     "6f36eff0c17ddeab025b54486024807838d32d843da8e973806c635ddb8324b3",
                     id="correct-perfect-d0"),
        pytest.param(["correct", "--model", "plasma"],
                     "2c0baaf48a2b294539be505a315afd4d0cb060179bf272e4be60f6d2ad0d6e7f",
                     id="correct-plasma"),
        pytest.param(["correct", "--model", "tabulated", "--eps-table", "{eps}"],
                     "378ca05b24a8118814b5077ad2cfeb52990998211e1fabcb55e5607a6db52af9",
                     id="correct-tabulated"),
        pytest.param(["correct", "--temperature", "0"],
                     "33586d0592198127d4465c4cd37ea21f91d84eaa454bc9a38805ca8e932041c8",
                     id="correct-T0"),
        pytest.param(["correct", "--delta-rms", "0"],
                     "8d74be5843c9b5a00b76e7896010d0209f78d54816348bb456c9abf89b58f21d",
                     id="correct-delta0"),
        pytest.param(["correct", "--emit", "fig1", "--profile", "table", "--profile-table", "{profile}"],
                     "d3f8f25952ee938f378576176c331c38f10356a2efcf52f8ad93b9fcaa29ff76",
                     id="fig1-profile-table"),
        pytest.param(["correct", "--emit", "fig1", "--delta-rms", "0", "--temperature", "0"],
                     "0c97425fce9a6858c169fbe182b0a7c764c3833a92b4447f9e5cd48fe60f0365",
                     id="fig1-delta0-T0"),
        pytest.param(["scan-delta", "--data", "{data}", "--steps", "31"],
                     "7dff7789f2abf0d1ba1a3f0d9a8f642d5d34b320d9330d17d0b707c2406fb444",
                     id="scan-delta"),
        pytest.param(["kk", "--table", "{table}"],
                     "4c2575fac7fb59dc7920a26eb9a11aacb8a1b5574961ab9b86c1ffe2e5488d64", id="kk"),
        pytest.param(["kk", "--table", "{table}", "--xi-min", "0.02", "--xi-max", "20",
                      "--points", "60"],
                     "82e66c4eb0dd0b254bcbec33c960783c96476f84e2dff2605808b913ea9a5d5b",
                     id="kk-60"),
    ],
)
def test_output_rows_pinned(argv, sha256, tmp_path, data_csv):
    """SHA-256 of everything below the '#' provenance header, so only a moved bit of a value
    (not a new option or a version bump) breaks the pin."""
    out = tmp_path / "out.csv"
    files = {
        "data": data_csv,
        "table": _optical_table(tmp_path / "optical.csv"),
        "eps": _eps_table(tmp_path / "eps.csv"),
        # delta = 0 at the first grid point, so one array mixes zero and nonzero delta
        "profile": _profile_table(tmp_path / "profile.csv", rows=("0.5,0.0", "0.6,0.0", "6.5,0.2")),
    }
    assert main([a.format(**files) for a in argv] + ["-o", str(out)]) == 0
    body = "".join(line for line in out.read_text().splitlines(keepends=True)
                   if not line.startswith("#"))
    assert hashlib.sha256(body.encode()).hexdigest() == sha256


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["force"], id="force"),
        pytest.param(["correct"], id="correct"),
        pytest.param(["correct", "--emit", "fig1"], id="correct-fig1"),
        pytest.param(["fit-beta", "--data", "{data}"], id="fit-beta"),
        pytest.param(["chi2", "--data", "{data}", "--theory", "{theory}"], id="chi2"),
        pytest.param(["scan-delta", "--data", "{data}"], id="scan-delta"),
        pytest.param(["simulate"], id="simulate"),
        pytest.param(["simulate", "--model", "drude"], id="simulate-drude"),
        pytest.param(["tilt-estimate"], id="tilt-estimate"),
        pytest.param(["kk", "--table", "{table}"], id="kk"),
        pytest.param(["correct", "--profile", "table", "--profile-table", "{profile}"],
                     id="correct-profile-table"),
    ],
)
def test_subcommand_runs_at_its_defaults(argv, tmp_path, data_csv):
    files = {
        "data": str(data_csv),
        "theory": str(_theory_curve(tmp_path / "theory.csv")),
        "table": str(_optical_table(tmp_path / "optical.csv")),
        "profile": str(_profile_table(tmp_path / "profile.csv")),
    }
    out = tmp_path / "out"
    argv = [a.format(**files) for a in argv] + ["-o", str(out)]
    assert main(argv) == 0
    assert out.exists()


@pytest.mark.parametrize(
    "argv, names",
    [
        pytest.param(["force", "--model", "tabulated", "--eps-table", "{eps_table}", "--points", "3"],
                     ["eps_table"], id="force"),
        pytest.param(["correct", "--model", "tabulated", "--eps-table", "{eps_table}", "--profile",
                      "table", "--profile-table", "{profile_table}", "--points", "3"],
                     ["eps_table", "profile_table"], id="correct"),
        pytest.param(["fit-beta", "--data", "{data}"], ["data"], id="fit-beta"),
        pytest.param(["chi2", "--data", "{data}", "--theory", "{theory}"], ["data", "theory"],
                     id="chi2"),
        pytest.param(["scan-delta", "--data", "{data}", "--steps", "2"], ["data"], id="scan-delta"),
        pytest.param(["kk", "--table", "{table}", "--points", "3"], ["table"], id="kk"),
        # set but never opened: a model that is not tabulated, fig1 (plasma and Drude only),
        # a profile that is not a table, which must not even need the file to exist
        pytest.param(["force", "--model", "drude", "--eps-table", "{eps_table}", "--points", "3"], [],
                     id="force-drude-eps-table"),
        pytest.param(["correct", "--emit", "fig1", "--model", "tabulated", "--eps-table",
                      "{eps_table}", "--points", "3"], [], id="correct-fig1-eps-table"),
        pytest.param(["correct", "--profile-table", "{missing}", "--points", "3"], [],
                     id="correct-const-profile-table"),
    ],
)
def test_every_input_file_is_hashed(argv, names, tmp_path, data_csv):
    """Each input file a run reads gets an input_hash line, in header order; no other does."""
    files = {
        "data": data_csv,
        "theory": _theory_curve(tmp_path / "theory.csv"),
        "table": _optical_table(tmp_path / "optical.csv"),
        "eps_table": _eps_table(tmp_path / "eps.csv"),
        "profile_table": _profile_table(tmp_path / "profile.csv"),
        "missing": tmp_path / "missing.csv",
    }
    out = tmp_path / "out"
    assert main([a.format(**files) for a in argv] + ["-o", str(out)]) == 0
    text = out.read_text()
    if text.startswith("{"):
        meta = json.loads(text)["_meta"]
    else:
        meta = dict(line[2:].split(": ", 1) for line in text.splitlines() if line.startswith("# "))
    hashes = [(key.split(":", 1)[1], value) for key, value in meta.items()
              if key.startswith("input_hash:")]
    assert hashes == [(name, file_hash(files[name])) for name in names]


def test_missing_input_files_named_in_header_order(tmp_path, capsys, monkeypatch):
    """Inputs are hashed, in header order, before the subcommand runs: the first missing file is named."""
    eps, profile, out = tmp_path / "A.csv", tmp_path / "B.csv", tmp_path / "out.csv"
    argv = ["correct", "--model", "tabulated", "--eps-table", str(eps), "--profile", "table",
            "--profile-table", str(profile), "--points", "3", "-o", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert str(eps) in err and str(profile) not in err
    assert not out.exists()
    # a run without an output file writes nothing
    monkeypatch.chdir(tmp_path)
    assert main(["tilt-estimate"]) == 0
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "command, digest",
    [
        ("force", "5f58af87dd4b"),
        ("correct", "8912a45ee068"),
        ("fit-beta", "60d26495bff7"),
        ("chi2", "f9cd21dcc500"),
        ("scan-delta", "5a2517f1cfe5"),
        ("simulate", "b3e19b08be8b"),
        ("tilt-estimate", "485bb2da4162"),
        ("kk", "6e04a7f61443"),
    ],
)
def test_default_config_hash(command, digest):
    """Same keys, values and value types as ever: every output header keeps its hash."""
    opts = _merge_opts(command, _build_parser().parse_args([command]))
    assert config_hash(vars(opts)) == digest


@pytest.mark.parametrize("argv", [["scan-delta", "--data", "{data}"], ["simulate"]],
                         ids=["scan-delta", "simulate"])
def test_tabulated_model_needs_eps_table_option(argv, tmp_path, data_csv, capsys):
    argv = [a.format(data=data_csv) for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--model", "tabulated", "-o", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "invalid choice: 'tabulated'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(["kk", "--table", "{table}", "--points", "0"], "points = 0", id="kk-points"),
        pytest.param(["kk", "--table", "{table}", "--xi-min", "0"], "xi_min", id="kk-xi-min"),
        # an infinite upper grid bound passes `hi > lo`: it is checked like every other number
        pytest.param(["kk", "--table", "{table}", "--xi-max", "inf"],
                     "xi_max must be finite and > 0, got inf", id="kk-xi-max-inf"),
        pytest.param(["force", "--d-max", "inf"], "d_max must be finite and > 0, got inf",
                     id="force-d-max-inf"),
        pytest.param(["correct", "--profile", "table", "--profile-table", "{one_row}"],
                     "{one_row}: need at least 2", id="profile-one-row"),
        pytest.param(["correct", "--profile", "table", "--profile-table", "{headerless}"],
                     "{headerless}:1: header must be 'd_um, delta_um'", id="profile-headerless"),
        pytest.param(["scan-delta", "--data", "{data}", "--steps", "0"], "steps = 0",
                     id="scan-delta-steps"),
        pytest.param(["scan-delta", "--data", "{data}", "--delta-min", "0.3", "--delta-max", "0.1"],
                     "delta_min < delta_max", id="scan-delta-range"),
        # a fluctuation amplitude must be finite: NaN slips past a plain `< 0` test
        pytest.param(["correct", "--delta-rms", "nan"], "delta_rms must be finite and >= 0, got nan",
                     id="correct-delta-rms-nan"),
        pytest.param(["correct", "--delta-rms", "inf"], "delta_rms must be finite and >= 0, got inf",
                     id="correct-delta-rms-inf"),
        pytest.param(["correct", "--profile", "sqrt", "--amplitude", "nan"],
                     "amplitude must be finite and >= 0, got nan", id="sqrt-amplitude-nan"),
        pytest.param(["correct", "--profile", "table", "--profile-table", "{nan_row}"],
                     "{nan_row}:3: not a finite number: 'nan'", id="profile-nan-row"),
        # a profile table is never extrapolated: the 0.6-6 um grid leaves a 1-2 um table
        pytest.param(["correct", "--profile", "table", "--profile-table", "{narrow}"],
                     "distance 6e-07 outside tabulated range [1e-06, 2e-06]", id="profile-narrow"),
        pytest.param(["chi2", "--data", "{data}", "--theory", "{theory}", "--fitted-params", "-3"],
                     "fitted_params must be >= 0, got -3", id="chi2-fitted-params-negative"),
        pytest.param(["simulate", "--delta-rms", "nan"], "target_rms must be finite and >= 0, got nan",
                     id="simulate-delta-rms-nan"),
        pytest.param(["tilt-estimate", "--ref-noise-nm", "nan"],
                     "ref_noise must be finite and >= 0, got nan", id="tilt-ref-noise-nan"),
        # a non-finite or non-positive separation or length exits 1, naming it
        pytest.param(["simulate", "--d", "inf"], "d must be finite and > 0, got inf",
                     id="simulate-d-inf"),
        pytest.param(["simulate", "--d", "nan"], "d must be finite and > 0, got nan",
                     id="simulate-d-nan"),
        pytest.param(["simulate", "--d", "0"], "d must be finite and > 0, got 0",
                     id="simulate-d-zero"),
        pytest.param(["tilt-estimate", "--length-cm", "inf"],
                     "length must be finite and > 0, got inf", id="tilt-length-inf"),
        pytest.param(["tilt-estimate", "--ref-length-cm", "inf"],
                     "ref_length must be finite and > 0, got inf", id="tilt-ref-length-inf"),
        pytest.param(["tilt-estimate", "--mode-freq-ratio", "inf"],
                     "mode_freq_ratio must be finite and > 0, got inf", id="tilt-ratio-inf"),
        # a non-finite temperature or duration exits 1, naming it
        pytest.param(["correct", "--temperature", "nan"],
                     "temperature must be finite and >= 0, got nan", id="correct-temperature-nan"),
        pytest.param(["correct", "--temperature", "inf"],
                     "temperature must be finite and >= 0, got inf", id="correct-temperature-inf"),
        pytest.param(["force", "--temperature", "inf"],
                     "temperature must be finite and >= 0, got inf", id="force-temperature-inf"),
        pytest.param(["simulate", "--duration", "inf"],
                     "duration must be finite and > 0, got inf", id="simulate-duration-inf"),
        pytest.param(["simulate", "--seed", "-1"], "seed must be an integer >= 0, got -1",
                     id="simulate-seed-negative"),
        # a missing input file is named by its flag, and only what is missing is named
        pytest.param(["fit-beta"], "fit-beta requires --data\n", id="fit-beta-no-data"),
        pytest.param(["chi2", "--theory", "{theory}"], "chi2 requires --data\n",
                     id="chi2-no-data"),
        pytest.param(["chi2", "--data", "{data}"], "chi2 requires --theory\n",
                     id="chi2-no-theory"),
        pytest.param(["chi2"], "chi2 requires --data and --theory\n", id="chi2-no-files"),
        pytest.param(["scan-delta"], "scan-delta requires --data\n", id="scan-delta-no-data"),
        pytest.param(["kk"], "kk requires --table\n", id="kk-no-table"),
        pytest.param(["force", "--model", "tabulated"], "--model tabulated requires --eps-table",
                     id="force-tabulated-no-eps-table"),
        pytest.param(["correct", "--profile", "table"], "--profile table requires --profile-table",
                     id="correct-profile-no-table"),
        pytest.param(["force", "--d-min", "2", "--d-max", "1"], "need d_min < d_max, got [2.0, 1.0]",
                     id="force-d-range"),
        pytest.param(["chi2", "--data", "{data}", "--theory", "{three_rows}"],
                     "{three_rows}: need >= 4 theory rows", id="chi2-three-row-theory"),
    ],
)
def test_bad_input_exits_1(argv, message, tmp_path, data_csv, capsys, monkeypatch):
    import casfluct.lifshitz as lifshitz

    def no_lifshitz_work(*args, **kwargs):
        raise AssertionError("bad input must be rejected before any force curve")

    monkeypatch.setattr(lifshitz, "force_curve", no_lifshitz_work)
    files = {
        "data": str(data_csv),
        "table": str(_optical_table(tmp_path / "optical.csv")),
        "one_row": str(_profile_table(tmp_path / "one.csv", rows=["1.0,0.1"])),
        "nan_row": str(_profile_table(tmp_path / "nan.csv", rows=["0.5,0.1", "6.5,nan"])),
        "narrow": str(_profile_table(tmp_path / "narrow.csv", rows=["1.0,0.1", "2.0,0.2"])),
        "theory": str(_theory_curve(tmp_path / "theory.csv")),
        "headerless": str(tmp_path / "bare.csv"),
        "three_rows": str(tmp_path / "three.csv"),
    }
    (tmp_path / "bare.csv").write_text("0.5,0.1\n6.5,0.2\n")
    (tmp_path / "three.csv").write_text("d_um,F_udyne\n0.5,430.0\n1.0,215.0\n2.0,107.5\n")
    out = tmp_path / "out"
    assert main([a.format(**files) for a in argv] + ["-o", str(out)]) == 1
    assert message.format(**files) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(["scan-delta", "--data", "{data}", "--d0", "0.7", "--steps", "2"],
                     "scan-delta: require d > d0 = 7e-07, got d = 6.2e-07", id="scan-delta-d0"),
        pytest.param(["chi2", "--data", "{data}", "--theory", "{short_theory}"],
                     "chi2: separation 6e-06 outside tabulated range [5e-07, 3e-06]",
                     id="chi2-short-theory"),
    ],
)
def test_data_outside_evaluator_domain_exits_1(argv, message, tmp_path, data_csv, capsys):
    """A data point the force evaluator cannot take is bad input, not a numerical failure."""
    short = tmp_path / "short.csv"
    short.write_text("d_um,F_udyne\n" + "".join(f"{x!r},{215.0 / x!r}\n" for x in (0.5, 1.0, 2.0, 3.0)))
    out = tmp_path / "out"
    argv = [a.format(data=data_csv, short_theory=short) for a in argv] + ["-o", str(out)]
    assert main(argv) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


# input -> (argv reading it from {path}, header, two valid data rows)
_INPUTS = {
    "dataset": (["fit-beta", "--data", "{path}"],
                "d_um,force_udyne,sigma_udyne,n_samples,bin_width_um", DATA_ROWS[:2]),
    "absorption-table": (["kk", "--table", "{path}"], "omega_ev,eps_imag", ["0.1,50.0", "1.0,2.0"]),
    "eps-table": (["force", "--model", "tabulated", "--eps-table", "{path}"], "xi_ev,eps",
                  ["0.1,1000.0", "1.0,80.0"]),
    "profile-table": (["correct", "--profile", "table", "--profile-table", "{path}"],
                      "d_um,delta_um", ["0.5,0.1", "6.5,0.2"]),
    "theory-curve": (["chi2", "--data", "{data}", "--theory", "{path}"], "d_um,F_udyne",
                     ["0.5,430.0", "6.5,33.0"]),
}


@pytest.mark.parametrize("name", list(_INPUTS))
@pytest.mark.parametrize(
    "case", ["bad-row", "wrong-header", "missing-header", "non-ascending", "non-finite"]
)
def test_input_errors_name_file_and_line(name, case, tmp_path, data_csv, capsys):
    """Every input CSV is read by one reader: errors exit 1 naming file:line."""
    argv, header, (first, last) = _INPUTS[name]
    column = header.split(",")[0]
    path = tmp_path / f"{name}.csv"
    # a NaN first field (the ascending column) and an infinite second field
    nan_row = ",".join(["nan", *first.split(",")[1:]])
    inf_row = ",".join([first.split(",")[0], "inf", *first.split(",")[2:]])
    lines, where = {
        "bad-row": ([header, "# comments count", first, "1.0,not-a-number", last], ":4: "),
        "wrong-header": (["x_" + header, first, last], ":1: header"),
        "missing-header": ([first, last], ":1: header"),
        "non-ascending": ([header, first, last, first], f":4: {column} must be strictly ascending"),
        "non-finite": ([header, first, nan_row, inf_row, last],
                       f":3: not a finite number: 'nan' | {path}:4: not a finite number: 'inf'"),
    }[case]
    path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    argv = [a.format(path=path, data=data_csv) for a in argv] + ["-o", str(out)]
    assert main(argv) == 1
    assert f"{path}{where}" in capsys.readouterr().err
    assert not out.exists()


class TestConfigMerge:
    def test_config_file_and_flag_precedence(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"d_min": 1.0, "d_max": 2.0, "points": 4}))
        out = tmp_path / "c.csv"
        rc = main(["force", "--config", str(cfg), "--points", "3", "-o", str(out)])
        assert rc == 0
        _, _, rows = read_csv(out)
        assert rows.shape[0] == 3  # flag wins
        assert rows[0, 0] == 1.0 and rows[-1, 0] == 2.0  # config wins over default

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"banana": 1}))
        rc = main(["force", "--config", str(cfg), "-o", str(tmp_path / "c.csv")])
        assert rc == 1

    @pytest.mark.parametrize(
        "command, conf, key",
        [
            ("force", 5, None),
            ("force", ["points", 3], None),
            ("force", {"points": "3"}, "points"),
            ("force", {"points": 3.0}, "points"),
            ("force", {"points": True}, "points"),
            ("force", {"d_min": "1"}, "d_min"),
            ("force", {"log_spacing": 1}, "log_spacing"),
            ("force", {"model": None}, "model"),
            ("force", {"model": "gold"}, "model"),
            ("scan-delta", {"model": "tabulated"}, "model"),
            ("simulate", {"kind": "pink"}, "kind"),
            ("chi2", {"data": 5}, "data"),
            ("correct", {"emit": "fig2"}, "emit"),
            ("kk", {"log_spacing": "no"}, "log_spacing"),
        ],
    )
    def test_rejected_config(self, command, conf, key, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(conf))
        rc = main([command, "--config", str(cfg), "-o", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert str(cfg) in err
        assert key is None or key in err

    def test_malformed_config_names_itself(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text("not json\n")
        assert main(["kk", "--config", str(cfg), "-o", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert f"casfluct kk: config file {cfg}: Expecting value: line 1 column 1" in err

    def test_byte_order_mark_is_skipped(self, tmp_path):
        """A config saved with a UTF-8 byte-order mark runs, with the hash of the same config without it."""
        out = tmp_path / "c.csv"
        runs = {}
        for name, bom in (("plain", b""), ("marked", b"\xef\xbb\xbf")):
            cfg = tmp_path / f"{name}.json"
            cfg.write_bytes(bom + b'{"points": 3}')
            assert main(["force", "--config", str(cfg), "-o", str(out)]) == 0
            runs[name] = read_csv(out)
        assert runs["marked"][2].shape[0] == 3
        assert [c for c in runs["marked"][0] if c.startswith("# config_hash:")] == [
            c for c in runs["plain"][0] if c.startswith("# config_hash:")]
        assert runs["marked"][2].tobytes() == runs["plain"][2].tobytes()

    def test_config_values_not_coerced(self, tmp_path):
        """An int where the default is a float is kept as an int, so the hash is the file's."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"d_min": 1, "d_max": 2, "points": 3}))
        out = tmp_path / "c.csv"
        assert main(["force", "--config", str(cfg), "--log-spacing", "-o", str(out)]) == 0
        defaults = vars(_merge_opts("force", argparse.Namespace()))
        want = {**defaults, "d_min": 1, "d_max": 2, "points": 3, "log_spacing": True,
                "output": str(out)}
        comments, _, _ = read_csv(out)
        assert f"# config_hash: {config_hash(want)}" in comments
        assert config_hash(want) != config_hash({**want, "d_min": 1.0, "d_max": 2.0})
