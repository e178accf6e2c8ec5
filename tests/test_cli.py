import argparse
import hashlib
import json
import warnings

import numpy as np
import pytest

import casfluct as cf
from casfluct.cli import _COMMANDS, _build_parser, _merge_opts, main
from casfluct.provenance import config_hash

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
        import functools

        import casfluct.cli as cli

        strict = functools.partial(cli.LifshitzSettings, quad_rel_tol=1e-16)
        monkeypatch.setattr(cli, "LifshitzSettings", strict)
        rc = main(["correct", "--points", "3", "-o", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "numerical" in capsys.readouterr().err

    def test_one_kernel_pass_per_force_row(self, tmp_path, monkeypatch):
        import casfluct.lifshitz as lif

        passes = []
        real = lif._thermal_sum

        def counting(*args):
            passes.extend(args[1])  # the separations summed
            return real(*args)

        def forbidden(*args, **kwargs):
            raise AssertionError("correct must not run this")

        monkeypatch.setattr(lif, "_thermal_sum", counting)
        monkeypatch.setattr(lif, "_zero_t_integral", forbidden)
        monkeypatch.setattr(lif, "derivative", forbidden)
        assert main(["correct", "--points", "25", "-o", str(tmp_path / "c.csv")]) == 0
        assert len(passes) == 25
        passes.clear()
        assert main(["correct", "--emit", "fig1", "--points", "25",
                     "-o", str(tmp_path / "f.csv")]) == 0
        assert len(passes) == 50  # plasma and Drude; the T = 0 mirror is closed form

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


    def test_one_apparent_force_call_per_step(self, tmp_path, data_csv, monkeypatch):
        import casfluct.cli as cli

        shapes = []
        real = cli.apparent_force

        def counting(force, d, *args, **kwargs):
            shapes.append(np.shape(d))
            return real(force, d, *args, **kwargs)

        monkeypatch.setattr(cli, "apparent_force", counting)
        rc = main(["scan-delta", "--data", str(data_csv), "--steps", "31",
                   "-o", str(tmp_path / "scan.csv")])
        assert rc == 0
        assert shapes == [(len(DATA_ROWS),)] * 31


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
    [("kk", "log_spacing", True), ("force", "log_spacing", False),
     ("force", "zero_temperature", False)],
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
    if dest == "log_spacing":
        spacing = {True: np.geomspace, False: np.linspace}
        np.testing.assert_allclose(rows["flag"][:, 0], spacing[not default](lo, hi, n), rtol=0, atol=0)
        np.testing.assert_allclose(rows["default"][:, 0], spacing[default](lo, hi, n), rtol=0, atol=0)


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
    ],
)
def test_parser_output_matches_full_parser(argv, capsys, monkeypatch):
    """main builds only the invoked subcommand's options; what a user reads is unchanged."""
    monkeypatch.setenv("COLUMNS", "100")
    full = _parse_outcome(lambda a: _build_parser().parse_args(a), argv, capsys)
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
    options = {name: [a.dest for a in p._actions] for name, p in subparsers.items()}
    assert options.pop("kk")[-1] == "output"
    assert set(map(tuple, options.values())) == {("help",)}


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
    files = {"data": data_csv, "table": _optical_table(tmp_path / "optical.csv")}
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
    "command, digest",
    [
        ("force", "15a9527d9e15"),
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
        pytest.param(["correct", "--profile", "table", "--profile-table", "{one_row}"],
                     "{one_row}: need >= 2", id="profile-one-row"),
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
                     "{nan_row}: delta must be finite and >= 0, got nan", id="profile-nan-row"),
        pytest.param(["simulate", "--delta-rms", "nan"], "target_rms must be finite and >= 0, got nan",
                     id="simulate-delta-rms-nan"),
        pytest.param(["tilt-estimate", "--ref-noise-nm", "nan"],
                     "ref_noise must be finite and >= 0, got nan", id="tilt-ref-noise-nan"),
    ],
)
def test_bad_input_exits_1(argv, message, tmp_path, data_csv, capsys, monkeypatch):
    import casfluct.cli as cli

    def no_lifshitz_work(*args, **kwargs):
        raise AssertionError("bad input must be rejected before any force curve")

    monkeypatch.setattr(cli, "force_curve", no_lifshitz_work)
    files = {
        "data": str(data_csv),
        "table": str(_optical_table(tmp_path / "optical.csv")),
        "one_row": str(_profile_table(tmp_path / "one.csv", rows=["1.0,0.1"])),
        "nan_row": str(_profile_table(tmp_path / "nan.csv", rows=["0.5,0.1", "6.5,nan"])),
        "headerless": str(tmp_path / "bare.csv"),
    }
    (tmp_path / "bare.csv").write_text("0.5,0.1\n6.5,0.2\n")
    out = tmp_path / "out"
    assert main([a.format(**files) for a in argv] + ["-o", str(out)]) == 1
    assert message.format(**files) in capsys.readouterr().err
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
@pytest.mark.parametrize("case", ["bad-row", "wrong-header", "missing-header", "non-ascending"])
def test_input_errors_name_file_and_line(name, case, tmp_path, data_csv, capsys):
    """Every input CSV is read by one reader: errors exit 1 naming file:line."""
    argv, header, (first, last) = _INPUTS[name]
    column = header.split(",")[0]
    lines, where = {
        "bad-row": ([header, "# comments count", first, "1.0,not-a-number", last], ":4: "),
        "wrong-header": (["x_" + header, first, last], ":1: header"),
        "missing-header": ([first, last], ":1: header"),
        "non-ascending": ([header, first, last, first], f":4: {column} must be strictly ascending"),
    }[case]
    path = tmp_path / f"{name}.csv"
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
