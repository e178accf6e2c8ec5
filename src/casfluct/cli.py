"""Command-line front end for the force/correction/analysis pipeline.

One subcommand per procedure: ``force`` (force-vs-distance curves),
``correct`` (fluctuation-corrected curves), ``fit-beta`` (electrostatic
background fit), ``chi2`` (model comparison), ``scan-delta`` (fluctuation
amplitude scan), ``simulate`` (Monte Carlo time-averaging check),
``tilt-estimate`` (pendulum tilt-noise scaling), and ``kk`` (absorption
table to eps(i*xi)).  All outputs are plot-ready CSV/JSON written
atomically, carry provenance headers (tool version, config hash, input
hashes), and are byte-reproducible for fixed seeds.  Exit codes: 0 ok,
1 validation error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from types import SimpleNamespace

import numpy as np

from .analysis import TheoryEvaluationError, chi_squared, scan_delta
from .background import ElectrostaticBackground, FitError, TotalForceEvaluator, fit_background
from .corrections import (
    ConstantProfile,
    SqrtLawProfile,
    TableProfile,
    apparent_force,
    inflated_sigma,
    tilt_noise_estimate,
)
from .dataset import DatasetError, load_dataset
from .lifshitz import (
    ConvergenceError,
    LifshitzSettings,
    PFAValidityError,
    SpherePlateForce,
    TabulatedForceCurve,
    force_curve,
    sphere_plate_force,
)
from .oracle import ProcessSpec, verify_second_order
from .permittivity import (
    Drude,
    PerfectConductor,
    Plasma,
    kk_transform,
    load_eps_table,
    load_optical_table,
)
from .provenance import (
    TOOL_VERSION,
    atomic_write_text,
    config_hash,
    file_hash,
    meta_comment_lines,
    parallel_map,
)
from .units import UDYNE, DomainError, ExperimentGeometry, UnitError

UM = 1e-6
UDYNE_UM = UDYNE * UM  # beta unit in SI

_DEFAULTS: dict[str, dict] = {
    "force": {
        "model": "drude",
        "omega_p": 9.0,
        "gamma": 0.035,
        "eps_table": None,
        "d_min": 0.5,
        "d_max": 6.0,
        "points": 50,
        "log_spacing": False,
        "radius_cm": 12.4,
        "temperature": 300.0,
        "zero_temperature": False,
        "output": "force_curve.csv",
    },
    "correct": {
        "model": "drude",
        "omega_p": 9.0,
        "gamma": 0.035,
        "eps_table": None,
        "beta": 215.0,
        "d0": 0.0,
        "delta_rms": 0.1,
        "profile": "const",
        "profile_table": None,
        "amplitude": 1.0,
        "scale": 3.0,
        "d_min": 0.6,
        "d_max": 6.0,
        "points": 25,
        "radius_cm": 12.4,
        "temperature": 300.0,
        "emit": None,
        "output": "corrected_curve.csv",
    },
    "fit-beta": {
        "data": None,
        "d_min": 2.0,
        "subtract": None,
        "omega_p": 9.0,
        "gamma": 0.035,
        "radius_cm": 12.4,
        "temperature": 300.0,
        "output": "background_fit.json",
    },
    "chi2": {
        "data": None,
        "theory": None,
        "column": None,
        "dof": None,
        "fitted_params": 0,
        "output": "chi2_report.json",
    },
    "scan-delta": {
        "data": None,
        "model": "drude",
        "omega_p": 9.0,
        "gamma": 0.035,
        "beta": 215.0,
        "d0": 0.0,
        "delta_min": 0.0,
        "delta_max": 0.3,
        "steps": 31,
        "radius_cm": 12.4,
        "temperature": 300.0,
        "output": "delta_scan.csv",
    },
    "simulate": {
        "d": 1.0,
        "delta_rms": 0.1,
        "beta": 215.0,
        "model": None,
        "omega_p": 9.0,
        "gamma": 0.035,
        "radius_cm": 12.4,
        "temperature": 300.0,
        "f_lo": 0.01,
        "f_hi": 5.0,
        "dt": 0.05,
        "duration": 10000.0,
        "seed": 0,
        "trials": 10,
        "kind": "white",
        "output": "simulation_report.json",
    },
    "tilt-estimate": {
        "ref_noise_nm": 20.0,
        "ref_length_cm": 4.0,
        "length_cm": 80.0,
        "mode_freq_ratio": None,
        "output": None,
    },
    "kk": {
        "table": None,
        "xi_min": 0.05,
        "xi_max": 10.0,
        "points": 40,
        "log_spacing": True,
        "output": "eps_imag_axis.csv",
    },
}


def _merge_opts(command: str, args: argparse.Namespace) -> SimpleNamespace:
    """defaults < config file < explicit flags."""
    merged = dict(_DEFAULTS[command])
    explicit = {k: v for k, v in vars(args).items() if k not in ("func", "command", "config")}
    config_path = getattr(args, "config", None)
    if config_path:
        with open(config_path) as fh:
            file_conf = json.load(fh)
        unknown = set(file_conf) - set(merged)
        if unknown:
            raise ValueError(
                f"config file {config_path} has unknown keys for '{command}': {sorted(unknown)}"
            )
        merged.update(file_conf)
    merged.update(explicit)
    return SimpleNamespace(**merged)


def _build_model(opts):
    name = opts.model
    if name == "perfect":
        return PerfectConductor()
    if name == "plasma":
        return Plasma(omega_p_ev=opts.omega_p)
    if name == "drude":
        return Drude(omega_p_ev=opts.omega_p, gamma_ev=opts.gamma)
    if name == "tabulated":
        if not opts.eps_table:
            raise ValueError("--model tabulated requires --eps-table")
        return load_eps_table(opts.eps_table, low_freq=Drude(opts.omega_p, opts.gamma))
    raise ValueError(f"unknown model {name!r}; choose perfect|plasma|drude|tabulated")


def _geometry(opts) -> ExperimentGeometry:
    return ExperimentGeometry(
        sphere_radius=opts.radius_cm * 1e-2, temperature=opts.temperature
    )


def _grid_um(opts) -> np.ndarray:
    if not opts.d_min > 0 or not opts.d_max > opts.d_min:
        raise ValueError(f"need 0 < d_min < d_max, got [{opts.d_min}, {opts.d_max}]")
    if opts.points < 2:
        raise ValueError(f"need >= 2 grid points, got {opts.points}")
    if getattr(opts, "log_spacing", False):
        return np.geomspace(opts.d_min, opts.d_max, opts.points)
    return np.linspace(opts.d_min, opts.d_max, opts.points)


def _meta(command: str, opts, inputs: dict | None = None) -> dict:
    meta = {"command": command, "config_hash": config_hash(vars(opts))}
    for name, path in (inputs or {}).items():
        meta[f"input_hash:{name}"] = file_hash(path)
    return meta


def _write_csv(path, meta: dict, columns: list[str], rows) -> None:
    lines = meta_comment_lines(meta)
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(repr(float(v)) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def _write_json(path, meta: dict, payload: dict) -> None:
    payload = {"_meta": {"tool_version": TOOL_VERSION, **meta}, **payload}
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _profile(opts):
    if getattr(opts, "profile", "const") == "sqrt":
        return SqrtLawProfile(scale=opts.scale * UM, amplitude=opts.amplitude * UM)
    if getattr(opts, "profile", "const") == "table":
        if not opts.profile_table:
            raise ValueError("--profile table requires --profile-table")
        raw = np.loadtxt(opts.profile_table, delimiter=",", comments="#")
        return TableProfile(d=raw[:, 0] * UM, delta=raw[:, 1] * UM)
    return ConstantProfile(delta_rms=opts.delta_rms * UM)


# --------------------------------------------------------------------------
# subcommands


def _cmd_force(opts) -> int:
    model = _build_model(opts)
    geometry = _geometry(opts)
    settings = LifshitzSettings(zero_temperature_mode=opts.zero_temperature)
    grid = _grid_um(opts) * UM
    curve = force_curve(model, geometry, grid, settings)
    inputs = {"eps_table": opts.eps_table} if opts.eps_table else None
    meta = _meta("force", opts, inputs)
    meta.update(
        model=opts.model,
        temperature_K=geometry.temperature,
        radius_cm=opts.radius_cm,
        settings_hash=config_hash(asdict(settings)),
    )
    rows = zip(curve.d_m / UM, curve.force_N / UDYNE)
    _write_csv(opts.output, meta, ["d_um", "F_udyne"], rows)
    return 0


def _fig1_rows(opts, geometry, settings, profile):
    """Theory-side corrected/uncorrected F*d^3 table for both metal models."""
    bg = ElectrostaticBackground(beta=opts.beta * UDYNE_UM, d0=opts.d0 * UM)
    plasma = SpherePlateForce(Plasma(opts.omega_p), geometry, settings)
    drude = SpherePlateForce(Drude(opts.omega_p, opts.gamma), geometry, settings)
    pc0 = SpherePlateForce(
        PerfectConductor(), geometry, LifshitzSettings(zero_temperature_mode=True)
    )
    rows = []
    for d_um in _grid_um(opts):
        d = d_um * UM
        delta = profile(d)
        row = [d_um]
        f_pc = pc0(d) / UDYNE
        row += [f_pc, f_pc * d_um**3]
        for casimir in (plasma, drude):
            f_c = casimir(d) / UDYNE
            curvature = bg.curvature(d) + casimir.curvature(d)
            f_a = apparent_force(casimir, d, delta, curvature=curvature) / UDYNE
            row += [f_c, f_a, f_c * d_um**3, f_a * d_um**3]
        row.append(delta / UM)
        rows.append(row)
    return rows


def _cmd_correct(opts) -> int:
    geometry = _geometry(opts)
    settings = LifshitzSettings()
    profile = _profile(opts)
    inputs = {}
    if opts.eps_table:
        inputs["eps_table"] = opts.eps_table
    if opts.profile_table:
        inputs["profile_table"] = opts.profile_table
    meta = _meta("correct", opts, inputs or None)
    meta.update(
        beta_udyne_um=opts.beta,
        temperature_K=geometry.temperature,
        radius_cm=opts.radius_cm,
        settings_hash=config_hash(asdict(settings)),
    )
    if opts.emit == "fig1":
        columns = [
            "d_um",
            "F_pc0_udyne",
            "Fd3_pc0_udyne_um3",
            "F_plasma_udyne",
            "Fa_plasma_udyne",
            "Fd3_plasma_udyne_um3",
            "Fad3_plasma_udyne_um3",
            "F_drude_udyne",
            "Fa_drude_udyne",
            "Fd3_drude_udyne_um3",
            "Fad3_drude_udyne_um3",
            "delta_rms_um",
        ]
        meta["emit"] = "fig1"
        _write_csv(opts.output, meta, columns, _fig1_rows(opts, geometry, settings, profile))
        return 0
    if opts.emit is not None:
        raise ValueError(f"unknown emit mode {opts.emit!r}; supported: fig1")
    model = _build_model(opts)
    bg = ElectrostaticBackground(beta=opts.beta * UDYNE_UM, d0=opts.d0 * UM)
    total = TotalForceEvaluator(bg, SpherePlateForce(model, geometry, settings))
    meta["model"] = opts.model
    rows = []
    for d_um in _grid_um(opts):
        d = d_um * UM
        delta = profile(d)
        f = total(d)
        f_a = apparent_force(total, d, delta, curvature=total.curvature)
        sig = inflated_sigma(0.0, total.gradient(d), delta)
        rows.append([d_um, f / UDYNE, f_a / UDYNE, delta / UM, sig / UDYNE])
    columns = ["d_um", "F_udyne", "F_apparent_udyne", "delta_rms_um", "sigma_inflation_udyne"]
    _write_csv(opts.output, meta, columns, rows)
    return 0


def _cmd_fit_beta(opts) -> int:
    if not opts.data:
        raise ValueError("fit-beta requires --data")
    data = load_dataset(opts.data)
    subtractor = None
    if opts.subtract:
        geometry = _geometry(opts)
        sub_opts = SimpleNamespace(
            model=opts.subtract, omega_p=opts.omega_p, gamma=opts.gamma, eps_table=None
        )
        model = _build_model(sub_opts)
        # F only: SpherePlateForce would also pay for F' and F''
        subtractor = lambda d: sphere_plate_force(model, d, geometry)
    fit = fit_background(data, d_min=opts.d_min * UM, casimir_subtractor=subtractor)
    meta = _meta("fit-beta", opts, {"data": opts.data})
    payload = fit.to_json_dict()
    payload["d0_at_bounds"] = fit.d0_at_bounds
    _write_json(opts.output, meta, payload)
    return 0


def _load_theory_curve(path, column: str | None = None) -> TabulatedForceCurve:
    """Spline evaluator from a theory CSV (d_um first, force column second).

    ``column`` selects a named force column from the header instead, so
    e.g. the F_apparent_udyne column of a corrected-curve file can be
    compared directly.
    """
    header: list[str] | None = None
    rows: list[list[str]] = []
    with open(path) as fh:
        text = fh.read()
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split(",")]
        if header is None:
            try:
                float(fields[0])
            except ValueError:
                header = fields
                continue
            header = []  # headerless file
        rows.append(fields)
    idx = 1
    if column is not None:
        if not header:
            raise ValueError(f"{path}: --column requires a header row")
        if column not in header:
            raise ValueError(f"{path}: no column {column!r}; header has {header}")
        idx = header.index(column)
    if len(rows) < 4:
        raise ValueError(f"{path}: need >= 4 theory rows for spline interpolation")
    try:
        d_um = np.array([float(r[0]) for r in rows])
        f_ud = np.array([float(r[idx]) for r in rows])
    except (ValueError, IndexError) as exc:
        raise ValueError(f"{path}: bad theory row: {exc}") from exc
    return TabulatedForceCurve(d_um * UM, f_ud * UDYNE)


def _cmd_chi2(opts) -> int:
    if not opts.data or not opts.theory:
        raise ValueError("chi2 requires --data and --theory")
    data = load_dataset(opts.data)
    theory = _load_theory_curve(opts.theory, column=opts.column)
    report = chi_squared(
        data, theory, fitted_params=opts.fitted_params, dof_override=opts.dof
    )
    meta = _meta("chi2", opts, {"data": opts.data, "theory": opts.theory})
    _write_json(opts.output, meta, report.to_json_dict())
    return 0


def _cmd_scan_delta(opts) -> int:
    if not opts.data:
        raise ValueError("scan-delta requires --data")
    data = load_dataset(opts.data)
    geometry = _geometry(opts)
    model = _build_model(opts)
    bg = ElectrostaticBackground(beta=opts.beta * UDYNE_UM, d0=opts.d0 * UM)
    # dense spline of the dispersion curve; cheap to re-evaluate per delta
    lo, hi = float(data.d_m.min()) * 0.8, float(data.d_m.max()) * 1.2
    dense = np.geomspace(lo, hi, 120)
    casimir = force_curve(model, geometry, dense).as_evaluator()
    total = TotalForceEvaluator(bg, casimir)

    def family(delta: float):
        return lambda d: apparent_force(total, d, delta, curvature=total.curvature)

    if not opts.delta_max > opts.delta_min >= 0:
        raise ValueError("need 0 <= delta_min < delta_max")
    grid = np.linspace(opts.delta_min, opts.delta_max, opts.steps) * UM
    if grid[0] == 0.0:
        grid[0] = 1e-15  # strictly ascending grid; zero handled as 'no fluctuation'
    result = scan_delta(data, family, grid)
    meta = _meta("scan-delta", opts, {"data": opts.data})
    meta["argmin_delta_um"] = result.argmin_delta / UM
    rows = [
        [delta / UM, rep.chi2, rep.reduced, rep.p_value]
        for delta, rep in zip(result.deltas, result.reports)
    ]
    _write_csv(opts.output, meta, ["delta_um", "chi2", "reduced", "p"], rows)
    return 0


def _cmd_simulate(opts) -> int:
    d = opts.d * UM
    delta = opts.delta_rms * UM
    spec = ProcessSpec(
        target_rms=delta,
        f_lo=opts.f_lo,
        f_hi=opts.f_hi,
        kind=opts.kind,
        seed=opts.seed,
        dt=opts.dt,
        duration=opts.duration,
    )
    bg = ElectrostaticBackground(beta=opts.beta * UDYNE_UM, d0=0.0) if opts.beta else None
    casimir = None
    if opts.model:
        geometry = _geometry(opts)
        # samples outside the span are recorded as expansion breakdowns
        dense = np.geomspace(max(d - 10.0 * delta, 0.1 * d), d + 10.0 * delta, 80)
        casimir = force_curve(_build_model(opts), geometry, dense).as_evaluator()
    if bg and casimir:
        force = TotalForceEvaluator(bg, casimir)
    elif casimir:
        force = casimir
    elif bg:
        force = bg
    else:
        raise ValueError("simulate requires --beta and/or --model")
    record = verify_second_order(force, d, spec, trials=opts.trials)
    first = next((v.report for v in record.verdicts if v.report is not None), None)
    meta = _meta("simulate", opts)
    payload = {
        "seed": opts.seed,
        "d_um": opts.d,
        "delta_rms_um": opts.delta_rms,
        "mc_mean": first.mean_force / UDYNE if first else None,
        "analytic_mean": first.analytic_mean / UDYNE if first else None,
        "mc_sigma": float(np.sqrt(first.variance_force)) / UDYNE if first else None,
        "analytic_sigma": first.analytic_excess_sigma / UDYNE if first else None,
        "trials": record.trials,
        "n_mean_pass": record.n_mean_pass,
        "n_scatter_pass": record.n_scatter_pass,
        "n_scatter_applicable": record.n_scatter_applicable,
        "verdicts": [v.to_json_dict() for v in record.verdicts],
    }
    _write_json(opts.output, meta, payload)
    return 0


def _cmd_tilt(opts) -> int:
    estimate_nm = tilt_noise_estimate(
        ref_noise=opts.ref_noise_nm * 1e-9,
        ref_length=opts.ref_length_cm * 1e-2,
        length=opts.length_cm * 1e-2,
        mode_freq_ratio=opts.mode_freq_ratio,
    ) / 1e-9
    print(f"estimated rms position noise: {estimate_nm:.4g} nm")
    if opts.output:
        meta = _meta("tilt-estimate", opts)
        _write_json(
            opts.output,
            meta,
            {
                "ref_noise_nm": opts.ref_noise_nm,
                "ref_length_cm": opts.ref_length_cm,
                "length_cm": opts.length_cm,
                "mode_freq_ratio": opts.mode_freq_ratio,
                "estimate_nm": estimate_nm,
            },
        )
    return 0


def _cmd_kk(opts) -> int:
    if not opts.table:
        raise ValueError("kk requires --table")
    table = load_optical_table(opts.table)
    if not opts.xi_min > 0 or not opts.xi_max > opts.xi_min:
        raise ValueError("need 0 < xi_min < xi_max")
    if opts.log_spacing:
        grid = np.geomspace(opts.xi_min, opts.xi_max, opts.points)
    else:
        grid = np.linspace(opts.xi_min, opts.xi_max, opts.points)
    eps = parallel_map(lambda xi: kk_transform(table, xi), grid)
    meta = _meta("kk", opts, {"table": opts.table})
    _write_csv(opts.output, meta, ["xi_ev", "eps"], zip(grid, eps))
    return 0


# --------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="casfluct",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=TOOL_VERSION)
    sub = parser.add_subparsers(dest="command", required=True)

    def new(name, func, help_text):
        p = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        p.add_argument("--config", help="JSON config file; explicit flags override it")
        p.set_defaults(func=func, command=name)
        return p

    p = new("force", _cmd_force, "compute a sphere-plate force curve")
    p.add_argument("--model", choices=["perfect", "plasma", "drude", "tabulated"])
    p.add_argument("--omega-p", dest="omega_p", type=float, help="plasma frequency (eV)")
    p.add_argument("--gamma", type=float, help="Drude relaxation (eV)")
    p.add_argument("--eps-table", dest="eps_table", help="CSV xi_ev,eps for tabulated model")
    p.add_argument("--d-min", dest="d_min", type=float, help="min separation (um)")
    p.add_argument("--d-max", dest="d_max", type=float, help="max separation (um)")
    p.add_argument("--points", type=int, help="grid size")
    p.add_argument("--log-spacing", dest="log_spacing", action="store_true")
    p.add_argument("--radius-cm", dest="radius_cm", type=float, help="sphere radius (cm)")
    p.add_argument("--temperature", type=float, help="temperature (K)")
    p.add_argument(
        "--zero-temperature", dest="zero_temperature", action="store_true",
        help="use the continuous-frequency (T=0) integral",
    )
    p.add_argument("-o", "--output", help="output CSV path")

    p = new("correct", _cmd_correct, "apply the fluctuation correction to a force curve")
    p.add_argument("--model", choices=["perfect", "plasma", "drude", "tabulated"])
    p.add_argument("--omega-p", dest="omega_p", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--eps-table", dest="eps_table")
    p.add_argument("--beta", type=float, help="background strength (udyne um)")
    p.add_argument("--d0", type=float, help="background distance offset (um)")
    p.add_argument("--delta-rms", dest="delta_rms", type=float, help="rms fluctuation (um)")
    p.add_argument("--profile", choices=["const", "sqrt", "table"])
    p.add_argument("--profile-table", dest="profile_table", help="CSV d_um,delta_um")
    p.add_argument("--amplitude", type=float, help="sqrt-profile amplitude (um)")
    p.add_argument("--scale", type=float, help="sqrt-profile scale (um)")
    p.add_argument("--d-min", dest="d_min", type=float)
    p.add_argument("--d-max", dest="d_max", type=float)
    p.add_argument("--points", type=int)
    p.add_argument("--radius-cm", dest="radius_cm", type=float)
    p.add_argument("--temperature", type=float)
    p.add_argument("--emit", help="'fig1': corrected/uncorrected F*d^3 for both metal models")
    p.add_argument("-o", "--output")

    p = new("fit-beta", _cmd_fit_beta, "fit the electrostatic background to long-distance data")
    p.add_argument("--data", help="measured dataset CSV")
    p.add_argument("--d-min", dest="d_min", type=float, help="fit points with d > this (um)")
    p.add_argument(
        "--subtract", choices=["perfect", "plasma", "drude"],
        help="subtract this dispersion-force model before fitting",
    )
    p.add_argument("--omega-p", dest="omega_p", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--radius-cm", dest="radius_cm", type=float)
    p.add_argument("--temperature", type=float)
    p.add_argument("-o", "--output")

    p = new("chi2", _cmd_chi2, "chi-squared of a theory curve against a dataset")
    p.add_argument("--data", help="measured dataset CSV")
    p.add_argument("--theory", help="theory curve CSV (d_um,F_udyne)")
    p.add_argument("--column", help="named force column to compare (default: second column)")
    p.add_argument("--dof", type=int, help="override degrees of freedom")
    p.add_argument("--fitted-params", dest="fitted_params", type=int)
    p.add_argument("-o", "--output")

    p = new("scan-delta", _cmd_scan_delta, "chi-squared profile over fluctuation amplitude")
    p.add_argument("--data")
    p.add_argument("--model", choices=["perfect", "plasma", "drude", "tabulated"])
    p.add_argument("--omega-p", dest="omega_p", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--d0", type=float)
    p.add_argument("--delta-min", dest="delta_min", type=float, help="scan start (um)")
    p.add_argument("--delta-max", dest="delta_max", type=float, help="scan end (um)")
    p.add_argument("--steps", type=int)
    p.add_argument("--radius-cm", dest="radius_cm", type=float)
    p.add_argument("--temperature", type=float)
    p.add_argument("-o", "--output")

    p = new("simulate", _cmd_simulate, "Monte Carlo time-averaging check")
    p.add_argument("--d", type=float, help="separation (um)")
    p.add_argument("--delta-rms", dest="delta_rms", type=float, help="rms fluctuation (um)")
    p.add_argument("--beta", type=float, help="background strength; 0 disables")
    p.add_argument("--model", choices=["perfect", "plasma", "drude", "tabulated"])
    p.add_argument("--omega-p", dest="omega_p", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--radius-cm", dest="radius_cm", type=float)
    p.add_argument("--temperature", type=float)
    p.add_argument("--f-lo", dest="f_lo", type=float, help="band low edge (Hz)")
    p.add_argument("--f-hi", dest="f_hi", type=float, help="band high edge (Hz)")
    p.add_argument("--dt", type=float, help="sample interval (s)")
    p.add_argument("--duration", type=float, help="series duration (s)")
    p.add_argument("--seed", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--kind", choices=["white", "one-over-f"])
    p.add_argument("-o", "--output")

    p = new("tilt-estimate", _cmd_tilt, "scale pendulum tilt noise to another length")
    p.add_argument("--ref-noise-nm", dest="ref_noise_nm", type=float)
    p.add_argument("--ref-length-cm", dest="ref_length_cm", type=float)
    p.add_argument("--length-cm", dest="length_cm", type=float)
    p.add_argument("--mode-freq-ratio", dest="mode_freq_ratio", type=float)
    p.add_argument("-o", "--output")

    p = new("kk", _cmd_kk, "eps(i*xi) from a real-axis absorption table")
    p.add_argument("--table", help="absorption CSV (omega_ev,eps_imag)")
    p.add_argument("--xi-min", dest="xi_min", type=float)
    p.add_argument("--xi-max", dest="xi_max", type=float)
    p.add_argument("--points", type=int)
    p.add_argument("--log-spacing", dest="log_spacing", action="store_true")
    p.add_argument("-o", "--output")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        opts = _merge_opts(args.command, args)
        return args.func(opts)
    except (ConvergenceError, TheoryEvaluationError, ArithmeticError) as exc:
        print(f"casfluct {args.command}: numerical failure: {exc}", file=sys.stderr)
        return 2
    except (
        DatasetError,
        DomainError,
        FitError,
        PFAValidityError,
        UnitError,
        ValueError,
        OSError,
    ) as exc:
        print(f"casfluct {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
