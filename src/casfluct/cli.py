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
from .background import ElectrostaticBackground, TotalForceEvaluator, fit_background
from .corrections import (
    ConstantProfile,
    SqrtLawProfile,
    TableProfile,
    apparent_force,
    inflated_sigma,
    tilt_noise_estimate,
)
from .dataset import load_dataset, read_csv, read_table, require_ascending
from .lifshitz import (
    ConvergenceError,
    LifshitzSettings,
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
)
from .units import UDYNE, ExperimentGeometry

UM = 1e-6
UDYNE_UM = UDYNE * UM  # beta unit in SI

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


def _grid(opts, axis: str) -> np.ndarray:
    """``--points`` values from ``--<axis>-min`` to ``--<axis>-max`` (log-spaced
    with ``--log-spacing``)."""
    lo, hi = getattr(opts, f"{axis}_min"), getattr(opts, f"{axis}_max")
    if not lo > 0 or not hi > lo:
        raise ValueError(f"need 0 < {axis}_min < {axis}_max, got [{lo}, {hi}]")
    if opts.points < 2:
        raise ValueError(f"need >= 2 grid points, got points = {opts.points}")
    space = np.geomspace if getattr(opts, "log_spacing", False) else np.linspace
    return space(lo, hi, opts.points)


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
    if opts.profile == "sqrt":
        return SqrtLawProfile(scale=opts.scale * UM, amplitude=opts.amplitude * UM)
    if opts.profile == "table":
        if not opts.profile_table:
            raise ValueError("--profile table requires --profile-table")
        return read_table(
            opts.profile_table, ["d_um", "delta_um"], lambda d, delta: TableProfile(d * UM, delta * UM)
        )
    return ConstantProfile(delta_rms=opts.delta_rms * UM)


# --------------------------------------------------------------------------
# subcommands


def _cmd_force(opts) -> int:
    model = _build_model(opts)
    geometry = _geometry(opts)
    settings = LifshitzSettings(zero_temperature_mode=opts.zero_temperature)
    grid = _grid(opts, "d") * UM
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
    grid = _grid(opts, "d")
    totals = []
    for model in (Plasma(opts.omega_p), Drude(opts.omega_p, opts.gamma)):
        casimir = SpherePlateForce(model, geometry, settings)
        casimir.preload(grid * UM)
        totals.append(TotalForceEvaluator(bg, casimir))
    pc0 = SpherePlateForce(
        PerfectConductor(), geometry, LifshitzSettings(zero_temperature_mode=True)
    )
    rows = []
    for d_um in grid:
        d = d_um * UM
        delta = profile(d)
        row = [d_um]
        f_pc = pc0(d) / UDYNE
        row += [f_pc, f_pc * d_um**3]
        for total in totals:
            f_c = total.casimir(d) / UDYNE
            # curvature= is needed: the force is the Casimir part alone, the curvature the total's
            f_a = apparent_force(total.casimir, d, delta, curvature=total.curvature(d)) / UDYNE
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
    model = _build_model(opts)
    bg = ElectrostaticBackground(beta=opts.beta * UDYNE_UM, d0=opts.d0 * UM)
    casimir = SpherePlateForce(model, geometry, settings)
    grid = _grid(opts, "d")
    casimir.preload(grid * UM)
    total = TotalForceEvaluator(bg, casimir)
    meta["model"] = opts.model
    rows = []
    for d_um in grid:
        d = d_um * UM
        delta = profile(d)
        f = total(d)
        f_a = apparent_force(total, d, delta)
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
    """Spline evaluator from a theory CSV: d_um first, the force column second.

    ``column`` selects a named force column from the header instead, so
    e.g. the F_apparent_udyne column of a corrected-curve file can be
    compared directly.
    """
    header, rows = read_csv(path, ["d_um"], exact=False)
    require_ascending(path, header, rows)
    if column is None and len(header) > 1:
        column = header[1]
    if column not in header[1:]:
        raise ValueError(f"{path}: no column {column!r}; header has {header}")
    if len(rows) < 4:
        raise ValueError(f"{path}: need >= 4 theory rows for spline interpolation")
    idx = header.index(column)
    d_um = np.array([r[0] for r in rows.values()])
    f_ud = np.array([r[idx] for r in rows.values()])
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
    if opts.steps < 1:
        raise ValueError(f"need >= 1 scan step, got steps = {opts.steps}")
    if not opts.delta_max > opts.delta_min >= 0:
        raise ValueError("need 0 <= delta_min < delta_max")
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
        return lambda d: apparent_force(total, d, delta)

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
    grid = _grid(opts, "xi")
    eps = kk_transform(table, grid)
    meta = _meta("kk", opts, {"table": opts.table})
    _write_csv(opts.output, meta, ["xi_ev", "eps"], zip(grid, eps))
    return 0


# --------------------------------------------------------------------------
# option table

# subcommand -> (help, handler, options); an option is (dest, default,
# argparse keywords).  Its flag is --dest with '_' written as '-' (output
# is -o/--output) and its config-file key is dest.
_MODELS = ("perfect", "plasma", "drude")
_MODEL = ("model", "drude", {"choices": _MODELS + ("tabulated",), "help": "material model"})
_METAL = (
    ("omega_p", 9.0, {"type": float, "help": "plasma frequency (eV)"}),
    ("gamma", 0.035, {"type": float, "help": "Drude relaxation (eV)"}),
)
_EPS_TABLE = ("eps_table", None, {"help": "CSV xi_ev,eps for the tabulated model"})
_SPHERE = (
    ("radius_cm", 12.4, {"type": float, "help": "sphere radius (cm)"}),
    ("temperature", 300.0, {"type": float, "help": "temperature (K)"}),
)
_BETA = ("beta", 215.0, {"type": float, "help": "background strength (udyne um)"})
_D0 = ("d0", 0.0, {"type": float, "help": "background distance offset (um)"})
_DELTA_RMS = ("delta_rms", 0.1, {"type": float, "help": "rms fluctuation (um)"})
_DATA = ("data", None, {"help": "measured dataset CSV"})
_OUTPUT = {"help": "output path"}

_COMMANDS = {
    "force": ("compute a sphere-plate force curve", _cmd_force, (
        _MODEL, *_METAL, _EPS_TABLE,
        ("d_min", 0.5, {"type": float, "help": "min separation (um)"}),
        ("d_max", 6.0, {"type": float, "help": "max separation (um)"}),
        ("points", 50, {"type": int, "help": "grid size"}),
        ("log_spacing", False, {"action": argparse.BooleanOptionalAction}),
        *_SPHERE,
        ("zero_temperature", False, {
            "action": argparse.BooleanOptionalAction,
            "help": "use the continuous-frequency (T=0) integral"}),
        ("output", "force_curve.csv", _OUTPUT),
    )),
    "correct": ("apply the fluctuation correction to a force curve", _cmd_correct, (
        _MODEL, *_METAL, _EPS_TABLE, _BETA, _D0, _DELTA_RMS,
        ("profile", "const", {"choices": ("const", "sqrt", "table")}),
        ("profile_table", None, {"help": "CSV d_um,delta_um"}),
        ("amplitude", 1.0, {"type": float, "help": "sqrt-profile amplitude (um)"}),
        ("scale", 3.0, {"type": float, "help": "sqrt-profile scale (um)"}),
        ("d_min", 0.6, {"type": float, "help": "min separation (um)"}),
        ("d_max", 6.0, {"type": float, "help": "max separation (um)"}),
        ("points", 25, {"type": int, "help": "grid size"}),
        *_SPHERE,
        ("emit", None, {
            "choices": ("fig1",), "help": "corrected/uncorrected F*d^3 for both metal models"}),
        ("output", "corrected_curve.csv", _OUTPUT),
    )),
    "fit-beta": ("fit the electrostatic background to long-distance data", _cmd_fit_beta, (
        _DATA,
        ("d_min", 2.0, {"type": float, "help": "fit points with d > this (um)"}),
        ("subtract", None, {
            "choices": _MODELS, "help": "subtract this dispersion-force model before fitting"}),
        *_METAL, *_SPHERE,
        ("output", "background_fit.json", _OUTPUT),
    )),
    "chi2": ("chi-squared of a theory curve against a dataset", _cmd_chi2, (
        _DATA,
        ("theory", None, {"help": "theory curve CSV (d_um,F_udyne)"}),
        ("column", None, {"help": "named force column to compare (default: second column)"}),
        ("dof", None, {"type": int, "help": "override degrees of freedom"}),
        ("fitted_params", 0, {"type": int}),
        ("output", "chi2_report.json", _OUTPUT),
    )),
    "scan-delta": ("chi-squared profile over fluctuation amplitude", _cmd_scan_delta, (
        _DATA,
        ("model", "drude", {"choices": _MODELS, "help": "material model"}),
        *_METAL, _BETA, _D0,
        ("delta_min", 0.0, {"type": float, "help": "scan start (um)"}),
        ("delta_max", 0.3, {"type": float, "help": "scan end (um)"}),
        ("steps", 31, {"type": int}),
        *_SPHERE,
        ("output", "delta_scan.csv", _OUTPUT),
    )),
    "simulate": ("Monte Carlo time-averaging check", _cmd_simulate, (
        ("d", 1.0, {"type": float, "help": "separation (um)"}),
        _DELTA_RMS,
        ("beta", 215.0, {"type": float, "help": "background strength (udyne um); 0 disables"}),
        ("model", None, {"choices": _MODELS, "help": "dispersion-force model (default: none)"}),
        *_METAL, *_SPHERE,
        ("f_lo", 0.01, {"type": float, "help": "band low edge (Hz)"}),
        ("f_hi", 5.0, {"type": float, "help": "band high edge (Hz)"}),
        ("dt", 0.05, {"type": float, "help": "sample interval (s)"}),
        ("duration", 10000.0, {"type": float, "help": "series duration (s)"}),
        ("seed", 0, {"type": int}),
        ("trials", 10, {"type": int}),
        ("kind", "white", {"choices": ("white", "one-over-f")}),
        ("output", "simulation_report.json", _OUTPUT),
    )),
    "tilt-estimate": ("scale pendulum tilt noise to another length", _cmd_tilt, (
        ("ref_noise_nm", 20.0, {"type": float}),
        ("ref_length_cm", 4.0, {"type": float}),
        ("length_cm", 80.0, {"type": float}),
        ("mode_freq_ratio", None, {"type": float}),
        ("output", None, _OUTPUT),
    )),
    "kk": ("eps(i*xi) from a real-axis absorption table", _cmd_kk, (
        ("table", None, {"help": "absorption CSV (omega_ev,eps_imag)"}),
        ("xi_min", 0.05, {"type": float}),
        ("xi_max", 10.0, {"type": float}),
        ("points", 40, {"type": int}),
        ("log_spacing", True, {
            "action": argparse.BooleanOptionalAction, "help": "log-spaced xi grid (default); "
            "--no-log-spacing gives a linear one"}),
        ("output", "eps_imag_axis.csv", _OUTPUT),
    )),
}


def _check_config_value(path, key: str, value, default, kwargs: dict) -> None:
    """Reject a config value of another type or outside the option's choices.

    Values are checked, never coerced, so a config keeps its config hash.
    """
    if kwargs.get("action") is argparse.BooleanOptionalAction:
        want, ok = "true or false", isinstance(value, bool)
    else:
        kind = kwargs.get("type", str)
        want = kind.__name__ + (" or null" if default is None else "")
        number = (int, float) if kind is float else kind
        ok = (value is None and default is None) or (
            isinstance(value, number) and not isinstance(value, bool)
        )
    if not ok:
        raise ValueError(f"config file {path}: {key} must be {want}, got {value!r}")
    choices = kwargs.get("choices")
    if choices and value is not None and value not in choices:
        raise ValueError(
            f"config file {path}: {key} must be one of {list(choices)}, got {value!r}"
        )


def _merge_opts(command: str, args: argparse.Namespace) -> SimpleNamespace:
    """defaults < config file < explicit flags."""
    options = {dest: (default, kwargs) for dest, default, kwargs in _COMMANDS[command][2]}
    merged = {dest: default for dest, (default, _) in options.items()}
    config_path = getattr(args, "config", None)
    if config_path:
        with open(config_path) as fh:
            file_conf = json.load(fh)
        if not isinstance(file_conf, dict):
            raise ValueError(f"config file {config_path} must hold a JSON object")
        unknown = set(file_conf) - set(merged)
        if unknown:
            raise ValueError(
                f"config file {config_path} has unknown keys for '{command}': {sorted(unknown)}"
            )
        for key, value in file_conf.items():
            _check_config_value(config_path, key, value, *options[key])
        merged.update(file_conf)
    merged.update({k: v for k, v in vars(args).items() if k not in ("func", "command", "config")})
    return SimpleNamespace(**merged)


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI parser; with ``command``, only that subcommand gets its options.

    Every subcommand is still registered, so the top-level usage and help
    read the same either way.
    """
    parser = argparse.ArgumentParser(
        prog="casfluct",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=TOOL_VERSION)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, func, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        p.set_defaults(func=func, command=name)
        if command not in (None, name):
            continue
        p.add_argument("--config", help="JSON config file; explicit flags override it")
        for dest, _, kwargs in options:
            flags = ("-o", "--output") if dest == "output" else ("--" + dest.replace("_", "-"),)
            p.add_argument(*flags, dest=dest, **kwargs)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    args = parser.parse_args(argv)
    try:
        opts = _merge_opts(args.command, args)
        return args.func(opts)
    except (ConvergenceError, TheoryEvaluationError, ArithmeticError) as exc:
        print(f"casfluct {args.command}: numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"casfluct {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
