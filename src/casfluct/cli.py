"""Command-line front end for the force/correction/analysis pipeline.

One subcommand per procedure: ``force`` (force-vs-distance curves),
``correct`` (fluctuation-corrected curves), ``fit-beta`` (electrostatic
background fit), ``chi2`` (model comparison), ``scan-delta`` (fluctuation
amplitude scan), ``simulate`` (Monte Carlo time-averaging check),
``tilt-estimate`` (pendulum tilt-noise scaling), and ``kk`` (absorption
table to eps(i*xi)).  All outputs are plot-ready CSV/JSON written
atomically, carry provenance headers (tool version, config hash, a hash of
each input file read), and are byte-reproducible for fixed seeds.  A run
without an input file it reads exits 1 naming the flag.  Exit codes: 0 ok,
1 validation error, 2 numerical failure.
"""

import argparse
import json
import sys
from types import SimpleNamespace

# numpy and the layers but provenance are imported in the functions that use them: --help loads neither
from . import _KINDS
from .provenance import TOOL_VERSION, atomic_write_text, config_hash, file_hash

UM = 1e-6


def _build_model(name: str, opts):
    from .permittivity import Drude, PerfectConductor, Plasma, load_eps_table
    if name == "perfect":
        return PerfectConductor()
    if name == "plasma":
        return Plasma(omega_p_ev=opts.omega_p)
    if name == "drude":
        return Drude(omega_p_ev=opts.omega_p, gamma_ev=opts.gamma)
    # tabulated: argparse choices and the config check let no other name through
    return load_eps_table(opts.eps_table, low_freq=Drude(opts.omega_p, opts.gamma))


def _geometry(opts):
    from .units import ExperimentGeometry
    return ExperimentGeometry(sphere_radius=opts.radius_cm * 1e-2, temperature=opts.temperature)


def _grid(opts, axis: str):
    """``--points`` values from ``--<axis>-min`` to ``--<axis>-max`` (log-spaced
    with ``--log-spacing``)."""
    import numpy as np
    from .units import check_positive
    lo, hi = getattr(opts, f"{axis}_min"), getattr(opts, f"{axis}_max")
    check_positive(f"{axis}_min", lo)
    check_positive(f"{axis}_max", hi)
    if not hi > lo:
        raise ValueError(f"need {axis}_min < {axis}_max, got [{lo}, {hi}]")
    if opts.points < 2:
        raise ValueError(f"need >= 2 grid points, got points = {opts.points}")
    space = np.geomspace if getattr(opts, "log_spacing", False) else np.linspace
    return space(lo, hi, opts.points)


def _models(opts) -> tuple:
    """Names of the material models a force or correct run builds: fig1 builds plasma and Drude."""
    return ("plasma", "drude") if getattr(opts, "emit", None) == "fig1" else (opts.model,)


def _reads(name: str, opts) -> bool:
    """Whether a run opens, and so needs, the file of input-file option ``name``."""
    if name == "eps_table":
        return "tabulated" in _models(opts)
    return name != "profile_table" or opts.profile == "table"


def _meta(command: str, opts) -> dict:
    meta = {"command": command, "config_hash": config_hash(vars(opts))}
    for name in _INPUT_FILES:
        if (path := getattr(opts, name, None)) and _reads(name, opts):
            meta[f"input_hash:{name}"] = file_hash(path)
    return meta


def _write_csv(path, meta: dict, columns: list[str], rows) -> None:
    lines = [f"# tool_version: {TOOL_VERSION}", *(f"# {key}: {value}" for key, value in meta.items())]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(repr(float(v)) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def _write_json(path, meta: dict, payload: dict) -> None:
    payload = {"_meta": {"tool_version": TOOL_VERSION, **meta}, **payload}
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _profile(opts):
    from .corrections import ConstantProfile, SqrtLawProfile, TableProfile
    from .dataset import read_table
    if opts.profile == "sqrt":
        return SqrtLawProfile(scale=opts.scale * UM, amplitude=opts.amplitude * UM)
    if opts.profile == "table":
        return read_table(
            opts.profile_table, ["d_um", "delta_um"], lambda d, delta: TableProfile(d * UM, delta * UM)
        )
    return ConstantProfile(delta_rms=opts.delta_rms * UM)


# --------------------------------------------------------------------------
# subcommands


def _cmd_force(opts, meta: dict) -> int:
    from .lifshitz import force_curve
    from .units import UDYNE
    model = _build_model(opts.model, opts)
    geometry = _geometry(opts)
    grid = _grid(opts, "d") * UM
    curve = force_curve(model, geometry, grid)
    meta.update(model=opts.model, temperature_K=geometry.temperature, radius_cm=opts.radius_cm)
    rows = zip(curve.d_m / UM, curve.force_N / UDYNE)
    _write_csv(opts.output, meta, ["d_um", "F_udyne"], rows)
    return 0


def _cmd_correct(opts, meta: dict) -> int:
    from dataclasses import replace
    import numpy as np
    from .background import ElectrostaticBackground, TotalForceEvaluator
    from .corrections import apparent_force, apparent_from_values, inflated_sigma
    from .lifshitz import SpherePlateForce, sphere_plate_force
    from .permittivity import PerfectConductor
    from .units import UDYNE
    geometry = _geometry(opts)
    profile = _profile(opts)
    meta.update(beta_udyne_um=opts.beta, temperature_K=geometry.temperature, radius_cm=opts.radius_cm)
    fig1 = opts.emit == "fig1"
    names = _models(opts)
    bg = ElectrostaticBackground(beta=opts.beta * (UDYNE * UM), d0=opts.d0 * UM)
    grid = _grid(opts, "d")
    d = grid * UM
    delta = np.array([profile(x) for x in d])
    d3 = np.array([x**3 for x in grid])  # per point: an array cube may differ in the last bit
    cols = {"d_um": grid}
    if fig1:
        # the Casimir part of both metal models, uncorrected and corrected, next to the T = 0 mirror
        meta["emit"] = "fig1"
        f_pc = sphere_plate_force(PerfectConductor(), d, replace(geometry, temperature=0.0)) / UDYNE
        cols["F_pc0_udyne"], cols["Fd3_pc0_udyne_um3"] = f_pc, f_pc * d3
    else:
        meta["model"] = opts.model
    for name in names:
        casimir = SpherePlateForce(_build_model(name, opts), geometry)
        total = TotalForceEvaluator(bg, casimir)
        if fig1:
            f_c = cols[f"F_{name}_udyne"] = casimir(d) / UDYNE
            # the force is the Casimir part alone, the curvature the total's
            f_a = apparent_from_values(casimir(d), total.curvature(d), delta) / UDYNE
            cols[f"Fa_{name}_udyne"] = f_a
            cols[f"Fd3_{name}_udyne_um3"], cols[f"Fad3_{name}_udyne_um3"] = f_c * d3, f_a * d3
        else:
            cols["F_udyne"] = total(d) / UDYNE
            cols["F_apparent_udyne"] = apparent_force(total, d, delta) / UDYNE
    cols["delta_rms_um"] = delta / UM
    if not fig1:
        cols["sigma_inflation_udyne"] = inflated_sigma(0.0, total.gradient(d), delta) / UDYNE
    _write_csv(opts.output, meta, list(cols), zip(*cols.values()))
    return 0


def _cmd_fit_beta(opts, meta: dict) -> int:
    from .background import fit_background
    from .dataset import load_dataset
    from .lifshitz import sphere_plate_force
    data = load_dataset(opts.data)
    subtractor = None
    if opts.subtract:
        geometry = _geometry(opts)
        model = _build_model(opts.subtract, opts)
        # F only: SpherePlateForce would also pay for F' and F''
        subtractor = lambda d: sphere_plate_force(model, d, geometry)
    fit = fit_background(data, d_min=opts.d_min * UM, casimir_subtractor=subtractor)
    _write_json(opts.output, meta, fit.to_json_dict())
    return 0


def _load_theory_curve(path, column: str | None = None):
    """Spline evaluator from a theory CSV: d_um first, the force column second.

    ``column`` selects a named force column from the header instead, so
    e.g. the F_apparent_udyne column of a corrected-curve file can be
    compared directly.  Like the header, it is matched case-insensitively.
    """
    import numpy as np
    from .dataset import read_csv
    from .lifshitz import TabulatedForceCurve
    from .units import UDYNE
    header, rows = read_csv(path, ["d_um"], exact=False)
    names = [name.lower() for name in header[1:]]
    if not names:
        raise ValueError(f"{path}: no force column after d_um; header has {header}")
    if column is not None and column.lower() not in names:
        raise ValueError(f"{path}: no column {column!r}; header has {header}")
    if len(rows) < 4:
        raise ValueError(f"{path}: need >= 4 theory rows for spline interpolation")
    idx = 1 if column is None else 1 + names.index(column.lower())
    d_um = np.array([r[0] for r in rows.values()])
    f_ud = np.array([r[idx] for r in rows.values()])
    return TabulatedForceCurve(d_um * UM, f_ud * UDYNE)


def _cmd_chi2(opts, meta: dict) -> int:
    from .analysis import chi_squared
    from .dataset import load_dataset
    data = load_dataset(opts.data)
    theory = _load_theory_curve(opts.theory, column=opts.column)
    report = chi_squared(
        data, theory, fitted_params=opts.fitted_params, dof_override=opts.dof
    )
    _write_json(opts.output, meta, report.to_json_dict())
    return 0


def _cmd_scan_delta(opts, meta: dict) -> int:
    import numpy as np
    from .analysis import scan_delta
    from .background import ElectrostaticBackground, TotalForceEvaluator
    from .dataset import load_dataset
    from .lifshitz import force_curve
    from .units import UDYNE, check_amplitude, check_positive
    if opts.steps < 1:
        raise ValueError(f"need >= 1 scan step, got steps = {opts.steps}")
    check_amplitude("delta_min", opts.delta_min)
    check_positive("delta_max", opts.delta_max)
    if not opts.delta_max > opts.delta_min:
        raise ValueError(f"need delta_min < delta_max, got [{opts.delta_min}, {opts.delta_max}]")
    data = load_dataset(opts.data)
    geometry = _geometry(opts)
    model = _build_model(opts.model, opts)
    bg = ElectrostaticBackground(beta=opts.beta * (UDYNE * UM), d0=opts.d0 * UM)
    # dense spline of the dispersion curve: F and F'' at the data come from it once per scan
    lo, hi = float(data.d_m.min()) * 0.8, float(data.d_m.max()) * 1.2
    dense = np.geomspace(lo, hi, 120)
    casimir = force_curve(model, geometry, dense).as_evaluator()
    total = TotalForceEvaluator(bg, casimir)
    grid = np.linspace(opts.delta_min, opts.delta_max, opts.steps) * UM
    if grid[0] == 0.0:
        grid[0] = 1e-15  # strictly ascending grid; zero handled as 'no fluctuation'
    result = scan_delta(data, total, grid)
    meta["argmin_delta_um"] = result.argmin_delta / UM
    rows = zip(np.divide(result.deltas, UM), result.chi2, result.reduced, result.p_value)
    _write_csv(opts.output, meta, ["delta_um", "chi2", "reduced", "p"], rows)
    return 0


def _cmd_simulate(opts, meta: dict) -> int:
    from dataclasses import fields
    import numpy as np
    from .background import ElectrostaticBackground, TotalForceEvaluator
    from .lifshitz import force_curve
    from .oracle import ProcessSpec, verify_second_order
    from .units import UDYNE, check_positive
    check_positive("d", opts.d)
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
    bg = ElectrostaticBackground(beta=opts.beta * (UDYNE * UM), d0=0.0) if opts.beta else None
    casimir = None
    if opts.model:
        geometry = _geometry(opts)
        # samples outside the span are recorded as expansion breakdowns.  The span holds
        # fourth_order_allowance's outer stencil points d -+ 0.1 d, rounded as it rounds them
        # (0.9 * d may lie an ulp above), until ROADMAP item 4 deletes that stencil
        lo = min(max(d - 10.0 * delta, 0.1 * d), d - 0.1 * d)
        dense = np.geomspace(lo, max(d + 10.0 * delta, d + 0.1 * d), 80)
        casimir = force_curve(_build_model(opts.model, opts), geometry, dense).as_evaluator()
    if bg and casimir:
        force = TotalForceEvaluator(bg, casimir)
    elif casimir:
        force = casimir
    elif bg:
        force = bg
    else:
        raise ValueError("simulate requires --beta and/or --model")
    record = verify_second_order(force, d, spec, trials=opts.trials)
    first = next((v.report.to_json_dict() for v in record.verdicts if v.report is not None), None)
    payload = {
        "seed": opts.seed,
        "d_um": opts.d,
        "delta_rms_um": opts.delta_rms,
        # the statistics of the first trial that has a report, in udyne
        **{key: first[key] / UDYNE if first else None
           for key in ("mc_mean", "analytic_mean", "mc_sigma", "analytic_sigma")},
        **{f.name: getattr(record, f.name) for f in fields(record) if f.name != "verdicts"},
        "verdicts": [v.to_json_dict() for v in record.verdicts],
    }
    _write_json(opts.output, meta, payload)
    return 0


def _cmd_tilt(opts, meta: dict) -> int:
    from .corrections import tilt_noise_estimate
    estimate_nm = tilt_noise_estimate(
        ref_noise=opts.ref_noise_nm * 1e-9,
        ref_length=opts.ref_length_cm * 1e-2,
        length=opts.length_cm * 1e-2,
        mode_freq_ratio=opts.mode_freq_ratio,
    ) / 1e-9
    print(f"estimated rms position noise: {estimate_nm:.4g} nm")
    if opts.output:
        echo = {dest: getattr(opts, dest) for dest, _, _ in _COMMANDS["tilt-estimate"][2]}
        del echo["output"]
        _write_json(opts.output, meta, {**echo, "estimate_nm": estimate_nm})
    return 0


def _cmd_kk(opts, meta: dict) -> int:
    from .permittivity import kk_transform, load_optical_table
    table = load_optical_table(opts.table)
    grid = _grid(opts, "xi")
    eps = kk_transform(table, grid)
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
    ("temperature", 300.0, {"type": float, "help": "temperature (K); 0 gives the T = 0 integral"}),
)
_BETA = ("beta", 215.0, {"type": float, "help": "background strength (udyne um)"})
_D0 = ("d0", 0.0, {"type": float, "help": "background distance offset (um)"})
_DELTA_RMS = ("delta_rms", 0.1, {"type": float, "help": "rms fluctuation (um)"})
_DATA = ("data", None, {"help": "measured dataset CSV"})
_OUTPUT = {"help": "output path"}
# options that name an input file, in the order of their input_hash header lines;
# a run needs, and hashes, exactly the files it reads (``_reads``)
_INPUT_FILES = ("data", "theory", "table", "eps_table", "profile_table")

_COMMANDS = {
    "force": ("compute a sphere-plate force curve", _cmd_force, (
        _MODEL, *_METAL, _EPS_TABLE,
        ("d_min", 0.5, {"type": float, "help": "min separation (um)"}),
        ("d_max", 6.0, {"type": float, "help": "max separation (um)"}),
        ("points", 50, {"type": int, "help": "grid size"}),
        ("log_spacing", False, {"action": argparse.BooleanOptionalAction}),
        *_SPHERE,
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
        ("kind", "white", {"choices": _KINDS}),
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
        with open(config_path, encoding="utf-8-sig") as fh:
            try:
                file_conf = json.load(fh)
            except ValueError as exc:
                raise ValueError(f"config file {config_path}: {exc}") from None
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
    """The CLI parser: subcommand ``command`` of ``_COMMANDS`` with all its options, or,
    with no ``command``, every subcommand by name and help text alone.

    With ``command`` the metavar is the list argparse prints for all of
    them, so usage reads the same.  Without, argparse prints that list for
    "command" in the missing- and unknown-subcommand errors only it raises.
    """
    parser = argparse.ArgumentParser(
        prog="casfluct",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=TOOL_VERSION)
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (help_text, func, options) in _COMMANDS.items():
        if command is None:  # names alone: each subcommand's flags and -h are left to its own parser
            sub.add_parser(name, help=help_text, add_help=False)
        elif name == command:
            p = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
            p.set_defaults(func=func, command=name)
            p.add_argument("--config", help="JSON config file; explicit flags override it")
            for dest, _, kwargs in options:
                flags = ("-o", "--output") if dest == "output" else ("--" + dest.replace("_", "-"),)
                p.add_argument(*flags, dest=dest, **kwargs)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    if command is None:  # the names find it; --version, --help and a missing or unknown one exit here
        command = _build_parser().parse_known_args(argv)[0].command
    args = _build_parser(command).parse_args(argv)
    from .units import ConvergenceError
    try:
        opts = _merge_opts(args.command, args)
        given = vars(opts)
        missing = [f"--{name.replace('_', '-')}" for name in _INPUT_FILES
                   if name in given and not given[name] and _reads(name, opts)]
        if missing:
            raise ValueError(f"{args.command} requires {' and '.join(missing)}")
        # the header first: an input file that cannot be opened is named in header order, before any work
        return args.func(opts, _meta(args.command, opts))
    except (ConvergenceError, ArithmeticError) as exc:
        print(f"casfluct {args.command}: numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"casfluct {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
