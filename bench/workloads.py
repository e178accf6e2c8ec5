"""The benchmark's workloads: CLI operations, their expected outputs and checks.

A workload is a list of ``Op``s run in order through ``casfluct.cli.main``,
one at a time, each waiting for the previous one (a closed loop with one
simulated user).  One pass of the list is the unit that ``wall_s`` times.
``probes`` are the same subcommands at their CLI defaults (inputs and
output path supplied, nothing else); they run once per run, untimed.

Why each workload exists:

- theory: ``kk``, ``force`` and ``correct`` spend nearly all their time in
  the Matsubara sum, finite differences, the zero-T integral and eps(i xi),
  so kernel and derivative work shows here.
- scan: per-point spline, background, ``apparent_force`` and chi^2 work over
  a 200-bin dataset dominates; the Lifshitz kernel is a small share, so a
  kernel change should leave it flat.
- montecarlo: process synthesis and vectorised time averaging dominate and
  memory peaks here; it should not move for Lifshitz or chi^2 changes.

Physics checks hold for every seed; ``checks.py`` adds the reference values
for the reference seed.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from inputs import SCAN_BINS

HBAR_C = 1.054571817e-34 * 299792458.0  # J m
RADIUS_M = 0.124  # the CLI's default sphere radius
UDYNE = 1e-11
TRIALS = 10


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what its output must look like."""

    name: str
    argv: tuple[str, ...]
    output: str
    columns: tuple[str, ...] = ()  # CSV header; empty for a JSON output
    rows: int | None = None
    keys: tuple[str, ...] = ()  # required JSON keys
    inputs: tuple[tuple[str, str], ...] = ()  # (provenance name, path)
    check: Callable | None = None  # (output, outputs by op name, params) -> problems
    known_failure: str | None = None  # documented defect: expected to exit 1


def _fmt(x) -> str:
    return repr(float(x)) if not isinstance(x, (int, str)) else str(x)


def _opts(**kw) -> tuple[str, ...]:
    out = []
    for key, value in kw.items():
        out += ["--" + key.replace("_", "-"), _fmt(value)]
    return tuple(out)


def _rel(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) / np.asarray(b) - 1.0)))


def _loglog(x, xs, ys):
    return np.exp(np.interp(np.log(x), np.log(xs), np.log(ys)))


def _require(problems: list[str], ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


# --------------------------------------------------------------------------
# theory

CURVE_COLUMNS = ("d_um", "F_udyne")
CORRECTED_COLUMNS = ("d_um", "F_udyne", "F_apparent_udyne", "delta_rms_um", "sigma_inflation_udyne")
FIG1_COLUMNS = (
    "d_um", "F_pc0_udyne", "Fd3_pc0_udyne_um3",
    "F_plasma_udyne", "Fa_plasma_udyne", "Fd3_plasma_udyne_um3", "Fad3_plasma_udyne_um3",
    "F_drude_udyne", "Fa_drude_udyne", "Fd3_drude_udyne_um3", "Fad3_drude_udyne_um3",
    "delta_rms_um",
)


def _check_kk(out, outputs, p):
    xi, eps = out.column("xi_ev"), out.column("eps")
    drude = 1.0 + p["omega_p"] ** 2 / (xi * (xi + p["gamma"]))
    err = _rel(eps, drude)
    return [] if err < 1e-4 else [f"eps(i xi) off the analytic Drude value by {err:.2e} (limit 1e-4)"]


def _check_curve(out, outputs, p):
    d, f = out.column("d_um"), out.column("F_udyne")
    problems = []
    _require(problems, bool(np.all(f > 0) and np.all(np.diff(f) < 0)), "force not positive and decreasing")
    # 0.7-1.4 x the zero-temperature perfect-mirror PFA force over 0.3-8 um at 300 K
    ratio = f / (math.pi**3 * HBAR_C * RADIUS_M / (360.0 * (d * 1e-6) ** 3) / UDYNE)
    _require(problems, bool(np.all((ratio > 0.5) & (ratio < 2.0))), "force outside (0.5, 2) x perfect-mirror PFA")
    return problems


def _drude_at(outputs, d):
    ref = outputs["force_drude"]
    return _loglog(d, ref.column("d_um"), ref.column("F_udyne"))


def _check_tabulated(out, outputs, p):
    problems = _check_curve(out, outputs, p)
    err = _rel(out.column("F_udyne"), _drude_at(outputs, out.column("d_um")))
    _require(problems, err < 2e-3, f"tabulated force off the Drude curve by {err:.2e} (limit 2e-3)")
    return problems


def _check_correct(out, outputs, p):
    d, f, fa = out.column("d_um"), out.column("F_udyne"), out.column("F_apparent_udyne")
    problems = []
    want = p["beta"] / d + _drude_at(outputs, d)
    err = _rel(f, want)
    _require(problems, err < 1e-3, f"F off beta/d + Drude by {err:.2e} (limit 1e-3)")
    _require(problems, bool(np.all(fa > f)), "apparent force not above the force")
    # the program converts um -> m -> um, so the column may differ in the last bit
    same = np.allclose(out.column("delta_rms_um"), p["delta_rms"], rtol=1e-12, atol=0.0)
    _require(problems, bool(same), "delta_rms column differs")
    _require(problems, bool(np.all(out.column("sigma_inflation_udyne") > 0)), "sigma inflation not positive")
    return problems


def _check_fig1(out, outputs, p):
    c = out.column
    d3 = c("d_um") ** 3
    problems = []
    for model in ("pc0", "plasma", "drude"):
        err = _rel(c(f"Fd3_{model}_udyne_um3"), c(f"F_{model}_udyne") * d3)
        _require(problems, err < 1e-12, f"Fd3_{model} is not F*d^3 ({err:.1e})")
    for model in ("plasma", "drude"):
        _require(problems, bool(np.all(c(f"Fa_{model}_udyne") > c(f"F_{model}_udyne"))), f"Fa_{model} not above F")
    _require(problems, bool(np.all(c("F_plasma_udyne") > c("F_drude_udyne"))), "plasma force not above Drude")
    # thermal forces pass the zero-T mirror at large d, but not at the first row
    _require(problems, c("F_pc0_udyne")[0] > c("F_plasma_udyne")[0], "zero-T mirror not above plasma at d_min")
    return problems


def theory(p: dict, workdir: str) -> list[Op]:
    w = lambda name: os.path.join(workdir, name)
    metal = _opts(omega_p=p["omega_p"], gamma=p["gamma"])
    corr = metal + _opts(beta=p["beta"], delta_rms=p["delta_rms"], points=25)
    return [
        Op("kk", ("kk", "--table", p["absorption"]) + _opts(xi_min=0.02, xi_max=20.0, points=60) + ("-o", w("eps.csv")),
           w("eps.csv"), ("xi_ev", "eps"), 60, inputs=(("table", p["absorption"]),), check=_check_kk),
        Op("force_drude", ("force", "--model", "drude") + metal
           + _opts(d_min=0.3, d_max=8.0, points=80) + ("--log-spacing", "-o", w("force_drude.csv")),
           w("force_drude.csv"), CURVE_COLUMNS, 80, check=_check_curve),
        Op("force_tabulated", ("force", "--model", "tabulated", "--eps-table", w("eps.csv")) + metal
           + _opts(d_min=0.5, d_max=6.0, points=30) + ("-o", w("force_tabulated.csv")),
           w("force_tabulated.csv"), CURVE_COLUMNS, 30, inputs=(("eps_table", w("eps.csv")),),
           check=_check_tabulated),
        Op("correct", ("correct", "--model", "drude") + corr + ("-o", w("corrected.csv")),
           w("corrected.csv"), CORRECTED_COLUMNS, 25, check=_check_correct),
        Op("fig1", ("correct", "--emit", "fig1") + corr + ("-o", w("fig1.csv")),
           w("fig1.csv"), FIG1_COLUMNS, 25, check=_check_fig1),
    ]


# --------------------------------------------------------------------------
# scan

FIT_KEYS = ("beta_udyne_um", "beta_sigma", "d0_um", "d0_sigma", "chi2", "dof", "points_used", "d0_at_bounds")
CHI2_KEYS = ("chi2", "dof", "reduced", "p_value", "residuals")


def _data_d(p) -> np.ndarray:
    return np.loadtxt(p["data"], delimiter=",", skiprows=1, usecols=0)


def _check_fit(out, outputs, p):
    r = out.payload
    used = int(np.sum(_data_d(p) > 2.0))
    problems = []
    _require(problems, r["points_used"] == used, f"points_used {r['points_used']}, expected {used}")
    _require(problems, r["dof"] == used - 2, f"dof {r['dof']}, expected {used - 2}")
    _require(problems, r["beta_udyne_um"] > 0 and r["beta_sigma"] > 0, "beta or its sigma not positive")
    _require(problems, math.isfinite(r["chi2"]) and r["chi2"] >= 0, "chi2 not finite and >= 0")
    return problems


def _check_chi2(out, outputs, p):
    r = out.payload
    problems = []
    _require(problems, r["dof"] == SCAN_BINS, f"dof {r['dof']}, expected {SCAN_BINS}")
    _require(problems, len(r["residuals"]) == SCAN_BINS, "one residual per bin expected")
    # data were drawn from this very curve, so chi2/dof is 1 +- 0.1 (n = 200)
    _require(problems, 0.6 < r["reduced"] < 1.5, f"reduced chi2 {r['reduced']:.3f} outside (0.6, 1.5)")
    _require(problems, 0.0 <= r["p_value"] <= 1.0, "p outside [0, 1]")
    return problems


def _check_scan(out, outputs, p):
    problems = []
    _require(problems, bool(np.all(out.column("chi2") >= 0)), "negative chi2")
    pv = out.column("p")
    _require(problems, bool(np.all((pv >= 0) & (pv <= 1))), "p outside [0, 1]")
    best = float(out.meta.get("argmin_delta_um", "nan"))
    _require(problems, 0.0 <= best <= 0.3, f"argmin_delta_um {best} outside the scanned range")
    _require(problems, float(np.min(out.column("reduced"))) < 1.5, "best reduced chi2 not below 1.5")
    return problems


def scan(p: dict, workdir: str) -> list[Op]:
    w = lambda name: os.path.join(workdir, name)
    metal = _opts(omega_p=p["omega_p"], gamma=p["gamma"])
    data = ("--data", p["data"])
    return [
        Op("fit_beta", ("fit-beta",) + data + ("-o", w("fit.json")), w("fit.json"),
           keys=FIT_KEYS, inputs=(("data", p["data"]),), check=_check_fit),
        Op("fit_beta_subtract", ("fit-beta",) + data + ("--subtract", "drude") + metal + ("-o", w("fit_subtract.json")),
           w("fit_subtract.json"), keys=FIT_KEYS, inputs=(("data", p["data"]),), check=_check_fit),
        Op("chi2", ("chi2",) + data + ("--theory", p["theory"], "--column", "F_apparent_udyne", "-o", w("chi2.json")),
           w("chi2.json"), keys=CHI2_KEYS, inputs=(("data", p["data"]), ("theory", p["theory"])), check=_check_chi2),
        Op("scan_delta", ("scan-delta",) + data + ("--model", "drude") + metal
           + _opts(beta=p["beta"], delta_min=0.0, delta_max=0.3, steps=101) + ("-o", w("scan.csv")),
           w("scan.csv"), ("delta_um", "chi2", "reduced", "p"), 101, inputs=(("data", p["data"]),),
           check=_check_scan),
    ]


# --------------------------------------------------------------------------
# montecarlo

SIM_KEYS = ("trials", "n_mean_pass", "n_scatter_pass", "n_scatter_applicable", "verdicts", "mc_mean", "analytic_mean")


def _check_simulate(out, outputs, p):
    r = out.payload
    problems = []
    _require(problems, r["trials"] == TRIALS and len(r["verdicts"]) == TRIALS, f"expected {TRIALS} trials")
    _require(problems, r["n_mean_pass"] == r["trials"], f"n_mean_pass {r['n_mean_pass']} != trials {r['trials']}")
    _require(
        problems,
        r["n_scatter_pass"] == r["n_scatter_applicable"] == r["trials"],
        f"scatter law passed {r['n_scatter_pass']} of {r['n_scatter_applicable']} applicable trials",
    )
    return problems


def montecarlo(p: dict, workdir: str) -> list[Op]:
    w = lambda name: os.path.join(workdir, name)
    common = _opts(d=p["d"], delta_rms=p["delta_rms"], beta=p["beta"], seed=p["sim_seed"],
                   trials=TRIALS, duration=50000.0)
    return [
        Op("simulate_beta", ("simulate",) + common + ("-o", w("sim_beta.json")), w("sim_beta.json"),
           keys=SIM_KEYS, check=_check_simulate),
        Op("simulate_drude", ("simulate",) + common + ("--model", "drude")
           + _opts(omega_p=p["omega_p"], gamma=p["gamma"]) + ("--kind", "one-over-f", "-o", w("sim_drude.json")),
           w("sim_drude.json"),
           keys=SIM_KEYS, check=_check_simulate),
    ]


BUILDERS = {"theory": theory, "scan": scan, "montecarlo": montecarlo}


def probes(workload: str, p: dict, workdir: str) -> list[Op]:
    """Each subcommand of the workload at its CLI defaults, for the untimed defaults probe."""
    w = lambda name: os.path.join(workdir, "defaults", name)
    if workload == "theory":
        return [
            Op("kk_defaults", ("kk", "--table", p["absorption"], "-o", w("kk.csv")), w("kk.csv"),
               ("xi_ev", "eps"), 40, inputs=(("table", p["absorption"]),)),
            Op("force_defaults", ("force", "-o", w("force.csv")), w("force.csv"), CURVE_COLUMNS, 50),
            Op("correct_defaults", ("correct", "-o", w("correct.csv")), w("correct.csv"), CORRECTED_COLUMNS, 25),
            Op("fig1_defaults", ("correct", "--emit", "fig1", "-o", w("fig1.csv")), w("fig1.csv"), FIG1_COLUMNS, 25),
        ]
    if workload == "scan":
        data = ("--data", p["data"])
        return [
            Op("fit_beta_defaults", ("fit-beta",) + data + ("-o", w("fit.json")), w("fit.json"),
               keys=FIT_KEYS, inputs=(("data", p["data"]),)),
            Op("chi2_defaults", ("chi2",) + data + ("--theory", p["theory"], "-o", w("chi2.json")), w("chi2.json"),
               keys=CHI2_KEYS, inputs=(("data", p["data"]), ("theory", p["theory"]))),
            Op("scan_delta_defaults", ("scan-delta",) + data + ("-o", w("scan.csv")), w("scan.csv"),
               ("delta_um", "chi2", "reduced", "p"), 31, inputs=(("data", p["data"]),)),
        ]
    return [
        Op("simulate_defaults", ("simulate", "-o", w("sim.json")), w("sim.json"), keys=SIM_KEYS),
        Op("simulate_drude_defaults", ("simulate", "--model", "drude", "-o", w("sim_drude.json")), w("sim_drude.json"),
           keys=SIM_KEYS,
           known_failure="exits 1: its spline spans d +- 10 delta, which reaches 0 at the defaults "
                         "d = 1 um, delta = 0.1 um (open defect listed in ROADMAP.md)"),
    ]


def build(workload: str, p: dict, workdir: str) -> tuple[list[Op], list[Op]]:
    """(timed operations, defaults probes) of a workload."""
    os.makedirs(os.path.join(workdir, "defaults"), exist_ok=True)
    return BUILDERS[workload](p, workdir), probes(workload, p, workdir)
