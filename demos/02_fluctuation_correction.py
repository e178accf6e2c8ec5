"""The distance-fluctuation systematic.

A fluctuating plate separation shifts the time-averaged force by
(1/2) F'' delta_rms^2 and inflates the per-point scatter by |F'| delta_rms.
This walk-through applies both to the electrostatic-plus-Casimir total
force, shows the constant plateau of the background contribution when
scaled by d^3, combines a fluctuation budget, and scales a tilt-noise
measurement between pendulum lengths.
"""

import numpy as np

import casfluct as cf

UDYNE = 1e-11
UM = 1e-6

beta = 215.0 * UDYNE * UM  # electrostatic background strength
bg = cf.ElectrostaticBackground(beta=beta)
geometry = cf.ExperimentGeometry()
total = cf.TotalForceEvaluator(bg, cf.SpherePlateForce(cf.GOLD_DRUDE, geometry))

delta = 0.1 * UM
print(f"rms separation fluctuation: {delta / UM:.2f} um\n")

print(f"{'d (um)':>7} {'F':>9} {'F_app':>9} {'shift':>8} {'|F..|delta':>11}  (udyne)")
for d_um in (0.62, 1.0, 2.0, 4.0, 6.0):
    d = d_um * UM
    f = total(d)
    f_app = cf.apparent_force(total, d, delta)
    excess = cf.inflated_sigma(0.0, total.gradient(d), delta)
    print(f"{d_um:7.2f} {f / UDYNE:9.2f} {f_app / UDYNE:9.2f} "
          f"{(f_app - f) / UDYNE:8.3f} {excess / UDYNE:11.2f}")

# The background part of the shift is a constant when multiplied by d^3:
print("\nbackground-only shift times d^3 (udyne um^3):")
for d_um in (0.6, 1.5, 3.0, 6.0):
    shift = cf.apparent_force(bg, d_um * UM, delta) - bg.force(d_um * UM)
    print(f"  d = {d_um:4.1f} um: {shift / UDYNE * d_um**3:.6f}")
print("  -> beta * delta^2 = 215 * 0.01 = 2.15, independent of d")

# Quadrature budget ----------------------------------------------------------
budget = cf.FluctuationBudget((
    cf.FluctuationSource("seismic tilt", 60e-9, "out-of-band"),
    cf.FluctuationSource("air-current tilt", 80e-9, "out-of-band"),
    cf.FluctuationSource("position readout", 40e-9, "in-band"),
))
combo = cf.combine_delta_sources(budget)
print(f"\nbudget: in-band {combo.in_band / 1e-9:.0f} nm, "
      f"out-of-band {combo.out_of_band / 1e-9:.0f} nm, "
      f"total {combo.total / 1e-9:.0f} nm")
print("the total drives the mean shift; only the in-band part widens the scatter")

# Tilt-noise scaling ---------------------------------------------------------
est = cf.tilt_noise_estimate(20e-9, 0.04, 0.80, mode_freq_ratio=6.3)
print(f"\n20 nm tilt noise on a 4 cm pendulum -> {est / 1e-9:.0f} nm on an 80 cm one")
print("(lever arm times 20, attenuated by the slower swing mode, 1/sqrt(6.3))")
est_default = cf.tilt_noise_estimate(20e-9, 0.04, 0.80)
print(f"with the default fourth-root law instead: {est_default / 1e-9:.0f} nm")
