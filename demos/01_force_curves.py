"""Force curves for the three metal descriptions.

Computes the sphere-plate force for a perfect conductor, the plasma model,
and the Drude model of gold, prints them side by side in the measurement
units (micrometers, microdynes), and shows the two closed-form anchors the
engine is validated against.
"""

import numpy as np

import casfluct as cf

UDYNE = 1e-11
UM = 1e-6

geometry = cf.ExperimentGeometry()  # R = 12.4 cm, T = 300 K

# Closed-form anchors -------------------------------------------------------
p_ideal = cf.plate_pressure(cf.PerfectConductor(), 1 * UM, 0.0)
print(f"ideal zero-T plate pressure at 1 um: {p_ideal:.6e} Pa "
      "(closed form pi^2 hbar c / 240 d^4 = 1.30013e-3 Pa)")

geometry_t0 = cf.ExperimentGeometry(temperature=0.0)
f_ideal = cf.sphere_plate_force(cf.PerfectConductor(), 1 * UM, geometry_t0)
print(f"ideal zero-T sphere-plate force at 1 um: {f_ideal / UDYNE:.4f} udyne "
      "(closed form pi^3 hbar c R / 360 d^3 = 33.76 udyne)\n")

# Finite-temperature curves --------------------------------------------------
grid = np.geomspace(0.6, 6.0, 12) * UM
curves = {
    name: cf.force_curve(model, geometry, grid)
    for name, model in [
        ("perfect", cf.PerfectConductor()),
        ("plasma", cf.GOLD_PLASMA),
        ("drude", cf.GOLD_DRUDE),
    ]
}

print("sphere-plate force at 300 K (udyne), and F*d^3 (udyne um^3):")
print(f"{'d (um)':>8} {'perfect':>10} {'plasma':>10} {'drude':>10}"
      f" {'perf*d3':>9} {'plas*d3':>9} {'drud*d3':>9}")
for i, d in enumerate(grid):
    d_um = d / UM
    forces = [curves[k].force_N[i] / UDYNE for k in ("perfect", "plasma", "drude")]
    fd3 = [f * d_um**3 for f in forces]
    print(f"{d_um:8.3f} {forces[0]:10.3f} {forces[1]:10.3f} {forces[2]:10.3f}"
          f" {fd3[0]:9.2f} {fd3[1]:9.2f} {fd3[2]:9.2f}")

print("\nThe Drude curve lies below the plasma curve everywhere (its TE")
print("zero-frequency reflection vanishes), and in F*d^3 form it dips to a")
print("minimum near 1.7 um before the classical thermal rise takes over.")
print("\nSame result via the CLI:")
print("  casfluct force --model drude --d-min 0.6 --d-max 6 --points 12 -o drude.csv")
