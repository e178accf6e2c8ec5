"""Fitting the electrostatic calibration background.

The residual contact potential produces a force beta/(d - d0) that
dominates at long distance, so it is fitted from points with d > 2 um and
then subtracted or composed with the dispersion force.  This script
synthesizes a noisy dataset with known truth, fits it, and checks the
reported uncertainties by repeating over many noise realizations.
"""

import json

import numpy as np

import casfluct as cf

UDYNE_UM = 1e-17
UM = 1e-6

rng = np.random.default_rng(42)
d_um = np.array([2.2, 2.6, 3.0, 3.5, 4.0, 5.0, 6.0])
truth_beta, truth_d0 = 215.0, 0.08  # udyne um, um
sigma = 7.0 / d_um  # noise at the beta scale

force = truth_beta / (d_um - truth_d0) + rng.standard_normal(len(d_um)) * sigma
data = cf.ForceDataset(
    d_um=d_um,
    force_udyne=force,
    sigma_udyne=sigma,
    n_samples=np.full(len(d_um), 100, dtype=int),
    bin_width_um=np.full(len(d_um), 0.2),
)

fit = cf.fit_background(data)
print("single fit:")
print(json.dumps(fit.to_json_dict(), indent=2))
print(f"truth: beta = {truth_beta}, d0 = {truth_d0} um\n")

# Covariance calibration over 300 fresh noise realizations
pulls = []
for trial in range(300):
    trial_rng = np.random.default_rng(10_000 + trial)
    noisy = truth_beta / (d_um - truth_d0) + trial_rng.standard_normal(len(d_um)) * sigma
    ds = cf.ForceDataset(
        d_um=d_um, force_udyne=noisy, sigma_udyne=sigma,
        n_samples=np.full(len(d_um), 100, dtype=int),
        bin_width_um=np.full(len(d_um), 0.2),
    )
    f = cf.fit_background(ds)
    pulls.append((f.background.beta - truth_beta * UDYNE_UM) / f.beta_sigma)
pulls = np.array(pulls)
print(f"pull distribution over 300 trials: mean {pulls.mean():+.3f}, "
      f"sd {pulls.std(ddof=1):.3f} (want ~0 and ~1)")
print(f"|pull| <= 3 in {np.mean(np.abs(pulls) <= 3) * 100:.1f}% of trials")

print("\nSame fit via the CLI (after saving the dataset with save_dataset):")
print("  casfluct fit-beta --data data.csv --d-min 2.0 -o fit.json")
