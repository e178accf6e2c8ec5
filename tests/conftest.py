import numpy as np
import pytest

import casfluct as cf


class Polynomial:
    """Force evaluator c0 + c1*d + c2*d^2 with its exact gradient and curvature."""

    def __init__(self, c0=0.0, c1=0.0, c2=0.0):
        self.c0, self.c1, self.c2 = c0, c1, c2

    def __call__(self, d):
        return self.c0 + self.c1 * d + self.c2 * d * d

    def gradient(self, d):
        return self.c1 + 2.0 * self.c2 * d

    def curvature(self, d):
        return 2.0 * self.c2 + 0.0 * d


@pytest.fixture(scope="session")
def polynomial():
    return Polynomial


@pytest.fixture(scope="session")
def geometry():
    return cf.ExperimentGeometry()  # R = 12.4 cm, T = 300 K


@pytest.fixture(scope="session")
def geometry_t0():
    return cf.ExperimentGeometry(sphere_radius=0.124, temperature=0.0)


@pytest.fixture
def synthetic_dataset():
    """Factory for background-law datasets with optional noise, in um/udyne."""

    def make(d_um, beta=215.0, d0_um=0.0, sigma=2.0, rng=None, extra=None):
        d_um = np.asarray(d_um, dtype=float)
        force = beta / (d_um - d0_um)
        if extra is not None:
            force = force + np.asarray([extra(x) for x in d_um])
        sigma_arr = np.full_like(d_um, float(sigma)) if np.isscalar(sigma) else np.asarray(sigma)
        if rng is not None:
            force = force + rng.standard_normal(len(d_um)) * sigma_arr
        return cf.ForceDataset(
            d_um=d_um,
            force_udyne=force,
            sigma_udyne=sigma_arr,
            n_samples=np.full(len(d_um), 100, dtype=int),
            bin_width_um=np.full(len(d_um), 0.2),
        )

    return make


@pytest.fixture
def write_dataset_csv(tmp_path):
    """Write dataset rows to a CSV file and return the path."""

    def write(rows, header="d_um, force_udyne, sigma_udyne, n_samples, bin_width_um",
              name="data.csv", comments=()):
        lines = [f"# {c}" for c in comments]
        if header is not None:
            lines.append(header)
        lines.extend(rows)
        path = tmp_path / name
        path.write_text("\n".join(lines) + "\n")
        return path

    return write
