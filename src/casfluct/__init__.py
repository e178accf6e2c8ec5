"""Casimir force curves with distance-fluctuation systematics.

A numpy toolkit for finite-temperature dispersion forces between
metallic surfaces (perfect conductor, plasma, Drude, tabulated
permittivity), electrostatic calibration backgrounds, the apparent-force
and scatter corrections caused by a fluctuating plate separation,
chi-squared model comparison against binned measurements, and an
independent Monte Carlo time-averaging check of the corrections.
"""

from .analysis import (
    Chi2Report,
    ScanResult,
    chi2_sf,
    chi_squared,
    scan_delta,
)
from .background import (
    BackgroundFit,
    ElectrostaticBackground,
    FitConvergenceError,
    FitError,
    TotalForceEvaluator,
    fit_background,
)
from .corrections import (
    ConstantProfile,
    SqrtLawProfile,
    TableProfile,
    apparent_force,
    inflated_sigma,
    tilt_noise_estimate,
)
from .dataset import DatasetError, ForceDataset, load_dataset, save_dataset
from .lifshitz import (
    ConvergenceError,
    ForceCurve,
    PFAValidityError,
    SpherePlateForce,
    TabulatedForceCurve,
    force_curve,
    plate_energy,
    plate_pressure,
    sphere_plate_force,
)
from .oracle import (
    BandError,
    ProcessSpec,
    TimeAverageReport,
    VerificationRecord,
    fourth_order_allowance,
    sample_process,
    time_averaged_force,
    verify_second_order,
)
from .permittivity import (
    GOLD_DRUDE,
    GOLD_PLASMA,
    Drude,
    OpticalAbsorptionTable,
    PerfectConductor,
    Plasma,
    Tabulated,
    UnsupportedModelError,
    drude_loss_spectrum,
    eps_imag_axis,
    kk_transform,
    load_eps_table,
    load_optical_table,
)
from .provenance import TOOL_VERSION as __version__
from .units import DomainError, ExperimentGeometry
