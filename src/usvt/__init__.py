"""Matrix denoising with unknown noise level.

Estimates sigma from the median singular value calibrated by the
Marchenko-Pastur median, then keeps only singular components above the
universal threshold (2 + eta) * sigma * sqrt(n).
"""

from .estimators import (
    DEFAULT_ETA,
    DenoiseReport,
    estimate_sigma,
    mse,
    usvt_adaptive,
    usvt_denoise,
)
from .mp_law import MPLaw
from .simulate import (
    NOISE_KINDS,
    PRESETS,
    ExperimentConfig,
    ExperimentRecord,
    SummaryRow,
    aggregate,
    cell_rng,
    haar_frame,
    noise_matrix,
    preset_config,
    run_cell,
    run_experiment,
    signal_matrix,
    signal_spectrum,
)
from .spectral import SvdConvergenceError, ks_distance, nuclear_norm, singular_values

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_ETA",
    "DenoiseReport",
    "ExperimentConfig",
    "ExperimentRecord",
    "MPLaw",
    "NOISE_KINDS",
    "PRESETS",
    "SummaryRow",
    "SvdConvergenceError",
    "aggregate",
    "cell_rng",
    "estimate_sigma",
    "haar_frame",
    "ks_distance",
    "mse",
    "noise_matrix",
    "nuclear_norm",
    "preset_config",
    "run_cell",
    "run_experiment",
    "signal_matrix",
    "signal_spectrum",
    "singular_values",
    "usvt_adaptive",
    "usvt_denoise",
]
