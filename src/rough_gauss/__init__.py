"""Step-3 nilpotent lifts of Gaussian processes.

Subpackages cover the truncated tensor algebra, piecewise-linear path
lifts with homogeneous metrics, two-parameter rho-variation and Young
integration, covariance models, Cameron-Martin embeddings, seeded Monte
Carlo simulation and regularity diagnostics, plus the experiment CLI.
"""

__version__ = "0.1.0"

from .tensor_algebra import (
    GroupElement,
    LieElement,
    TruncatedTensor,
    exp_trunc,
    hall_log_signature,
    homogeneous_norm,
    log_trunc,
)
from .path_lift import GroupPath, PiecewisePath, lift_s3
from .variation_2d import GridFunction2D, rho_variation, young_integral_2d
from .covariance import (
    ProcessSpec,
    bm_cov,
    bridge_cov,
    fbm_cov,
    kernel_from_config,
    ou_cov,
)
from .cameron_martin import CMElement, embedding_check
from .simulate import lift_endpoint, sample
from .regularity import besov_functional, grr_holder_check

__all__ = [
    "GroupElement",
    "LieElement",
    "TruncatedTensor",
    "exp_trunc",
    "hall_log_signature",
    "homogeneous_norm",
    "log_trunc",
    "GroupPath",
    "PiecewisePath",
    "lift_s3",
    "GridFunction2D",
    "rho_variation",
    "young_integral_2d",
    "ProcessSpec",
    "bm_cov",
    "bridge_cov",
    "fbm_cov",
    "kernel_from_config",
    "ou_cov",
    "CMElement",
    "embedding_check",
    "lift_endpoint",
    "sample",
    "besov_functional",
    "grr_holder_check",
]
