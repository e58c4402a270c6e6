"""Desk-scale certification of the computational chain behind L = 5.2.

Five pieces: closed-form kernels (:mod:`linnik.kernel`), certified box
suprema (:mod:`linnik.supbound`), the zero-free-region tables
(:mod:`linnik.tables`), the zero-counting tables (:mod:`linnik.density`),
and the final W < 1 verification (:mod:`linnik.final`).
"""

from .kernel import LinnikParams, WeightKernel, classic_density_bound
from .supbound import GridSpec, SupCertificate, SupProblem, sup_bound, sup_bounds
from .density import DensityQuery, quadratic_N_bound
from .final import compute_W, verify_all

__version__ = "0.1.0"

__all__ = [
    "LinnikParams", "WeightKernel", "classic_density_bound",
    "GridSpec", "SupCertificate", "SupProblem", "sup_bound", "sup_bounds",
    "DensityQuery", "quadratic_N_bound",
    "compute_W", "verify_all",
    "__version__",
]
