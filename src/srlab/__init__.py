"""srlab: stable rank, intrinsic dimension, and Schatten p-norm toolkit.

Computation of spectral rank surrogates for real and complex matrices,
structured verification of the inequalities they satisfy, constructive
counterexample families for the ones they do not, and a deterministic
fuzzing harness over random matrices.
"""

from .checks import CHECKS, CheckReport
from .fuzz import FuzzConfig, RunReport, run_fuzz
from .gallery import FamilyInstance, evaluate
from .matrices import (
    DecompositionError,
    Matrix,
    PreconditionError,
    as_matrix,
    hermitian_eigenvalues,
    is_hermitian,
    is_psd,
    pivoted_cholesky,
    sigma,
)
from .ranks import intrinsic_dimension, numerical_rank, p_stable_rank, stable_rank
from .schatten import QuasiNormWarning, schatten_norm, schatten_norm_from_spectrum

__version__ = "0.1.0"

__all__ = [
    "CHECKS",
    "CheckReport",
    "DecompositionError",
    "FamilyInstance",
    "FuzzConfig",
    "Matrix",
    "PreconditionError",
    "QuasiNormWarning",
    "RunReport",
    "as_matrix",
    "evaluate",
    "hermitian_eigenvalues",
    "intrinsic_dimension",
    "is_hermitian",
    "is_psd",
    "numerical_rank",
    "p_stable_rank",
    "pivoted_cholesky",
    "run_fuzz",
    "schatten_norm",
    "schatten_norm_from_spectrum",
    "sigma",
    "stable_rank",
]
