"""Exact Fock-space models of free-boson Whittaker modules.

The package realizes the untwisted and twisted oscillator actions on
polynomial Fock spaces over the Gaussian rationals, the vertex-operator
modes on them (including twisted Virasoro operators), the map from lambda
data to Virasoro Whittaker types with its fiber solver, and a replayable
certificate engine that reduces any nonzero vector to a nonzero constant
through quadratic elements.
"""

from .certify import (ReductionCertificate, ReductionStep, certify_cyclic,
                      reduce_step, verify_certificate)
from .errors import (BosonIndexError, HighestWeightError, IsotropicTopError,
                     ModeRangeError, NonSquareError, NumericFailure,
                     PreconditionError, ReductionError, SchemaError,
                     SectorMismatchError)
from .fock import FockVector, Sector, mode_text, monomial_text, weighted_partial
from .heisenberg import (LambdaSequence, QuadraticElement, act_mode,
                         commutator_check, j_generator, quadratic_act,
                         quadratic_check, theta_involution)
from .scalars import Scalar, as_scalar, format_scalar, parse_scalar, scalar_sqrt
from .vertex import (CmnTable, binom_mode_identity_check,
                     binom_transfer_matrix, cmn_table, delta_z_apply,
                     mode_apply, omega, twisted_mode_apply,
                     twisted_virasoro_mode, virasoro_bracket_check,
                     virasoro_mode)
from .whittaker import (FiberPoint, WhittakerReport, WhittakerType, bilinear,
                        extract_fiber_data, fiber_dimension, solve_fiber,
                        type_eigenvalues, verify_whittaker_vector,
                        whittaker_type_of)

__version__ = "0.1.0"

__all__ = [
    "BosonIndexError", "CmnTable", "FiberPoint", "FockVector",
    "HighestWeightError", "IsotropicTopError", "LambdaSequence",
    "ModeRangeError", "NonSquareError", "NumericFailure", "PreconditionError",
    "QuadraticElement", "ReductionCertificate", "ReductionError",
    "ReductionStep", "Scalar", "SchemaError", "Sector", "SectorMismatchError",
    "WhittakerReport", "WhittakerType", "act_mode", "as_scalar", "bilinear",
    "binom_mode_identity_check", "binom_transfer_matrix", "certify_cyclic",
    "cmn_table", "commutator_check", "delta_z_apply", "extract_fiber_data",
    "fiber_dimension", "format_scalar", "j_generator", "mode_apply",
    "mode_text", "monomial_text", "omega", "parse_scalar", "quadratic_act",
    "quadratic_check", "reduce_step", "scalar_sqrt", "solve_fiber",
    "theta_involution", "twisted_mode_apply", "twisted_virasoro_mode",
    "type_eigenvalues", "verify_certificate", "verify_whittaker_vector",
    "virasoro_bracket_check", "virasoro_mode", "weighted_partial",
    "whittaker_type_of",
]
