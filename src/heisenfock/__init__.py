"""Exact Fock-space models of free-boson Whittaker modules.

The package realizes the untwisted and twisted oscillator actions on
polynomial Fock spaces over the Gaussian rationals, the vertex-operator
modes on them (including twisted Virasoro operators), the map from lambda
data to Virasoro Whittaker types with its fiber solver, and a replayable
certificate engine that reduces any nonzero vector to a nonzero constant
through quadratic elements.

Importing the package loads none of its modules: an exported name loads its
home module on first access (PEP 562), so a command-line request, which
imports ``heisenfock.cli``, compiles only the modules its subcommand uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# the exported names by home module
_EXPORTS = {
    "certify": ("ReductionCertificate", "ReductionStep", "certify_cyclic",
                "reduce_step", "verify_certificate"),
    "errors": ("BosonIndexError", "HighestWeightError", "IsotropicTopError",
               "ModeRangeError", "NonSquareError", "NumericFailure",
               "PreconditionError", "ReductionError", "SchemaError",
               "SectorMismatchError"),
    "fock": ("FockVector", "Sector", "mode_text", "monomial_text",
             "weighted_partial"),
    "heisenberg": ("LambdaSequence", "QuadraticElement", "act_mode",
                   "commutator_check", "j_generator", "quadratic_act",
                   "quadratic_check", "theta_involution"),
    "scalars": ("Scalar", "as_scalar", "format_scalar", "parse_scalar",
                "scalar_sqrt"),
    "vertex": ("CmnTable", "binom_mode_identity_check",
               "binom_transfer_matrix", "cmn_table", "delta_z_apply",
               "mode_apply", "omega", "twisted_mode_apply",
               "twisted_virasoro_mode", "virasoro_bracket_check",
               "virasoro_mode"),
    "whittaker": ("FiberPoint", "WhittakerReport", "WhittakerType",
                  "bilinear", "extract_fiber_data", "fiber_dimension",
                  "solve_fiber", "verify_whittaker_vector",
                  "whittaker_type_of"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # bind all of the module's names at once, as a plain import would: later
    # lookups are global reads, and the package holds every name of each
    # loaded module
    home = import_module(f"{__name__}.{module}")
    globals().update((each, getattr(home, each)) for each in _EXPORTS[module])
    return globals()[name]


def __dir__():
    return sorted(set(globals()) | _HOME.keys())
