"""midconv: exact middle convolution and duality for linear ODE systems.

Everything is computed over the Gaussian rationals; there is no floating
point anywhere.  The main entry points:

- modp: all arithmetic mod p: certificates, ``qi_roots``' root candidates, ``spin``
- exactalg: scalars, matrices, echelon/kernel/eigen primitives
- systems: pairs (V, A), truncated gauges, irreducibility, equivalence
- datum: canonical realizations (V, W, S, T, Q, P), stability, moments
- functors: the dual pair, middle convolution, the two-step oracle
- normalform: local normal forms and stabilizer/kernel dimensions
- rigidity: rigidity index and the reduction loop
- documents / cli: the canonical file format and the command line

``import midconv`` loads no submodule: each name below is looked up in its
defining module on every access, which imports that module the first time.
The package keeps no copy, so a name patched in its module is what every
caller sees.
"""

import sys as _sys

# defining module -> the names the package exports from it
_EXPORTS = {
    "exactalg": ("GaussianRational", "Matrix", "gr"),
    "systems": (
        "PrincipalPart",
        "System",
        "TruncatedGauge",
        "add_scalar",
        "equivalent",
        "gauge_coadjoint",
        "is_irreducible",
        "lambda_over_z",
        "order",
        "residue_at_infinity",
        "scalar_system",
        "zero_pair",
    ),
    "datum": (
        "Block",
        "Datum",
        "canonical",
        "datum_isomorphism",
        "gk_action",
        "harnad_irreducible",
        "is_stable",
        "kappa",
        "moment_mu",
        "phi",
        "psi",
    ),
    "functors": ("OkuboTriple", "dr_middle_convolution", "hd", "hd_double", "mc", "okubo_to_pair"),
    "normalform": (
        "NormalForm",
        "SpectralBlock",
        "compute_normal_form",
        "hat_kernel_dim",
        "predicted_spectra",
        "select_alpha",
        "stabilizer_dim",
    ),
    "rigidity": ("ReductionTrace", "katz_reduce", "katz_step", "orbit_dim", "rigidity_index"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
# submodules reachable as attributes before anything imported them
_SUBMODULES = frozenset(("modp", "errors", *_EXPORTS))

__version__ = "0.1.0"

__all__ = list(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None and name not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    qualified = f"{__name__}.{module or name}"
    __import__(qualified)  # the import statement's own path, which -X importtime reports
    found = _sys.modules[qualified]
    return found if module is None else getattr(found, name)


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
