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
"""

from .exactalg import GaussianRational, Matrix, gr
from .systems import (
    PrincipalPart,
    System,
    TruncatedGauge,
    add_scalar,
    equivalent,
    gauge_coadjoint,
    is_irreducible,
    lambda_over_z,
    order,
    residue_at_infinity,
    scalar_system,
    zero_pair,
)
from .datum import (
    Block,
    Datum,
    canonical,
    datum_isomorphism,
    gk_action,
    harnad_irreducible,
    is_stable,
    kappa,
    moment_mu,
    phi,
    psi,
)
from .functors import OkuboTriple, dr_middle_convolution, hd, hd_double, mc, okubo_to_pair
from .normalform import (
    NormalForm,
    SpectralBlock,
    compute_normal_form,
    hat_kernel_dim,
    predicted_spectra,
    select_alpha,
    stabilizer_dim,
)
from .rigidity import ReductionTrace, katz_reduce, katz_step, orbit_dim, rigidity_index

__version__ = "0.1.0"

__all__ = [
    "GaussianRational",
    "Matrix",
    "gr",
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
    "OkuboTriple",
    "dr_middle_convolution",
    "hd",
    "hd_double",
    "mc",
    "okubo_to_pair",
    "NormalForm",
    "SpectralBlock",
    "compute_normal_form",
    "hat_kernel_dim",
    "predicted_spectra",
    "select_alpha",
    "stabilizer_dim",
    "ReductionTrace",
    "katz_reduce",
    "katz_step",
    "orbit_dim",
    "rigidity_index",
]
