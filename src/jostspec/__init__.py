"""jostspec: half-line Jacobi operators with periodic background and
square-summable-variation perturbations -- spectra, Jost solutions, boundary
Green's functions, absolutely-continuous densities, entropy integrals and
numerical certificates."""

__version__ = "0.1.0"

from .bands import (
    AdmissibleInterval,
    BandSet,
    band_edges,
    interval_constants,
    trimmed_bands,
    widest_trimmed_band,
)
from .certify import (
    CertReport,
    check_diagonal_products,
    check_floquet_bound,
    check_harmonic_hypotheses,
    check_w_summability,
)
from .coefficients import (
    CoefficientModel,
    PeriodicBlock,
    PerturbationSpec,
    make_model,
    periodic_block,
    q_variation_norm,
    truncate,
)
from .errors import (
    BandEdgeError,
    CoefficientError,
    DegenerateBranchError,
    DiagonalizationError,
    EigenvectorDegeneracyError,
    JostspecError,
    NoAdmissibleIntervalError,
    OracleConvergenceError,
    ValidationError,
    ZeroJostError,
)
from .jost import (
    JostSolution,
    ProductForm,
    ac_density,
    green_11,
    jost_solution,
    product_forms,
    reconstruct_boundary_pair,
    recursion_residuals,
    wronskian_defect,
)
from .measures import (
    DensityCurve,
    density_curve,
    entropy_integrals,
    moment,
    oracle_green_11,
    tail_m_function,
)
from .transfer import (
    discriminant,
    floquet,
)
