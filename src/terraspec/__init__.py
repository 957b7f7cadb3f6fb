"""terraspec: spectral numerics for terraced operators on weighted c0 spaces.

A terraced matrix has row n constantly equal to a_n up to the diagonal
(the Cesaro averaging matrix is a_n = 1/n).  This package classifies
boundedness/compactness of such operators between weighted null-sequence
spaces, labels complex points against the fine-spectrum partition,
constructs and verifies eigenvectors and explicit resolvent sections,
validates the product asymptotics behind those formulas, and computes the
s-number quasi-norm of the associated operator-ideal class.
"""

__version__ = "0.1.0"

from .asymptotics import AsymptoticClass, Limit, SumClass, Verdict, limit_class, mul, partial_sum, reciprocal
from .errors import TerraspecError
from .numerics import TriState
from .sequences import (
    ChiEstimate,
    SequenceSpec,
    WeightFlags,
    cesaro_scaled,
    constant,
    custom,
    estimate_chi,
    geometric,
    log_reciprocal,
    make_family,
    p_cesaro,
    power_weight,
    table,
    verify_weight,
)
from .terraced import (
    BoundednessReport,
    FiniteSection,
    apply,
    build_section,
    classify_boundedness,
    conjugate_section,
    criterion_sequence,
    operator_norm_bounds,
)
from .products import BandReport, LogProduct, alpha, log_product, ratio_band
from .spectrum import (
    Evidence,
    GridSpec,
    Label,
    SpectralPoint,
    adjoint_eigvector,
    adjoint_point_test,
    classify_point,
    classify_points,
    disk_position,
    dist_to_S,
    eigenvector,
    point_spectrum_test,
    pseudospectrum_grid,
    resolvent_section,
    spectrum_grid,
    verify_resolvent,
)
from .ideals import (
    AxiomReport,
    IdealFlags,
    InclusionReport,
    QuasiNormResult,
    SNumberSequence,
    check_quasinorm_axioms,
    chi_space_membership,
    ideal_preconditions,
    inclusion_check,
    quasi_norm,
    snumbers_from_section,
    stype_membership,
)

__all__ = [name for name in dir() if not name.startswith("_")]
