"""Metric solvable Lie algebras: rank-one Carnot extensions, an so(6) family
of two-step triples, Iwasawa algebras of classical symmetric spaces, and their
sign twists, with Ricci and sectional curvature throughout."""

import os as _os

_threads = _os.environ.get("SOLVGEOM_THREADS")
if _threads:
    for _var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    ):
        _os.environ.setdefault(_var, _threads)

from .algebra import (
    TOL_EXACT,
    MetricLieAlgebra,
    ValidationReport,
    IwasawaReport,
    orthonormal_frame,
    from_sparse,
    bracket,
    ad_matrix,
    validate,
    iwasawa_check,
    serialize,
    deserialize,
)
from .curvature import (
    EinsteinVerdict,
    EigenvalueType,
    mean_curvature,
    ricci,
    einstein_verdict,
    sectional,
    sectionals,
    eigenvalue_type,
    rank_one_reduction,
)
from .carnot import (
    DataTriple,
    EinsteinConditions,
    UniformSubspaceCandidate,
    so_basis,
    build_solvmanifold,
    brackets_from_j,
    einstein_conditions,
    is_uniform,
    complement_uniform,
    so4_split_basis,
    so4_criterion,
    search_uniform,
    equivalence_invariants,
    classify_uniform_so4,
    random_triple,
    real_hyperbolic_triple,
    complex_hyperbolic_triple,
)
from .so6family import (
    FamilyPoint,
    tau,
    basis_ABC,
    W_of,
    induced_triple,
    centralizer_in_so6,
    angle_to_centralizer,
    bracket_angle,
    bracket_angle_closed_form,
    negative_curvature_margin,
    family_grid,
    family_report,
)
from .symtwist import (
    RootDecoratedAlgebra,
    TwistAssignment,
    TwistClosureReport,
    twist_closure_check,
    twist,
    restricted_height_twist,
    enumerate_twists,
    mask_twist,
    wa_twist,
    paper_twist_so_nH,
    paper_twist_sl_nH,
    type_iv_twist,
    build_so_pq,
    build_su_pq,
    build_sp_pq,
    build_so_nH,
    build_sl_nH,
    build_type_iv_sl,
    build_sl_nR,
    positive_curvature_witness,
    bracket_table,
)

__version__ = "0.1.0"
