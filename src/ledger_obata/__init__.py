"""Invariant Riemannian metrics on F^m/diag(F): classification and verification.

The package classifies a metric (given by its coupling matrix T or its
quadratic form a) as naturally reductive or not, decides the geodesic-orbit
property, decomposes reducible metrics into irreducible factors to read off
the full connected isometry group, and cross-checks every verdict with a
brute-force numeric oracle over a concrete compact simple Lie algebra.
"""

from .classify import (
    GoCertificate,
    GoResult,
    GoVerdict,
    NatRedCase,
    NatRedResult,
    SuperAdaptedFamily,
    classify_go,
    classify_natred,
    go_family,
    solve_invariant_form,
    super_adapted_family,
)
from .coeff import (
    AdaptedSystem,
    cluster_indices,
    diamond_tensor,
    is_adapted,
    is_self_saturated,
    is_super_adapted,
    self_saturated_basis,
    subalgebra_partition,
)
from .errors import (
    ClosureError,
    InputError,
    InvalidMetricError,
    LedgerObataError,
    ParameterError,
    SelfSaturationError,
    StructureConstantError,
)
from .liealg import (
    StructureConstants,
    default_backend,
    from_entries,
    killing_gram,
    load_structure_constants,
    product_bracket,
    so3,
)
from .metrics import (
    EigenData,
    MetricForm,
    MetricT,
    T_to_form,
    eigendecompose,
    form_to_T,
    metric_from_system,
    standard_metric,
    zero_sum_basis,
)
from .oracle import (
    OracleReport,
    assess_geodesic_orbit,
    brackets_property_check,
    certificate_shift,
    go_oracle,
    go_sample_residual,
    natred_certificate_check,
)
from .reduce import (
    Decomposition,
    SplitOutcome,
    SplitRecord,
    check_split,
    decompose,
    factor_metric,
)
from .report import (
    classify_report,
    decompose_report,
    go_report,
    natred_from_dict,
    natred_report,
    verify_report,
)
from .serialize import (
    dumps_numeric,
    metric_from_dict,
    metric_to_dict,
    write_metric,
)
from .trees import PartitionPair, enumerate_partition_pairs

__version__ = "0.1.0"

__all__ = [
    "GoCertificate",
    "GoResult",
    "GoVerdict",
    "NatRedCase",
    "NatRedResult",
    "SuperAdaptedFamily",
    "classify_go",
    "classify_natred",
    "go_family",
    "solve_invariant_form",
    "super_adapted_family",
    "AdaptedSystem",
    "cluster_indices",
    "diamond_tensor",
    "is_adapted",
    "is_self_saturated",
    "is_super_adapted",
    "self_saturated_basis",
    "subalgebra_partition",
    "ClosureError",
    "InputError",
    "InvalidMetricError",
    "LedgerObataError",
    "ParameterError",
    "SelfSaturationError",
    "StructureConstantError",
    "StructureConstants",
    "default_backend",
    "from_entries",
    "killing_gram",
    "load_structure_constants",
    "product_bracket",
    "so3",
    "EigenData",
    "MetricForm",
    "MetricT",
    "T_to_form",
    "eigendecompose",
    "form_to_T",
    "metric_from_system",
    "standard_metric",
    "zero_sum_basis",
    "OracleReport",
    "assess_geodesic_orbit",
    "brackets_property_check",
    "certificate_shift",
    "go_oracle",
    "go_sample_residual",
    "natred_certificate_check",
    "Decomposition",
    "SplitOutcome",
    "SplitRecord",
    "check_split",
    "decompose",
    "factor_metric",
    "classify_report",
    "decompose_report",
    "go_report",
    "natred_from_dict",
    "natred_report",
    "verify_report",
    "dumps_numeric",
    "metric_from_dict",
    "metric_to_dict",
    "write_metric",
    "PartitionPair",
    "enumerate_partition_pairs",
]
