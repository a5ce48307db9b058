"""Exact Lloyd's k-means on the line, case-based adversarial seedings, and
exhaustive certification that some initialization avoids the pairing
partition."""

from .model import (
    ConfigParseError,
    DistanceConfig,
    NonPositiveDistanceError,
    Partition,
    PointSet,
    Seeding,
    config_from_dict,
    config_to_dict,
    embed,
    format_rational,
    mirror,
    mirror_seeding,
    parse_config,
    parse_rational,
    scale_config,
    serialize_config,
    target_partition,
    validate,
)
from .lloyd import (
    BranchLimitError,
    Centroids,
    Converged,
    IterationCapExceeded,
    LineEngine,
    LloydStep,
    LloydTrace,
    TieEncountered,
    TieError,
    TiePolicy,
    assign,
    cost,
    is_fixed_point,
    run,
    seed_centroids,
    trace_digest,
    trace_to_dict,
    update,
)
from .cases import (
    UNCLASSIFIED,
    CaseLabel,
    ClassificationTieError,
    PlanSemantics,
    UnclassifiedConfigError,
    adversarial_plan,
    classify,
)
from .verify import (
    Certificate,
    RegionExhaustedError,
    RegionSpec,
    Report,
    SeedingSurvey,
    campaign,
    certify_config,
    default_regions,
    exists_failing_seeding,
    recheck_certificate,
    richness_violation,
    sample_config,
    success_probability,
    survey_seedings,
)

__version__ = "0.1.0"
