"""Certified detection of adversarial patches by masked-mutant agreement.

The package builds covering mask sets, runs mask-based defenders over
deterministic desk-scale classifiers, scores the outcomes, and checks
the certification guarantee itself by exhaustive attack enumeration.
"""

from .classifiers import (
    CONFIDENCE_EPSILON,
    HashClassifier,
    LinearClassifier,
    Prediction,
    TableClassifier,
    classify_mutants,
)
from .cover import (
    CoverageReport,
    MaskSet,
    gen_multi_cover,
    gen_rect_cover,
    gen_square_cover,
    verify_cover,
)
from .dataset_io import (
    DatasetRecord,
    ProfileFixture,
    gen_synthetic_dataset,
    load_dataset,
    load_maskset,
    load_predictions,
    load_profile_fixture,
    load_records,
    save_dataset,
    save_maskset,
    save_predictions,
    save_records,
    save_report,
)
from .defenders import (
    DEFENDER_KINDS,
    Defender,
    DefenderSpec,
    MutantProfile,
    Verdict,
    assign_case,
    make_defender,
)
from .errors import (
    BudgetExceededError,
    DimensionMismatchError,
    DuplicateKeyError,
    FileFormatError,
    InvalidInputError,
    InvariantViolationError,
    MalformedLineError,
    PatchCertError,
    SchemaViolationError,
    TableLookupError,
    UnsupportedOperationError,
    ValueOutOfRangeError,
)
from .metrics import EvalRecord, MetricsReport, MetricValue, case_histogram, \
    compute_metrics
from .oracle import (
    DEFAULT_BUDGET,
    AttackConfig,
    SoundnessReport,
    SoundnessRun,
    check_profile_fixture,
    count_variants,
    enumerate_variants,
    run_soundness,
)
from .tensor import (
    Image,
    Mask,
    PatchSpec,
    Rect,
    apply_mask,
    apply_patch,
    iter_placements,
    mask_covers,
)

__version__ = "0.1.0"
