"""Matrix-speller BCI toolkit: flash patterns, stimulus schedules,
synthetic EEG, and the offline decoding chain."""

from .blda import BldaModel, fit_blda, score
from .decoder import Decisions, accuracy_by_repetition, decode_characters
from .dsp import (
    DEFAULT_CHANNELS,
    EpochSet,
    FilterSpec,
    Recording,
    decimate,
    design_bandpass,
    extract_epochs,
    filter_recording,
)
from .errors import BundleError, PipelineError, SpellerError, ValidationError
from .metrics import RocCurve, bits_per_selection, itr_bpm, paired_t_test, roc
from .patterns import (
    FlashPattern,
    PatternReport,
    SpellerMatrix,
    cells_for_flash,
    default_matrix,
    make_constrained_pattern,
    make_permuted_pattern,
    make_rc_pattern,
    pair_table,
    validate_pattern,
)
from .pipeline import EvalResult, PipelineConfig, evaluate, preprocess, train_models
from .scheduler import (
    CP300,
    XP300,
    Events,
    IntervalStats,
    Schedule,
    make_cp300_schedule,
    make_xp300_schedule,
    target_interval_stats,
)
from .session_io import read_manifest, read_session, write_session
from .synth import (
    BlinkModel,
    ErpTemplate,
    NoiseModel,
    default_templates,
    synthesize_session,
)
from .xdawn import (
    SpatialFilterModel,
    apply_spatial_filter,
    build_toeplitz,
    fit_xdawn,
)

__version__ = "0.1.0"
