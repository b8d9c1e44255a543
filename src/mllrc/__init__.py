"""Multiple-locality locally repairable codes: constructions, bounds, certification."""

from .bounds import (
    BoundReport,
    KOptOracle,
    cm_bound,
    griesmer_max_k,
    load_kopt_table,
    ml_alphabet,
    ml_singleton,
    singleton_r_local,
)
from .certify import (
    AnalysisReport,
    Certificate,
    DominanceReport,
    certify,
    certify_pyramid,
    check_dominance,
    full_analysis,
    render_analysis_kv,
    render_analysis_text,
    render_bound_kv,
    render_bound_text,
    render_certificate_kv,
    render_certificate_text,
    render_dominance_text,
)
from .constructions import (
    GccLevel,
    GccSpec,
    PyramidSpec,
    algorithm1_ml_lrc,
    algorithm3_ml_lrc,
    construction2_binary_lrc,
    construction2_gcc_spec,
    construction2_parameters,
    detect_repair_groups,
    entropy_set,
    extended_rs,
    gcc_generator,
    load_gcc_spec,
    load_pyramid_spec,
    ml_pyramid,
    predict_shortened_profile,
    pyramid_profile,
    rate_dimension_limit,
    reed_solomon,
    save_gcc_spec,
    save_pyramid_spec,
    tamo_barg,
)
from .errors import BudgetError, CodingError, ParseError, PreconditionError
from .galois import (
    FiniteField,
    MatrixGF,
    field_from_order,
    field_new,
    mat_kernel,
    mat_rank,
    mat_rref,
)
from .linear_code import (
    LinearCode,
    LocalityClass,
    LocalityProfile,
    RepairSet,
    format_profile_shape,
    load_code,
    parse_profile_shape,
    save_code,
)

__version__ = "0.1.0"
