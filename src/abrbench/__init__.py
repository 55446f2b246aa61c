"""Trace-driven adaptive-bitrate streaming simulator and QoE toolkit.

Manifest + bandwidth-trace replay through a player state machine under
pluggable ABR policies, objective QoE scoring of the resulting
sessions, subjective-rating post-processing, and statistical comparison
of policies and QoE models.
"""

from .media import (
    Manifest,
    Representation,
    ladder_default,
    parse_manifest,
    serialize_manifest,
    synthetic_manifest,
)
from .nettrace import (
    ChannelConfig,
    Trace,
    TraceExhaustedError,
    download_time,
    parse_trace,
    window_traces,
)
from .simulator import (
    PlayerConfig,
    SessionLog,
    SessionRecord,
    buffer_step,
    run_session,
    to_record,
)
from .abr import (
    AbrState,
    BufferBasedPolicy,
    ExternalPolicy,
    FixedPolicy,
    MpcExactPolicy,
    MpcTablePolicy,
    RateBasedPolicy,
    RdosPolicy,
    arithmetic_mean_predict,
    harmonic_mean_predict,
    make_policy,
    mpc_select_exact,
)
from .search import LookupTable, MpcObjectiveParams, RdosParams, TableBinning, build_mpc_table
from .qoe import KsqiParams, evaluate
from .stats import (
    build_significance_matrix,
    f_test_variance,
    fit_logistic,
    krcc,
    plcc,
    srcc,
    wilcoxon_signed_rank,
)

__version__ = "0.1.0"
