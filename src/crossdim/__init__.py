"""Cross-dimensional Euclidean space and dimension-varying system toolkit."""

from .cdspace import (
    CdVector,
    Projector,
    SubspaceLattice,
    angle,
    build_lattice,
    canonicalize,
    equivalent,
    kron_lift,
    project,
    projector,
    stp_add,
    stp_sub,
    v_dist,
    v_inner,
    v_norm,
)
from .dkstp import bridge, dk_apply, dk_product, op_vnorm
from .dynamics import (
    AffineFeedback,
    Disturbance,
    DvSystem,
    Mode,
    OutputMap,
    Trajectory,
    closed_loop_drift,
    dwell_bound,
    embed_common,
    expm,
    integrate_mode,
    lift_field,
    lift_function,
    simulate,
)
from .analysis import (
    AggregateResult,
    ControllabilityReport,
    ErrorSeries,
    ReducedModel,
    aggregate_run,
    approx_error,
    ctrb_rank,
    intersection_basis,
    obs_rank,
    partial_ctrb,
    reachability_chain,
    reduce_model,
    restrict_field,
    span_membership,
)
from .errors import ConfigError, NumericFailure
from .switching import (
    JumpEvent,
    SwitchingSignal,
    TransitionMap,
    add_map,
    compose_maps,
    drop_map,
    fixed_signal,
    jump_gap,
    lipschitz_of,
    make_signal,
    nearest_map,
    random_signal,
)

__version__ = "0.1.0"
