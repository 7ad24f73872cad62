"""flipsim: deterministic simulator and analysis toolkit for noisy
push-gossip broadcast and majority consensus."""

__version__ = "0.1.0"

from .model import (
    ConfigurationError,
    NoiseChannel,
    RngStream,
    complement,
    derive_rng,
)
from .params import (
    PAPER_R_SCALE,
    ConstantsOrderingError,
    InitialSetTooSmallError,
    ProtocolConstants,
    ScheduleParams,
    SimConfig,
    derive_schedule,
    majority_entry_phase,
)
from .protocols import (
    ClockConfiguration,
    Outcome,
    PhaseMetrics,
    Stage1Result,
    Stage2PhaseRecord,
    majority_bias,
    run_baseline_forward,
    run_baseline_silent_wait,
    run_broadcast,
    run_desynchronized,
    run_majority_consensus,
)
from . import oracle
