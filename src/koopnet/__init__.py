"""Simulators for self-organizing network models plus data-driven
spectral analysis of their regime transitions."""

from .analysis import (
    ModeEntry,
    SpatialPattern,
    TransitionReport,
    WindowAnalysis,
    ZeroFrequencyMode,
    detect_transition,
    dominant_modes,
    spatial_pattern,
    split_timescales,
    windowed_dmd,
    zero_frequency_mode,
)
from .bak_sneppen import (
    BsParams,
    BsState,
    average_fitness,
    bs_step,
    estimate_threshold,
    simulate_bs,
)
from .dmd import (
    DmdResult,
    build_snapshot_pairs,
    continuous_spectrum,
    dmd,
    dmd_of_snapshots,
    reconstruct,
)
from .errors import (
    ConfigError,
    DegenerateDataError,
    DomainError,
    InsufficientDataError,
    KoopnetError,
    NotFoundError,
)
from .ifo import (
    AvalancheRecord,
    IfoParams,
    IfoState,
    energy_of_phase,
    lattice_neighbors,
    phase_of_energy,
    resolve_avalanche,
    simulate_ifo,
    synchronization_onset,
)
from .snapshots import SnapshotMatrix

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
