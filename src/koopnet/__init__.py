"""Simulators for self-organizing network models plus data-driven
spectral analysis of their regime transitions."""

from types import ModuleType as _ModuleType

from .analysis import (
    ModeEntry,
    SpatialPattern,
    TransitionReport,
    WindowAnalysis,
    detect_transition,
    dominant_modes,
    spatial_pattern,
    split_timescales,
    windowed_dmd,
    zero_frequency_mode,
)
from .bak_sneppen import (
    BsParams,
    estimate_threshold,
    simulate_bs,
)
from .dmd import (
    DmdResult,
    build_snapshot_pairs,
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
    energy_of_phase,
    phase_of_energy,
    simulate_ifo,
    synchronization_onset,
)
from .snapshots import SnapshotMatrix

__version__ = "0.1.0"

# the public names bound above, not the submodules their imports bind
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
