"""The package's public names."""

import koopnet

EXPORTS = [
    "AvalancheRecord", "BsParams", "ConfigError", "DegenerateDataError", "DmdResult",
    "DomainError", "IfoParams", "InsufficientDataError", "KoopnetError",
    "ModeEntry", "NotFoundError", "SnapshotMatrix", "SpatialPattern", "TransitionReport",
    "WindowAnalysis", "build_snapshot_pairs",
    "detect_transition", "dmd", "dmd_of_snapshots", "dominant_modes", "energy_of_phase",
    "estimate_threshold", "phase_of_energy", "reconstruct",
    "simulate_bs", "simulate_ifo", "spatial_pattern", "split_timescales",
    "synchronization_onset", "windowed_dmd", "zero_frequency_mode",
]


def test_exports_are_pinned():
    # a new or removed export changes this list; submodules are not exports,
    # so `from koopnet import *` binds none
    assert koopnet.__all__ == EXPORTS

