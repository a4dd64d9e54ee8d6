"""The shared argument rules: the counts the API takes are integers
with a lower bound, checked by errors._check_int, so a fractional count
is a ConfigError rather than a crash inside numpy."""

import numpy as np
import pytest

from koopnet import (
    BsParams,
    ConfigError,
    DomainError,
    IfoParams,
    SnapshotMatrix,
    dmd,
    dmd_of_snapshots,
    dominant_modes,
    estimate_threshold,
    simulate_bs,
    simulate_ifo,
    windowed_dmd,
)
from koopnet.errors import _check_int, _check_positive

IFO = {"gamma": 2.0, "epsilon": 0.1, "rows": 2, "cols": 2}
SNAPS = SnapshotMatrix(data=np.random.default_rng(0).normal(size=(60, 3)))


@pytest.mark.parametrize("call, message", [
    (lambda: dmd(SNAPS.data[:-1].T, SNAPS.data[1:].T, rank=2.5), "requested rank"),
    (lambda: windowed_dmd(SNAPS, window_len=20.5), "window_len"),
    (lambda: windowed_dmd(SNAPS, window_len=20, stride=5.5), "stride"),
    (lambda: dominant_modes(dmd_of_snapshots(SNAPS), 1.5), "k"),
    (lambda: simulate_bs(BsParams(n=5), 10.5), "n_iterations"),
    (lambda: simulate_ifo(IfoParams(**IFO), 10.5), "n_steps"),
    (lambda: BsParams(n=3.5), "ring size"),
    (lambda: IfoParams(**{**IFO, "rows": 2.5}), "rows"),
    (lambda: BsParams(n=5, seed=1.5), "seed"),
    (lambda: IfoParams(**IFO, seed=1.5), "seed"),
    (lambda: estimate_threshold(SNAPS, burn_in=1.5), "burn_in"),
], ids=["dmd-rank", "window_len", "stride", "dominant-k", "bs-steps", "ifo-steps", "bs-n",
        "ifo-rows", "bs-seed", "ifo-seed", "burn_in"])
def test_fractional_count_is_a_config_error(call, message):
    with pytest.raises(ConfigError, match=rf"^{message} must be an integer, got \d+\.5$"):
        call()


def test_numpy_integer_counts_run():
    i = np.int64
    snaps, _ = simulate_bs(BsParams(n=i(5), seed=i(1)), i(150))
    windows = windowed_dmd(snaps, window_len=i(50), stride=i(25), rank=i(3))
    assert len(windows) == 5
    assert len(dominant_modes(windows[0].result, i(2))) == 2
    assert estimate_threshold(snaps, burn_in=i(10)) > 0
    snaps, _ = simulate_ifo(IfoParams(**{**IFO, "rows": i(2), "cols": i(3)}, seed=i(4)), i(20))
    assert snaps.data.shape == (20, 6)


@pytest.mark.parametrize("rows, cols, message", [
    (0, 2, "rows must be >= 1, got 0"), (2, 0, "cols must be >= 1, got 0")], ids=["rows", "cols"])
def test_lattice_is_checked_per_axis(rows, cols, message):
    with pytest.raises(ConfigError, match=message):
        IfoParams(**{**IFO, "rows": rows, "cols": cols})


def test_helpers_name_the_argument_and_the_rule():
    with pytest.raises(ConfigError, match="count must be >= 2, got 1"):
        _check_int("count", np.int32(1), 2)
    with pytest.raises(ConfigError, match="count must be an integer, got '3'"):
        _check_int("count", "3", 2)
    _check_positive("dt", 5e-324)
    for bad in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(DomainError, match=f"dt must be finite and > 0, got {bad}"):
            _check_positive("dt", bad, DomainError)
