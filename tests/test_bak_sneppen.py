"""Bak-Sneppen ring model tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koopnet import (
    BsParams,
    ConfigError,
    InsufficientDataError,
    SnapshotMatrix,
    estimate_threshold,
    simulate_bs,
)
from koopnet.bak_sneppen import _replace_minimum

DRAWS = np.array([0.31, 0.52, 0.73])


class TestStep:
    """The update step, `_replace_minimum`, with explicit draws."""

    def test_replaces_minimum_and_both_neighbors(self):
        fitness = np.array([0.9, 0.1, 0.8, 0.7])
        assert _replace_minimum(fitness, DRAWS) == 1
        assert fitness.tolist() == [0.31, 0.52, 0.73, 0.7]

    def test_ring_wraparound(self):
        # neighbors of site 0 on the ring are 3 (left) and 1 (right)
        fitness = np.array([0.05, 0.8, 0.8, 0.8])
        assert _replace_minimum(fitness, DRAWS) == 0
        assert fitness.tolist() == [0.52, 0.73, 0.8, 0.31]

    def test_right_wraparound(self):
        # neighbors of site n-1 on the ring are n-2 (left) and 0 (right)
        fitness = np.array([0.8, 0.8, 0.8, 0.05])
        assert _replace_minimum(fitness, DRAWS) == 3
        assert fitness.tolist() == [0.73, 0.8, 0.31, 0.52]

    def test_list_and_array_draws_agree(self):
        rng = np.random.default_rng(8)
        before, draws = rng.random(9), rng.random((20, 3))
        from_list, from_array = before.copy(), before.copy()
        for row in draws:
            assert _replace_minimum(from_list, row.tolist()) == _replace_minimum(from_array, row)
            assert from_list.tobytes() == from_array.tobytes()

    def test_tie_breaks_to_lowest_index(self):
        fitness = np.array([0.9, 0.2, 0.2, 0.9, 0.9])
        assert _replace_minimum(fitness, DRAWS) == 1
        assert fitness.tolist() == [0.31, 0.52, 0.73, 0.9, 0.9]

    def test_minimum_ring_replaces_everything(self):
        # n = 3: the replaced triple is the whole ring
        fitness = np.array([0.5, 0.1, 0.9])
        assert _replace_minimum(fitness, DRAWS) == 1
        assert fitness.tolist() == [0.31, 0.52, 0.73]

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**31), n=st.integers(3, 40))
    def test_step_invariants_property(self, seed, n):
        rng = np.random.default_rng(seed)
        before = rng.random(n)
        draws = rng.random(3)
        fitness = before.copy()
        i_min = _replace_minimum(fitness, draws)
        assert i_min == int(np.argmin(before))
        assert np.all((fitness >= 0) & (fitness <= 1))
        changed = np.flatnonzero(fitness != before)
        allowed = {(i_min - 1) % n, i_min, (i_min + 1) % n}
        assert set(changed.tolist()) <= allowed
        assert fitness[[(i_min - 1) % n, i_min, (i_min + 1) % n]].tolist() == draws.tolist()


def assert_matches_stepwise_oracle(params, steps):
    """simulate_bs against an independent pure-Python oracle on the same
    PCG64 stream: n draws for the initial ring, then one 3-draw block
    per step."""
    snaps, history = simulate_bs(params, steps)
    rng = np.random.default_rng(params.seed)
    fitness = rng.random(params.n).tolist()
    n = params.n
    for k in range(steps):
        left, centre, right = rng.random(3).tolist()
        i_min = fitness.index(min(fitness))
        fitness[(i_min - 1) % n] = left
        fitness[i_min] = centre
        fitness[(i_min + 1) % n] = right
        assert i_min == history[k]
        assert fitness == snaps.data[k].tolist()


class TestSimulate:
    def test_shapes_and_dt(self):
        snaps, history = simulate_bs(BsParams(n=10, seed=0), 50)
        assert snaps.data.shape == (50, 10)
        assert snaps.dt == 1.0
        assert len(history) == 50

    def test_matches_stepwise_evolution(self):
        assert_matches_stepwise_oracle(BsParams(n=8, seed=21), 40)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_matches_stepwise_evolution_at_benchmark_size(self, seed):
        # bs-pipeline's ring and record length
        assert_matches_stepwise_oracle(BsParams(n=100, seed=seed), 4000)

    def test_min_history_consistent_with_snapshots(self):
        snaps, history = simulate_bs(BsParams(n=20, seed=2), 200)
        for k in range(1, 200):
            assert history[k] == int(np.argmin(snaps.data[k - 1]))

    def test_determinism(self):
        a, ha = simulate_bs(BsParams(n=30, seed=5), 300)
        b, hb = simulate_bs(BsParams(n=30, seed=5), 300)
        assert np.array_equal(a.data, b.data)
        assert ha == hb

    def test_fitness_rises_toward_plateau(self):
        snaps, _ = simulate_bs(BsParams(n=100, seed=0), 2500)
        assert snaps.data[:100].mean() < 0.70
        assert snaps.data[-500:].mean() > 0.75

    def test_small_ring_stays_uniform(self):
        # n = 3 replaces the whole ring each step: no selection pressure,
        # the mean hovers near 1/2
        snaps, _ = simulate_bs(BsParams(n=3, seed=1), 3000)
        assert abs(snaps.data.mean() - 0.5) < 0.05

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigError):
            BsParams(n=2)
        with pytest.raises(ConfigError):
            BsParams(n=5, seed=-1)
        with pytest.raises(ConfigError):
            simulate_bs(BsParams(n=5), 0)
        with pytest.raises(ConfigError, match="n_iterations must be >= 2, got -1"):
            simulate_bs(BsParams(n=5), -1)
        with pytest.raises(ConfigError, match="n_iterations must be >= 2, got 1"):
            simulate_bs(BsParams(n=5), 1)


class TestEstimateThreshold:
    def test_quantile_above_support_edge(self):
        rng = np.random.default_rng(5)
        data = 0.6 + 0.4 * rng.random((300, 100))
        est = estimate_threshold(SnapshotMatrix(data=data), burn_in=0)
        assert 0.6 < est < 0.65

    def test_constant_data(self):
        data = np.full((150, 4), 0.7)
        assert estimate_threshold(SnapshotMatrix(data=data), burn_in=0) == pytest.approx(0.7)

    def test_long_run_estimate(self):
        # frozen from a long stationary run; the critical threshold of
        # the n=100 ring sits near 0.6
        snaps, _ = simulate_bs(BsParams(n=100, seed=0), 100_000)
        est = estimate_threshold(snaps, burn_in=80_000)
        assert 0.57 <= est <= 0.63

    def test_insufficient_data(self):
        snaps, _ = simulate_bs(BsParams(n=10, seed=0), 120)
        with pytest.raises(InsufficientDataError):
            estimate_threshold(snaps, burn_in=50)
        with pytest.raises(ConfigError):
            estimate_threshold(snaps, burn_in=-1)
