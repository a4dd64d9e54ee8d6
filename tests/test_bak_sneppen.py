"""Bak-Sneppen ring model tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koopnet import (
    BsParams,
    BsState,
    ConfigError,
    InsufficientDataError,
    SnapshotMatrix,
    average_fitness,
    bs_step,
    estimate_threshold,
    simulate_bs,
)


class TestStep:
    def test_replaces_minimum_and_both_neighbors(self):
        state = BsState(fitness=np.array([0.9, 0.1, 0.8, 0.7]))
        new, i_min = bs_step(state, np.random.default_rng(0))
        assert i_min == 1
        changed = np.flatnonzero(new.fitness != state.fitness)
        assert set(changed) <= {0, 1, 2}
        assert new.fitness[3] == state.fitness[3]

    def test_ring_wraparound(self):
        state = BsState(fitness=np.array([0.05, 0.8, 0.8, 0.8]))
        new, i_min = bs_step(state, np.random.default_rng(0))
        assert i_min == 0
        # neighbors of site 0 on the ring are 3 and 1
        assert new.fitness[2] == state.fitness[2]

    def test_tie_breaks_to_lowest_index(self):
        state = BsState(fitness=np.array([0.2, 0.2, 0.9, 0.9]))
        new, i_min = bs_step(state, np.random.default_rng(42))
        assert i_min == 0
        assert new.fitness[2] == state.fitness[2]

    def test_minimum_ring_replaces_everything(self):
        state = BsState(fitness=np.array([0.5, 0.1, 0.9]))
        new, _ = bs_step(state, np.random.default_rng(7))
        # n = 3: the replaced triple is the whole ring
        assert np.all(new.fitness != state.fitness)

    def test_iteration_counter(self):
        state = BsState(fitness=np.array([0.5, 0.1, 0.9]), iteration=4)
        new, _ = bs_step(state, np.random.default_rng(0))
        assert new.iteration == 5

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**31), n=st.integers(3, 40))
    def test_step_invariants_property(self, seed, n):
        rng = np.random.default_rng(seed)
        state = BsState(fitness=rng.random(n))
        new, i_min = bs_step(state, rng)
        assert i_min == int(np.argmin(state.fitness))
        assert np.all((new.fitness >= 0) & (new.fitness <= 1))
        changed = np.flatnonzero(new.fitness != state.fitness)
        allowed = {(i_min - 1) % n, i_min, (i_min + 1) % n}
        assert set(changed.tolist()) <= allowed


class TestSimulate:
    def test_shapes_and_dt(self):
        snaps, history = simulate_bs(BsParams(n=10, seed=0), 50)
        assert snaps.data.shape == (50, 10)
        assert snaps.dt == 1.0
        assert len(history) == 50

    def test_matches_stepwise_evolution(self):
        # the vectorized simulator must reproduce repeated bs_step calls
        # on the same seed, draw for draw
        params = BsParams(n=8, seed=21)
        snaps, history = simulate_bs(params, 40)
        rng = np.random.default_rng(params.seed)
        state = BsState(fitness=rng.random(params.n))
        for k in range(40):
            state, i_min = bs_step(state, rng)
            assert i_min == history[k]
            assert np.array_equal(state.fitness, snaps.data[k])

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


class TestAverageFitness:
    def test_mean(self):
        state = BsState(fitness=np.array([0.2, 0.4, 0.9]))
        assert average_fitness(state) == pytest.approx(0.5)


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
