"""Windowed spectral analysis tests."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koopnet import (
    ConfigError,
    DmdResult,
    DomainError,
    InsufficientDataError,
    NotFoundError,
    SnapshotMatrix,
    detect_transition,
    dmd,
    dmd_of_snapshots,
    dominant_modes,
    spatial_pattern,
    split_timescales,
    windowed_dmd,
    zero_frequency_mode,
)


def make_result(mus, amps=None, dt=0.1, n_nodes=None):
    """Hand-built DmdResult with prescribed continuous eigenvalues."""
    mus = np.asarray(mus, dtype=complex)
    r = mus.shape[0]
    if n_nodes is None:
        n_nodes = r
    lams = np.exp(mus * dt)
    if amps is None:
        amps = np.ones(r)
    modes = np.eye(n_nodes, r).astype(complex)
    return DmdResult(
        rank=r,
        eigenvalues_discrete=lams,
        eigenvalues_continuous=mus,
        modes=modes,
        amplitudes=np.asarray(amps, dtype=complex),
        singular_values=np.ones(r),
        dt=dt,
        zero_flags=np.zeros(r, dtype=bool),
    )


def decaying_data(n_steps=400, seed=0):
    rng = np.random.default_rng(seed)
    v1, v2 = np.eye(4)[0], np.eye(4)[1]
    k = np.arange(n_steps)
    data = (np.outer(0.98 ** k, v1) * 3.0 + np.outer(0.6 ** k, v2)
            + 1e-8 * rng.normal(size=(n_steps, 4)))
    return SnapshotMatrix(data=data, dt=1.0)


class TestWindowedDmd:
    def test_window_counts(self):
        rng = np.random.default_rng(0)
        snaps = SnapshotMatrix(data=rng.normal(size=(1800, 4)))
        assert len(windowed_dmd(snaps, window_len=200)) == 9
        snaps = SnapshotMatrix(data=rng.normal(size=(200, 4)))
        assert len(windowed_dmd(snaps, window_len=200)) == 1
        snaps = SnapshotMatrix(data=rng.normal(size=(500, 4)))
        assert len(windowed_dmd(snaps, window_len=200, stride=100)) == 4

    @settings(max_examples=100, deadline=None)
    @given(t=st.integers(8, 400), wl=st.integers(4, 60))
    def test_nonoverlapping_coverage_property(self, t, wl):
        if t < wl:
            return
        rng = np.random.default_rng(0)
        snaps = SnapshotMatrix(data=rng.normal(size=(t, 3)))
        windows = windowed_dmd(snaps, window_len=wl)
        assert len(windows) == t // wl
        ends = 0
        for w in windows:
            assert w.start_step == ends
            assert w.end_step - w.start_step == wl
            ends = w.end_step
        assert ends <= t

    def test_degenerate_window_flagged_not_fatal(self):
        rng = np.random.default_rng(1)
        data = np.vstack([np.zeros((50, 3)), rng.normal(size=(50, 3))])
        windows = windowed_dmd(SnapshotMatrix(data=data), window_len=50)
        assert windows[0].degenerate
        assert "degenerate" in windows[0].note
        assert np.isnan(windows[0].max_amplitude)
        assert not windows[1].degenerate

    def test_amplitudes_sorted_descending(self):
        windows = windowed_dmd(decaying_data(), window_len=100)
        for w in windows:
            # dmd() orders by |b| and the modes have unit norm
            amps = w.result.amplitude_magnitudes()
            assert np.all(np.diff(amps) <= 1e-12)
            assert np.float64(w.max_amplitude).tobytes() == amps[0].tobytes()

    def test_windows_match_direct_dmd(self):
        # oracle: each overlapping window decomposed on its own
        data = np.random.default_rng(3).normal(size=(200, 40))
        windows = windowed_dmd(SnapshotMatrix(data=data, dt=0.5), window_len=30,
                               stride=7, rank=12)
        assert len(windows) == 25
        for w in windows:
            s, e = w.start_step, w.end_step
            assert (s, e) == (7 * w.window_index, 7 * w.window_index + 30)
            direct = dmd(data[s:e - 1].T, data[s + 1:e].T, rank=12, dt=0.5)
            assert np.array_equal(w.result.eigenvalues_discrete, direct.eigenvalues_discrete)

    def test_rejects_bad_config(self):
        snaps = decaying_data(100)
        with pytest.raises(ConfigError):
            windowed_dmd(snaps, window_len=1)
        with pytest.raises(ConfigError):
            windowed_dmd(snaps, window_len=50, stride=0)
        with pytest.raises(ConfigError):
            windowed_dmd(snaps, window_len=500)


class TestDominantModes:
    def test_order_and_content(self):
        snaps = decaying_data()
        result = dmd_of_snapshots(snaps)
        entries = dominant_modes(result, 2)
        # amplitude 3 on the 0.98 branch dominates amplitude 1 on 0.6
        assert entries[0].eigenvalue == pytest.approx(0.98, abs=1e-4)
        assert entries[1].eigenvalue == pytest.approx(0.6, abs=1e-4)
        assert abs(entries[0].amplitude) > abs(entries[1].amplitude)

    def test_k_clamped_to_rank(self):
        result = dmd_of_snapshots(decaying_data())
        assert len(dominant_modes(result, 50)) == result.rank
        with pytest.raises(ConfigError):
            dominant_modes(result, 0)

    def test_takes_the_columns_in_order(self):
        # columns 0 and 1 tie in |b|, column 0 at the higher frequency:
        # the column order is the ranking, with no tie-break of its own
        result = make_result([-0.2 + 3j, -0.2 + 1j, -0.5], amps=[2.0, 2.0, 1.0])
        entries = dominant_modes(result, 2)
        assert [int(np.argmax(np.abs(e.mode))) for e in entries] == [0, 1]
        assert [e.eigenvalue for e in entries] == result.eigenvalues_discrete[:2].tolist()


class TestModeEntry:
    def test_entries_are_the_result_columns(self):
        # a decaying mode, a static background and a direction gone after
        # one step, whose zero-flagged column has mu = NaN
        k = np.arange(30)
        data = (np.outer(0.9 ** k, [1.0, 2.0, 0.0, 1.0]) + np.outer(np.ones(30), [0.5, 0, 1, 0])
                + np.outer(k == 0, [0.0, 1.0, -1.0, 3.0]))
        result = dmd_of_snapshots(SnapshotMatrix(data=data))
        assert result.zero_flags.any()

        def bits(entry):
            return (np.complex128(entry.eigenvalue).tobytes(), entry.mode.tobytes(),
                    np.complex128(entry.amplitude).tobytes(), np.complex128(entry.mu).tobytes(),
                    entry.index)

        entries = dominant_modes(result, result.rank)
        for j, entry in enumerate(entries):
            assert entry.index == j
            assert np.complex128(entry.mu).tobytes() == result.eigenvalues_continuous[j].tobytes()
        zf = zero_frequency_mode(result)
        assert bits(zf) == bits(entries[zf.index])


class TestDetectTransition:
    def _windows(self, max_amps):
        snaps = SnapshotMatrix(data=np.full((10, 2), 1.5))
        base = windowed_dmd(snaps, window_len=5)[0]
        # a rank-1 result with unit mode norm, so |b| is the max amplitude
        return [type(base)(window_index=i, start_step=5 * i, end_step=5 * (i + 1),
                           result=dataclasses.replace(base.result,
                                                      amplitudes=np.array([amp + 0j])))
                for i, amp in enumerate(max_amps)]

    def test_flags_first_big_jump(self):
        report = detect_transition(self._windows([0.5, 0.6, 0.4, 5e3, 6e3]))
        assert report.transition_window == 3
        assert report.jump_ratio == pytest.approx(5e3 / 0.4)

    def test_quiet_record_has_no_transition(self):
        report = detect_transition(self._windows([1.0, 2.0, 1.5, 3.0]))
        assert report.transition_window is None
        assert report.jump_ratio == 0.0

    def test_downward_jump_ignored(self):
        report = detect_transition(self._windows([5e3, 0.5, 0.6]))
        assert report.transition_window is None

    def test_requires_two_windows(self):
        with pytest.raises(InsufficientDataError):
            detect_transition(self._windows([1.0]))

    @pytest.mark.parametrize("threshold", [float("nan"), -5.0, 0.0, 1.0, float("inf")])
    def test_rejects_meaningless_threshold(self, threshold):
        with pytest.raises(ConfigError, match="jump_threshold"):
            detect_transition(self._windows([1.0, 2.0]), jump_threshold=threshold)

    def test_scale_invariance(self):
        rng = np.random.default_rng(6)
        data = np.vstack([
            1e-3 * rng.normal(size=(60, 4)) + 1.0,
            rng.normal(size=(60, 4)) * 500.0,
        ])
        a = detect_transition(windowed_dmd(SnapshotMatrix(data=data), window_len=30))
        b = detect_transition(windowed_dmd(SnapshotMatrix(data=data * 3.7), window_len=30))
        assert a.transition_window == b.transition_window
        if a.transition_window is not None:
            assert a.jump_ratio == pytest.approx(b.jump_ratio, rel=1e-6)


class TestSplitTimescales:
    def test_two_cluster_split(self):
        result = make_result([-0.1, -0.2, -50.0, -60.0])
        slow, fast = split_timescales(result)
        assert slow == [0, 1]
        assert fast == [2, 3]

    def test_single_eigenvalue_is_slow(self):
        slow, fast = split_timescales(make_result([-0.3]))
        assert slow == [0] and fast == []

    def test_rejects_a_result_without_modes(self):
        with pytest.raises(ConfigError, match="no retained eigenvalues"):
            split_timescales(make_result([]))

    def test_identical_rates_all_slow(self):
        slow, fast = split_timescales(make_result([-0.3, -0.3, -0.3]))
        assert slow == [0, 1, 2] and fast == []

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**31), r=st.integers(1, 10))
    def test_partition_property(self, seed, r):
        rng = np.random.default_rng(seed)
        result = make_result(-(10.0 ** rng.uniform(-2, 2, size=r)))
        slow, fast = split_timescales(result)
        assert sorted(slow + fast) == list(range(r))
        assert not (set(slow) & set(fast))


class TestZeroFrequencyMode:
    def test_constant_data_returns_unit_eigenvalue(self):
        snaps = SnapshotMatrix(data=np.full((20, 3), 2.0))
        zf = zero_frequency_mode(dmd_of_snapshots(snaps))
        assert zf.eigenvalue == pytest.approx(1.0, abs=1e-10)
        assert zf.mu == pytest.approx(0.0, abs=1e-10)

    def test_affine_system_returns_fixed_point_direction(self):
        # decaying rotation embedded in 5 nodes around fixed point f:
        # the only zero-frequency mode is the fixed-point direction
        rng = np.random.default_rng(3)
        w = 0.7
        a = 0.9 * np.array([[np.cos(w), -np.sin(w)], [np.sin(w), np.cos(w)]])
        e = rng.normal(size=(5, 2))
        f = rng.normal(size=5)
        y = rng.normal(size=2)
        rows = [e @ y + f]
        for _ in range(40):
            y = a @ y
            rows.append(e @ y + f)
        zf = zero_frequency_mode(dmd_of_snapshots(SnapshotMatrix(data=np.array(rows))))
        assert zf.eigenvalue == pytest.approx(1.0, abs=1e-8)
        alignment = abs(np.vdot(zf.mode, f)) / np.linalg.norm(f)
        assert alignment == pytest.approx(1.0, abs=1e-8)

    def test_prefers_relaxing_mode_over_static_background(self):
        # a large static (lambda ~ 1) component plus a small decaying
        # real mode: the decaying one carries the spatial information
        result = make_result([-1e-9, -0.5], amps=[100.0, 1.0])
        zf = zero_frequency_mode(result)
        assert zf.index == 1

    def test_background_returned_when_nothing_else(self):
        result = make_result([-1e-9], amps=[100.0])
        assert zero_frequency_mode(result).index == 0

    def test_takes_the_first_qualifying_column(self):
        # the relaxing columns 2 and 3 tie in |b|, as do the static ones
        # 1 and 2 of the second result
        result = make_result([-0.2 + 3j, -1e-9, -0.5, -0.3], amps=[2.0, 1.5, 1.0, 1.0])
        assert zero_frequency_mode(result).index == 2
        result = make_result([-0.2 + 3j, -1e-9, -2e-9], amps=[2.0, 1.0, 1.0])
        assert zero_frequency_mode(result).index == 1

    def test_not_found_on_pure_rotation(self):
        w = 0.7
        r = np.array([[np.cos(w), -np.sin(w)], [np.sin(w), np.cos(w)]])
        x = np.array([1.0, 0.3])
        rows = [x.copy()]
        for _ in range(30):
            x = r @ x
            rows.append(x.copy())
        result = dmd_of_snapshots(SnapshotMatrix(data=np.array(rows)))
        with pytest.raises(NotFoundError):
            zero_frequency_mode(result)


class TestSpatialPattern:
    def test_isolated_peak(self):
        pattern = spatial_pattern(np.array([0.0, 0.0, 0.0, 1.0, 0.0]))
        assert pattern.groups == [[0, 1, 2], [3], [4]]
        assert pattern.entries[3] == ("n3", 1.0)

    def test_uniform_mode_single_group(self):
        pattern = spatial_pattern(np.full(6, 0.4 + 0.3j))
        assert pattern.groups == [list(range(6))]

    def test_labels_used(self):
        pattern = spatial_pattern(np.array([1.0, 2.0]), labels=["a", "b"])
        assert pattern.entries[0][0] == "a"
        with pytest.raises(ConfigError):
            spatial_pattern(np.array([1.0, 2.0]), labels=["a"])

    @pytest.mark.parametrize("mode", [np.array([]), np.ones((2, 3))], ids=["empty", "2-D"])
    def test_rejects_a_mode_that_is_no_vector(self, mode):
        with pytest.raises(ConfigError, match="non-empty 1-D vector"):
            spatial_pattern(mode)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_mode_is_a_domain_error(self, value):
        with pytest.raises(DomainError, match="mode must be finite"):
            spatial_pattern(np.array([value, 1.0, 1.0]))

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**31), n=st.integers(1, 20))
    def test_permutation_equivariance_property(self, seed, n):
        rng = np.random.default_rng(seed)
        mode = rng.normal(size=n) + 1j * rng.normal(size=n)
        perm = rng.permutation(n)
        base = spatial_pattern(mode)
        permuted = spatial_pattern(mode[perm])
        base_mags = [m for _, m in base.entries]
        perm_mags = [m for _, m in permuted.entries]
        assert perm_mags == [base_mags[i] for i in perm]

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**31), n=st.integers(1, 40))
    def test_groups_match_their_definition_property(self, seed, n):
        # each group is a maximal run, taken left to right, whose max -
        # min is within 10% of its max; magnitudes drawn from a few
        # values so that runs of equal magnitude and exact 10% spreads
        # occur
        rng = np.random.default_rng(seed)
        mode = rng.choice([0.0, 0.9, 1.0, 1.1, 2.0, 3.0], size=n) * np.exp(1j * rng.random(n))
        if rng.random() < 0.5:
            mode = rng.normal(size=n) + 1j * rng.normal(size=n)
        mags = np.abs(mode)
        want, start = [], 0
        for i in range(1, n + 1):
            run = mags[start:i + 1]
            if i == n or run.max() - run.min() > 0.1 * run.max():
                want.append(list(range(start, i)))
                start = i
        pattern = spatial_pattern(mode)
        assert pattern.groups == want
        assert pattern.entries == [(f"n{i}", float(m)) for i, m in enumerate(mags)]
        assert all(type(m) is float for _, m in pattern.entries)
