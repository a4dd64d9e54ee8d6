"""Acceptance gate: one test per numbered criterion.

Each test prints a single PASS/FAIL line (visible with -s, or in the
captured output of a failing test) and asserts the criterion at its
stated tolerance. Criteria 4 and 6 encode targets the models do not
meet under the pinned parameters; they are kept verbatim and expected
to fail rather than being weakened (details in their docstrings).
"""

import time

import numpy as np
import pytest

from koopnet import (
    BsParams,
    IfoParams,
    SnapshotMatrix,
    detect_transition,
    dmd_of_snapshots,
    energy_of_phase,
    phase_of_energy,
    simulate_bs,
    simulate_ifo,
    spatial_pattern,
    split_timescales,
    synchronization_onset,
    windowed_dmd,
    zero_frequency_mode,
)
from koopnet.cli import main

N_SEEDS = 20
IFO_STEPS = 5000
BS_ITERATIONS = 100_000


def report(number, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}"
    print(line)
    return ok


def rotation(w):
    return np.array([[np.cos(w), -np.sin(w)], [np.sin(w), np.cos(w)]])


def random_linear_system(rng, n):
    """Diagonalizable, distinct eigenvalues, moderate basis conditioning."""
    n_pairs = rng.integers(0, n // 2 + 1)
    blocks = [np.array([[rng.uniform(0.5, 1.1) * rng.choice([-1.0, 1.0])]])
              for _ in range(n - 2 * n_pairs)]
    for _ in range(n_pairs):
        blocks.append(rng.uniform(0.5, 1.1) * rotation(rng.uniform(0.2, np.pi - 0.2)))
    d = np.zeros((n, n))
    at = 0
    for b in blocks:
        k = b.shape[0]
        d[at:at + k, at:at + k] = b
        at += k
    while True:
        s = rng.normal(size=(n, n))
        if np.linalg.cond(s) < 50:
            break
    return s @ d @ np.linalg.inv(s)


def sorted_eigs(values):
    values = np.asarray(values, dtype=complex)
    return values[np.lexsort((values.imag, values.real))]


@pytest.fixture(scope="module")
def ifo_runs():
    """20-seed default-lattice runs: snapshots, avalanche log, onset."""
    runs = []
    t0 = time.perf_counter()
    for seed in range(N_SEEDS):
        params = IfoParams(gamma=2.0, epsilon=0.145, rows=8, cols=8, seed=seed)
        snaps, records = simulate_ifo(params, IFO_STEPS)
        onset = synchronization_onset(records, params.n_nodes)
        runs.append({"params": params, "snaps": snaps, "records": records,
                     "onset": onset})
    elapsed = time.perf_counter() - t0
    return {"runs": runs, "sim_seconds": elapsed}


@pytest.fixture(scope="module")
def bs_runs():
    """20-seed N=100 runs, reduced to stationary-tail summaries."""
    edges = np.linspace(0.0, 1.0, 2001)
    runs = []
    t0 = time.perf_counter()
    for seed in range(N_SEEDS):
        snaps, _ = simulate_bs(BsParams(n=100, seed=seed), BS_ITERATIONS)
        tail = snaps.data[-BS_ITERATIONS // 5:]
        from koopnet import estimate_threshold

        runs.append({
            "tail_mean": float(tail.mean()),
            "estimate": estimate_threshold(snaps, burn_in=BS_ITERATIONS * 4 // 5),
            "hist": np.histogram(tail, bins=edges)[0],
        })
    elapsed = time.perf_counter() - t0
    return {"runs": runs, "edges": edges, "sim_seconds": elapsed}


def test_criterion_1_dmd_oracle():
    """200 random linear systems, eigenvalues recovered within 1e-8."""
    rng = np.random.default_rng(20260824)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 7))
        m = random_linear_system(rng, n)
        rows = [rng.normal(size=n)]
        for _ in range(49):
            rows.append(m @ rows[-1])
        result = dmd_of_snapshots(SnapshotMatrix(data=np.array(rows)))
        got = sorted_eigs(result.eigenvalues_discrete)
        expect = sorted_eigs(np.linalg.eigvals(m))
        assert got.shape == expect.shape
        worst = max(worst, float(np.max(np.abs(got - expect))))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and elapsed < 10.0
    assert report(1, ok, f"worst eigenvalue error {worst:.3g} (limit 1e-8), "
                         f"{elapsed:.2f} s (limit 10 s)")


def test_criterion_2_ifo_synchronization(ifo_runs):
    """>= 90% of 20 seeds fully synchronized within 5000 steps, < 30 s."""
    locked = sum(r["onset"] is not None for r in ifo_runs["runs"])
    elapsed = ifo_runs["sim_seconds"]
    ok = locked >= 0.9 * N_SEEDS and elapsed < 30.0
    assert report(2, ok, f"{locked}/{N_SEEDS} seeds locked, "
                         f"simulation {elapsed:.1f} s (limit 30 s)")


def test_criterion_3_spectral_reconfiguration(ifo_runs):
    """Post-synchronization window: nonempty fast group at >= 10x the
    slow rates, plus a slow eigenvalue near the imaginary axis."""
    good = 0
    checked = 0
    for run in ifo_runs["runs"]:
        if run["onset"] is None:
            continue
        checked += 1
        window = windowed_dmd(run["snaps"], window_len=200)[-1]
        if window.degenerate or not window.fast_group or not window.slow_group:
            continue
        mus = window.result.eigenvalues_continuous
        slow_rates = np.abs(np.real(mus[window.slow_group]))
        fast_rates = np.abs(np.real(mus[window.fast_group]))
        # firing period from the locked avalanche tail
        times = [r.start_time for r in run["records"] if r.size == 64]
        period = float(np.diff(times[-3:]).mean())
        separated = np.min(fast_rates) >= 10.0 * max(np.max(slow_rates), 1e-300)
        near_axis = np.min(slow_rates) < 0.1 * (2.0 * np.pi / period)
        if separated and near_axis:
            good += 1
    ok = checked > 0 and good == checked
    assert report(3, ok, f"{good}/{checked} synchronized runs show the "
                         "10x fast/slow split with a slow mode near the axis")


def test_criterion_4_amplitude_jump_transition(ifo_runs):
    """detect_transition flags the synchronization onset window (+/- 1)
    with jump ratio >= 1e2 for >= 90% of seeds, pipeline defaults.

    Known shortfall: with the pinned parameters the lattice locks inside
    the first one or two 200-step windows for a quarter of the seeds, so
    no pre-transition baseline window exists and no upward jump can be
    measured there. Best observed is 15/20; the 90% target is kept
    verbatim and this test is expected to fail.
    """
    hits = 0
    for run in ifo_runs["runs"]:
        if run["onset"] is None:
            continue
        onset_window = int(run["onset"] / run["params"].dt) // 200
        windows = windowed_dmd(run["snaps"], window_len=200, rank=16)
        found = detect_transition(windows, jump_threshold=1e2)
        if (found.transition_window is not None
                and abs(found.transition_window - onset_window) <= 1
                and found.jump_ratio >= 1e2):
            hits += 1
    ok = hits >= 0.9 * N_SEEDS
    assert report(4, ok, f"{hits}/{N_SEEDS} seeds flagged within one window "
                         "of onset at ratio >= 1e2 (need >= 18)")


def test_criterion_5_bak_sneppen_plateau(bs_runs):
    """Final-20% mean fitness in [0.75, 0.85] for >= 95% of seeds, < 20 s."""
    means = [r["tail_mean"] for r in bs_runs["runs"]]
    inside = sum(0.75 <= m <= 0.85 for m in means)
    elapsed = bs_runs["sim_seconds"]
    ok = inside >= 0.95 * N_SEEDS and elapsed < 20.0
    assert report(5, ok, f"{inside}/{N_SEEDS} plateau means inside [0.75, 0.85] "
                         f"(range [{min(means):.3f}, {max(means):.3f}]), "
                         f"simulation {elapsed:.1f} s (limit 20 s)")


def test_criterion_6_stationary_support(bs_runs):
    """Threshold estimates stable across seeds (std < 0.02) and < 2% of
    pooled stationary fitness below (estimate - 0.05).

    Known shortfall: the stability half holds (std ~ 0.004), but the
    stationary distribution's sub-threshold population from in-flight
    avalanches is ~3.4% below (estimate - 0.05), above the 2% bar for
    every quantile choice consistent with the estimator's definition.
    Kept verbatim and expected to fail on the tail bound.
    """
    estimates = np.array([r["estimate"] for r in bs_runs["runs"]])
    std = float(np.std(estimates))
    cut = float(np.mean(estimates)) - 0.05
    edges = bs_runs["edges"]
    pooled = np.sum([r["hist"] for r in bs_runs["runs"]], axis=0)
    below = float(pooled[edges[1:] <= cut].sum()) / float(pooled.sum())
    ok = std < 0.02 and below < 0.02
    assert report(6, ok, f"estimate {np.mean(estimates):.4f} +/- {std:.4f} "
                         f"(std limit 0.02), {below * 100:.2f}% of pooled values "
                         f"below estimate - 0.05 (limit 2%)")


def test_criterion_7_zero_frequency_localization():
    """Top-quartile zero-frequency-mode nodes overlap the window's
    replaced-site set (min_history +/- 1) with Jaccard >= 0.3 for >= 80%
    of windows."""
    window_len = 200
    total = 0
    good = 0
    for seed in range(5):
        snaps, history = simulate_bs(BsParams(n=100, seed=seed), 2500)
        windows = windowed_dmd(snaps, window_len=window_len)
        for w in windows:
            if w.degenerate:
                continue
            try:
                zf = zero_frequency_mode(w.result)
            except Exception:
                continue
            total += 1
            mags = np.abs(zf.mode)
            top = set(np.argsort(mags)[-len(mags) // 4:].tolist())
            replaced = set()
            for i_min in history[w.start_step:w.end_step]:
                for d in (-1, 0, 1):
                    replaced.add((i_min + d) % 100)
            jaccard = len(top & replaced) / len(top | replaced)
            if jaccard >= 0.3:
                good += 1
    ok = total > 0 and good >= 0.8 * total
    assert report(7, ok, f"{good}/{total} windows at Jaccard >= 0.3 "
                         f"({100 * good / max(total, 1):.0f}%, need >= 80%)")


def test_criterion_8_invariant_sweeps(ifo_runs):
    """Condensed re-run of every module's invariant suite: >= 1000 cases
    for pure functions, >= 20 seeds for simulation-level invariants.

    The full-synchronization equality invariant is excluded: it is
    internally inconsistent with criterion 3 under the documented sweep
    semantics and is tracked as a strict xfail in test_ifo.py.
    """
    rng = np.random.default_rng(7)
    failures = []

    # energy map: inverse round trip, monotone, concave (1000 cases)
    for _ in range(1000):
        gamma = 10 ** rng.uniform(np.log10(0.05), 1.0)
        a, b = np.sort(rng.random(2))
        if abs(phase_of_energy(energy_of_phase(a, gamma), gamma) - a) > 1e-12:
            failures.append("energy inverse round trip")
            break
        ea, eb = energy_of_phase(a, gamma), energy_of_phase(b, gamma)
        if b > a and not eb > ea:
            failures.append("energy monotonicity")
            break
        if energy_of_phase((a + b) / 2, gamma) < (ea + eb) / 2 - 1e-12:
            failures.append("energy concavity")
            break

    # spectrum conjugate symmetry on real data (1000 cases)
    for _ in range(1000):
        data = rng.normal(size=(12, 4))
        lams = dmd_of_snapshots(SnapshotMatrix(data=data)).eigenvalues_discrete
        if max(np.min(np.abs(lams - np.conj(l))) for l in lams) > 1e-10:
            failures.append("conjugate symmetry")
            break

    # the continuous-spectrum log map inverts the exponential map (1000 cases)
    from koopnet.dmd import _log_map

    for _ in range(1000):
        mu = complex(rng.uniform(-3, 0.5), rng.uniform(-3, 3))
        dt = rng.uniform(0.01, 2.0)
        if abs(mu.imag) * dt >= np.pi - 1e-6:
            continue
        back = _log_map(np.array([np.exp(mu * dt)]), np.zeros(1, bool), dt)[0]
        if abs(back - mu) > 1e-9 * max(1.0, abs(mu)):
            failures.append("continuous spectrum identity")
            break

    # spatial_pattern permutation equivariance (1000 cases)
    for _ in range(1000):
        n = int(rng.integers(1, 16))
        mode = rng.normal(size=n) + 1j * rng.normal(size=n)
        perm = rng.permutation(n)
        base = [m for _, m in spatial_pattern(mode).entries]
        permuted = [m for _, m in spatial_pattern(mode[perm]).entries]
        if permuted != [base[i] for i in perm]:
            failures.append("spatial_pattern equivariance")
            break

    # IFO simulation invariants over the 20-seed fixture
    for run in ifo_runs["runs"]:
        snaps = run["snaps"].data
        if snaps.max() >= 1.0 or snaps.min() < 0.0:
            failures.append("settled phases in [0, 1)")
            break
        bound = 64 * int(np.ceil(1.0 / 0.145))
        if any(r.size > bound for r in run["records"]):
            failures.append("avalanche size bound")
            break

    # split_timescales partition + eps = 0 offsets + determinism (20 seeds)
    from koopnet.ifo import _simulate

    for seed in range(20):
        srng = np.random.default_rng(seed)
        result = dmd_of_snapshots(
            SnapshotMatrix(data=np.cumsum(srng.normal(size=(30, 5)), axis=0))
        )
        slow, fast = split_timescales(result)
        retained = [k for k in range(result.rank) if not result.zero_flags[k]]
        if sorted(slow + fast) != retained or (set(slow) & set(fast)):
            failures.append("timescale partition")
            break
        p0 = IfoParams(gamma=2.0, epsilon=0.0, rows=1, cols=3, seed=seed)
        # grid-aligned initial phases: firing then lands exactly on the
        # threshold, so no overshoot is dissipated at the reset and the
        # uncoupled offsets are preserved for the whole run
        free, _ = _simulate(p0, srng.integers(0, 100, size=3) * p0.dt, 200)
        diffs = np.mod(free.data - free.data[:, :1], 1.0)
        if np.max(np.ptp(diffs, axis=0)) > 1e-9:
            failures.append("eps = 0 constant offsets")
            break
        bs_a, hist_a = simulate_bs(BsParams(n=25, seed=seed), 150)
        bs_b, hist_b = simulate_bs(BsParams(n=25, seed=seed), 150)
        if not np.array_equal(bs_a.data, bs_b.data) or hist_a != hist_b:
            failures.append("bs determinism")
            break
        changed = [np.flatnonzero(bs_a.data[k] != bs_a.data[k - 1]).size
                   for k in range(1, 150)]
        if any(c > 3 for c in changed):
            failures.append("bs exactly-3 replacement")
            break
        if bs_a.data.min() < 0 or bs_a.data.max() > 1:
            failures.append("bs fitness bounds")
            break

    ok = not failures
    assert report(8, ok, "all invariant sweeps clean (full-sync equality "
                         "invariant excluded as spec-inconsistent, see "
                         "test_ifo.py xfail)" if ok else f"failed: {failures}")


def test_criterion_9_byte_determinism(tmp_path):
    """Both pipelines byte-identical across repeated identical runs."""
    def artifact_bytes(root):
        return {p.name: p.read_bytes() for p in sorted(root.iterdir())}

    identical = True
    for model, extra in (("ifo", ["--rows", "4", "--cols", "4"]),
                         ("bs", ["--n", "40"])):
        args = ["pipeline", "--model", model, "--steps", "600", "--seed", "11",
                "--window", "150"] + extra
        a = tmp_path / f"{model}_a"
        b = tmp_path / f"{model}_b"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        if artifact_bytes(a) != artifact_bytes(b):
            identical = False
    assert report(9, identical, "repeated ifo and bs pipeline runs produced "
                                "byte-identical artifact sets")
