"""Correctness checks for the benchmark workloads.

Everything here is computed apart from koopnet: a reference Bak-Sneppen
written from the documented algorithm, an exact-DMD operator built with
plain numpy from each window's X and X', and properties the method must
have. No check compares against a stored copy of earlier output. Each
check function returns a list of problems, each prefixed with the
check's name, so the self-test can show that a given corruption is
caught by the check meant to catch it.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

# Eigenvalues of the program and of the reference operator must agree to
# this relative tolerance. Criterion 1 of the acceptance tests uses the
# same 1e-8; method-of-snapshots DMD (eigh of X^T X) meets it by orders
# of magnitude on the windows where the Gram matrix resolves the rank,
# as the self-test shows.
EIG_TOL = 1e-8
# ||A v - lambda v|| <= RESIDUAL_TOL * ||A||_2 for every reported mode.
RESIDUAL_TOL = 1e-8
# An eigenvalue with |lambda| <= ZERO_LAMBDA * max(1, max|lambda|) is
# numerically zero: it may be left out of the continuous spectrum (NaN
# mu), and its mode must still be an eigenvector of the operator, which
# the projected U_r w is and the lifted X' V S^-1 w / lambda, rounding
# noise divided by a tiny lambda, is not.
ZERO_LAMBDA = float(np.sqrt(np.finfo(float).eps))
NORM_TOL = 1e-10
MU_TOL = 1e-12
SAMPLE_WINDOWS = 5


# ---------------------------------------------------------------- reference

def reference_bs(seed: int, n: int, steps: int) -> tuple[np.ndarray, list[int]]:
    """Bak-Sneppen as documented: PCG64(seed), random(n) initial
    fitness, then one random((steps, 3)) block; each step redraws the
    lowest-index minimum and its ring neighbours in left, centre, right
    order and records the fitness vector."""
    rng = np.random.Generator(np.random.PCG64(seed))
    fitness = list(rng.random(n))
    draws = rng.random((steps, 3)).tolist()
    rows, mins = [], []
    for left_v, centre_v, right_v in draws:
        i = min(range(n), key=fitness.__getitem__)
        fitness[(i - 1) % n] = left_v
        fitness[i] = centre_v
        fitness[(i + 1) % n] = right_v
        rows.append(list(fitness))
        mins.append(i)
    return np.array(rows), mins


class ReferenceDmd:
    """Exact DMD operator A = X' V_r S_r^-1 U_r^H of one window, applied
    without forming the N x N matrix (N = 4096 on the IFO lattice)."""

    def __init__(self, window: np.ndarray, rank_cap: int | None):
        x, xp = window[:-1].T, window[1:].T
        u, s, vh = np.linalg.svd(x, full_matrices=False)
        tol = s[0] * max(x.shape) * np.finfo(float).eps
        r = int(np.count_nonzero(s > tol))
        if rank_cap is not None:
            r = min(r, rank_cap)
        self.rank = r
        self.u_r = u[:, :r]
        self.b = (xp @ vh[:r].T) / s[:r]                     # X' V_r S_r^-1
        self.eigenvalues = np.linalg.eigvals(self.u_r.T @ self.b).astype(complex)
        self.norm = float(np.linalg.norm(self.b, 2))          # ||A||_2

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.b @ (self.u_r.T @ v)


def sample_windows(count: int) -> list[int]:
    return sorted({int(round(i)) for i in np.linspace(0, count - 1, min(SAMPLE_WINDOWS, count))})


# ------------------------------------------------------------ DMD properties

def _match(ref: np.ndarray, got: np.ndarray) -> float:
    """Largest relative distance after greedily pairing each reference
    eigenvalue with its nearest unused reported one."""
    left = list(got)
    worst = 0.0
    for lam in sorted(ref, key=lambda z: -abs(z)):
        j = min(range(len(left)), key=lambda k: abs(left[k] - lam))
        worst = max(worst, abs(left.pop(j) - lam) / max(1.0, abs(lam)))
    return worst


def check_window_spectrum(label: str, window: np.ndarray, rank_cap: int | None, dt: float,
                          lambdas: np.ndarray, mus: np.ndarray, magnitudes: np.ndarray,
                          norms: np.ndarray, modes: list[tuple[complex | None, np.ndarray]]
                          ) -> list[str]:
    """Exact-DMD properties of one window's reported spectrum.

    ``magnitudes`` are |b_k| * ||v_k|| in reported order, ``norms`` the
    mode norms, ``mus`` the continuous eigenvalues (NaN where excluded as
    zero). ``modes`` pairs each available mode vector with its
    eigenvalue, or with None when the pairing is not reported, in which
    case the nearest reported eigenvalue to its Rayleigh quotient is used.
    """
    problems = []
    ref = ReferenceDmd(window, rank_cap)
    scale = max(1.0, float(np.max(np.abs(lambdas))))
    zero_tol = ZERO_LAMBDA * scale
    if len(lambdas) != ref.rank:
        return [f"dmd.eigenvalues: {label}: rank {len(lambdas)}, reference {ref.rank}"]
    dev = _match(ref.eigenvalues, lambdas)
    if not dev <= EIG_TOL:
        problems.append(f"dmd.eigenvalues: {label}: deviation {dev:.3g} from reference")
    sym = _match(np.conj(lambdas), lambdas)
    if not sym <= EIG_TOL:
        problems.append(f"dmd.conjugate: {label}: set not conjugate-symmetric ({sym:.3g})")
    for lam_k, v in modes:
        av = ref.apply(v)
        if lam_k is None:
            q = np.vdot(v, av) / np.vdot(v, v)
            lam_k = lambdas[int(np.argmin(np.abs(lambdas - q)))]
        res = float(np.linalg.norm(av - lam_k * v))
        if not res <= RESIDUAL_TOL * max(ref.norm, 1.0):
            problems.append(f"dmd.residual: {label}: ||Av - lv|| = {res:.3g} for l = {lam_k:.6g}")
        if not abs(np.linalg.norm(v) - 1.0) <= NORM_TOL:
            problems.append(f"dmd.unit_norm: {label}: mode vector norm {np.linalg.norm(v):.17g}")
    if not np.all(np.abs(np.asarray(norms) - 1.0) <= NORM_TOL):
        problems.append(f"dmd.unit_norm: {label}: reported norms {norms}")
    mags = np.asarray(magnitudes) / np.asarray(norms)
    if np.any(np.diff(mags) > 0):
        problems.append(f"dmd.amplitude_order: {label}: |b| increases along the reported order")
    for lam, mu in zip(lambdas, mus):
        if np.isnan(mu.real):
            if not abs(lam) <= zero_tol:
                problems.append(f"dmd.mu: {label}: excluded eigenvalue {lam:.6g} is not zero")
            continue
        want = np.log(complex(lam)) / dt
        if not abs(mu - want) <= MU_TOL * max(1.0, abs(want)):
            problems.append(f"dmd.mu: {label}: mu {mu:.17g} != log({lam:.17g})/dt")
    return problems


def check_windows_in_memory(label: str, record: np.ndarray, windows, window_len: int,
                            rank_cap: int | None, dt: float) -> list[str]:
    """DMD checks on a spread sample of in-memory WindowAnalysis results."""
    problems = []
    for i in sample_windows(len(windows)):
        w = windows[i]
        if w.result is None:
            continue
        res = w.result
        data = record[w.start_step:w.start_step + window_len]
        problems += check_window_spectrum(
            f"{label} window {i}", data, rank_cap, dt,
            res.eigenvalues_discrete, res.eigenvalues_continuous,
            res.amplitude_magnitudes(), np.linalg.norm(res.modes, axis=0),
            [(res.eigenvalues_discrete[k], res.modes[:, k]) for k in range(res.rank)])
    return problems


def check_transition(label: str, max_amplitudes: list[float], threshold: float,
                     got_window, got_ratio) -> list[str]:
    """First window whose max amplitude is >= threshold times that of the
    previous usable window (NaN marks a degenerate window)."""
    want_window, want_ratio, prev = None, 0.0, None
    for idx, amp in enumerate(max_amplitudes):
        if math.isnan(amp):
            continue
        if prev is not None and prev > 0 and amp / prev >= threshold:
            want_window, want_ratio = idx, amp / prev
            break
        prev = amp
    if (want_window, want_ratio) != (got_window, got_ratio):
        return [f"transition: {label}: reported ({got_window}, {got_ratio}), "
                f"re-derived ({want_window}, {want_ratio})"]
    return []


# ------------------------------------------------------------- bs-pipeline

def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    return rows[0], rows[1:]


def _f(text: str) -> float:
    return float(text) if text != "" else float("nan")


def check_pipeline(out: Path, seed: int, n: int, steps: int, window_len: int,
                   rank_cap: int, threshold: float) -> list[str]:
    """Artifacts of ``koopnet pipeline --model bs`` against a reference run."""
    problems = []
    ref, ref_mins = reference_bs(seed, n, steps)
    n_windows = steps // window_len

    header, rows = _read_csv(out / "snapshots.csv")
    got = np.array([[float(v) for v in row] for row in rows])
    if header != [f"n{i}" for i in range(n)]:
        problems.append(f"snapshots: header {header[:3]}... is not n0..n{n - 1}")
    if got.shape != ref.shape or not np.array_equal(got.view(np.uint64), ref.view(np.uint64)):
        problems.append("snapshots: snapshots.csv differs from the reference Bak-Sneppen run")
    _, ev_rows = _read_csv(out / "events.csv")
    if ev_rows != [[str(k), str(i)] for k, i in enumerate(ref_mins)]:
        problems.append("events: events.csv differs from the reference argmin history")
    tail = got[int(0.8 * len(got)):].mean()
    if not 0.75 <= tail <= 0.85:
        problems.append(f"fitness: final-20% mean fitness {tail:.4f} outside [0.75, 0.85]")

    names = {p.name for p in out.iterdir()}
    want = {"snapshots.csv", "events.csv", "meta.csv", "amplitudes.csv",
            "transition.csv", "report.md"}
    want |= {f"{kind}_w{w}.csv" for kind in ("spectrum", "modes") for w in range(n_windows)}
    if names != want:
        problems.append(f"artifacts: missing {sorted(want - names)[:4]}, "
                        f"unexpected {sorted(names - want)[:4]}")
        return problems

    _, amp_rows = _read_csv(out / "amplitudes.csv")
    if [r[0] for r in amp_rows] != [str(w) for w in range(n_windows)]:
        problems.append(f"amplitudes: {len(amp_rows)} rows, want windows 0..{n_windows - 1}")
        return problems
    max_amps = [_f(r[1]) for r in amp_rows]
    _, tr_rows = _read_csv(out / "transition.csv")
    got_tr = (int(tr_rows[0][0]), float(tr_rows[0][1])) if tr_rows else (None, 0.0)
    if tr_rows and float(tr_rows[0][2]) != threshold:
        problems.append(f"transition: threshold column {tr_rows[0][2]} != {threshold}")
    problems += check_transition("pipeline", max_amps, threshold, *got_tr)

    for w in sample_windows(n_windows):
        label = f"pipeline window {w}"
        _, spec = _read_csv(out / f"spectrum_w{w}.csv")
        lambdas = np.array([complex(float(r[0]), float(r[1])) for r in spec])
        mus = np.array([complex(_f(r[2]), _f(r[3])) for r in spec])
        mags = np.array([float(r[4]) for r in spec])
        norms = np.array([float(r[5]) for r in spec])
        if spec and mags[0] != max_amps[w]:
            problems.append(f"amplitudes: {label}: max_amplitude {max_amps[w]} != {mags[0]}")
        vectors: dict[str, list[complex]] = {}
        for r in _read_csv(out / f"modes_w{w}.csv")[1]:
            vectors.setdefault(r[0], []).append(complex(float(r[2]), float(r[3])))
        modes = [(None, np.array(v)) for v in vectors.values()]
        problems += check_window_spectrum(
            label, ref[w * window_len:(w + 1) * window_len], rank_cap, 1.0,
            lambdas, mus, mags, norms, modes)
    return problems


# ------------------------------------------------------------- ifo-lattice

def reference_onset(sizes: list[int], times: list[float], n_nodes: int,
                    min_repeats: int = 3, time_tol: float = 1e-9):
    """Linear scan for the start of the synchronized tail: the earliest
    record from which every record spans all nodes, there are at least
    ``min_repeats`` records, and every gap lies within ``time_tol`` of
    the tail's first gap."""
    best = None
    all_full = True
    g_min, g_max = math.inf, -math.inf
    for idx in range(len(sizes) - 1, -1, -1):
        all_full = all_full and sizes[idx] == n_nodes
        if not all_full:
            break
        if idx + 1 < len(sizes):
            g = times[idx + 1] - times[idx]
            g_min, g_max = min(g_min, g), max(g_max, g)
            ok = g_max - g <= time_tol and g - g_min <= time_tol
        else:
            ok = True
        if ok and len(sizes) - idx >= min_repeats:
            best = times[idx]
    return best


def check_ifo(seed: int, n_nodes: int, dt: float, epsilon: float, record: np.ndarray,
              avalanches, onset, dominant, zero_mode, pattern) -> list[str]:
    problems = []
    if not (np.all(record >= 0.0) and np.all(record < 1.0)):
        problems.append("ifo.phase_range: a settled phase lies outside [0, 1)")

    # Steps without an avalanche must advance every phase by exactly dt.
    # An avalanche starting at time t was triggered in step t/dt - 1.
    initial = np.random.Generator(np.random.PCG64(seed)).random(n_nodes)
    fired = {round(a.start_time / dt) - 1 for a in avalanches}
    if any(abs(a.start_time / dt - round(a.start_time / dt)) > 1e-6 for a in avalanches):
        problems.append("ifo.drift: an avalanche start time is not a step time")
    prev = np.vstack([initial, record[:-1]])
    quiet = np.array([k not in fired for k in range(record.shape[0])])
    if not np.array_equal(record[quiet], prev[quiet] + dt):
        problems.append("ifo.drift: a step without an avalanche did not advance phases by dt")

    bound = n_nodes * math.ceil(1.0 / epsilon)
    if any(a.size > bound for a in avalanches):
        problems.append(f"ifo.avalanche_size: an avalanche exceeds N*ceil(1/eps) = {bound}")

    want = reference_onset([a.size for a in avalanches], [a.start_time for a in avalanches],
                           n_nodes)
    if want != onset:
        problems.append(f"ifo.onset: synchronization_onset {onset}, linear scan {want}")
    if onset is not None and any(len(a.participants) != n_nodes
                                 for a in avalanches if a.start_time >= onset):
        problems.append("ifo.spanning: an avalanche after onset does not span all nodes")

    mags = [abs(e.amplitude) for e in dominant]
    if any(b > a for a, b in zip(mags, mags[1:])):
        problems.append("ifo.diagnostics: dominant modes not in descending |b|")
    if zero_mode is not None and not abs(zero_mode.mu.imag) < 1e-6 * np.pi / dt:
        problems.append(f"ifo.diagnostics: zero-frequency mode has Im mu {zero_mode.mu.imag}")
    want_mags = np.abs(dominant[0].mode)
    flat = [i for g in pattern.groups for i in g]
    if (not np.array_equal([m for _, m in pattern.entries], want_mags)
            or flat != list(range(n_nodes))):
        problems.append("ifo.diagnostics: spatial pattern is not a partition of |mode|")
    return problems


# -------------------------------------------------------------- bs-sliding

def check_sliding(windows, steps: int, window_len: int, stride: int) -> list[str]:
    want = (steps - window_len) // stride + 1
    problems = []
    if len(windows) != want:
        problems.append(f"sliding.windows: {len(windows)} windows, want {want}")
    for i, w in enumerate(windows):
        if (w.window_index, w.start_step, w.end_step) != (i, i * stride, i * stride + window_len):
            problems.append(f"sliding.starts: window {i} covers [{w.start_step}, {w.end_step})")
            break
    return problems
