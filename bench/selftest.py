"""Self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py

Runs every workload at its tiny size and requires every correctness
check to pass on the real outputs. Then it corrupts a copy of one output
at a time (one value in snapshots.csv, one missing spectrum file, one
perturbed eigenvalue, ...) and requires the check meant to catch that
corruption to fail. It also shows that two exact-DMD implementations
written here, one from the SVD and one by the method of snapshots, meet
the DMD tolerances on full-size windows; that a traced worker's layer
self times add up to its run time; and that the benchmark refuses to
run without the koopnet sources. Exits 0 when everything holds.
"""

from __future__ import annotations

import copy
import csv
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import koopnet  # noqa: E402
import koopnet.bak_sneppen as kbs  # noqa: E402
import koopnet.ifo as kifo  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

SCRATCH = ROOT / ".bench_out" / "selftest"
SEED = 3
FAILURES: list[str] = []


def expect(problems: list[str], check: str, what: str) -> None:
    hit = any(p.startswith(check) for p in problems)
    print(f"{'ok  ' if hit else 'FAIL'} {check:22s} catches {what}")
    if not hit:
        FAILURES.append(f"{check} missed {what}: {problems}")


def expect_clean(problems: list[str], what: str) -> None:
    print(f"{'ok  ' if not problems else 'FAIL'} {'clean':22s} {what}")
    if problems:
        FAILURES.append(f"{what}: {problems}")


def run_tiny(name: str, out: Path):
    work = workloads.WORKLOADS[name](SEED, out, "tiny")
    work.setup()
    work.run()
    return work


# ------------------------------------------------------------- bs-pipeline

def _rewrite(path: Path, edit) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def test_pipeline() -> None:
    out = SCRATCH / "pipeline"
    shutil.rmtree(out, ignore_errors=True)
    work = run_tiny("bs-pipeline", out)
    expect_clean(work.check(), "bs-pipeline outputs pass every check")

    def corrupted(what: str, check: str, mutate) -> None:
        bad = SCRATCH / "pipeline-bad"
        shutil.rmtree(bad, ignore_errors=True)
        shutil.copytree(out, bad)
        mutate(bad)
        expect(checks.check_pipeline(bad, work.seed, work.n, work.steps, workloads.WINDOW_LEN,
                                     workloads.RANK, workloads.JUMP_THRESHOLD), check, what)
        shutil.rmtree(bad)

    def set_cell(name, row, col, value):
        def edit(rows):
            rows[row][col] = value(rows[row][col])
        return lambda d: _rewrite(d / name, edit)

    def complex_row(name):
        with open(out / name) as fh:
            return next(i for i, r in enumerate(csv.reader(fh)) if i and float(r[1]) != 0.0)

    corrupted("one altered value in snapshots.csv", "snapshots",
              set_cell("snapshots.csv", 5, 3, lambda v: repr(float(v) + 2 ** -40)))
    corrupted("one altered index in events.csv", "events",
              set_cell("events.csv", 7, 1, lambda v: str((int(v) + 1) % work.n)))
    corrupted("a low final-20% fitness", "fitness",
              lambda d: _rewrite(d / "snapshots.csv", lambda rows: [
                  r.__setitem__(slice(None), ["0.5"] * len(r))
                  for r in rows[int(0.8 * work.steps) + 1:]]))
    corrupted("one missing spectrum_w*.csv", "artifacts",
              lambda d: (d / "spectrum_w1.csv").unlink())
    corrupted("one missing amplitudes.csv row", "amplitudes",
              lambda d: _rewrite(d / "amplitudes.csv", lambda rows: rows.pop()))
    corrupted("a max_amplitude that is not the window's largest", "amplitudes",
              set_cell("amplitudes.csv", 1, 1, lambda v: repr(float(v) * 2)))
    def wrong_transition(rows):
        if len(rows) == 1:
            rows.append(["1", "123.0", "100.0"])
        else:
            rows[1][0] = str(int(rows[1][0]) + 1)

    corrupted("a transition that is not the first jump", "transition",
              lambda d: _rewrite(d / "transition.csv", wrong_transition))
    corrupted("one perturbed eigenvalue", "dmd.eigenvalues",
              set_cell("spectrum_w0.csv", 1, 0, lambda v: repr(float(v) + 1e-6)))
    row = complex_row("spectrum_w0.csv")
    corrupted("a broken conjugate pair", "dmd.conjugate",
              set_cell("spectrum_w0.csv", row, 1, lambda v: repr(float(v) + 1e-6)))
    corrupted("one altered mode entry", "dmd.residual",
              set_cell("modes_w0.csv", 2, 2, lambda v: repr(float(v) + 1e-3)))
    corrupted("a reported mode norm off 1", "dmd.unit_norm",
              set_cell("spectrum_w0.csv", 2, 5, lambda v: repr(float(v) * (1 + 1e-6))))
    corrupted("amplitudes out of order", "dmd.amplitude_order",
              set_cell("spectrum_w0.csv", 3, 4, lambda v: repr(float(v) * 1e3)))
    corrupted("a mu that is not log(lambda)/dt", "dmd.mu",
              set_cell("spectrum_w0.csv", 1, 2, lambda v: repr(float(v) + 1e-9)))
    shutil.rmtree(out)


# ------------------------------------------------------- in-memory workloads

def _perturb_window(windows, which: str):
    """Copy of the window list with the first usable window's result
    altered: 'eigenvalue' shifts one eigenvalue, 'mode' one mode entry."""
    windows = list(windows)
    i = next(k for k, w in enumerate(windows) if not w.degenerate)
    res = copy.deepcopy(windows[i].result)
    if which == "eigenvalue":
        res.eigenvalues_discrete[0] += 1e-6
    else:
        res.modes[0, 0] += 1e-3
        res.modes[:, 0] /= np.linalg.norm(res.modes[:, 0])
    windows[i] = dataclasses.replace(windows[i], result=res)
    return windows


def test_ifo() -> None:
    work = run_tiny("ifo-lattice", SCRATCH / "ifo")
    expect_clean(work.check(), "ifo-lattice outputs pass every check")
    n, rec, av = work.params.n_nodes, work.snapshots.data, work.avalanches
    if work.onset is None:
        FAILURES.append("tiny ifo-lattice run never synchronized; spanning check untested")

    def ifo(record=rec, avalanches=av, onset=work.onset, dominant=work.dominant):
        return checks.check_ifo(work.seed, n, workloads.IFO_DT, workloads.IFO_EPSILON, record,
                                avalanches, onset, dominant, work.zero_mode, work.pattern)

    bad = rec.copy()
    bad[10, 3] = 1.0
    expect(ifo(record=bad), "ifo.phase_range", "a settled phase of 1.0")
    fired = {round(a.start_time / workloads.IFO_DT) - 1 for a in av}
    quiet = next(k for k in range(1, len(rec)) if k not in fired)
    bad = rec.copy()
    bad[quiet, 0] = np.nextafter(bad[quiet, 0], 0.0)
    expect(ifo(record=bad), "ifo.drift", "a quiet step off by one ulp")
    big = [dataclasses.replace(av[0], size=n * 7 + 1)] + av[1:]
    expect(ifo(avalanches=big), "ifo.avalanche_size", "an avalanche larger than N*ceil(1/eps)")
    expect(ifo(onset=av[-1].start_time), "ifo.onset", "a wrong onset time")
    last = av[-1]
    partial = av[:-1] + [dataclasses.replace(last, participants=set(range(n - 1)))]
    expect(ifo(avalanches=partial), "ifo.spanning", "a post-onset avalanche missing a node")
    expect(ifo(dominant=work.dominant[::-1]), "ifo.diagnostics", "dominant modes out of order")
    for which, check in (("eigenvalue", "dmd.eigenvalues"), ("mode", "dmd.residual")):
        expect(checks.check_windows_in_memory("ifo", rec, _perturb_window(work.windows, which),
                                              workloads.WINDOW_LEN, workloads.RANK,
                                              workloads.IFO_DT), check, f"a perturbed {which}")
    expect(checks.check_transition("ifo", [1.0, 1.0, 500.0], workloads.JUMP_THRESHOLD, None, 0.0),
           "transition", "a missed amplitude jump")


def test_sliding() -> None:
    work = run_tiny("bs-sliding", SCRATCH / "sliding")
    expect_clean(work.check(), "bs-sliding outputs pass every check")
    stride, steps, length = work.stride, work.steps, workloads.WINDOW_LEN
    expect(checks.check_sliding(work.windows[:-1], steps, length, stride),
           "sliding.windows", "one missing window")
    shifted = list(work.windows)
    shifted[2] = dataclasses.replace(shifted[2], start_step=shifted[2].start_step + 1)
    expect(checks.check_sliding(shifted, steps, length, stride),
           "sliding.starts", "a start step off the stride")
    expect(checks.check_windows_in_memory("sliding", work.snapshots.data,
                                          _perturb_window(work.windows, "eigenvalue"),
                                          length, workloads.RANK, 1.0),
           "dmd.eigenvalues", "a perturbed eigenvalue")


# Smallest sigma_r / sigma_1 at which the Gram matrix is used. Its
# eigenvalues carry an error of about eps * sigma_1^2, so sigma_r is
# resolved to relative eps * (sigma_1 / sigma_r)^2, which is 2e-8 here.
GRAM_MIN_COND = 1e-4


def other_dmd(window: np.ndarray, dt: float, method: str):
    """Exact DMD written independently of koopnet, from the SVD of X
    ("svd") or from the method of snapshots, eigh of the Gram matrix
    X^T X ("gram"). Eigenvalues with |lambda| <= sqrt(eps) * max|lambda|
    are zero: their modes are the projected U_r w and they have no mu.
    Returns None where the Gram matrix cannot resolve the rank; a
    method-of-snapshots implementation falls back to the SVD there."""
    x, xp = window[:-1].T, window[1:].T
    if method == "svd":
        u, s, vh = np.linalg.svd(x, full_matrices=False)
        v = vh.T
    else:
        ev, v = np.linalg.eigh(x.T @ x)
        ev, v = ev[::-1], v[:, ::-1]
        s = np.sqrt(np.clip(ev, 0.0, None))
    r = min(workloads.RANK, int(np.count_nonzero(s > s[0] * max(x.shape) * np.finfo(float).eps)))
    if method == "gram" and s[r - 1] < GRAM_MIN_COND * s[0]:
        return None
    s_r, v_r = s[:r], v[:, :r]
    u_r = u[:, :r] if method == "svd" else (x @ v_r) / s_r
    b = (xp @ v_r) / s_r
    lambdas, w = np.linalg.eig(u_r.T @ b)
    lambdas = lambdas.astype(complex)
    zero = np.abs(lambdas) <= checks.ZERO_LAMBDA * max(1.0, float(np.max(np.abs(lambdas))))
    modes = np.where(zero, u_r @ w, (b @ w) / np.where(zero, 1.0, lambdas))
    modes /= np.linalg.norm(modes, axis=0)
    amps = np.linalg.lstsq(modes, x[:, 0].astype(complex), rcond=None)[0]
    order = np.argsort(-np.abs(amps), kind="stable")
    lambdas, modes, amps, zero = lambdas[order], modes[:, order], amps[order], zero[order]
    mus = np.where(zero, np.nan, np.log(np.where(zero, 1.0, lambdas)) / dt)
    return lambdas, mus, modes, amps


def test_other_methods() -> None:
    """Two other stable exact-DMD implementations must pass the DMD checks
    on the sampled windows of every workload at full size, so that the
    tolerances do not tie the program to one SVD routine or to its
    zero-eigenvalue rule. Lattice seed 7 is one on which the lattice
    synchronizes and the last windows have numerically zero eigenvalues."""
    full = workloads.SIZES
    pipe = kbs.simulate_bs(koopnet.BsParams(n=full["bs-pipeline"]["full"]["n"], seed=SEED),
                           full["bs-pipeline"]["full"]["steps"])[0].data
    slide = kbs.simulate_bs(koopnet.BsParams(n=full["bs-sliding"]["full"]["n"], seed=SEED),
                            full["bs-sliding"]["full"]["steps"])[0].data
    side = full["ifo-lattice"]["full"]["side"]
    ifo = kifo.simulate_ifo(koopnet.IfoParams(
        gamma=workloads.IFO_GAMMA, epsilon=workloads.IFO_EPSILON, rows=side, cols=side,
        dt=workloads.IFO_DT, seed=7), full["ifo-lattice"]["full"]["steps"])[0].data
    length = workloads.WINDOW_LEN
    stride = full["bs-sliding"]["full"]["stride"]
    cases = [("bs-pipeline", pipe, length, 1.0), ("ifo-lattice", ifo, length, workloads.IFO_DT),
             ("bs-sliding", slide, stride, 1.0)]
    for method in ("svd", "gram"):
        for label, record, step, dt in cases:
            problems, tested, skipped, worst = [], 0, 0, 0.0
            count = (record.shape[0] - length) // step + 1
            for i in checks.sample_windows(count):
                window = record[i * step:i * step + length]
                got = other_dmd(window, dt, method)
                if got is None:
                    skipped += 1
                    continue
                tested += 1
                lambdas, mus, modes, amps = got
                ref = checks.ReferenceDmd(window, workloads.RANK)
                worst = max(worst, checks._match(ref.eigenvalues, lambdas))
                problems += checks.check_window_spectrum(
                    f"{label} {method} window {i}", window, workloads.RANK, dt, lambdas, mus,
                    np.abs(amps), np.ones(len(lambdas)),
                    [(lambdas[k], modes[:, k]) for k in range(len(lambdas))])
            expect_clean(problems, f"{label}: {method} DMD meets the DMD tolerances on "
                                   f"{tested} windows (worst eigenvalue deviation "
                                   f"{worst:.1e}, {skipped} left to the SVD)")


# ----------------------------------------------------------- whole harness

def test_traced_worker() -> None:
    for name in workloads.WORKLOADS:
        trace_file = SCRATCH / f"{name}.trace.json"
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), "--workload", name, "--seed", str(SEED),
             "--out", str(SCRATCH / f"{name}-worker"), "--size", "tiny",
             "--trace", str(trace_file)], cwd=ROOT, stdout=subprocess.PIPE, text=True)
        res = json.loads(proc.stdout.splitlines()[-1]) if proc.returncode == 0 else None
        layers = res["layers"] if res else {}
        self_sum = sum(v for k, v in layers.items() if k.endswith(".self_s"))
        ok = (res is not None and not res["problems"] and trace_file.is_file()
              and abs(self_sum + layers["trace.unattributed_s"] - res["run_s"]) < 1e-9
              and layers["trace.unattributed_s"] < 0.05 * res["run_s"])
        print(f"{'ok  ' if ok else 'FAIL'} {'trace':22s} {name}: layer self times "
              f"account for the traced run")
        if not ok:
            FAILURES.append(f"traced worker {name}: {res}")


def test_refuses_without_sources() -> None:
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "bs-sliding",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=120)
    ok = proc.returncode != 0 and '"metrics"' not in proc.stdout
    print(f"{'ok  ' if ok else 'FAIL'} {'bare':22s} refuses to run without src/koopnet")
    if not ok:
        FAILURES.append(f"bare checkout: status {proc.returncode}, stdout {proc.stdout!r}")
    shutil.rmtree(bare)


def main() -> int:
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    test_pipeline()
    test_ifo()
    test_sliding()
    test_other_methods()
    test_traced_worker()
    test_refuses_without_sources()
    shutil.rmtree(SCRATCH, ignore_errors=True)
    for f in FAILURES:
        print(f"FAILED: {f}", file=sys.stderr)
    print(f"selftest: {'FAILED' if FAILURES else 'passed'}")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
