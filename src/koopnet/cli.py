"""Command-line front end: simulate, analyze, and the combined pipeline.

Artifacts are plain CSV plus a human-readable report. meta.csv, all a
re-run needs, holds every field of the run's IfoParams or BsParams in
field order, plus model, dt and steps. The default output directory
comes from the KOOPNET_OUT environment variable, else the current one.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

import numpy as np

from . import analysis as ana
from . import bak_sneppen, ifo
from . import io as kio
from .bak_sneppen import BsParams
from .bak_sneppen import simulate_bs  # noqa: F401  (bound by bench/spans.py)
from .errors import ConfigError, DomainError, KoopnetError, _check_int, _check_positive
from .ifo import IfoParams
from .snapshots import _blocks, default_labels

ENV_OUT = "KOOPNET_OUT"

# The defaults of the flags each model reads. A Bak-Sneppen step is one
# update, so its dt is always 1.0; meta.csv records that interval, and a
# re-run passes it back.
_MODEL_DEFAULTS = {
    "ifo": {"rows": 8, "cols": 8, "epsilon": 0.145, "gamma": 2.0, "dt": IfoParams.dt,
            "boundary": IfoParams.boundary},
    "bs": {"n": 100, "dt": 1.0},
}


# Columns of spectrum_w<k>.csv, in the order _spectrum_rows yields them.
_SPECTRUM_HEADER = ["re_lambda", "im_lambda", "re_mu", "im_mu", "amplitude", "mode_norm", "group"]


def cmd_simulate(args: argparse.Namespace,
                 windows: list[ana.WindowAnalysis] | None = None) -> tuple:
    """Run the model the flags name, write snapshots.csv block by block
    as it runs, then events.csv and meta.csv, to the output directory.
    With `windows`, each written block also goes through the windowed
    analysis, which appends the windows it completes. Returns the
    record's (n_snapshots, labels, dt) and `windows`."""
    events: list = []
    if args.model == "ifo":
        params = IfoParams(gamma=args.gamma, epsilon=args.epsilon, rows=args.rows,
                           cols=args.cols, dt=args.dt, boundary=args.boundary, seed=args.seed)
        model, n_nodes, dt, write_events = ifo, params.n_nodes, params.dt, kio.write_ifo_events
    else:
        params = BsParams(n=args.n, seed=args.seed)
        model, n_nodes, dt, write_events = bak_sneppen, params.n, args.dt, kio.write_bs_events
    # every field of the run's parameters, in field order (IfoParams' dt keeps its place)
    meta = {"model": args.model, **dataclasses.asdict(params), "dt": dt, "steps": args.steps}
    blocks = _blocks(model._states(params, events), args.steps, n_nodes)
    if windows is not None:
        ana._check_length(args.steps, args.window)
        stride = args.stride or args.window
        ana._check_window_count(len(range(0, args.steps - args.window + 1, stride)))
        blocks = ana._stream_windows(blocks, windows, dt, args.window, args.stride, args.rank)
    # the model parameters and the window plan are checked, and the blocks
    # not yet drawn, before the output directory is made
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    labels = default_labels(n_nodes)
    kio.write_snapshots(out / "snapshots.csv", labels, blocks)
    write_events(out / "events.csv", events)
    kio.write_meta(out / "meta.csv", meta)
    return args.steps, labels, dt, windows


def _spectrum_rows(result, amps, slow, fast):
    """One spectrum row per retained mode, from Python scalars: `amps` is
    result.amplitude_magnitudes(), `slow` and `fast` split_timescales(result);
    a zero-flagged mode's re_mu and im_mu are NaN, its group 'excluded'."""
    columns = (result.eigenvalues_discrete.tolist(), result.eigenvalues_continuous.tolist(),
               amps.tolist(),
               np.linalg.norm(result.modes, axis=0).tolist(), result.zero_flags.tolist())
    for k, (lam, mu, amp, norm, zero) in enumerate(zip(*columns)):
        group = "excluded" if zero else "slow" if k in slow else "fast"
        yield (lam.real, lam.imag, mu.real, mu.imag, amp, norm, group)


def _mode_lines(labels: list[str], modes: np.ndarray, named):
    """Yield the modes_w*.csv lines of (name, column index) pairs of
    `modes`. A column named twice (the zero-frequency mode is often a
    dominant one too) is formatted once. Python's abs(complex), like
    numpy's scalar abs, is hypot(re, im); np.abs over a complex array
    can round the last bit differently."""
    cells: dict[int, list[str]] = {}
    for name, j in named:
        if j not in cells:
            cells[j] = [f"{node},{v.real!r},{v.imag!r},{abs(v)!r}"
                        for node, v in zip(labels, modes[:, j].tolist())]
        yield from (f"{name},{cell}" for cell in cells[j])


def cmd_analyze(record: tuple, args: argparse.Namespace) -> None:
    """From a record's (n_snapshots, labels, dt, windows), as simulated or
    read, write the spectrum and mode files of every window,
    amplitudes.csv, transition.csv and report.md to the output directory."""
    n_snapshots, labels, dt, windows = record
    report = ana.detect_transition(windows, jump_threshold=args.jump_threshold)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    warnings: list[str] = []
    amp_rows = []
    table = []  # report.md's row of each window
    focus = None  # the last analyzable window up to the transition
    for w in windows:
        spectrum = out / f"spectrum_w{w.window_index}.csv"
        steps = f"| {w.window_index} | {w.start_step}-{w.end_step}"
        if w.degenerate:
            # no amplitudes: a NaN maximum, a blank top 5 and a header-only spectrum
            amp_rows.append((w.window_index, np.nan, *[""] * 5))
            kio.write_csv(spectrum, _SPECTRUM_HEADER, [])
            warnings.append(f"window {w.window_index}: {w.note}")
            table.append(f"{steps} | - | degenerate | - | - |")
            continue
        amps = w.result.amplitude_magnitudes()  # column 0's is the maximum (see DmdResult)
        slow, fast = ana.split_timescales(w.result)
        top5 = amps[:5].tolist()
        amp_rows.append((w.window_index, top5[0], *top5, *[""] * (5 - len(top5))))
        kio.write_csv(spectrum, _SPECTRUM_HEADER, _spectrum_rows(w.result, amps, slow, fast))
        table.append(f"{steps} | {w.result.rank} | {top5[0]:.4g} | {len(slow)} | {len(fast)} |")
        if report.transition_window is None or w.window_index <= report.transition_window:
            focus = w

        # the columns in dominance order (see DmdResult): dominant_1 is column 0
        named = [(f"dominant_{j + 1}", j) for j in range(min(5, w.result.rank))]
        try:
            named.append(("zero_frequency", ana.zero_frequency_mode(w.result).index))
        except KoopnetError:
            warnings.append(f"window {w.window_index}: no zero-frequency mode")
        kio.write_csv(out / f"modes_w{w.window_index}.csv",
                      ["mode", "node", "re_v", "im_v", "abs_v"],
                      _mode_lines(labels, w.result.modes, named))

    kio.write_csv(out / "amplitudes.csv",
                  ["window_index", "max_amplitude",
                   "amp_1", "amp_2", "amp_3", "amp_4", "amp_5"], amp_rows)

    transition_rows = []
    if report.transition_window is not None:
        transition_rows.append((report.transition_window, float(report.jump_ratio),
                                float(args.jump_threshold)))
    kio.write_csv(out / "transition.csv", ["window", "ratio", "threshold"], transition_rows)

    kio.atomic_write_text(out / "report.md",
                          _render_report(f"{n_snapshots} x {len(labels)}, dt = {dt}",
                                         table, focus, report, warnings, args.jump_threshold))


def _render_report(shape: str, table, focus, report, warnings, jump_threshold) -> str:
    """report.md's text, from cmd_analyze's table rows (one per window)
    and `focus`, the window whose dominant mode's groups it lists."""
    lines = ["# Windowed spectral analysis", ""]
    lines.append(f"- snapshots: {shape}")
    lines.append(f"- windows analyzed: {len(table)}")
    if report.transition_window is not None:
        lines.append(f"- **transition detected** at window {report.transition_window} "
                     f"(amplitude jump x{report.jump_ratio:.3g}, threshold "
                     f"x{jump_threshold:.3g})")
    else:
        lines.append("- no transition detected "
                     f"(threshold x{jump_threshold:.3g})")
    lines += ["", "| window | steps | rank | max amplitude | slow | fast |",
              "|---|---|---|---|---|---|", *table]
    if focus is not None:
        pattern = ana.spatial_pattern(focus.result.modes[:, 0])
        sizable = [g for g in pattern.groups if len(g) > 1]
        lines.append("")
        lines.append(f"Dominant mode of window {focus.window_index}: "
                     f"{len(pattern.groups)} spatial groups, "
                     f"{len(sizable)} spanning more than one node.")
        for g in sizable[:8]:
            lines.append(f"- nodes {g[0]}-{g[-1]} ({len(g)} nodes), "
                         f"magnitude ~ {np.mean([pattern.entries[i][1] for i in g]):.3g}")
    if warnings:
        lines.append("")
        lines.append("## Warnings")
        for w in warnings:
            lines.append(f"- {w}")
    return "\n".join(lines) + "\n"


def cmd_pipeline(args: argparse.Namespace) -> None:
    """Simulate, analyzing each window once its rows are written, so the
    record is never held whole: the artifacts are the same bytes
    `simulate` followed by `analyze` would write."""
    cmd_analyze(cmd_simulate(args, windows=[]), args)


def _read_record(args: argparse.Namespace) -> tuple:
    """cmd_analyze's input for the snapshots file the flags name, whose
    windows are analyzed as its blocks are read. Its dt is --dt's, or
    else meta.csv's beside the file, or else 1.0."""
    path, dt = Path(args.snapshots), args.dt
    if dt is None:
        meta_path = path.parent / "meta.csv"
        meta = kio.read_meta(meta_path) if meta_path.exists() else {}
        try:
            dt = float(meta.get("dt", 1.0))
        except ValueError as exc:
            raise kio.FileFormatError(f"{meta_path}: dt: {exc}") from None
    _check_positive("dt", dt, DomainError)
    labels, blocks = kio.read_snapshots(path)
    windows = []
    blocks = ana._stream_windows(blocks, windows, dt, args.window, args.stride, args.rank)
    # pull every block: rows after the last window are checked too
    n_snapshots = sum(block.shape[0] for block in blocks)
    ana._check_length(n_snapshots, args.window)
    return n_snapshots, labels, dt, windows


def _model_flags(args: argparse.Namespace) -> None:
    """Give each flag the chosen model reads and the command line left
    out its default. A flag only the other model reads is a ConfigError,
    and so is a Bak-Sneppen dt other than its 1.0."""
    own = _MODEL_DEFAULTS[args.model]
    for flag in ("rows", "cols", "epsilon", "gamma", "dt", "boundary", "n"):
        value = getattr(args, flag)
        if value is None:
            setattr(args, flag, own.get(flag))
        elif flag not in own or (flag == "dt" and args.model == "bs" and value != own["dt"]):
            raise ConfigError(f"--model {args.model} does not take --{flag} {value}")


def _add_sim_args(p: argparse.ArgumentParser) -> None:
    # the model flags default to None, so that _model_flags sees which were given
    p.add_argument("--model", required=True, choices=["ifo", "bs"])
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed", type=int, default=IfoParams.seed)
    p.add_argument("--rows", type=int, help="lattice rows (ifo model)")
    p.add_argument("--cols", type=int, help="lattice columns (ifo model)")
    p.add_argument("--epsilon", type=float, help="energy kick per firing neighbor (ifo model)")
    p.add_argument("--gamma", type=float, help="concavity of the energy curve (ifo model)")
    p.add_argument("--dt", type=float, help="snapshot interval (ifo model; bs: 1.0 only)")
    p.add_argument("--boundary", choices=["open", "periodic"], help="lattice boundary (ifo model)")
    p.add_argument("--n", type=int, help="ring size (bs model)")
    p.add_argument("--out", type=Path, default=os.environ.get(ENV_OUT, "."),
                   help=f"output directory (default ${ENV_OUT} or .)")


def _add_analysis_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--window", type=int, default=200)
    p.add_argument("--stride", type=int)
    # Default rank 16: with full numerical rank, disordered windows keep
    # directions down at machine-noise level and the least-squares
    # amplitudes of every such window explode, drowning the jump
    # detector. A modest fixed cap keeps within-regime windows
    # well-conditioned so cross-regime windows stand out.
    p.add_argument("--rank", type=int, default=16,
                   help="retained modes per window; 0 = data-driven numerical rank")
    p.add_argument("--jump-threshold", type=float, default=ana.JUMP_THRESHOLD)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="koopnet",
        description="Simulate self-organizing network models and detect "
                    "regime transitions from their spectral signatures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a model, write snapshot/event CSVs")
    _add_sim_args(p_sim)

    p_ana = sub.add_parser("analyze", help="windowed spectral analysis of a snapshots file")
    p_ana.add_argument("snapshots", help="path to snapshots.csv")
    p_ana.add_argument("--dt", type=float,
                       help="snapshot interval (default: from meta.csv beside the input)")
    p_ana.add_argument("--out", help="output directory (default: directory of the input)")
    _add_analysis_args(p_ana)

    p_pipe = sub.add_parser("pipeline", help="simulate then analyze, one invocation")
    _add_sim_args(p_pipe)
    _add_analysis_args(p_pipe)

    args = parser.parse_args(argv)
    try:
        # every flag is checked before any work starts: the analysis flags
        # before the input is read or the model runs, the model's flags and
        # --steps before the output directory is made
        if args.command != "simulate":
            args.rank = args.rank or None  # 0: the data-driven numerical rank
            ana._check_windows(args.window, args.stride)
            if args.rank is not None:
                _check_int("requested rank", args.rank, 1)
            ana._check_jump_threshold(args.jump_threshold)
        if args.command != "analyze":
            _model_flags(args)
            _check_int("steps", args.steps, 2)
        if args.command == "simulate":
            cmd_simulate(args)
        elif args.command == "analyze":
            if args.out is None:
                args.out = Path(args.snapshots).parent
            cmd_analyze(_read_record(args), args)
        else:
            cmd_pipeline(args)
    except (KoopnetError, OSError) as exc:
        print(f"koopnet: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
