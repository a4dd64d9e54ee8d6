"""Command-line front end: simulate, analyze, and the combined pipeline.

Artifacts are plain CSV plus a human-readable report; meta.csv captures
every parameter (including the seed) needed to re-run an experiment
exactly. The default output directory comes from the KOOPNET_OUT
environment variable, falling back to the current directory.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

from . import analysis as ana
from . import io as kio
from .bak_sneppen import BsParams, simulate_bs
from .errors import KoopnetError
from .ifo import IfoParams, simulate_ifo
from .snapshots import SnapshotMatrix

ENV_OUT = "KOOPNET_OUT"


# Columns of spectrum_w<k>.csv, in the order _spectrum_rows yields them.
_SPECTRUM_HEADER = ["re_lambda", "im_lambda", "re_mu", "im_mu", "amplitude", "mode_norm", "group"]


@dataclass(kw_only=True)
class AnalysisConfig:
    """Windowed-analysis settings; its defaults are the CLI defaults."""

    window_len: int = 200
    stride: int | None = None
    # Default rank 16: with full numerical rank, disordered windows keep
    # directions down at machine-noise level and the least-squares
    # amplitudes of every such window explode, drowning the jump
    # detector. A modest fixed cap keeps within-regime windows
    # well-conditioned so cross-regime windows stand out. rank=None
    # means data-driven numerical rank.
    rank: int | None = 16
    jump_threshold: float = 1e2

    def __post_init__(self):
        # windowed_dmd's and detect_transition's checks, before any work starts
        ana._check_windows(self.window_len, self.stride)
        ana._check_jump_threshold(self.jump_threshold)


@dataclass(kw_only=True)
class RunConfig(AnalysisConfig):
    """Everything one pipeline invocation needs: which model, its
    parameters, how long to run, and the analysis settings. Its
    defaults are the CLI defaults."""

    model: str
    steps: int
    output_dir: Path
    seed: int = 0
    # ifo
    rows: int = 8
    cols: int = 8
    epsilon: float = 0.145
    gamma: float = 2.0
    dt: float = 0.01
    boundary: str = "open"
    # bs
    n: int = 100


def _simulate(config: RunConfig) -> SnapshotMatrix:
    """Run the configured model, write events.csv, snapshots.csv and
    meta.csv to the output directory, and return the record."""
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    if config.model == "ifo":
        params = IfoParams(gamma=config.gamma, epsilon=config.epsilon,
                           rows=config.rows, cols=config.cols,
                           dt=config.dt, boundary=config.boundary, seed=config.seed)
        snapshots, records = simulate_ifo(params, config.steps)
        kio.write_ifo_events(out / "events.csv", records)
        meta = {
            "model": "ifo", "rows": params.rows, "cols": params.cols,
            "epsilon": params.epsilon, "gamma": params.gamma, "dt": params.dt,
            "boundary": params.boundary, "steps": config.steps,
            "seed": params.seed,
        }
    elif config.model == "bs":
        params = BsParams(n=config.n, seed=config.seed)
        snapshots, min_history = simulate_bs(params, config.steps)
        kio.write_bs_events(out / "events.csv", min_history)
        meta = {
            "model": "bs", "n": params.n, "dt": snapshots.dt,
            "steps": config.steps, "seed": params.seed,
        }
    else:
        raise KoopnetError(f"unknown model {config.model!r}")
    kio.write_snapshots(out / "snapshots.csv", snapshots)
    kio.write_meta(out / "meta.csv", meta)
    return snapshots


def cmd_simulate(config: RunConfig) -> int:
    _simulate(config)
    return 0


def _spectrum_rows(result, slow, fast):
    amps = result.amplitude_magnitudes()
    norms = np.linalg.norm(result.modes, axis=0)
    for k in range(result.rank):
        lam = result.eigenvalues_discrete[k]
        mu = result.eigenvalues_continuous[k]
        if result.zero_flags[k]:
            group = "excluded"
            re_mu = im_mu = float("nan")
        else:
            group = "slow" if k in slow else "fast"
            re_mu, im_mu = float(np.real(mu)), float(np.imag(mu))
        yield (float(np.real(lam)), float(np.imag(lam)), re_mu, im_mu,
               float(amps[k]), float(norms[k]), group)


def _mode_rows(name: str, labels: list[str], mode: np.ndarray) -> list[tuple]:
    return [(name, node, float(np.real(v)), float(np.imag(v)), float(abs(v)))
            for node, v in zip(labels, mode)]


def cmd_analyze(snapshots_path: Path, config: AnalysisConfig,
                out_dir: Path | None = None, dt: float | None = None) -> int:
    snapshots_path = Path(snapshots_path)
    out = Path(out_dir) if out_dir is not None else snapshots_path.parent
    if dt is None:
        meta_path = snapshots_path.parent / "meta.csv"
        dt = float(kio.read_meta(meta_path).get("dt", 1.0)) if meta_path.exists() else 1.0
    _analyze(kio.read_snapshots(snapshots_path, dt=dt), config, out)
    return 0


def _analyze(snapshots: SnapshotMatrix, config: AnalysisConfig, out: Path) -> None:
    """Windowed DMD of a record; writes the spectrum and mode files of
    every window, amplitudes.csv, transition.csv and report.md to `out`."""
    out.mkdir(parents=True, exist_ok=True)
    windows = ana.windowed_dmd(snapshots, window_len=config.window_len,
                               stride=config.stride, rank=config.rank)
    report = ana.detect_transition(windows, jump_threshold=config.jump_threshold)

    labels = snapshots.node_labels()
    warnings: list[str] = []
    amp_rows = []
    for w in windows:
        # a degenerate window has no amplitudes: NaN maximum, blank top 5
        top5 = [float(a) for a in w.dominant_amplitudes[:5]]
        amp_rows.append((w.window_index, float(w.max_amplitude), *top5, *[""] * (5 - len(top5))))
        kio.write_csv(out / f"spectrum_w{w.window_index}.csv", _SPECTRUM_HEADER,
                      [] if w.degenerate else _spectrum_rows(w.result, w.slow_group, w.fast_group))
        if w.degenerate:
            warnings.append(f"window {w.window_index}: {w.note}")
            continue

        mode_rows = []
        for rank_i, entry in enumerate(ana.dominant_modes(w.result, 5), start=1):
            mode_rows += _mode_rows(f"dominant_{rank_i}", labels, entry.mode)
        try:
            zf = ana.zero_frequency_mode(w.result)
        except KoopnetError:
            warnings.append(f"window {w.window_index}: no zero-frequency mode")
        else:
            mode_rows += _mode_rows("zero_frequency", labels, zf.mode)
        kio.write_csv(out / f"modes_w{w.window_index}.csv",
                      ["mode", "node", "re_v", "im_v", "abs_v"], mode_rows)

    kio.write_csv(out / "amplitudes.csv",
                  ["window_index", "max_amplitude",
                   "amp_1", "amp_2", "amp_3", "amp_4", "amp_5"], amp_rows)

    transition_rows = []
    if report.transition_window is not None:
        transition_rows.append((report.transition_window, float(report.jump_ratio),
                                float(config.jump_threshold)))
    kio.write_csv(out / "transition.csv", ["window", "ratio", "threshold"], transition_rows)

    kio.atomic_write_text(out / "report.md",
                          _render_report(snapshots, windows, report, warnings,
                                         config.jump_threshold))


def _render_report(snapshots: SnapshotMatrix, windows, report, warnings, jump_threshold) -> str:
    lines = ["# Windowed spectral analysis", ""]
    lines.append(f"- snapshots: {snapshots.n_snapshots} x {snapshots.n_nodes}, "
                 f"dt = {snapshots.dt}")
    lines.append(f"- windows analyzed: {len(windows)}")
    if report.transition_window is not None:
        lines.append(f"- **transition detected** at window {report.transition_window} "
                     f"(amplitude jump x{report.jump_ratio:.3g}, threshold "
                     f"x{jump_threshold:.3g})")
    else:
        lines.append("- no transition detected "
                     f"(threshold x{jump_threshold:.3g})")
    lines.append("")
    lines.append("| window | steps | rank | max amplitude | slow | fast |")
    lines.append("|---|---|---|---|---|---|")
    for w in windows:
        if w.degenerate:
            lines.append(f"| {w.window_index} | {w.start_step}-{w.end_step} "
                         "| - | degenerate | - | - |")
        else:
            lines.append(f"| {w.window_index} | {w.start_step}-{w.end_step} "
                         f"| {w.result.rank} | {w.max_amplitude:.4g} "
                         f"| {len(w.slow_group)} | {len(w.fast_group)} |")
    focus = next((w for w in reversed(windows)
                  if not w.degenerate and (report.transition_window is None
                                           or w.window_index <= report.transition_window)), None)
    if focus is not None:
        entry = ana.dominant_modes(focus.result, 1)[0]
        pattern = ana.spatial_pattern(entry.mode, snapshots.node_labels())
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


def cmd_pipeline(config: RunConfig) -> int:
    """Simulate, then analyze the record in memory: the artifacts are
    the same bytes `simulate` followed by `analyze` would write."""
    _analyze(_simulate(config), config, Path(config.output_dir))
    return 0


def _defaults(cls) -> dict:
    return {f.name: f.default for f in fields(cls) if f.default is not MISSING}


def _add_sim_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", required=True, choices=["ifo", "bs"])
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--rows", type=int)
    p.add_argument("--cols", type=int)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--dt", type=float)
    p.add_argument("--boundary", choices=["open", "periodic"])
    p.add_argument("--n", type=int, help="ring size (bs model)")
    p.add_argument("--out", dest="output_dir", metavar="OUT", type=Path,
                   default=os.environ.get(ENV_OUT, "."),
                   help=f"output directory (default ${ENV_OUT} or .)")
    p.set_defaults(**_defaults(RunConfig))


def _add_analysis_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--window", type=int, dest="window_len")
    p.add_argument("--stride", type=int)
    p.add_argument("--rank", type=int,
                   help="retained modes per window; 0 = data-driven numerical rank")
    p.add_argument("--jump-threshold", type=float)
    p.set_defaults(**_defaults(AnalysisConfig))


def _config_from_args(cls, args: argparse.Namespace):
    """`cls` built from the parsed flags named after its fields; --rank 0
    asks for the data-driven numerical rank (None)."""
    names = {f.name for f in fields(cls)}
    values = {k: v for k, v in vars(args).items() if k in names}
    values["rank"] = values["rank"] or None
    return cls(**values)


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
    p_ana.add_argument("--dt", type=float, default=None,
                       help="snapshot interval (default: from meta.csv beside the input)")
    p_ana.add_argument("--out", default=None,
                       help="output directory (default: directory of the input)")
    _add_analysis_args(p_ana)

    p_pipe = sub.add_parser("pipeline", help="simulate then analyze, one invocation")
    _add_sim_args(p_pipe)
    _add_analysis_args(p_pipe)

    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            return cmd_simulate(_config_from_args(RunConfig, args))
        if args.command == "analyze":
            return cmd_analyze(Path(args.snapshots), _config_from_args(AnalysisConfig, args),
                               out_dir=args.out, dt=args.dt)
        if args.command == "pipeline":
            return cmd_pipeline(_config_from_args(RunConfig, args))
        parser.error(f"unknown command {args.command!r}")
    except (KoopnetError, OSError) as exc:
        print(f"koopnet: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
