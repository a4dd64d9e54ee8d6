"""In-memory span tracer for the koopnet benchmark.

The tracer wraps koopnet's public functions under the names their
callers look them up by (``koopnet.cli.simulate_bs``,
``koopnet.analysis.dmd``, ``koopnet.io.write_csv`` ...), so nothing
under ``src/`` changes. Each call records one span: name, parent span,
phase (``setup`` or ``run``), start and end. A span's self time is its
duration minus the durations of its direct children; a layer's self time
is the sum over the spans of its module.
"""

from __future__ import annotations

import functools
import importlib
import os
from collections import defaultdict
from time import perf_counter

import numpy as np

# (module, attribute) pairs: every binding through which the pipeline
# reaches a public function. Functions called from inside their own
# module are looked up in that module's globals, so one patch covers the
# module's own callers too. A binding that koopnet no longer has raises,
# so a renamed function has to be renamed here in the same change.
BINDINGS = [
    ("koopnet.cli", "main"),
    ("koopnet.cli", "cmd_pipeline"),
    ("koopnet.cli", "cmd_simulate"),
    ("koopnet.cli", "cmd_analyze"),
    ("koopnet.cli", "simulate_bs"),
    ("koopnet.io", "write_csv"),
    ("koopnet.io", "atomic_write_text"),
    ("koopnet.io", "write_snapshots"),
    ("koopnet.io", "read_snapshots"),
    ("koopnet.io", "write_bs_events"),
    ("koopnet.io", "write_meta"),
    ("koopnet.io", "read_meta"),
    ("koopnet.bak_sneppen", "simulate_bs"),
    ("koopnet.ifo", "simulate_ifo"),
    ("koopnet.ifo", "synchronization_onset"),
    ("koopnet.snapshots", "SnapshotMatrix.__init__"),
    ("koopnet.analysis", "windowed_dmd"),
    ("koopnet.analysis", "build_snapshot_pairs"),
    ("koopnet.analysis", "dmd"),
    ("koopnet.analysis", "split_timescales"),
    ("koopnet.analysis", "detect_transition"),
    ("koopnet.analysis", "dominant_modes"),
    ("koopnet.analysis", "zero_frequency_mode"),
    ("koopnet.analysis", "spatial_pattern"),
]

LAYERS = ["cli", "io", "bak_sneppen", "ifo", "snapshots", "dmd", "analysis"]

DIAGNOSTICS = ["analysis.split_timescales", "analysis.dominant_modes",
               "analysis.zero_frequency_mode", "analysis.spatial_pattern",
               "analysis.detect_transition"]


def _span_name(fn) -> str:
    return f"{fn.__module__.removeprefix('koopnet.')}.{fn.__qualname__}"


class Tracer:
    """Records spans for wrapped calls plus a few counts taken from
    their arguments and results, at the boundary where the work happens."""

    def __init__(self):
        self.spans: list[list] = []      # [name, parent, phase, start, end]
        self.phase = "setup"
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, attr in BINDINGS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            self._originals.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(original))

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._originals):
            setattr(owner, leaf, original)
        self._originals.clear()

    def _wrap(self, fn):
        name = _span_name(fn)
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = [name, self._stack[-1] if self._stack else -1, self.phase, 0.0, 0.0]
            self.spans.append(span)
            self._stack.append(idx)
            span[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = perf_counter()
                self._stack.pop()
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        return traced

    def totals(self, phase: str | None = None):
        """Per span name: (calls, inclusive seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for name, parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, _, ph, start, end) in enumerate(self.spans):
            if phase is not None and ph != phase:
                continue
            agg = out[name]
            agg[0] += 1
            agg[1] += end - start
            agg[2] += end - start - child[i]
        return out


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def _count_read(counts, args, kwargs, result):
    counts["bytes_read"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _count_pairs(counts, args, kwargs, result):
    source = _arg(args, kwargs, 0, "snapshots").data
    counts["pair_bytes_copied"] += sum(
        a.nbytes for a in result if not np.may_share_memory(a, source))


def _count_dmd(counts, args, kwargs, result):
    counts["dmd_rank_sum"] += result.rank


def _count_bs(counts, args, kwargs, result):
    counts["bs_updates"] += result[0].n_snapshots


def _count_ifo(counts, args, kwargs, result):
    records = result[1]
    counts["ifo_avalanches"] += len(records)
    counts["ifo_firings"] += sum(r.size for r in records)


def _count_windows(counts, args, kwargs, result):
    counts["windows"] += len(result)
    counts["degenerate_windows"] += sum(1 for w in result if w.degenerate)


_HOOKS = {
    "io.read_snapshots": _count_read,
    "io.read_meta": _count_read,
    "dmd.build_snapshot_pairs": _count_pairs,
    "dmd.dmd": _count_dmd,
    "bak_sneppen.simulate_bs": _count_bs,
    "ifo.simulate_ifo": _count_ifo,
    "analysis.windowed_dmd": _count_windows,
}

# name -> unit, in the order they are reported; BENCHMARK.json lists the same.
LAYER_METRICS = {
    "cli.simulate_s": "s",
    "cli.analyze_s": "s",
    "cli.analyze_self_s": "s",
    "io.write_snapshots_s": "s",
    "io.read_snapshots_s": "s",
    "io.write_csv_self_s": "s",
    "io.files_written": "count",
    "io.mb_written": "MB",
    "io.mb_read": "MB",
    "bak_sneppen.simulate_s": "s",
    "bak_sneppen.updates_per_s": "1/s",
    "ifo.simulate_s": "s",
    "ifo.firings_per_s": "1/s",
    "ifo.avalanches": "count",
    "ifo.firings": "count",
    "ifo.onset_s": "s",
    "snapshots.constructed": "count",
    "snapshots.construct_s": "s",
    "dmd.calls": "count",
    "dmd.mean_rank": "count",
    "dmd.dmd_s": "s",
    "dmd.ms_per_call": "ms",
    "dmd.build_pairs_s": "s",
    "dmd.pair_mb_copied": "MB",
    "analysis.windowed_dmd_self_s": "s",
    "analysis.windows": "count",
    "analysis.degenerate_windows": "count",
    "analysis.diagnostics_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.run_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
}


def layer_metrics(tracer: Tracer, run_s: float, files_written: int,
                  bytes_written: int) -> dict[str, float]:
    """Per-layer figures of one traced operation. Named-function metrics
    cover set-up and run (bs-sliding builds its record with simulate_bs
    in set-up); the ``<layer>.self_s`` figures cover only the run
    interval, so that with ``trace.unattributed_s`` they add up to
    ``trace.run_s``. ``trace.overhead_s`` is filled in by the caller,
    which also has the untraced runs."""
    tot = tracer.totals()
    counts = tracer.counts

    def incl(name):
        return tot[name][1] if name in tot else 0.0

    def self_(name):
        return tot[name][2] if name in tot else 0.0

    def calls(name):
        return tot[name][0] if name in tot else 0

    def per(num, den, scale=1.0):
        return num / den * scale if den > 0 else 0.0

    run_tot = tracer.totals("run")
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, (_, _, self_s) in run_tot.items():
        layer_self[name.split(".", 1)[0]] += self_s

    dmd_calls = calls("dmd.dmd")
    m = {
        "cli.simulate_s": incl("cli.cmd_simulate"),
        "cli.analyze_s": incl("cli.cmd_analyze"),
        "cli.analyze_self_s": self_("cli.cmd_analyze"),
        "io.write_snapshots_s": incl("io.write_snapshots"),
        "io.read_snapshots_s": incl("io.read_snapshots"),
        "io.write_csv_self_s": self_("io.write_csv"),
        "io.files_written": files_written,
        "io.mb_written": bytes_written / 1e6,
        "io.mb_read": counts["bytes_read"] / 1e6,
        "bak_sneppen.simulate_s": incl("bak_sneppen.simulate_bs"),
        "bak_sneppen.updates_per_s": per(counts["bs_updates"], incl("bak_sneppen.simulate_bs")),
        "ifo.simulate_s": incl("ifo.simulate_ifo"),
        "ifo.firings_per_s": per(counts["ifo_firings"], incl("ifo.simulate_ifo")),
        "ifo.avalanches": counts["ifo_avalanches"],
        "ifo.firings": counts["ifo_firings"],
        "ifo.onset_s": incl("ifo.synchronization_onset"),
        "snapshots.constructed": calls("snapshots.SnapshotMatrix.__init__"),
        "snapshots.construct_s": incl("snapshots.SnapshotMatrix.__init__"),
        "dmd.calls": dmd_calls,
        "dmd.mean_rank": per(counts["dmd_rank_sum"], dmd_calls),
        "dmd.dmd_s": incl("dmd.dmd"),
        "dmd.ms_per_call": per(incl("dmd.dmd"), dmd_calls, 1e3),
        "dmd.build_pairs_s": incl("dmd.build_snapshot_pairs"),
        "dmd.pair_mb_copied": counts["pair_bytes_copied"] / 1e6,
        "analysis.windowed_dmd_self_s": self_("analysis.windowed_dmd"),
        "analysis.windows": counts["windows"],
        "analysis.degenerate_windows": counts["degenerate_windows"],
        "analysis.diagnostics_s": sum(incl(name) for name in DIAGNOSTICS),
        **{f"{layer}.self_s": layer_self[layer] for layer in LAYERS},
        "trace.run_s": run_s,
        "trace.unattributed_s": run_s - sum(layer_self.values()),
    }
    return {k: float(v) for k, v in m.items()}


def spans_as_dicts(tracer: Tracer, t0: float) -> list[dict]:
    """Spans with times relative to ``t0``, ready to write as JSON."""
    return [
        {"id": i, "name": name, "parent": parent, "phase": phase,
         "start_s": start - t0, "end_s": end - t0}
        for i, (name, parent, phase, start, end) in enumerate(tracer.spans)
    ]
