"""Detecting a regime transition from windowed spectra.

Slices a long oscillator-lattice run into 200-step windows, decomposes
each one, and tracks the per-window mode amplitudes. Crossing the
synchronization boundary reorganizes the spectrum abruptly; the
order-of-magnitude amplitude jump between consecutive windows flags the
transition without ever looking at the avalanche log.

Run with:  python3 demos/transition_detection.py
"""

import numpy as np

from koopnet import (
    IfoParams,
    detect_transition,
    simulate_ifo,
    spatial_pattern,
    split_timescales,
    synchronization_onset,
    windowed_dmd,
)

params = IfoParams(gamma=2.0, epsilon=0.145, rows=8, cols=8, seed=7)
snapshots, records = simulate_ifo(params, 2500)

windows = windowed_dmd(snapshots, window_len=200, rank=16)
report = detect_transition(windows, jump_threshold=1e2)

print("window | rank | max amplitude | slow / fast eigenvalues")
for w in windows:
    if w.degenerate:
        print(f"  {w.window_index:>4} |    - | degenerate")
        continue
    slow, fast = split_timescales(w.result)
    print(f"  {w.window_index:>4} | {w.result.rank:>4} | {w.max_amplitude:13.4g} "
          f"| {len(slow)} / {len(fast)}")

onset = synchronization_onset(records, params.n_nodes)
# an avalanche at time t ~ k dt fires in step k, whose settled state is row k - 1
onset_window = (round(onset / params.dt) - 1) // 200 if onset is not None else None
print(f"\ntransition flagged at window {report.transition_window} "
      f"(jump x{report.jump_ratio:.3g})")
print(f"synchronization onset from the avalanche log: window {onset_window}")

# ---------------------------------------------------------------------
# Post-transition the spectrum collapses to two timescales: a drifting
# mode near the imaginary axis and one fast uniform relaxation
# ---------------------------------------------------------------------
final = windows[-1]
mus = final.result.eigenvalues_continuous
print(f"\nfinal window continuous eigenvalues: "
      f"{np.round(np.real(mus), 3).tolist()} (real parts)")

# the dominant mode's spatial profile: coherent node groups
from koopnet import dominant_modes

entry = dominant_modes(final.result, 1)[0]
pattern = spatial_pattern(entry.mode)
sizable = [g for g in pattern.groups if len(g) > 1]
print(f"dominant-mode spatial groups: {len(pattern.groups)} total, "
      f"{len(sizable)} spanning more than one node")
