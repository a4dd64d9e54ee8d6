"""Linear systems with known spectra, shared by the DMD tests and the
acceptance gate. Not a test module: pytest does not collect it."""

import numpy as np


def rotation(w):
    return np.array([[np.cos(w), -np.sin(w)], [np.sin(w), np.cos(w)]])


def random_system(rng, n):
    """Diagonalizable matrix with distinct eigenvalues in a stable
    annulus, conjugated by a moderately conditioned basis."""
    n_pairs = rng.integers(0, n // 2 + 1)
    eigs = []
    while len(eigs) < n - 2 * n_pairs:
        eigs.append(rng.uniform(0.5, 1.1) * rng.choice([-1.0, 1.0]))
    blocks = [np.array([[e]]) for e in eigs]
    for _ in range(n_pairs):
        radius = rng.uniform(0.5, 1.1)
        angle = rng.uniform(0.2, np.pi - 0.2)
        blocks.append(radius * rotation(angle))
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
    order = np.lexsort((values.imag, values.real))
    return values[order]
