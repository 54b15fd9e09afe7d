"""Independent oracles shared by the tests: the Bergman projector evaluated by
quadrature on the product grid, against which the kernel's closed forms and
the embedding's truncation checks are compared."""

import numpy as np

from torusbergman.basis import HarmonicBasis
from torusbergman.geometry import factor_volume


def project_coefficients(basis: HarmonicBasis, samples: np.ndarray, grid_n: int) -> np.ndarray:
    """Coefficients (u, S_j) of a J0-coefficient field sampled on the product grid.

    samples must be the weighted J0 coefficient of u at the full product of
    per-factor half-offset grid_n x grid_n grids, flattened in C order.
    """
    n = basis.model.n
    P = grid_n**2
    tabs, dv = [], 1.0
    for t, s in enumerate(basis.factor_sets):
        tab = basis.grid_table(t, grid_n)
        # factor t's grid point index is digit t of the C-order product index
        tabs.append(np.tile(np.repeat(tab, P ** (n - 1 - t), axis=1), (1, P**t)))
        dv *= factor_volume(s.factor) / P
    return (basis._combine(tabs).conj() @ samples) * dv


def evaluate_combination(basis: HarmonicBasis, coeffs: np.ndarray, points) -> np.ndarray:
    """Evaluate sum_j c_j g_j at the given points."""
    return coeffs @ basis.values(points)
