"""Independent oracles shared by the tests: the Bergman projector evaluated by
quadrature on the product grid, against which the kernel's closed forms and
the embedding's truncation checks are compared, the quadrature Gram of an
orthonormalized basis, the global weight and injectivity scale of a model,
against which charts and separations are checked, and the 17-digit float
text against which CSV cells are checked."""

import numpy as np

from torusbergman.basis import HarmonicBasis, default_resolution
from torusbergman.geometry import ProductModel, factor_volume


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


def recompute_gram(basis: HarmonicBasis) -> np.ndarray:
    """Quadrature Gram of the orthonormalized sections (should be I)."""
    Gs = [basis.grid_gram(t, default_resolution(s.level, s.factor.im_tau))
          for t, s in enumerate(basis.factor_sets)]
    G = Gs[0]
    for g2 in Gs[1:]:
        G = np.kron(G, g2)
    if basis.mix is not None:
        G = basis.mix @ G @ basis.mix.conj().T
    return G


def global_weight(model: ProductModel, z) -> np.ndarray:
    """Sum of the per-factor global weights phi0 at chart coordinates z."""
    z = np.asarray(z, dtype=complex)
    T = np.array([f.im_tau for f in model.factors])
    d = np.array(model.degrees, dtype=float)
    return np.sum(np.pi * d * z.imag ** 2 / T, axis=-1)


def injectivity_scale(model: ProductModel) -> float:
    """Half the g-length of the shortest nonzero lattice vector, over factors."""
    shifts = np.array([-1.0, 0.0, 1.0])
    scale = np.inf
    for tau in model.taus:
        v = shifts[:, None] + tau * shifts[None, :]
        v = v[np.abs(v) > 0]
        scale = min(scale, np.sqrt(2.0) * np.min(np.abs(v)) / 2.0)
    return float(scale)


def fmt17(x) -> str:
    """Format a float with 17 significant digits."""
    return format(float(x), ".17g")
