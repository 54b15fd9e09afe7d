"""Orthonormal harmonic bases for L^k-valued (0, n_minus)-forms on product models.

Per factor the raw members are:
  degree d > 0: the k*d theta series of level m = k*d (holomorphic sections);
  degree d < 0: the m = k*|d| conjugate forms f_j = exp(-2 phi_plus_m) *
    conj(theta_{m,j}) paired with dzbar, which satisfy
    (d/dz + 2 dphi_plus_m/dz) f_j = 0 and are therefore harmonic.

All evaluation goes through gauge-bounded "weighted" coefficients
g = f * exp(-k*phi0): every reported quantity (Gram entries, kernels,
densities, projective lifts) is built from these, so no large intermediates
appear at any tensor power.  For a conjugate factor the weighted coefficient
is exactly the complex conjugate of the holomorphic one at the same level.

Orthonormalization is one closed-form scalar per factor: the raw factor Gram
is exactly sqrt(2 Im tau / m) times the identity (the classical orthogonality
of the level-m theta basis, Mumford, Tata Lectures on Theta I), so every
member is scaled by (m / (2 Im tau))^(1/4) and the orthonormal product basis
stays in lexicographically ordered product form.  The quadrature Gram
(factor_gram, and its Kronecker product gram) is kept as the independent
oracle that certifies this closed form: the periodic trapezoid rule on the
half-offset lattice grid, whose side default_resolution makes a multiple of
m, so that the Gram is exactly diagonal (HarmonicBasis.grid_gram) and each
entry is a sum of one 1-D Gaussian profile over its own characteristic's
window; neither the (m, N^2) grid table nor an (m, m) matrix is formed.

The harmonicity stencil (criterion A2) reads each member on its centered
grid, ghost b columns included, through theta's separable grid evaluator.
"""

from __future__ import annotations

from functools import cached_property, reduce
from math import prod
from typing import NamedTuple

import numpy as np

from .geometry import ProductModel, TorusFactor, factor_volume
from .theta import half_offset, weighted_grid, weighted_grid_gram, weighted_table

__all__ = [
    "FactorSectionSet",
    "GramMatrix",
    "HarmonicBasis",
    "GramError",
    "gram",
    "factor_gram",
    "orthonormalize",
    "build_basis",
    "theta_gram_diagonal",
    "harmonicity_residual",
    "factor_harmonicity_residual",
]


class GramError(RuntimeError):
    pass


class FactorSectionSet(NamedTuple):
    """Raw basis of the harmonic space on one factor at power k."""

    factor: TorusFactor
    k: int

    @property
    def level(self) -> int:
        return self.k * abs(self.factor.degree)

    @property
    def scale(self) -> float:
        """Orthonormalizing factor (m / (2 Im tau))^(1/4) of the raw members."""
        return theta_gram_diagonal(self.level, self.factor.im_tau) ** -0.5


def theta_gram_diagonal(level: int, im_tau: float) -> float:
    """Closed-form raw factor Gram: sqrt(2 Im tau / m) times the identity."""
    return float(np.sqrt(2.0 * im_tau / level))


class GramMatrix:
    """A quadrature Gram, exactly diagonal, kept as its diagonal; checked
    positive definite on construction (its eigenvalues are the diagonal)."""

    def __init__(self, diagonal: np.ndarray, quadrature_resolution: int,
                 estimated_quadrature_error: float | None = None):
        low = diagonal.min()
        if not low > 1e-12 * max(diagonal.max(), 1.0):
            raise GramError(
                f"Gram not positive definite (min eig {low:.3e}); "
                "quadrature too coarse or dependent sections"
            )
        self.diagonal, self.quadrature_resolution = diagonal, quadrature_resolution
        self.estimated_quadrature_error = estimated_quadrature_error


def default_resolution(level: int, im_tau: float = 1.0) -> int:
    """Quadrature size: max(4m, 16), raised on thin tori (Im tau < 1) until the
    first aliased mode exp(-pi Im(tau) N^2 / (2m)) is below 1e-16, and rounded
    up to a multiple of m, where the Gram is exactly diagonal."""
    n = max(4 * level, 16, int(np.ceil(np.sqrt(2 * level * np.log(1e16) / (np.pi * im_tau)))))
    return -(-n // level) * level


def factor_gram(factor: TorusFactor, k: int, eps: float = 1e-12) -> GramMatrix:
    """Quadrature Gram of the raw factor members under the weighted L2 product.

    It is the independent check of the closed form theta_gram_diagonal, which
    the basis uses in its place.  The periodic trapezoid rule is spectrally
    accurate here: the integrand's Fourier modes decay like
    exp(-pi T nu^2 / (2m)), so the first aliased mode at nu = N is
    est = exp(-pi T N^2 / (2m)).  The aliased term pairs that
    HarmonicBasis.grid_gram leaves out are, relative to the diagonal, at most
    est^(q^2) for each q != 0 and each sign, so together at most
    2 est / (1 - est^3): that bound is the recorded quadrature-error estimate.
    """
    m = k * abs(factor.degree)
    N = default_resolution(m, factor.im_tau)
    basis = HarmonicBasis(ProductModel((factor,)), k, eps)
    G = basis.grid_gram(0, N) * theta_gram_diagonal(m, factor.im_tau)
    est = float(np.exp(-np.pi * factor.im_tau * N**2 / (2.0 * m)))
    return GramMatrix(diagonal=G, quadrature_resolution=N,
                      estimated_quadrature_error=max(2.0 * est / (1.0 - est**3), eps))


def gram(basis: HarmonicBasis) -> GramMatrix:
    """Quadrature Gram of the raw product basis: Kronecker product of factor Grams (test oracle)."""
    gs = [factor_gram(f, basis.k, eps=basis.eps) for f in basis.model.factors]
    return GramMatrix(diagonal=reduce(np.kron, [g.diagonal for g in gs]),
                      quadrature_resolution=max(g.quadrature_resolution for g in gs),
                      estimated_quadrature_error=sum(g.estimated_quadrature_error for g in gs))


class HarmonicBasis:
    """Orthonormal basis of the harmonic space at power k, kept in factored form.

    On a flat product model the harmonic space is exactly the tensor product
    of the factor spaces, so the sections are the products of factor members,
    indexed lexicographically by their per-factor member indices.
    Every route a CLI run takes rests on this structure and reads factor
    tables (kernel, density and ratio profile, trace identity, density floor,
    FS scan and near-diagonal profile, A7's rank check, the pullback form's
    factor fields); values and jets form the (dim, P) product tables, which
    serve only the tests' oracles, the demo and the one-point differential.
    """

    def __init__(self, model: ProductModel, k: int, eps: float = 1e-12):
        if k <= 0:
            raise ValueError("tensor power k must be positive")
        self.model, self.k, self.eps = model, k, eps

    @cached_property
    def factor_sets(self) -> tuple[FactorSectionSet, ...]:
        return tuple(FactorSectionSet(f, self.k) for f in self.model.factors)

    @property
    def dim(self) -> int:
        return prod(s.level for s in self.factor_sets)

    # -- factor-level evaluation ----------------------------------------

    def factor_tables(self, t: int, z, orders: str = "v") -> dict[str, np.ndarray]:
        """Orthonormalized weighted jet tables for factor t at complex points z.

        orders: "v" values only, "d1" adds dz/dzb, "d2" adds the diagonal
        second derivative d/dz d/dzbar (zzb).  Keys: v, z, zb, zzb.
        """
        s = self.factor_sets[t]
        f = s.factor
        m = s.level
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        nord = {"v": 0, "d1": 1, "d2": 1}[orders]
        Wc = weighted_table(m, f.tau, z, orders=nord, eps=self.eps)
        Wc *= s.scale
        T = f.im_tau
        out = {"v": Wc[0]}
        if orders in ("d1", "d2"):
            P = -1j * np.pi * m * z.imag / T        # dphi_plus/dz
            Q = np.conj(P)
            out["z"] = Wc[1] - P[None, :] * Wc[0]
            out["zb"] = -Q[None, :] * Wc[0]
            if orders == "d2":
                lam_abs = np.pi * m / (2.0 * T)
                out["zzb"] = -lam_abs * Wc[0] - Q[None, :] * out["z"]
        if f.degree < 0:
            swapped = {"v": np.conj(out["v"])}
            if "z" in out:
                swapped["z"] = np.conj(out["zb"])
                swapped["zb"] = np.conj(out["z"])
            if "zzb" in out:
                swapped["zzb"] = np.conj(out["zzb"])
            out = swapped
        return out

    # -- half-offset lattice grids --------------------------------------

    def grid_table(self, t: int, N: int) -> np.ndarray:
        """Factor t's orthonormalized weighted values (factor_tables(t, z)["v"])
        on the half-offset N x N lattice grid z = a + tau b, a-major: (m, N^2)."""
        s, x = self.factor_sets[t], half_offset(N)
        V = weighted_grid(s.level, s.factor.tau, x, x, self.eps).reshape(s.level, N * N)
        V *= s.scale
        return np.conj(V, out=V) if s.factor.degree < 0 else V

    def grid_density(self, t: int, N: int) -> np.ndarray:
        """Factor t's density sum_j |g_j|^2 on the same grid, shape (N, N);
        conjugation does not change |g_j|, and the scale is applied once."""
        s, x = self.factor_sets[t], half_offset(N)
        sq = np.abs(weighted_grid(s.level, s.factor.tau, x, x, self.eps))
        sq *= sq
        return sq.sum(axis=0) * s.scale ** 2

    def grid_gram(self, t: int, N: int) -> np.ndarray:
        """Trapezoid Gram of factor t's orthonormalized members on the grid
        (should be I), the sum V @ V^H * dv over grid_table's points, for a
        side N that the level m divides, where it is exactly diagonal: its
        (m,) diagonal (theta.weighted_grid_gram), real, so the same for a
        conjugate factor."""
        s = self.factor_sets[t]
        G = weighted_grid_gram(s.level, s.factor.tau, N, self.eps)
        G *= s.scale ** 2 * factor_volume(s.factor) / N**2
        return G

    def _combine(self, per_factor: list[np.ndarray]) -> np.ndarray:
        V = per_factor[0]
        for tab in per_factor[1:]:
            V = (V[:, None, :] * tab[None, :, :]).reshape(-1, tab.shape[1])
        return V

    def factor_values(self, points) -> list[np.ndarray]:
        """Per factor t, the weighted values g_tj(z_t) at the points: (m_t, npoints)."""
        zs = self.model.chart_z(np.atleast_2d(self.model.check_point(points)))
        return [self.factor_tables(t, zs[:, t])["v"] for t in range(self.model.n)]

    def values(self, points) -> np.ndarray:
        """Weighted J0-coefficients of all sections: shape (dim, npoints), the
        lexicographic products of factor_values.

        These are the localized-frame coefficients g_j = f_j * exp(-k*phi0);
        sums sum_j g_j(x) conj(g_j(y)) are the localized kernel directly.
        """
        return self._combine(self.factor_values(points))

    def jets(self, points) -> dict[str, np.ndarray]:
        """Values and chart-coordinate derivatives of the weighted coefficients:
        val (dim, P), dz and dzb (n, dim, P)."""
        pts = np.atleast_2d(self.model.check_point(points))
        zs = self.model.chart_z(pts)
        n = self.model.n
        tabs = [self.factor_tables(t, zs[:, t], "d1") for t in range(n)]
        val = self._combine([tabs[t]["v"] for t in range(n)])
        P = val.shape[1]
        dz = np.empty((n, self.dim, P), dtype=complex)
        dzb = np.empty((n, self.dim, P), dtype=complex)
        for a in range(n):
            dz[a] = self._combine([tabs[t]["z" if t == a else "v"] for t in range(n)])
            dzb[a] = self._combine([tabs[t]["zb" if t == a else "v"] for t in range(n)])
        return {"val": val, "dz": dz, "dzb": dzb}


def orthonormalize(model: ProductModel, k: int, eps: float = 1e-12) -> HarmonicBasis:
    """Orthonormalize the raw product basis: each factor's members are scaled
    by FactorSectionSet.scale, and the basis ordering is preserved."""
    return HarmonicBasis(model, k, eps)


def build_basis(model: ProductModel, k: int, eps: float = 1e-12) -> HarmonicBasis:
    """Raw members and closed-form orthonormalization in one call."""
    return orthonormalize(model, k, eps)


# -- discrete Kodaira-Laplacian certification -------------------------------


_FD6 = (45.0, -9.0, 1.0)     # 6th-order central first difference, over 60 h
_HALF = len(_FD6)            # stencil half-width: b-cells lost per side per derivative


def _covariant(F: np.ndarray, P: np.ndarray, tau: complex, h: float):
    """(D F, Dbar F) = (dF/dz - P F, dF/dzbar + conj(P) F) on a lattice grid
    indexed [a, b], with P = dphi_plus/dz per b-column.  F is periodic in a
    (axis 0); along b the outer _HALF columns only feed the stencil, so the
    results are _HALF columns narrower on each side."""
    nb = F.shape[1]
    Fi = F[:, _HALF:nb - _HALF]
    Da = sum(c * (np.roll(Fi, -s, axis=0) - np.roll(Fi, s, axis=0)) for s, c in enumerate(_FD6, 1))
    Db = sum(c * (F[:, _HALF + s:nb - _HALF + s] - F[:, _HALF - s:nb - _HALF - s])
             for s, c in enumerate(_FD6, 1))
    Da, Db = Da / (60.0 * h), Db / (60.0 * h)
    Pi = P[_HALF:nb - _HALF]
    return ((np.conj(tau) * Da - Db) / (np.conj(tau) - tau) - Pi * Fi,
            (tau * Da - Db) / (tau - np.conj(tau)) + np.conj(Pi) * Fi)


def _padded_member(factor: TorusFactor, k: int, member: int, grid_n: int, perturb=None):
    """Weighted value W = theta exp(-phi_plus) of the level-k|d| member on the
    centered grid_n x grid_n lattice grid, with 2 _HALF evaluated ghost columns
    on each side of b, and P = dphi_plus/dz per b-column.  W is row member of
    theta.weighted_grid on the grid's own axes (eps 1e-14)."""
    tau = factor.tau
    m = k * abs(factor.degree)
    N = grid_n
    ta = half_offset(N) - 0.5
    tb = (np.arange(-2 * _HALF, N + 2 * _HALF) + 0.5) / N - 0.5
    W = weighted_grid(m, tau, ta, tb, 1e-14)[member]
    if perturb is not None:
        W = W * (1.0 + perturb(ta[:, None], tb[None, :]))
    return W, -1j * np.pi * m * tb      # Im z = Im(tau) b


def factor_harmonicity_residual(factor: TorusFactor, k: int, member: int,
                                grid_n: int = 64, perturb=None) -> dict[str, float]:
    """Discrete Kodaira-Laplacian residual of one raw factor member.

    Works in the weighted gauge W = theta exp(-phi_plus), bounded at every
    level, with D = d/dz - P and Dbar = d/dzbar + conj(P) (P = dphi_plus/dz):
    a holomorphic member has Dbar W = 0, and its Laplacian D Dbar W vanishes
    against the comparator Dbar D W = D Dbar W - (pi m / Im tau) W.  A
    conjugate member's weighted value is conj(W) and its identities are the
    complex conjugates of these, so both signs report the same norms.
    Returns ||Dbar W|| / ||D W|| ("first_order") and ||D Dbar W|| / ||Dbar D W||
    ("laplacian"), from 6th-order central differences on a centered
    grid_n x grid_n lattice grid, whose member values _padded_member reads
    from theta.weighted_grid.  perturb, if given, maps the grid's a axis (a
    column) and b axis (a row) to a multiplicative field applied to W, by
    broadcasting (the sensitivity control).
    """
    tau = factor.tau
    h = 1.0 / grid_n
    W, P = _padded_member(factor, k, member, grid_n, perturb)
    DW, DbW = _covariant(W, P, tau, h)
    DDbW = _covariant(DbW, P[_HALF:-_HALF], tau, h)[0]
    inner = slice(_HALF, -_HALF)
    comp = DDbW - (np.pi * k * abs(factor.degree) / tau.imag) * W[:, 2 * _HALF:-2 * _HALF]
    return {"first_order": float(np.linalg.norm(DbW[:, inner]) / np.linalg.norm(DW[:, inner])),
            "laplacian": float(np.linalg.norm(DDbW) / np.linalg.norm(comp))}


def harmonicity_residual(model: ProductModel, k: int, index: tuple[int, ...],
                         grid_n: int = 64) -> float:
    """Laplacian residual of a product section: worst factor residual.

    The Kodaira Laplacian of the product metric splits across factors, so a
    tensor-product section is harmonic exactly when each factor member is.
    A member's residual depends only on (tau, |degree|, member), since
    _padded_member evaluates the level k|d|, so each distinct one is
    evaluated once.
    """
    distinct = {(f.tau, abs(f.degree), j): (f, j) for f, j in zip(model.factors, index)}
    return max(factor_harmonicity_residual(f, k, j, grid_n=grid_n)["laplacian"]
               for f, j in distinct.values())
