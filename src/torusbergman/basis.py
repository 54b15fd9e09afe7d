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
oracle that certifies this closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product as iproduct

import numpy as np

from .geometry import ProductModel, TorusFactor, factor_volume
from .theta import phi_plus, weighted_grid, weighted_table

__all__ = [
    "FactorSectionSet",
    "GramMatrix",
    "KunnethBasis",
    "HarmonicBasis",
    "GramError",
    "raw_factor_basis",
    "kunneth_basis",
    "gram",
    "factor_gram",
    "orthonormalize",
    "build_basis",
    "theta_gram_diagonal",
    "harmonicity_residual",
    "factor_harmonicity_residual",
]

HOLOMORPHIC = "holomorphic"
CONJUGATE_FORM = "conjugate_form"


class GramError(RuntimeError):
    pass


@dataclass(frozen=True)
class FactorSectionSet:
    """Raw basis of the harmonic space on one factor at power k."""

    factor: TorusFactor
    k: int
    kind: str

    @property
    def level(self) -> int:
        return self.k * abs(self.factor.degree)

    @property
    def count(self) -> int:
        """One member per theta characteristic: the level."""
        return self.level

    @property
    def scale(self) -> float:
        """Orthonormalizing factor (m / (2 Im tau))^(1/4) of the raw members."""
        return theta_gram_diagonal(self.level, self.factor.im_tau) ** -0.5


def theta_gram_diagonal(level: int, im_tau: float) -> float:
    """Closed-form raw factor Gram: sqrt(2 Im tau / m) times the identity."""
    return float(np.sqrt(2.0 * im_tau / level))


def raw_factor_basis(factor: TorusFactor, k: int) -> FactorSectionSet:
    """Raw harmonic members for one factor: k*|d| of them, kind by sign of d."""
    if k <= 0:
        raise ValueError("tensor power k must be positive")
    kind = HOLOMORPHIC if factor.degree > 0 else CONJUGATE_FORM
    return FactorSectionSet(factor=factor, k=k, kind=kind)


@dataclass(frozen=True)
class KunnethBasis:
    """All tensor products of factor members, lexicographic in factor indices."""

    model: ProductModel
    k: int
    factor_sets: tuple[FactorSectionSet, ...]

    @property
    def indices(self) -> list[tuple[int, ...]]:
        return list(iproduct(*[range(s.count) for s in self.factor_sets]))

    @property
    def count(self) -> int:
        c = 1
        for s in self.factor_sets:
            c *= s.count
        return c


def kunneth_basis(model: ProductModel, k: int) -> KunnethBasis:
    sets = tuple(raw_factor_basis(f, k) for f in model.factors)
    return KunnethBasis(model=model, k=k, factor_sets=sets)


@dataclass(frozen=True)
class GramMatrix:
    entries: np.ndarray
    quadrature_resolution: int
    estimated_quadrature_error: float | None = None

    def __post_init__(self):
        G = self.entries
        herm = np.max(np.abs(G - G.conj().T))
        if herm > 1e-12 * max(1.0, np.max(np.abs(G))):
            raise GramError(f"Gram not Hermitian: deviation {herm:.3e}")
        w = np.linalg.eigvalsh(0.5 * (G + G.conj().T))
        if w.min() <= 1e-12 * max(w.max(), 1.0):
            raise GramError(
                f"Gram not positive definite (min eig {w.min():.3e}); "
                "quadrature too coarse or dependent sections"
            )


def default_resolution(level: int, im_tau: float = 1.0) -> int:
    """Quadrature size: max(4m, 16), raised on thin tori (Im tau < 1) until the
    first aliased mode exp(-pi Im(tau) N^2 / (2m)) is below 1e-16."""
    return max(4 * level, 16, int(np.ceil(np.sqrt(2 * level * np.log(1e16) / (np.pi * im_tau)))))


def factor_gram(factor: TorusFactor, k: int, resolution: int | None = None, eps: float = 1e-12) -> GramMatrix:
    """Quadrature Gram of the raw factor members under the weighted L2 product.

    It is the independent check of the closed form theta_gram_diagonal, which
    the basis uses in its place.  The periodic trapezoid rule is spectrally
    accurate here: the integrand's Fourier modes decay like
    exp(-pi T nu^2 / (2m)), so the first aliased mode at nu = N sets the
    recorded quadrature-error estimate.
    """
    m = k * abs(factor.degree)
    N = default_resolution(m, factor.im_tau) if resolution is None else resolution
    if N < 4 * m:
        raise GramError(f"resolution {N} below the floor {4 * m} for level {m}")
    basis = HarmonicBasis(ProductModel((factor,)), k, (raw_factor_basis(factor, k),), eps=eps)
    G = basis.grid_gram(0, N) * theta_gram_diagonal(m, factor.im_tau)
    est = float(np.exp(-np.pi * factor.im_tau * N**2 / (2.0 * m)))
    return GramMatrix(entries=G, quadrature_resolution=N,
                      estimated_quadrature_error=max(est, eps))


def gram(model: ProductModel, kunneth: KunnethBasis, resolution: int | None = None, eps: float = 1e-12) -> GramMatrix:
    """Quadrature Gram of the full product basis: Kronecker product of factor Grams (test oracle)."""
    gs = [factor_gram(s.factor, kunneth.k, resolution, eps) for s in kunneth.factor_sets]
    G = gs[0].entries
    est = gs[0].estimated_quadrature_error or 0.0
    for g2 in gs[1:]:
        G = np.kron(G, g2.entries)
        est = est + (g2.estimated_quadrature_error or 0.0)
    return GramMatrix(entries=G, quadrature_resolution=max(g.quadrature_resolution for g in gs),
                      estimated_quadrature_error=est)


@dataclass(frozen=True)
class HarmonicBasis:
    """Orthonormal basis of the harmonic space, kept in factored form.

    sections j are indexed lexicographically by per-factor member indices;
    `mix`, when set, is a unitary remix applied on top (used by invariance
    tests; it deliberately breaks the tensor factorization of outputs but not
    of the evaluation).
    """

    model: ProductModel
    k: int
    factor_sets: tuple[FactorSectionSet, ...]
    eps: float = 1e-12
    mix: np.ndarray | None = None

    @property
    def dim(self) -> int:
        c = 1
        for s in self.factor_sets:
            c *= s.count
        return c

    def remixed(self, U: np.ndarray) -> "HarmonicBasis":
        mix = U if self.mix is None else U @ self.mix
        return replace(self, mix=mix)

    # -- factor-level evaluation ----------------------------------------

    def factor_tables(self, t: int, z, orders: str = "v", eps: float | None = None) -> dict[str, np.ndarray]:
        """Orthonormalized weighted jet tables for factor t at complex points z.

        orders: "v" values only, "d1" adds dz/dzb, "d2" adds the diagonal
        mixed second derivative dzdzb.  Keys: v, z, zb, zzb.
        """
        eps = self.eps if eps is None else eps
        s = self.factor_sets[t]
        f = s.factor
        m = s.level
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        nord = {"v": 0, "d1": 1, "d2": 1}[orders]
        Wc = weighted_table(m, f.tau, z, orders=nord, eps=eps)
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
        s = self.factor_sets[t]
        V = np.empty((s.count, N * N), dtype=complex)
        for j, W in enumerate(weighted_grid(s.level, s.factor.tau, N, self.eps)):
            V[j] = W.ravel()
        V *= s.scale
        return np.conj(V, out=V) if s.factor.degree < 0 else V

    def grid_density(self, t: int, N: int) -> np.ndarray:
        """Factor t's density sum_j |g_j|^2 on the same grid, shape (N, N).

        Accumulated one member at a time, so the (m, N^2) table is never held;
        conjugation does not change |g_j|, and the scale is applied once.
        """
        s = self.factor_sets[t]
        out = np.zeros((N, N))
        sq = np.empty((N, N))
        for W in weighted_grid(s.level, s.factor.tau, N, self.eps):
            np.abs(W, out=sq)
            sq *= sq
            out += sq
        out *= s.scale ** 2
        return out

    def grid_gram(self, t: int, N: int) -> np.ndarray:
        """Quadrature Gram of factor t's orthonormalized members on the grid (should be I)."""
        V = self.grid_table(t, N)
        return (V @ V.conj().T) * (factor_volume(self.factor_sets[t].factor) / N**2)

    def _combine(self, per_factor: list[np.ndarray]) -> np.ndarray:
        V = per_factor[0]
        for tab in per_factor[1:]:
            V = (V[:, None, :] * tab[None, :, :]).reshape(-1, tab.shape[1])
        if self.mix is not None:
            V = self.mix @ V
        return V

    def values(self, points) -> np.ndarray:
        """Weighted J0-coefficients of all sections: shape (dim, npoints).

        These are the localized-frame coefficients g_j = f_j * exp(-k*phi0);
        sums sum_j g_j(x) conj(g_j(y)) are the localized kernel directly.
        """
        pts = np.atleast_2d(self.model.check_point(points))
        zs = self.model.chart_z(pts)
        tabs = [self.factor_tables(t, zs[:, t], "v")["v"] for t in range(self.model.n)]
        return self._combine(tabs)

    def jets(self, points, second: bool = False) -> dict[str, np.ndarray]:
        """Values and chart-coordinate derivatives of the weighted coefficients.

        Returns val (dim, P), dz and dzb (n, dim, P) and, when second=True,
        the mixed block dzdzb (n, n, dim, P).
        """
        pts = np.atleast_2d(self.model.check_point(points))
        zs = self.model.chart_z(pts)
        n = self.model.n
        order = "d2" if second else "d1"
        tabs = [self.factor_tables(t, zs[:, t], order) for t in range(n)]
        val = self._combine([tabs[t]["v"] for t in range(n)])
        P = val.shape[1]
        dz = np.empty((n, self.dim, P), dtype=complex)
        dzb = np.empty((n, self.dim, P), dtype=complex)
        for a in range(n):
            dz[a] = self._combine([tabs[t]["z" if t == a else "v"] for t in range(n)])
            dzb[a] = self._combine([tabs[t]["zb" if t == a else "v"] for t in range(n)])
        out = {"val": val, "dz": dz, "dzb": dzb}
        if second:
            dzdzb = np.empty((n, n, self.dim, P), dtype=complex)
            for a in range(n):
                for b in range(n):
                    keys = []
                    for t in range(n):
                        if t == a == b:
                            keys.append("zzb")
                        elif t == a:
                            keys.append("z")
                        elif t == b:
                            keys.append("zb")
                        else:
                            keys.append("v")
                    dzdzb[a, b] = self._combine([tabs[t][keys[t]] for t in range(n)])
            out["dzdzb"] = dzdzb
        return out

    def recompute_gram(self, scale: int = 1) -> np.ndarray:
        """Quadrature Gram of the orthonormalized sections (should be I)."""
        Gs = [self.grid_gram(t, default_resolution(s.level, s.factor.im_tau) * scale)
              for t, s in enumerate(self.factor_sets)]
        G = Gs[0]
        for g2 in Gs[1:]:
            G = np.kron(G, g2)
        if self.mix is not None:
            G = self.mix @ G @ self.mix.conj().T
        return G


def orthonormalize(kunneth: KunnethBasis, eps: float = 1e-12) -> HarmonicBasis:
    """Orthonormalize the raw product basis: each factor's members are scaled
    by FactorSectionSet.scale, and the basis ordering is preserved."""
    return HarmonicBasis(model=kunneth.model, k=kunneth.k, factor_sets=kunneth.factor_sets, eps=eps)


def build_basis(model: ProductModel, k: int, eps: float = 1e-12) -> HarmonicBasis:
    """Raw members and closed-form orthonormalization in one call."""
    return orthonormalize(kunneth_basis(model, k), eps=eps)


# -- discrete Kodaira-Laplacian certification -------------------------------


def _fd4_axis0(F: np.ndarray, h: float) -> np.ndarray:
    """4th-order periodic central difference along axis 0."""
    return (8.0 * (np.roll(F, -1, axis=0) - np.roll(F, 1, axis=0))
            - (np.roll(F, -2, axis=0) - np.roll(F, 2, axis=0))) / (12.0 * h)


def _shift_b(F: np.ndarray, s: int, c_up: np.ndarray, c_dn: np.ndarray) -> np.ndarray:
    """Shift along the b axis (axis 1) with quasi-periodic cocycle wrap."""
    if s == 0:
        return F
    if s > 0:
        return np.concatenate([F[:, s:], F[:, :s] * c_up[:, :s]], axis=1)
    s = -s
    return np.concatenate([F[:, -s:] / c_dn[:, -s:], F[:, :-s]], axis=1)


def _fd4_b(F: np.ndarray, h: float, c_up: np.ndarray, c_dn: np.ndarray) -> np.ndarray:
    return (8.0 * (_shift_b(F, 1, c_up, c_dn) - _shift_b(F, -1, c_up, c_dn))
            - (_shift_b(F, 2, c_up, c_dn) - _shift_b(F, -2, c_up, c_dn))) / (12.0 * h)


def _complex_derivs(F, tau, h, c_up, c_dn):
    Da = _fd4_axis0(F, h)
    Db = _fd4_b(F, h, c_up, c_dn)
    Dz = (np.conj(tau) * Da - Db) / (np.conj(tau) - tau)
    Dzb = (tau * Da - Db) / (tau - np.conj(tau))
    return Dz, Dzb


def _theta_cocycle_exponent(m: int, tau: complex, z: np.ndarray) -> np.ndarray:
    """log of the theta factor of automorphy for z -> z + tau."""
    return -1j * np.pi * m * tau - 2j * np.pi * m * z


def factor_harmonicity_residual(factor: TorusFactor, k: int, member: int,
                                grid_n: int = 64, perturb=None) -> dict[str, float]:
    """Discrete Kodaira-Laplacian residual of one raw factor member.

    Returns relative residuals of the first-order harmonicity identity and of
    the full Laplacian, measured with 4th-order finite differences on a
    centered grid_n x grid_n lattice grid.  perturb, if given, maps the grid
    coordinate arrays (A, B) to a multiplicative field applied to the member
    (the sensitivity control).
    """
    tau = factor.tau
    T = tau.imag
    m = k * abs(factor.degree)
    N = grid_n
    h = 1.0 / N
    t = (np.arange(N) + 0.5) / N - 0.5
    A, B = np.meshgrid(t, t, indexing="ij")
    Z = A + tau * B
    phi = phi_plus(m, tau, Z)
    theta = weighted_table(m, tau, Z.ravel(), eps=1e-14)[0, member].reshape(N, N) * np.exp(phi)
    if factor.degree > 0:
        F = theta
        c_up = np.exp(_theta_cocycle_exponent(m, tau, Z))
        c_dn = np.exp(_theta_cocycle_exponent(m, tau, Z - tau))
    else:
        # one exp of the summed exponent: its real part, -pi m T - 2 pi m Im Z for
        # c_up, stays bounded where the two factors separately overflow
        F = np.exp(-2.0 * phi) * np.conj(theta)
        c_up = np.exp(np.conj(_theta_cocycle_exponent(m, tau, Z))
                      - 4.0 * np.pi * m * Z.imag - 2.0 * np.pi * m * T)
        c_dn = np.exp(np.conj(_theta_cocycle_exponent(m, tau, Z - tau))
                      - 4.0 * np.pi * m * (Z.imag - T) - 2.0 * np.pi * m * T)
    if perturb is not None:
        F = F * (1.0 + perturb(A, B))
    P = -1j * np.pi * m * Z.imag / T   # dphi_plus_m/dz

    def l2(X):
        return float(np.linalg.norm(X.ravel()))

    if factor.degree > 0:
        # box^0 s = -(Dz - 2 dphi/dz)(Dzb s); comparator flips Dzb -> Dz
        Dz, Dzb = _complex_derivs(F, tau, h, c_up, c_dn)
        res1 = l2(Dzb) / max(l2(Dz), 1e-300)
        Dz2, _ = _complex_derivs(Dzb, tau, h, c_up, c_dn)
        num = Dz2 - 2.0 * P * Dzb
        Dzc, _ = _complex_derivs(Dz, tau, h, c_up, c_dn)
        comp = Dzc - 2.0 * P * Dz
        res2 = l2(num) / max(l2(comp), 1e-300)
    else:
        # dbar* u = -(Dz + 2 dphi_plus/dz) f; box^1 u = -Dzb (dbar* u)
        Dz, Dzb = _complex_derivs(F, tau, h, c_up, c_dn)
        first = Dz + 2.0 * P * F
        scale1 = l2(Dz - 2.0 * P * F)
        res1 = l2(first) / max(scale1, 1e-300)
        _, num = _complex_derivs(first, tau, h, c_up, c_dn)
        flip = Dz - 2.0 * P * F
        _, comp = _complex_derivs(flip, tau, h, c_up, c_dn)
        res2 = l2(num) / max(l2(comp), 1e-300)
    return {"first_order": res1, "laplacian": res2}


def harmonicity_residual(model: ProductModel, k: int, index: tuple[int, ...],
                         grid_n: int = 64) -> float:
    """Laplacian residual of a product section: worst factor residual.

    The Kodaira Laplacian of the product metric splits across factors, so a
    tensor-product section is harmonic exactly when each factor member is.
    """
    res = 0.0
    for t, f in enumerate(model.factors):
        r = factor_harmonicity_residual(f, k, index[t], grid_n=grid_n)
        res = max(res, r["laplacian"])
    return res
