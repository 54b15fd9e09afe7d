"""Flat model manifolds: products of elliptic curves with metrized line bundles.

A model is a product of factors C/(Z + tau Z), each carrying a line bundle of
nonzero degree d with translation-invariant Hermitian weight

    phi0(z) = pi * d * (Im z)^2 / Im(tau),        |1|^2_h = exp(-2*phi0).

Points of the product are stored as real lattice coordinates
(a_1, b_1, ..., a_n, b_n) in [0,1)^(2n), with z_t = a_t + tau_t * b_t.
All conventions (curvature eigenvalues, volume normalization) are pinned by
the calibration oracles exercised in the test suite: the trace identity
integral(density) = d_k + 1, the degree integral of the curvature 2-form,
and the weighted-monomial disc model.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "TorusFactor",
    "ProductModel",
    "NormalChart",
    "VOLUME_NORMALIZATION",
    "factor_volume",
    "curvature_matrix",
    "signature",
    "omega",
    "normal_chart",
    "distance",
]

# dV = VOLUME_NORMALIZATION * dx dy per factor, forced by the Riemannian
# structure g = (<.,.> + conj)/2 with the unit d/dz frame; every quadrature
# weight reads it from here (calibrated by the trace and disc oracles).
VOLUME_NORMALIZATION = 2.0


def factor_volume(factor: "TorusFactor") -> float:
    """Total dV-volume of one factor: the normalization times Im(tau)."""
    return VOLUME_NORMALIZATION * factor.im_tau


@dataclass(frozen=True)
class TorusFactor:
    """One elliptic-curve factor C/(Z + tau Z) with a degree-d line bundle."""

    tau: complex
    degree: int

    def __post_init__(self):
        if self.tau.imag <= 0:
            raise ValueError(f"Im(tau) must be positive, got tau={self.tau}")
        if self.degree == 0:
            raise ValueError("factor degree must be nonzero")

    @property
    def weight_scale(self) -> float:
        """Coefficient lambda in the normal-chart weight lambda*|u|^2."""
        return np.pi * self.degree / (2.0 * self.tau.imag)

    @property
    def im_tau(self) -> float:
        return self.tau.imag


@dataclass(frozen=True)
class ProductModel:
    """Ordered product of torus factors, negative degrees first."""

    factors: tuple[TorusFactor, ...]

    def __post_init__(self):
        if not self.factors:
            raise ValueError("model needs at least one factor")
        signs = [f.degree < 0 for f in self.factors]
        # canonical ordering: all negative-degree factors precede positive ones
        first_pos = next((i for i, s in enumerate(signs) if not s), len(signs))
        if any(signs[first_pos:]):
            raise ValueError("factors must be ordered with negative degrees first")

    @staticmethod
    def from_factors(factors) -> "ProductModel":
        """Build a model, reordering factors so negative degrees come first."""
        fs = sorted(factors, key=lambda f: f.degree >= 0)
        return ProductModel(tuple(fs))

    @property
    def n(self) -> int:
        return len(self.factors)

    @property
    def n_minus(self) -> int:
        return sum(1 for f in self.factors if f.degree < 0)

    @property
    def J0(self) -> tuple[int, ...]:
        return tuple(range(1, self.n_minus + 1))

    @cached_property
    def lambdas(self) -> np.ndarray:
        return np.array([f.weight_scale for f in self.factors])

    @cached_property
    def taus(self) -> np.ndarray:
        return np.array([f.tau for f in self.factors], dtype=complex)

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(f.degree for f in self.factors)

    # -- point handling -------------------------------------------------

    def check_point(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        if p.shape[-1] != 2 * self.n:
            raise ValueError(f"point needs {2 * self.n} lattice coordinates, got shape {p.shape}")
        return p

    def reduce(self, p) -> np.ndarray:
        """Reduce lattice coordinates to [0,1)^(2n)."""
        return np.mod(self.check_point(p), 1.0)

    def centered(self, p) -> np.ndarray:
        """Reduce lattice coordinates to [-1/2, 1/2)^(2n)."""
        q = self.reduce(p)
        return q - np.floor(q + 0.5)

    def chart_z(self, p) -> np.ndarray:
        """Complex chart coordinates z_t = a_t + tau_t b_t (last axis length n)."""
        p = self.check_point(p)
        a = p[..., 0::2]
        b = p[..., 1::2]
        return a + self.taus * b

    def chart_dz(self, x, y) -> np.ndarray:
        """Chart-coordinate separation z(x) - z(y) via centered difference."""
        d = self.centered(self.check_point(x) - self.check_point(y))
        return d[..., 0::2] + self.taus * d[..., 1::2]


def curvature_matrix(model: ProductModel, k: int = 1) -> np.ndarray:
    """Diagonal eigenvalue matrix of the curvature endomorphism for L^(tensor k).

    In the unit frame the eigenvalue on factor j is 2*k*lambda_j; the sign
    pattern matches the degrees and the matrix is constant over M.
    """
    return np.diag(2.0 * k * model.lambdas)


def signature(model: ProductModel) -> tuple[int, int]:
    """(n_minus, n_plus) eigenvalue signs of the curvature matrix."""
    eig = np.diag(curvature_matrix(model))
    if np.any(eig == 0.0):
        raise ValueError("degenerate curvature: zero eigenvalue")
    return int(np.sum(eig < 0)), int(np.sum(eig > 0))


def omega(model: ProductModel, p=None) -> np.ndarray:
    """The constant 2-form (i/2pi)*R^L in chart real coordinates.

    Returned as the real antisymmetric (2n x 2n) component matrix; block t is
    [[0, 2 lambda_t/pi], [-2 lambda_t/pi, 0]].  Its integral over factor t
    equals the degree d_t.
    """
    n = model.n
    w = np.zeros((2 * n, 2 * n))
    for t, lam in enumerate(model.lambdas):
        c = 2.0 * lam / np.pi
        w[2 * t, 2 * t + 1] = c
        w[2 * t + 1, 2 * t] = -c
    return w


@dataclass(frozen=True)
class NormalChart:
    """Chart and gauge centered at a point p.

    In the frame 1_p = exp(g_p) * 1_global the power-k weight is exactly
    k * sum_t lambda_t |u_t|^2.  Per factor, for the unit power,
    g_p(u) = a0 + a1 u + a2 u^2 with a0 = phi0(p), a1 = 2 dphi0/dz (p),
    a2 = -lambda; powers scale all three by k.
    """

    model: ProductModel
    basepoint: np.ndarray
    z0: np.ndarray          # chart coordinates of the basepoint, shape (n,)
    a0: np.ndarray          # real, shape (n,)
    a1: np.ndarray          # complex, shape (n,)
    a2: np.ndarray          # real, shape (n,)

    def weight(self, u) -> np.ndarray:
        """Quadratic normal weight sum_t lambda_t |u_t|^2 (unit power)."""
        u = np.asarray(u, dtype=complex)
        return np.sum(self.model.lambdas * np.abs(u) ** 2, axis=-1)

    def gauge(self, u, k: int = 1) -> np.ndarray:
        """Holomorphic gauge exponent k*g_p(u), u in chart offsets (n,)."""
        u = np.asarray(u, dtype=complex)
        return k * (self.a0 + self.a1 * u + self.a2 * u * u).sum(axis=-1)


def normal_chart(model: ProductModel, p) -> NormalChart:
    """Chart at p in which the weight is exactly sum lambda_t |u_t|^2."""
    p = model.reduce(p)
    z0 = model.chart_z(p)
    y0 = z0.imag
    T = np.array([f.im_tau for f in model.factors])
    d = np.array(model.degrees, dtype=float)
    a0 = np.pi * d * y0 ** 2 / T
    a1 = -2j * np.pi * d * y0 / T
    a2 = -model.lambdas
    return NormalChart(model=model, basepoint=p, z0=z0, a0=a0, a1=a1, a2=a2.astype(float))


def distance(model: ProductModel, x, y) -> float:
    """Geodesic distance under g: minimum over lattice translates."""
    dz = _min_image_dz(model, x, y)
    return float(np.sqrt(2.0 * np.sum(np.abs(dz) ** 2)))


def _min_image_dz(model: ProductModel, x, y) -> np.ndarray:
    d = model.centered(model.check_point(x) - model.check_point(y))
    da = d[..., 0::2]
    db = d[..., 1::2]
    shifts = np.array([-1.0, 0.0, 1.0])
    best = np.empty(model.n, dtype=complex)
    for t, tau in enumerate(model.taus):
        cand = (da[..., t, None, None] + shifts[:, None]) + tau * (db[..., t, None, None] + shifts[None, :])
        flat = cand.reshape(-1)
        best[t] = flat[np.argmin(np.abs(flat))]
    return best
