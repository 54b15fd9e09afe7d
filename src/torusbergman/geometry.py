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
    "VOLUME_NORMALIZATION",
    "factor_volume",
    "omega",
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
        """Curvature scale lambda = pi d / (2 Im tau): the unit-power weight is
        lambda |u|^2 plus pluriharmonic terms, in offsets u from any point."""
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


def omega(model: ProductModel) -> np.ndarray:
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
