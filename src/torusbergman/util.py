"""Shared numerical helpers: seeded draws, the 2-norm, least-squares line and
power-law slope fits, and the rounding floors of the measured quantities.

The reductions of one vector, or of one table against one vector, are numpy
sums: a run's only BLAS calls are the matrix products of theta.weighted_grid
and embedding._factor_min_fs, so a run that forms none never pages OpenBLAS in."""

from __future__ import annotations

import math
import random
from typing import NamedTuple

import numpy as np

__all__ = ["Draws", "norm2", "SlopeFit", "fit_line", "fit_slope", "asymptotic_window", "noise_floor"]


class Draws:
    """Seeded arrays from the stdlib random.Random, which, unlike numpy.random, loads no libcrypto."""

    def __init__(self, seed: int):
        self._uniform = random.Random(seed).random

    def random(self, size) -> np.ndarray:
        """Uniform [0, 1) values of shape size, filled in C order."""
        return np.array([self._uniform() for _ in range(int(np.prod(size)))]).reshape(size)

    def normal(self, size) -> np.ndarray:
        """Box-Muller: each pair (u, v) of random() gives r cos(a), then r sin(a)."""
        u, v = self.random(((int(np.prod(size)) + 1) // 2, 2)).T
        r, a = np.sqrt(-2.0 * np.log1p(-u)), 2.0 * np.pi * v
        return np.resize(np.stack([r * np.cos(a), r * np.sin(a)], axis=1), size)


def norm2(v) -> float:
    """The 2-norm of a real or complex array of any shape, from numpy sums of
    its squared real and imaginary parts; np.linalg.norm's dots go to BLAS."""
    v = np.asarray(v)
    return math.sqrt(np.sum(v.real * v.real) + np.sum(v.imag * v.imag))


class SlopeFit(NamedTuple):
    slope: float
    intercept: float
    residual: float     # max absolute deviation of y from the fitted line


def fit_line(x, y) -> SlopeFit:
    """Least-squares line y = intercept + slope * x, in the centered closed form
    slope = dx.(y - mean y) / dx.dx with dx = x - mean x."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    dx = x - x.mean()
    slope = float(np.sum(dx * (y - y.mean())) / np.sum(dx * dx))
    intercept = float(y.mean() - slope * x.mean())
    return SlopeFit(slope, intercept, residual=float(np.max(np.abs(y - (intercept + slope * x)))))


def fit_slope(ks, values) -> SlopeFit:
    """fit_line of log(value) on log(k) for O(k^alpha) rate measurements."""
    ks = np.asarray(ks, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(ks) < 4:
        raise ValueError("need at least 4 (k, value) pairs")
    bad = np.where(values <= 0)[0]
    if bad.size:
        raise ValueError(f"non-positive value at k={ks[bad[0]]:g}")
    return fit_line(np.log(ks), np.log(values))


def asymptotic_window(n: int) -> int:
    """Start index of the top-half fitting window, keeping at least 4 points."""
    return max(0, min(n // 2, n - 4))


# A measured value at or below its floor is indistinguishable from rounding:
# the routes report it as floored and leave it out of their fits.
_FLOOR_REL = {
    "kernel": 1e-15,    # |P(x,y)| per sqrt(P(x,x) P(y,y)): sums plateau near 1e-16 of it (thin tori)
    "form": 1e-12,      # A8's E(k) per max(1, max|omega|)
    "zero": 1e-250,     # A9's derivative sums: at or below it, an exact zero
}


def noise_floor(kind: str, scale: float = 1.0) -> float:
    """The rounding floor of a `kind` value (a _FLOOR_REL key) of natural size `scale`."""
    return _FLOOR_REL[kind] * scale
