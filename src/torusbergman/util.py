"""Shared numerical helpers: power-law slope fits."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SlopeFit", "fit_slope", "asymptotic_window"]


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    intercept: float
    residual: float     # max absolute deviation in log space


def fit_slope(ks, values) -> SlopeFit:
    """OLS of log(value) on log(k) for O(k^alpha) rate measurements."""
    ks = np.asarray(ks, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(ks) < 4:
        raise ValueError("need at least 4 (k, value) pairs")
    bad = np.where(values <= 0)[0]
    if bad.size:
        raise ValueError(f"non-positive value at k={ks[bad[0]]:g}")
    lx = np.log(ks)
    ly = np.log(values)
    A = np.stack([np.ones_like(lx), lx], axis=1)
    coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
    fitted = A @ coef
    return SlopeFit(slope=float(coef[1]), intercept=float(coef[0]),
                    residual=float(np.max(np.abs(ly - fitted))))


def asymptotic_window(n: int) -> int:
    """Start index of the top-half fitting window, keeping at least 4 points."""
    return max(0, min(n // 2, n - 4))
