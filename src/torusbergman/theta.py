"""Weighted level-m theta functions: two evaluators and a grid Gram over one
term formula.

Normalization:

    theta_{m,j}(z) = sum_{r in Z + j/m} exp(pi i m r^2 tau + 2 pi i m r z)

for level m >= 1 and characteristic j in {0, ..., m-1}.  These satisfy
theta(z+1) = theta(z) and theta(z+tau) = exp(-pi i m tau - 2 pi i m z) theta(z)
and realize holomorphic sections of the degree-m bundle with weight
phi_plus(z) = pi m (Im z)^2 / Im tau.  Only the weighted values
W = theta * exp(-phi_plus) and their termwise z-derivative sums are evaluated.
In lattice coordinates z = a + tau s (s = Im z / Im tau) each weighted term is

    exp(2 pi i m r a) * exp(pi i m Re(tau) r (r + 2 s) - pi m Im(tau) (r + s)^2),

whose real exponent _exponent forms as that one Gaussian, never as the sum of
the large, cancelling Re(pi i m r^2 tau), -2 pi m r Im z and -phi_plus.

Certified error: _tail_radius gives the radius R of the explicit Gaussian
tail bound, so W is within eps of the exact value (theta within
eps * exp(phi_plus(z))).  weighted_table sums each scattered point over the
terms within R of its centre.  weighted_grid, for every lattice grid
z = a + tau b given by its axes a and b, takes each characteristic's window
over the whole b axis (_windows): the a-phase exp(2 pi i (m n + j) a)
(r = n + j/m) splits off, the b-only factors of all characteristics' terms are
formed in one pass (_grid_factors), and each characteristic is one
(len(a) x R_j) @ (R_j x len(b)) matrix product with O(N R) complex
exponentials instead of O(N^2 R).  It serves two grids: the
half-offset grid (a, b in half_offset(N) = (arange(N) + 0.5) / N, listed by
grid_pairs), whose (m, N, N) table the FS scan reads and whose first
N / gcd(N, m) points per axis, one period of the (1/m) Lambda symmetry, the
density floor sum_j |W_j|^2 reads, and A2's centered stencil grid with its
ghost b columns, of which basis._padded_member reads one member's row.  weighted_grid_gram gives the
trapezoid Gram of the half-offset grid values on a side N that m divides:
by discrete orthogonality in a it is exactly diagonal, and every entry is a
window sum of one 1-D Gaussian profile, O(N R) exponentials for all m
entries.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["half_offset", "grid_pairs", "weighted_grid", "weighted_grid_gram", "weighted_table"]


def _tail_radius(m: int, tau: complex, eps: float, y: np.ndarray, order: int) -> float:
    """Smallest shifted-window half-width R with certified tail below eps at
    the points of imaginary parts y.  Rejects a level below 1, Im tau <= 0 and
    eps <= 0, for every evaluator.

    Terms are exp(-a s^2) * |2 pi m r|^order with a = pi m Im(tau) and
    s = r + y/Im(tau); the two-sided tail over |s| >= R is bounded by
    2 exp(-a R^2 / 2) * sup_{|s|>=R} exp(-a s^2 / 2) (2 pi m (|s|+c))^order
    with c = max |y| / Im(tau).
    """
    if m < 1:
        raise ValueError("level must be a positive integer")
    if tau.imag <= 0:
        raise ValueError("Im(tau) must be positive")
    if eps <= 0:
        raise ValueError("eps must be positive")
    a = math.pi * m * tau.imag
    c = float(np.max(np.abs(y))) / tau.imag
    R = 1.0
    for _ in range(4):
        poly = max(1.0, (2.0 * math.pi * m * (R + c + 1.0)) ** order)
        geo = max(1.0 - math.exp(-a * max(R, 0.5)), 0.25)
        target = eps * geo / (4.0 * poly)
        R = max(math.sqrt(2.0 * max(math.log(1.0 / target), 1.0) / a), math.sqrt(2.0 * order / a) + 0.5)
    return R


def _windows(m: int, tau: complex, y: np.ndarray, eps: float, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Per characteristic j, the least and greatest integer n (arrays of shape (m,))
    such that r = n + j/m covers |r + y / Im tau| <= R at every point, R the tail
    radius for eps at the given derivative order."""
    R = _tail_radius(m, tau, eps, y, order)
    center = -y / tau.imag
    lo, hi = center.min() - R, center.max() + R
    j = np.arange(m)
    return np.floor(lo - j / m).astype(int), np.ceil(hi - j / m).astype(int)


def _exponent(m: int, tau: complex, r: np.ndarray, s: np.ndarray) -> np.ndarray:
    """pi i m Re(tau) r (r + 2 s) - pi m Im(tau) (r + s)^2 for terms r broadcast
    against points s = Im z / Im tau (last axis): the term exponent without its
    a-phase, its real and imaginary parts built as real arrays and written into
    one complex buffer."""
    e = np.empty(np.broadcast_shapes(r.shape, s.shape), dtype=complex)
    e.real = -np.pi * m * tau.imag * (r + s) ** 2
    e.imag = np.pi * m * tau.real * r * (r + 2.0 * s)
    return e


_TERMS = 1 << 15    # complex terms one pass of weighted_table holds


def weighted_table(m: int, tau: complex, z, orders: int = 0, eps: float = 1e-12) -> np.ndarray:
    """Weighted sums W_nu = sum_r (2 pi i m r)^nu exp(...) * exp(-phi_plus(z))
    for all m characteristics at once.

    Every term has nonpositive real exponent, so no large intermediates occur
    regardless of Im z.  Returns shape (orders+1, m, len(z)).

    W_0 is the weighted theta value theta * exp(-phi_plus); W_1 and W_2 are
    the weighted first and second z-derivative sums of theta.

    Point p sums its own window: for characteristic j, the L = floor(2R) + 3
    n from floor(-s_p - R - j/m) (s_p = Im z_p / Im tau), which hold every
    |n + j/m + s_p| <= R.  A pass over some points is one (m, L, points) array
    of about _TERMS terms.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    R = _tail_radius(m, tau, eps, z.imag, orders)
    s = z.imag / tau.imag
    phase = 2.0 * np.pi * m * (z.real - tau.real * s)      # 2 pi m a
    L = math.floor(2.0 * R) + 3
    jm = (np.arange(m) / m)[:, None, None]
    P = z.shape[0]
    out = np.empty((orders + 1, m, P), dtype=complex)
    # every pass has at least 2 points unless P is 1: numpy sums a lone
    # column pairwise but a wider block term by term, and the sums must
    # not depend on the passes
    passes = max(1, P // max(2, _TERMS // (m * L)))
    cuts = [P * i // passes for i in range(passes + 1)]
    for a, b in zip(cuts[:-1], cuts[1:]):
        r = np.floor(-s[a:b] - R - jm) + np.arange(L)[:, None] + jm
        expo = _exponent(m, tau, r, s[a:b])
        expo.imag += r * phase[a:b]
        term = np.exp(expo, out=expo)
        out[0, :, a:b] = term.sum(axis=1)
        for nu in range(1, orders + 1):
            term *= 2j * np.pi * m * r
            out[nu, :, a:b] = term.sum(axis=1)
    return out


def half_offset(N: int) -> np.ndarray:
    """The half-offset lattice grid's coordinates (arange(N) + 0.5) / N, per axis."""
    return (np.arange(N) + 0.5) / N


def grid_pairs(N: int) -> np.ndarray:
    """Its N^2 points (a, b), a-major (the order of a raveled [a, b] table): (N^2, 2)."""
    t = half_offset(N)
    return np.stack(np.meshgrid(t, t, indexing="ij"), axis=-1).reshape(-1, 2)


def _grid_factors(m: int, tau: complex, b: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every term of a lattice grid whose b axis is b, ordered by characteristic
    j, then by n: the integer a-frequencies f = m n + j, the b-only factors
    G[term, b] = exp(_exponent(m, tau, r, b)), and the m + 1 row offsets of the
    characteristics, so that W_j[a, b] is the sum over j's rows of
    exp(2 pi i f a) G[row, b].  One pass over all terms."""
    # the windows see Im z = Im(tau) b, as weighted_table would at these points
    lo, hi = _windows(m, tau, tau.imag * b, eps, 0)
    counts = hi - lo + 1
    starts = np.concatenate(([0], np.cumsum(counts)))
    j = np.repeat(np.arange(m), counts)
    n = np.arange(starts[-1]) - np.repeat(starts[:-1] - lo, counts)
    return m * n + j, np.exp(_exponent(m, tau, (n + j / m)[:, None], b)), starts


def weighted_grid(m: int, tau: complex, a: np.ndarray, b: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """W_0 of weighted_table on the lattice grid z = a + tau b spanned by the
    axes a and b: shape (m, len(a), len(b)), indexed [j, a, b], so that on the
    half-offset grid (a = b = half_offset(N)) raveling a characteristic gives
    the a-major order of grid_pairs.  Characteristic j is E_j @ G_j with
    E_j[a, n] = exp(2 pi i (m n + j) a) and G_j its rows of the b-only factor
    of _grid_factors.
    """
    f, G, starts = _grid_factors(m, tau, b, eps)
    out = np.empty((m, len(a), len(b)), dtype=complex)
    for j, (lo, hi) in enumerate(zip(starts[:-1], starts[1:])):
        out[j] = np.exp(2j * np.pi * np.outer(a, f[lo:hi])) @ G[lo:hi]
    return out


def weighted_grid_gram(m: int, tau: complex, N: int, eps: float = 1e-12) -> np.ndarray:
    """Diagonal of the trapezoid Gram sum_(a,b) W_j conj(W_j') of the
    weighted_grid values, shape (m,), for a side N that m divides.

    With f = m n + j, sum_a exp(2 pi i (f - f') a) over the N half-offset
    points vanishes unless N divides f - f'; as m divides N, that needs j = j',
    so the Gram is exactly diagonal.  Entry j keeps the n = n' pairs: it is
    N sum_n sum_b exp(-2 pi m Im(tau) (n + j/m + t_b)^2), and every
    n + j/m + t_b is a point x = (i + 0.5) / N of one 1-D grid, so it is N times
    the sum of the profile exp(-2 pi m Im(tau) x^2) over the run of i that j's
    n window covers.  The aliased pairs n - n' = q N / m (q != 0) are left out;
    relative to the entry, each q contributes at most
    exp(-pi Im(tau) q^2 N^2 / (2m)).
    """
    lo, hi = _windows(m, tau, tau.imag * half_offset(N), eps, 0)
    if N % m:
        raise ValueError(f"grid side {N} is not a multiple of the level {m}")
    first = lo * N + np.arange(m) * (N // m)       # i of (n, b) = (lo_j, 0)
    start = first - first.min()
    stop = start + (hi - lo + 1) * N
    x = (first.min() + np.arange(stop.max()) + 0.5) / N
    profile = np.exp(-2.0 * np.pi * m * tau.imag * x ** 2)
    return N * np.array([profile[a:b].sum() for a, b in zip(start, stop)])
