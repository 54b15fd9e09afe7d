"""Independent oracles shared by the tests: the Bergman projector evaluated by
quadrature on the product grid, against which the kernel's closed forms and
the embedding's truncation checks are compared, the quadrature Gram of an
orthonormalized basis, summed row by row over the grid table, against which
the discrete-orthogonality Gram is checked, the density and the exhaustive
FS scan on the whole half-offset grid, against which A7's one-period routes
are checked, the disc oracle by Cholesky of its full monomial Gram on a
Gauss-Legendre polar rule, against which the
closed-form radial integrals are checked, the theta table and the grid
evaluator and grid Gram one characteristic at a time, against which the
stacked evaluations are checked, the normal-frame first jets straight from
the theta table, against which the factor_tables route of derivative_sums is
checked, the lift of one point as a projective point, the product form field
spread from its factor fields, against which the Segre route is checked on
the full product basis, the kernel, density and ratio profile summed over
the full product basis, against which their factor-by-factor routes are
checked, a remixed basis that is not a tensor product, against which the
pointwise routes' invariances are checked, the global weight, injectivity
scale, curvature signature and geodesic distance of a model, against which
charts and separations are checked, the curvature matrix, the positive-degree
weight phi_plus and the normal-chart weight, against which b0, the theta
quasi-periodicity and the chart gauge are checked, the midpoint normal chart
with its gauge transport and quadratic phase Psi, against which the kernel
phase's closed form Phi in the global trivialization is checked, and Phi
itself, against which the kernel's Gaussian model is checked, the 17-digit float text
against which CSV cells are checked, the pullback form by the general
product-table route (second-order jets of the full product basis), against
which the Segre composite of the factor fields is checked, and the line fit
by a least-squares solve, against which util.fit_line's closed form is
checked."""

from typing import NamedTuple

import numpy as np

from torusbergman.basis import HarmonicBasis, default_resolution
from torusbergman.embedding import ProjectivePoint, _real_partials, fs_distance
from torusbergman.geometry import VOLUME_NORMALIZATION, ProductModel, factor_volume
from torusbergman.geometry import omega as omega_form
from torusbergman.kernel import _kernel_pair, _segment_points
from torusbergman.theta import _exponent, _windows, half_offset, weighted_grid, weighted_table
from torusbergman.util import SlopeFit


def project_coefficients(basis: HarmonicBasis, samples: np.ndarray, grid_n: int) -> np.ndarray:
    """Coefficients (u, S_j) of a J0-coefficient field sampled on the product grid.

    samples must be the weighted J0 coefficient of u at the full product of
    per-factor half-offset grid_n x grid_n grids, flattened in C order.
    """
    n = basis.model.n
    P = grid_n**2
    tabs, dv = [], 1.0
    for t, s in enumerate(basis.factor_sets):
        tab = basis.grid_table(t, half_offset(grid_n))
        # factor t's grid point index is digit t of the C-order product index
        tabs.append(np.tile(np.repeat(tab, P ** (n - 1 - t), axis=1), (1, P**t)))
        dv *= factor_volume(s.factor) / P
    return (basis._combine(tabs).conj() @ samples) * dv


def evaluate_combination(basis: HarmonicBasis, coeffs: np.ndarray, points) -> np.ndarray:
    """Evaluate sum_j c_j g_j at the given points."""
    return coeffs @ basis.values(points)


def dense_grid_gram(basis: HarmonicBasis, t: int, N: int) -> np.ndarray:
    """HarmonicBasis.grid_gram by the (m, N^2) grid table: V @ V^H * dv, one
    grid row of N points at a time, the row sums added with Kahan's
    compensation (one product over all N^2 points is ~1e-14 off at m = 80)."""
    V = basis.grid_table(t, half_offset(N))
    G = np.zeros((V.shape[0],) * 2, dtype=complex)
    carry = np.zeros_like(G)
    for i in range(0, V.shape[1], N):
        y = V[:, i:i + N] @ V[:, i:i + N].conj().T - carry
        s = G + y
        carry = (s - G) - y
        G = s
    return G * (factor_volume(basis.factor_sets[t].factor) / N**2)


def full_grid_density(basis: HarmonicBasis, t: int, N: int) -> np.ndarray:
    """Factor t's density sum_j |g_j|^2 on the whole half-offset N x N grid,
    shape (N, N); conjugation does not change |g_j|, and the scale is applied
    once."""
    s, x = basis.factor_sets[t], half_offset(N)
    sq = np.abs(weighted_grid(s.level, s.factor.tau, x, x, basis.eps))
    sq *= sq
    return sq.sum(axis=0) * s.scale ** 2


def full_scan(basis: HarmonicBasis, t: int, N: int):
    """Factor t's exhaustive FS scan over every row of the half-offset N x N
    grid: the best normalized overlap of two distinct points, the FS distance
    of the argmax pair and its grid indices, the (P, P) overlaps formed 1024
    rows at a time."""
    V = basis.grid_table(t, half_offset(N))
    V = V / np.linalg.norm(V, axis=0, keepdims=True)
    P = V.shape[1]
    best = -1.0
    pair = (0, 0)
    for i0 in range(0, P, 1024):
        C = np.abs(V[:, i0:i0 + 1024].conj().T @ V)
        for r in range(C.shape[0]):
            C[r, i0 + r] = -1.0
        idx = np.unravel_index(np.argmax(C), C.shape)
        if C[idx] > best:
            best = float(C[idx])
            pair = (i0 + idx[0], idx[1])
    return best, fs_distance(ProjectivePoint(V[:, pair[0]]), ProjectivePoint(V[:, pair[1]])), pair


def recompute_gram(basis: HarmonicBasis) -> np.ndarray:
    """Quadrature Gram of the orthonormalized sections (should be I)."""
    Gs = [dense_grid_gram(basis, t, default_resolution(s.level, s.factor.im_tau))
          for t, s in enumerate(basis.factor_sets)]
    G = Gs[0]
    for g2 in Gs[1:]:
        G = np.kron(G, g2)
    return G


def disc_radial_rule(lam: float, k: int, n_r: int):
    """The disc oracle's a = 2 k lam, radius R = 6 / sqrt(a), and the n_r-node
    Gauss-Legendre rule on [0, R] for dr with the weight r exp(-a r^2):
    (a, R, nodes, weights).

    numpy's leggauss weights carry a rounding bias that grows with the node
    count: the rule's monomial integrals int_0^R r^(2p+1) e^(-a r^2) dr are
    ~6e-15 off the exact ones at 200 nodes and ~3e-14 at 400, against
    ~7e-16 at 100, which already resolves these integrands."""
    a = 2.0 * k * lam
    R = 6.0 / np.sqrt(a)
    x_gl, w_gl = np.polynomial.legendre.leggauss(n_r)
    r = 0.5 * R * (x_gl + 1.0)
    return a, R, r, np.exp(-a * r**2) * r * (0.5 * R * w_gl)


def cholesky_disc_density(lam: float, k: int, n_modes: int | None = None,
                          n_r: int = 100, n_th: int = 256, at: float = 0.25) -> float:
    """kernel.disc_model_density by the full monomial Gram on the n_r x n_th
    polar product rule (disc_radial_rule in r), orthonormalized by Cholesky."""
    a, R, r, weight = disc_radial_rule(lam, k, n_r)
    if n_modes is None:
        n_modes = int(np.ceil(a * (at * R) ** 2)) + 12
    th = 2.0 * np.pi * np.arange(n_th) / n_th
    wth = 2.0 * np.pi / n_th
    z = r[:, None] * np.exp(1j * th[None, :])
    mono = z.ravel()[None, :] ** np.arange(n_modes)[:, None]
    wfull = np.repeat(weight, n_th) * wth * VOLUME_NORMALIZATION
    G = (mono * wfull[None, :]) @ mono.conj().T
    L = np.linalg.cholesky(G)
    z0 = at * R
    v = np.linalg.solve(L, z0 ** np.arange(n_modes).astype(complex))
    return float(np.sum(np.abs(v) ** 2) * np.exp(-a * z0**2))


def looped_weighted_table(m: int, tau: complex, z, orders: int = 0, eps: float = 1e-12) -> np.ndarray:
    """theta.weighted_table one characteristic at a time, each over its own n window."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    s = z.imag / tau.imag
    phase = 2.0 * np.pi * m * (z.real - tau.real * s)
    lo, hi = _windows(m, tau, z.imag, eps, orders)
    out = np.empty((orders + 1, m, z.shape[0]), dtype=complex)
    for j in range(m):
        r = (np.arange(lo[j], hi[j] + 1) + j / m)[:, None]
        expo = _exponent(m, tau, r, s)
        expo.imag += r * phase
        term = np.exp(expo, out=expo)
        out[0, j] = term.sum(axis=0)
        for nu in range(1, orders + 1):
            term *= 2j * np.pi * m * r
            out[nu, j] = term.sum(axis=0)
    return out


def looped_grid_factors(m: int, tau: complex, N: int, eps: float = 1e-12):
    """theta._grid_factors one characteristic at a time: per j, the a-frequencies
    m n + j of its n window and its b-only factor exp(_exponent(m, tau, r, t))."""
    t = (np.arange(N) + 0.5) / N
    for j, (lo, hi) in enumerate(zip(*_windows(m, tau, tau.imag * t, eps, 0))):
        n = np.arange(lo, hi + 1)
        yield m * n + j, np.exp(_exponent(m, tau, (n + j / m)[:, None], t))


def looped_weighted_grid(m: int, tau: complex, N: int, eps: float = 1e-12) -> list[np.ndarray]:
    """theta.weighted_grid from looped_grid_factors: characteristic j is
    exp(2 pi i outer(t, f_j)) @ G_j."""
    t = (np.arange(N) + 0.5) / N
    return [np.exp(2j * np.pi * np.outer(t, f)) @ G for f, G in looped_grid_factors(m, tau, N, eps)]


def looped_weighted_grid_gram(m: int, tau: complex, N: int, eps: float = 1e-12) -> np.ndarray:
    """The full (m, m) trapezoid Gram of the weighted_grid values, on any side N,
    from looped_grid_factors: every aliased term pair, gathered by fancy
    indexing 256 pairs at a time.  theta.weighted_grid_gram is its diagonal
    where m divides N, less the aliased pairs of one characteristic."""
    terms = list(looped_grid_factors(m, tau, N, eps))
    f = np.concatenate([x for x, _ in terms])
    char = f % m
    G = np.concatenate([g for _, g in terms])
    row = np.full(f.max() - f.min() + 1, -1)
    row[f - f.min()] = np.arange(len(f))
    gram = np.zeros((m, m), dtype=complex)
    span = (f.max() - f.min()) // N
    for q in range(-span, span + 1):
        partner = f - q * N - f.min()
        i = np.flatnonzero((partner >= 0) & (partner < len(row)))
        i = i[row[partner[i]] >= 0]
        i2 = row[partner[i]]
        for c in range(0, len(i), 256):
            a, b = i[c:c + 256], i2[c:c + 256]
            b_sums = np.einsum("ib,ib->i", G[a], G[b].conj())
            np.add.at(gram, (char[a], char[b]), (-1.0) ** q * N * b_sums)
    return gram


def normal_frame_first_jets(basis: HarmonicBasis, p):
    """Per-factor normal-frame weighted jets (v, du, dubar) at the chart center.

    At the center the gauge phase is 1 and its first derivative is explicit,
    so holomorphic-side members get dubar exactly 0 and du = W1 - 2 P W0;
    conjugate members are the mirror image.  P is formed on a (1,) array:
    numpy's complex / float multiplies by the reciprocal where Python's
    divides each part, and the one-ulp difference, amplified by the
    cancellation in W1 - 2 P W0, would move the sums by up to 2e-15.
    """
    model = basis.model
    zs = model.chart_z(model.reduce(np.asarray(p, dtype=float)))
    out = []
    for t, s in enumerate(basis.factor_sets):
        f = s.factor
        m = s.level
        val, W1 = weighted_table(m, f.tau, zs[t:t + 1], orders=1, eps=basis.eps)[:, :, 0] * s.scale
        P = -1j * np.pi * m * zs[t:t + 1].imag / f.im_tau
        du = W1 - 2.0 * P * val
        dubar = np.zeros_like(val)
        if f.degree < 0:
            val, du, dubar = np.conj(val), np.conj(dubar), np.conj(du)
        out.append({"v": val, "du": du, "dubar": dubar})
    return out


def phi(basis: HarmonicBasis, z) -> ProjectivePoint:
    """The embedding lift at z: the weighted J0-coefficient vector."""
    return ProjectivePoint(homogeneous=basis.values(np.asarray(z, dtype=float))[:, 0])


def _grid_pairs(q: int, n: int) -> tuple[np.ndarray, ...]:
    """Per factor, the pair each point of the product of n factor grids of q
    pairs holds, the points in C order (factor 0 slowest)."""
    return np.unravel_index(np.arange(q ** n), (q,) * n)


def product_grid(grid: np.ndarray, n: int) -> np.ndarray:
    """The (q^n, 2n) points of the product of n copies of a factor grid (q, 2)."""
    return np.hstack([grid[i] for i in _grid_pairs(len(grid), n)])


def expand_form_fields(fields: list[np.ndarray], q: int | None = None) -> np.ndarray:
    """The (P, 2n, 2n) product form field of per-factor fields f_t: point p's
    block t is [[0, f], [-f, 0]], the cross-factor cells 0.  f is fields[t][p];
    given q, the points are product_grid's, and f is fields[t] at the pair of
    factor t's grid that point p holds."""
    n = len(fields)
    index = _grid_pairs(q, n) if q else [np.arange(len(f)) for f in fields]
    out = np.zeros((len(index[0]), 2 * n, 2 * n))
    for t, (f, i) in enumerate(zip(fields, index)):
        out[:, 2 * t, 2 * t + 1] = f[i]
        out[:, 2 * t + 1, 2 * t] = -f[i]
    return out


def product_jets(self, points, second: bool = False) -> dict[str, np.ndarray]:
    """Values and chart-coordinate derivatives of the weighted coefficients.

    Returns val (dim, P), dz and dzb (n, dim, P) and, when second=True,
    the block dzdzb (n, n, dim, P) of d/dz_a d/dzbar_b.
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


def pullback_jacobian_many(basis: HarmonicBasis, pts) -> np.ndarray:
    """(1/k) Phi* omega_FS at many points: array (P, 2n, 2n)."""
    jets = basis.jets(np.atleast_2d(np.asarray(pts, dtype=float)))
    w = jets["val"]                                   # (dim, P)
    V = np.moveaxis(_real_partials(jets["dz"], jets["dzb"]), 0, -1)   # (2n, dim, P)
    nrm2 = np.sum(np.abs(w) ** 2, axis=0)             # (P,)
    vw = np.einsum("ajp,jp->ap", V, w.conj())         # <V_a, w>
    vv = np.einsum("ajp,bjp->abp", V, V.conj())       # <V_a, V_b>
    num = vw[:, None, :] * vw.conj()[None, :, :] - vv * nrm2[None, None, :]
    F = np.imag(num) / (np.pi * nrm2[None, None, :] ** 2) / basis.k
    F = 0.5 * (F - np.transpose(F, (1, 0, 2)))
    return np.moveaxis(F, -1, 0)


def hermitian_to_real_form(H: np.ndarray) -> np.ndarray:
    """Real components of the 2-form i sum H_ab dz_a wedge dzbar_b.

    Input H is the matrix of second derivatives d/dz_a d/dzbar_b (Hermitian
    for a real potential), or a stack of them, shape (..., n, n); output is
    the antisymmetric (..., 2n, 2n) matrix on the chart real coordinate frame
    (x_1, y_1, ..., x_n, y_n).
    """
    H = np.asarray(H)
    n = H.shape[-1]
    u = np.array([1.0, 1j])                    # dz on (d/dx, d/dy); dzbar is its conjugate
    M = H[..., :, None, :, None] * u[:, None, None] * u.conj()
    M = M.reshape(H.shape[:-2] + (2 * n, 2 * n))
    return (1j * (M - np.swapaxes(M, -1, -2))).real


def pullback_ddbar_many(basis: HarmonicBasis, pts) -> np.ndarray:
    """(1/k) Phi* omega_FS via the del-delbar route at many points: (P, 2n, 2n).

    The complex Hessian of log Q for the non-holomorphic weighted coefficients
    uses the full Wirtinger product rule; for holomorphic lifts it reduces to
    the familiar rank-one formula.
    """
    model = basis.model
    jets = product_jets(basis, np.atleast_2d(np.asarray(pts, dtype=float)), second=True)
    g = jets["val"]                                        # (dim, P)
    dz = jets["dz"]                                        # (n, dim, P)
    dzb = jets["dzb"]
    dzdzb = jets["dzdzb"]                                  # (n, n, dim, P)
    Q = np.sum(np.abs(g) ** 2, axis=0)                     # (P,)
    dbQ = (np.einsum("bjp,jp->bp", dzb, g.conj())
           + np.einsum("bjp,jp->bp", dz, g.conj()).conj())
    dQ = np.conj(dbQ)
    t1 = np.einsum("abjp,jp->abp", dzdzb, g.conj())
    t2 = np.einsum("bjp,ajp->abp", dzb, dzb.conj())
    t3 = np.einsum("ajp,bjp->abp", dz, dz.conj())
    t4 = np.einsum("jp,bajp->abp", g, dzdzb.conj())
    H = (t1 + t2 + t3 + t4) / Q - dQ[:, None, :] * dbQ[None, :, :] / Q**2
    return omega_form(model) + hermitian_to_real_form(np.moveaxis(H, -1, 0)) / (2.0 * np.pi * basis.k)


def product_density(basis: HarmonicBasis, points) -> np.ndarray:
    """kernel.density as sum_j |g_j|^2 over the full product basis."""
    return np.sum(np.abs(basis.values(np.atleast_2d(points))) ** 2, axis=0)


def product_kernel(basis: HarmonicBasis, x, y) -> complex:
    """kernel._kernel_pair's P(x,y) as sum_j g_j(x) conj(g_j(y)) over the full product basis."""
    v = basis.values(np.stack([np.asarray(x, dtype=float), np.asarray(y, dtype=float)]))
    return complex(np.sum(v[:, 0] * np.conj(v[:, 1])))


def product_ratio_profile(basis: HarmonicBasis, x, y, t_grid) -> np.ndarray:
    """kernel.ratio_profile from the full product basis's values on the segment
    and at y, in one table whose last column is y."""
    pts = _segment_points(basis.model, x, y, np.asarray(t_grid, dtype=float))
    V = basis.values(np.vstack([pts, basis.model.reduce(y)]))
    dens = np.sum(np.abs(V) ** 2, axis=0)
    num = np.abs(np.sum(V[:, :-1] * np.conj(V[:, -1:]), axis=0)) ** 2
    return num / (dens[:-1] * dens[-1])


class RemixedBasis:
    """The sections U @ (S_0, ..., S_{dim-1}) of a basis: for a generic U no
    longer a tensor product.  Only model, k, dim, values and jets are exposed,
    so a route that works factor by factor raises AttributeError on it instead
    of returning the unmixed basis's numbers."""

    def __init__(self, basis: HarmonicBasis, U: np.ndarray):
        self.model, self.k, self.dim = basis.model, basis.k, U.shape[0]
        self._basis, self._U = basis, U

    def values(self, points) -> np.ndarray:
        return self._U @ self._basis.values(points)

    def jets(self, points) -> dict[str, np.ndarray]:
        # U acts on the section axis, second to last in every jet array
        return {key: np.matmul(self._U, v) for key, v in self._basis.jets(points).items()}


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


def curvature_matrix(model: ProductModel, k: int = 1) -> np.ndarray:
    """Diagonal eigenvalue matrix of the curvature endomorphism for L^(tensor k).

    In the unit frame the eigenvalue on factor j is 2*k*lambda_j; the sign
    pattern matches the degrees and the matrix is constant over M.
    """
    return np.diag(2.0 * k * model.lambdas)


def phi_plus(m: int, tau: complex, z) -> np.ndarray:
    """Positive-degree weight pi*m*(Im z)^2/Im tau at level m."""
    z = np.asarray(z, dtype=complex)
    return np.pi * m * z.imag ** 2 / tau.imag


class NormalChart(NamedTuple):
    """Chart and gauge centered at a point p.

    In the frame 1_p = exp(g_p) * 1_global the power-k weight is exactly
    k * sum_t lambda_t |u_t|^2.  Per factor, for the unit power,
    g_p(u) = a0 + a1 u + a2 u^2 with a0 = phi0(p), a1 = 2 dphi0/dz (p),
    a2 = -lambda; powers scale all three by k.
    """

    model: ProductModel
    z0: np.ndarray          # chart coordinates of the basepoint, shape (n,)
    a0: np.ndarray          # real, shape (n,)
    a1: np.ndarray          # complex, shape (n,)
    a2: np.ndarray          # real, shape (n,)

    def gauge(self, u, k: int = 1) -> np.ndarray:
        """Holomorphic gauge exponent k*g_p(u), u in chart offsets (n,)."""
        u = np.asarray(u, dtype=complex)
        return k * (self.a0 + self.a1 * u + self.a2 * u * u).sum(axis=-1)


def normal_chart(model: ProductModel, p) -> NormalChart:
    """Chart at p in which the weight is exactly sum lambda_t |u_t|^2."""
    z0 = model.chart_z(model.reduce(p))
    T = np.array([f.im_tau for f in model.factors])
    d = np.array(model.degrees, dtype=float)
    return NormalChart(model=model, z0=z0, a0=np.pi * d * z0.imag ** 2 / T,
                       a1=-2j * np.pi * d * z0.imag / T, a2=-model.lambdas.astype(float))


def chart_kernel(basis: HarmonicBasis, chart: NormalChart, x, y) -> complex:
    """P(x,y) transported to the normal frame of `chart`: times the gauge phase
    exp(-i k Im g_p(u)) at x and its conjugate at y, x and y covering-space
    lattice coordinates on the same chart branch."""
    ux, uy = (basis.model.chart_z(np.asarray(q, float)) - chart.z0 for q in (x, y))
    gx, gy = (np.exp(-1j * np.imag(chart.gauge(u, basis.k))) for u in (ux, uy))
    return complex(_kernel_pair(basis, [x], y)[0][0] * gx * np.conj(gy))


def psi(model: ProductModel, z, w) -> np.ndarray:
    """Psi(z,w) of the quadratic phase model e^{ik Psi} b0 k^n in normal-chart
    offsets; Im Psi >= 0 with equality iff z=w."""
    z, w = np.asarray(z, dtype=complex), np.asarray(w, dtype=complex)
    lam = model.lambdas
    quad = np.sum(np.abs(lam) * np.abs(z - w) ** 2, axis=-1)
    cross = np.sum(lam * (np.conj(z) * w - z * np.conj(w)), axis=-1)
    return 1j * quad + 1j * cross


def lattice_phase(model: ProductModel, z, w) -> np.ndarray:
    """Phi(z,w) = -pi sum_t d_t Re(z_t - w_t) Im(z_t + w_t) / Im tau_t, the unit-power
    phase of the gamma = 0 lattice term in the global trivialization, at chart
    coordinates z and w."""
    z, w = np.asarray(z, dtype=complex), np.asarray(w, dtype=complex)
    d = np.array(model.degrees, dtype=float)
    return -np.pi * np.sum(d * np.real(z - w) * np.imag(z + w) / model.taus.imag, axis=-1)


def normal_weight(chart: NormalChart, u) -> np.ndarray:
    """Quadratic normal weight sum_t lambda_t |u_t|^2 (unit power) in chart offsets u."""
    u = np.asarray(u, dtype=complex)
    return np.sum(chart.model.lambdas * np.abs(u) ** 2, axis=-1)


def signature(model: ProductModel) -> tuple[int, int]:
    """(n_minus, n_plus) eigenvalue signs of the curvature matrix."""
    eig = np.diag(curvature_matrix(model))
    if np.any(eig == 0.0):
        raise ValueError("degenerate curvature: zero eigenvalue")
    return int(np.sum(eig < 0)), int(np.sum(eig > 0))


def distance(model: ProductModel, x, y) -> float:
    """Geodesic distance under g: minimum over lattice translates."""
    d = model.centered(model.check_point(x) - model.check_point(y))
    shifts = np.array([-1.0, 0.0, 1.0])
    dz = np.empty(model.n, dtype=complex)
    for t, tau in enumerate(model.taus):
        cand = ((d[2 * t] + shifts[:, None]) + tau * (d[2 * t + 1] + shifts[None, :])).reshape(-1)
        dz[t] = cand[np.argmin(np.abs(cand))]
    return float(np.sqrt(2.0 * np.sum(np.abs(dz) ** 2)))


def fmt17(x) -> str:
    """Format a float with 17 significant digits."""
    return format(float(x), ".17g")


def lstsq_fit_line(x, y) -> SlopeFit:
    """Least-squares line y = intercept + slope * x by LAPACK's solve of the
    (len(x), 2) design matrix."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    A = np.stack([np.ones_like(x), x], axis=1)
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    return SlopeFit(slope=float(coef[1]), intercept=float(coef[0]),
                    residual=float(np.max(np.abs(y - A @ coef))))
