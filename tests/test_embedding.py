import math
import tracemalloc

import numpy as np
import pytest

import _oracles
from _oracles import (RemixedBasis, evaluate_combination, expand_form_fields, hermitian_to_real_form,
                      normal_frame_first_jets, phi, product_grid, project_coefficients)
from torusbergman.basis import HarmonicBasis, build_basis
from torusbergman.config import parse_config
from torusbergman.embedding import ProjectivePoint, differential, fs_distance, injectivity_scan, well_defined_check
from torusbergman.experiment import run
from torusbergman.geometry import ProductModel, TorusFactor, factor_volume, omega
from torusbergman.kernel import density, leading_coefficient, trace_density
from torusbergman.pullback import (
    _normal_frame_first_jets,
    convergence_report,
    derivative_sums,
    pullback_ddbar_many,
    pullback_jacobian_many,
)
from torusbergman.util import Draws

TAU = 1j


def model(*degrees, tau=TAU):
    return ProductModel.from_factors([TorusFactor(tau, d) for d in degrees])


def haar_unitary(n, rng):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestPhi:
    def test_scalar_rescale_gives_same_projective_point(self):
        b = build_basis(model(-1), 8)
        z = np.array([0.3, 0.4])
        p = phi(b, z)
        q = ProjectivePoint(homogeneous=(0.3 - 1.7j) * p.homogeneous)
        assert fs_distance(p, q) <= 1e-12

    def test_degenerate_single_section_target(self):
        b = build_basis(model(1), 1)
        p = phi(b, np.array([0.2, 0.9]))   # CP^0: a single point, no error
        assert p.homogeneous.shape == (1,)

    def test_lift_norm_squared_is_density(self):
        b = build_basis(model(-1), 8)
        rng = np.random.default_rng(4)
        for z in rng.random((16, 2)):
            p = phi(b, z)
            assert np.linalg.norm(p.homogeneous) ** 2 == pytest.approx(density(b, z), rel=1e-12)
        # min over the full 64^2 grid of the lift norm stays positive
        assert _oracles.full_grid_density(b, 0, 64).min() > 0

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            ProjectivePoint(homogeneous=np.zeros(3, dtype=complex))


class TestFsDistance:
    def test_self_distance_zero(self):
        v = ProjectivePoint(np.array([1.0, 2j, -0.5]))
        assert fs_distance(v, v) == 0

    def test_orthogonal_points(self):
        a = ProjectivePoint(np.array([1.0, 0.0], dtype=complex))
        b = ProjectivePoint(np.array([0.0, 1.0], dtype=complex))
        assert fs_distance(a, b) == pytest.approx(np.pi / 2)

    def test_invariant_under_rescalings(self):
        rng = np.random.default_rng(1)
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        w = rng.normal(size=4) + 1j * rng.normal(size=4)
        d0 = fs_distance(ProjectivePoint(v), ProjectivePoint(w))
        d1 = fs_distance(ProjectivePoint(2.3j * v), ProjectivePoint(-0.7 * w))
        assert d0 == pytest.approx(d1, abs=1e-12)


class TestWellDefined:
    def test_ratio_near_one_for_k_at_least_8(self):
        for degs, k in [((-1,), 8), ((-1,), 16), ((-2,), 8), ((-1, 1), 8), ((-1, 2), 8)]:
            b = build_basis(model(*degs), k)
            rep = well_defined_check(b, 32)
            assert 0.9 <= rep.min_ratio <= 1.1

    def test_ratio_increases_toward_one(self):
        m = model(-1)
        ratios = [well_defined_check(build_basis(m, k), 32).min_ratio for k in (4, 8, 12, 16)]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        assert abs(ratios[-1] - 1) < 1e-6

    def test_truncated_basis_positive_but_not_reproducing(self):
        # keep the first half of the sections: their density stays positive on
        # the grid, but projecting onto them loses a dropped section
        b = build_basis(model(-1), 8)
        keep = b.dim // 2
        N = 64
        g = (np.arange(N) + 0.5) / N
        pts = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
        vals = b.values(pts)
        assert np.min(np.sum(np.abs(vals[:keep]) ** 2, axis=0)) > 0
        dropped = vals[-1]
        c = project_coefficients(b, dropped, N)
        c[keep:] = 0.0
        rec = evaluate_combination(b, c, pts)
        assert np.linalg.norm(rec - dropped) / np.linalg.norm(dropped) > 0.5


class TestInjectivity:
    def test_exhaustive_scan_single_factor(self):
        b = build_basis(model(-1), 12)
        rep = injectivity_scan(b, grid_n=64)
        assert rep.min_fs_distance > 0
        assert rep.offending_pair is None
        assert rep.near_diagonal_alpha > 0

    def test_near_diagonal_distance_is_order_one_in_k(self):
        m = model(-1)
        ds = []
        for k in (8, 16, 24, 32):
            b = build_basis(m, k)
            p = np.array([0.3, 0.4])
            step = 1.0 / np.sqrt(2.0 * k)   # g-distance 1/sqrt(k)
            q = p + np.array([step, 0.0])
            ds.append(fs_distance(phi(b, p), phi(b, q)))
        ds = np.array(ds)
        assert ds.max() / ds.min() < 1.5
        assert 0.05 < ds.min() and ds.max() < np.pi / 2 - 0.05

    def test_collision_detected_for_rank_deficient_basis(self):
        # at k = 2 the two level-2 theta functions are even, so the lift takes
        # the same value at z and -z: a 2:1 map, which the scan must catch
        b = build_basis(model(-1), 2)
        rep = injectivity_scan(b, grid_n=16)
        assert rep.min_fs_distance < 1e-10
        assert rep.offending_pair is not None
        x1, x2 = rep.offending_pair
        assert np.allclose(np.cos(2 * np.pi * (x1 + x2)), 1.0)     # x2 = -x1 mod the lattice

    @pytest.mark.parametrize("factors, k", [
        ([(TAU, -1)], 8), ([(0.3 + 1.2j, 2)], 3),
        ([(TAU, -1), (TAU, 1)], 4), ([(0.3 + 1.2j, -1), (-0.2 + 0.9j, 2)], 5), ([(TAU, -2), (TAU, 1)], 3),
        ([(TAU, -1), (TAU, 1), (TAU, 1)], 3), ([(0.25 + 1.1j, 1), (TAU, -2), (-0.4 + 0.8j, -1)], 2)])
    def test_profile_matches_product_lifts(self, factors, k):
        # the Segre profile from factor tables against fs_distance on the
        # (dim, 24) product lifts of the same points, at all three delta
        # scales.  Over 40 seeds of these models and three more (k up to 16)
        # the worst relative gap was 7.3e-16; one factor is bit for bit.
        b = build_basis(ProductModel.from_factors([TorusFactor(tau, d) for tau, d in factors]), k)
        tabulate = b.factor_values
        for seed in range(3):
            seen = []
            b.factor_values = lambda pts: tabulate(seen.append(pts) or pts)
            rep = injectivity_scan(b, grid_n=4, rng=Draws(seed))
            assert len(seen) == 1 and seen[0].shape == (24, 2 * b.model.n)
            lifts = b.values(seen[0])
            want = [fs_distance(ProjectivePoint(lifts[:, i]), ProjectivePoint(lifts[:, i + 1]))
                    for i in range(0, 24, 2)]
            scales, got = np.array(rep.near_diagonal).T
            assert scales == pytest.approx(np.repeat([0.5, 1.0, 2.0], 4), rel=1e-15)
            if b.model.n == 1:
                assert got.tolist() == want
            else:
                assert np.max(np.abs(got - want) / want) <= 1e-15
            assert rep.near_diagonal_alpha == np.min(got / scales)


class TestFactorRoutesMatchProductGrid:
    """well_defined_check, injectivity_scan and trace_density work factor by
    factor; on the full N^4 product grid the product route must give the same
    numbers.  Re tau != 0 and unequal levels, so no symmetry hides a swap."""

    N = 6

    @pytest.fixture(scope="class")
    def product_grid(self):
        m = ProductModel.from_factors([TorusFactor(0.3 + 1.1j, -1), TorusFactor(TAU, 2)])
        b = build_basis(m, 3)
        g = (np.arange(self.N) + 0.5) / self.N
        pts = np.stack(np.meshgrid(g, g, g, g, indexing="ij"), axis=-1).reshape(-1, 4)
        return b, pts, b.values(pts)

    def test_density_floor(self, product_grid):
        b, pts, _ = product_grid
        want = density(b, pts).min() / (leading_coefficient(b.model) * b.k ** 2)
        assert well_defined_check(b, self.N).min_ratio == pytest.approx(want, rel=1e-12, abs=0)

    def test_min_fs_distance(self, product_grid):
        b, _, V = product_grid
        U = V / np.linalg.norm(V, axis=0)
        C = np.abs(U.conj().T @ U)
        np.fill_diagonal(C, -1.0)
        i, j = np.unravel_index(np.argmax(C), C.shape)
        want = fs_distance(ProjectivePoint(V[:, i]), ProjectivePoint(V[:, j]))
        assert injectivity_scan(b, self.N).min_fs_distance == pytest.approx(want, rel=1e-12, abs=0)

    def test_trace_quadrature(self, product_grid):
        # the trace's product of grid_gram sums, on a side that both levels divide
        # and fine enough that the aliased pairs it leaves out are below rounding
        b, N = product_grid[0], 18
        g = (np.arange(N) + 0.5) / N
        pts = np.stack(np.meshgrid(g, g, g, g, indexing="ij"), axis=-1).reshape(-1, 4)
        dv = np.prod([factor_volume(f) / N**2 for f in b.model.factors])
        want = float(np.sum(density(b, pts))) * dv
        got = np.prod([b.grid_gram(t, N).sum() for t in range(b.model.n)])
        assert got == pytest.approx(want, rel=1e-12, abs=0)

    def test_remixed_basis_refused(self, product_grid, monkeypatch):
        # a remixed basis is no tensor product: the factor routes cannot read it
        from torusbergman import basis as basis_mod

        b = product_grid[0]
        fake = RemixedBasis(b, haar_unitary(b.dim, np.random.default_rng(4)))
        for route in (well_defined_check, injectivity_scan):
            with pytest.raises(AttributeError):
                route(fake, self.N)
        with pytest.raises(AttributeError):
            trace_density(fake)
        for route in (pullback_jacobian_many, pullback_ddbar_many):
            with pytest.raises(AttributeError):
                route(fake, np.array([0.3, 0.1, 0.7, 0.2]))
        monkeypatch.setattr(basis_mod, "build_basis", lambda model, k, eps=1e-12: fake)
        with pytest.raises(AttributeError):
            convergence_report(b.model, [3, 4, 5, 6], grid_n=2)


class TestPeriodRoutes:
    """A7 reads one period of each factor's half-offset grid: the density
    minimum over the first N / gcd(N, m) points of each axis, and the FS scan
    over the rows with both indices below that against all N^2 columns.  Each
    is checked against the full-grid oracle it replaces, on g = gcd(N, m) = 1,
    1 < g < N and g = N.  Measured over these cases: min_fs within 1.55e-13
    relative (at m = 96), the best overlap within 9.6e-15, the density floor
    within 1.6e-15 relative."""

    CASES = [([(TAU, -1)], 64, 64), ([(0.3 + 1.2j, -1)], 40, 64), ([(0.3 + 1.2j, 2)], 48, 64),
             ([(TAU, -1)], 6, 64), ([(0.1 + 0.7j, -3)], 10, 30), ([(TAU, 1)], 7, 64),
             ([(0.3 + 1.2j, 1)], 9, 9), ([(TAU, -2)], 20, 32),
             ([(0.3 + 1.2j, -1), (-0.2 + 0.9j, 2)], 12, 24), ([(0.3 + 1.1j, -1), (TAU, 2)], 5, 30)]

    @pytest.mark.parametrize("factors, k, N", CASES)
    def test_matches_full_grid(self, factors, k, N):
        from torusbergman.embedding import _factor_min_fs
        from torusbergman.theta import half_offset

        b = build_basis(ProductModel.from_factors([TorusFactor(tau, d) for tau, d in factors]), k)
        floor, min_fs = 1.0, np.inf
        for t in range(b.model.n):
            floor *= _oracles.full_grid_density(b, t, N).min()
            best, dist, _ = _oracles.full_scan(b, t, N)
            min_fs = min(min_fs, dist)
            # the period route's pair, read back on the oracle's full table
            V = b.grid_table(t, half_offset(N))
            V /= np.linalg.norm(V, axis=0)
            i, j = np.rint(np.array(_factor_min_fs(b, t, N)[1]) * N - 0.5).astype(int) @ [N, 1]
            assert i != j and abs(abs(np.vdot(V[:, i], V[:, j])) - best) <= 2e-14
        floor /= leading_coefficient(b.model) * k ** b.model.n
        assert well_defined_check(b, N).min_ratio == pytest.approx(floor, rel=2e-15, abs=0)
        assert injectivity_scan(b, N).min_fs_distance == pytest.approx(min_fs, rel=2e-13, abs=0)

    @pytest.mark.parametrize("m, N", [(7, 8), (6, 8), (12, 24), (5, 10), (9, 9), (16, 12)])
    def test_scan_reads_every_row_of_the_period(self, m, N):
        # theta's overlaps are near-uniform along the grid, so a scan that
        # skipped rows of the period would still find their maximum to
        # rounding; on a random table with only the symmetry's invariance the
        # best pair can start at any row.  As on the sections, the shift by
        # p = N / g along a multiplies member j by exp(2 pi i j / g), and
        # along b rolls the members by m / g
        from types import SimpleNamespace

        from torusbergman.embedding import _factor_min_fs

        g = math.gcd(N, m)
        p = N // g
        rng = np.random.default_rng(m * N)
        first = rng.normal(size=(m, p, p)) + 1j * rng.normal(size=(m, p, p))
        table = np.empty((m, N, N), dtype=complex)
        for s in range(g):
            for u in range(g):
                table[:, s * p:(s + 1) * p, u * p:(u + 1) * p] = (
                    np.roll(first, u * m // g, axis=0) * np.exp(2j * np.pi * s * np.arange(m) / g)[:, None, None])
        fake = SimpleNamespace(factor_sets=(SimpleNamespace(level=m),),
                               grid_table=lambda t, x: table[:, :len(x), :len(x)].reshape(m, -1).copy())
        dist = _factor_min_fs(fake, 0, N)[0]
        assert dist == pytest.approx(_oracles.full_scan(fake, 0, N)[1], rel=1e-12, abs=0)

    def test_one_factor_embed_ladder_200_to_800(self):
        # embed reads the first and last rungs, k = 200 (g = 8) and k = 800
        # (g = 32) at N = 64: 0.17 s on 2 cores, against 32 s for the full
        # scan; A7 passes
        cfg = parse_config("factor = 0.0 1.0 -1\nk_ladder = 200 400 600 800\nseed = 1\nexperiments = embed\n")
        (a7,) = run(cfg).criteria
        assert a7["criterion_id"] == "A7" and a7["pass"]


class TestDifferential:
    def test_full_rank_at_random_points(self):
        rng = np.random.default_rng(2)
        for degs, k in [((-1,), 12), ((-1, 1), 6)]:
            m = model(*degs)
            b = build_basis(m, k)
            assert b.dim > 2 * m.n
            for _ in range(50):
                d = differential(b, rng.random(2 * m.n))
                assert d.rank == 2 * m.n

    def test_matches_finite_differences(self):
        m = model(-1, 1)
        b = build_basis(m, 3)
        z = np.array([0.31, 0.41, 0.13, 0.77])
        d = differential(b, z)
        h = 1e-6
        for t in range(m.n):
            tau = m.taus[t]
            # recover complex derivatives from the chart real partials
            dz = d.partials[2 * t] / 2.0 - 0.5j * d.partials[2 * t + 1]
            dzb = d.partials[2 * t] / 2.0 + 0.5j * d.partials[2 * t + 1]
            for col in (2 * t, 2 * t + 1):   # lattice directions a_t, b_t
                e = np.zeros(4)
                e[col] = h
                fd = (b.values(z + e)[:, 0] - b.values(z - e)[:, 0]) / (2 * h)
                if col % 2 == 0:
                    want = dz + dzb                 # d/da = d/dz + d/dzbar
                else:
                    want = tau * dz + np.conj(tau) * dzb
                err = np.linalg.norm(fd - want) / max(np.linalg.norm(want), 1e-30)
                assert err < 1e-6

    def test_degenerate_target_rank_zero(self):
        b = build_basis(model(1), 1)
        d = differential(b, np.array([0.4, 0.3]))
        assert d.rank == 0

    @pytest.mark.parametrize("degs, k, rank", [((-1,), 12, 2), ((-1, 1), 4, 4), ((-1, 1), 16, 4),
                                               ((1,), 1, 0)])
    def test_stacked_ranks_match_single_points(self, degs, k, rank):
        # _rank's rule on 50 points' stacked product jets, against one point at a time
        from torusbergman.embedding import _rank, _real_partials

        b = build_basis(model(*degs), k)
        pts = np.random.default_rng(17).random((50, 2 * b.model.n))
        jets = b.jets(pts)
        ranks = _rank(_real_partials(jets["dz"], jets["dzb"]), jets["val"].T)
        assert ranks.tolist() == [differential(b, p).rank for p in pts] == [rank] * 50

    @pytest.mark.parametrize("factors, k, rank", [
        ([(TAU, -1), (TAU, 1)], 4, 4), ([(TAU, -1), (TAU, 1), (TAU, 1)], 3, 6),
        ([(TAU, -2), (TAU, 1)], 3, 4), ([(0.3 + 1.2j, -1), (-0.2 + 0.9j, 2)], 5, 4),
        ([(TAU, -5), (TAU, 1)], 1, 2)])     # the degree-1 factor at k = 1 maps to a point
    def test_factor_ranks_match_product_route(self, factors, k, rank):
        # factor jet tables against the one-point product route
        from torusbergman.embedding import _rank_many

        b = build_basis(ProductModel.from_factors([TorusFactor(tau, d) for tau, d in factors]), k)
        pts = np.random.default_rng(k).random((50, 2 * b.model.n))
        assert _rank_many(b, pts).tolist() == [differential(b, p).rank for p in pts] == [rank] * 50

    @staticmethod
    def _embed_scan(cfg_name, out):
        from pathlib import Path

        from torusbergman.report import emit_report

        cfg_path = Path(__file__).resolve().parents[1] / "configs" / cfg_name
        emit_report(run(parse_config(cfg_path.read_text()), experiments=("embed",)), out)
        return (out / "embed_scan.csv").read_text()

    def test_embed_scan_bytes_unchanged(self, tmp_path):
        # embed_scan.csv of configs/sig11_smoke.cfg as the per-point rank loop
        # and the product-table profile wrote it: the 50-point draw keeps the
        # seeded stream that the second rung's injectivity scan reads next; the
        # min_fs cells as fs_distance's numpy-sum norms and overlap round them
        assert self._embed_scan("sig11_smoke.cfg", tmp_path) == (
            "k,min_ratio,min_fs,alpha,rank_ok\n"
            "4,0.98626893811761096,0.33420298317881564,0.60935989036592897,1\n"
            "10,0.99999881755223541,0.54595119762724664,0.76282686569756208,1\n")

    def test_one_factor_embed_scan_bytes_unchanged(self, tmp_path):
        # configs/sig10_embed.cfg has one factor, so the Segre profile is
        # fs_distance on the same lifts: the product-table alpha, bit for bit
        assert self._embed_scan("sig10_embed.cfg", tmp_path) == (
            "k,min_ratio,min_fs,alpha,rank_ok\n"
            "4,0.99311073809400074,0.3704438928264685,0.48214109104947528,1\n"
            "16,0.99999999999999978,0.74772005025636179,0.76378209402583264,1\n")


class TestTwoRowRank:
    # the closed-form rank of two rows against the SVD rule of _rank, on the
    # same (P, 2, dim) partials and (P, dim) lifts: the ranks match exactly
    @staticmethod
    def _both(V, w):
        from torusbergman.embedding import _rank, _two_row_rank

        return _two_row_rank(V, w).tolist(), _rank(V, w).tolist()

    @staticmethod
    def _frame(rng, P, dim):
        """Per point a random lift w and two real-orthonormal rows e1, e2, both
        complex-orthogonal to w, by Gram-Schmidt on the stacked real parts."""
        w = rng.normal(size=(P, dim)) + 1j * rng.normal(size=(P, dim))
        rows = []
        for _ in range(2):
            e = rng.normal(size=(P, dim)) + 1j * rng.normal(size=(P, dim))
            for u in [w, 1j * w, *rows]:
                e = e - (np.sum((e * u.conj()).real, axis=1) / np.sum(np.abs(u) ** 2, axis=1))[:, None] * u
            rows.append(e / np.sqrt(np.sum(np.abs(e) ** 2, axis=1))[:, None])
        return w, rows

    @pytest.mark.parametrize("factors, k", [([(TAU, -1), (TAU, 1)], 4), ([(0.3 + 1.2j, -1), (-0.2 + 0.9j, 2)], 5),
                                            ([(TAU, -5), (TAU, 1)], 1), ([(TAU, 3)], 2)])
    def test_random_factor_jets(self, factors, k):
        from torusbergman.embedding import _real_partials

        b = build_basis(ProductModel.from_factors([TorusFactor(tau, d) for tau, d in factors]), k)
        z = b.model.chart_z(np.random.default_rng(k).random((200, 2 * b.model.n)))
        for t, s in enumerate(b.factor_sets):
            tab = b.factor_tables(t, z[:, t], "d1")
            two, svd = self._both(_real_partials(tab["z"][None], tab["zb"][None]), tab["v"].T)
            assert two == svd == [2 if s.level > 1 else 0] * 200

    def test_random_rows(self):
        rng = np.random.default_rng(1)
        V = (rng.normal(size=(300, 2, 6)) + 1j * rng.normal(size=(300, 2, 6))) * 10.0 ** rng.uniform(-3, 3, (300, 2, 1))
        w = rng.normal(size=(300, 6)) + 1j * rng.normal(size=(300, 6))
        two, svd = self._both(V, w)
        assert two == svd == [2] * 300

    def test_zero_row_and_zero_rows(self):
        rng = np.random.default_rng(2)
        w, (e1, e2) = self._frame(rng, 50, 5)
        V = np.stack([3.0 * e1, 0.0 * e2], axis=1)
        assert self._both(V, w) == self._both(V[:, ::-1], w) == ([1] * 50, [1] * 50)
        assert self._both(0.0 * V, w) == ([0] * 50, [0] * 50)

    def test_parallel_rows(self):
        # real multiples only: i a is real-orthogonal to a and counts twice
        rng = np.random.default_rng(3)
        w, (e1, e2) = self._frame(rng, 50, 5)
        c = rng.uniform(-4, 4, size=(50, 1))
        assert self._both(np.stack([e1, c * e1], axis=1), w) == ([1] * 50, [1] * 50)
        assert self._both(np.stack([e1, 1j * e1], axis=1), w) == ([2] * 50, [2] * 50)

    def test_row_along_the_lift(self):
        rng = np.random.default_rng(4)
        w, (e1, e2) = self._frame(rng, 50, 5)
        along = (2.0 - 0.5j) * w + 1e-3 * e1
        assert self._both(np.stack([e2, (0.7 + 1.1j) * w], axis=1), w) == ([1] * 50, [1] * 50)
        assert self._both(np.stack([along, 0.3 * w], axis=1), w) == ([1] * 50, [1] * 50)

    @pytest.mark.parametrize("f, rank", [(0.5, 1), (2.0, 2), (0.9, 1), (1.1, 2)])
    def test_second_value_either_side_of_the_tolerance(self, f, rank):
        # singular values s1 and s2 = f * _RANK_TOL * max(s1, |w|), mixed by a
        # random rotation of the two rows, which leaves them as they are
        from torusbergman.embedding import _RANK_TOL

        rng = np.random.default_rng(5)
        w, (e1, e2) = self._frame(rng, 100, 7)
        w = w * 10.0 ** rng.uniform(-2, 2, (100, 1))
        s1 = 10.0 ** rng.uniform(-2, 2, (100, 1))
        s2 = f * _RANK_TOL * np.maximum(s1, np.sqrt(np.sum(np.abs(w) ** 2, axis=1, keepdims=True)))
        a = rng.uniform(0, 2 * np.pi, (100, 1))
        V = np.stack([np.cos(a) * s1 * e1 - np.sin(a) * s2 * e2, np.sin(a) * s1 * e1 + np.cos(a) * s2 * e2], axis=1)
        assert self._both(V, w) == ([rank] * 100, [rank] * 100)


class TestPullback:
    def test_degree_calibration_positive_curve(self):
        # theta embedding of a degree-1 curve at k=3 into CP^2
        m = model(1)
        b = build_basis(m, 3)
        N = 48
        g = (np.arange(N) + 0.5) / N
        pts = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
        F = pullback_jacobian_many(b, pts)
        integral = 3.0 * F[:, 0, 1].mean() * TAU.imag
        assert integral == pytest.approx(3.0, abs=1e-6)

    def test_antisymmetry(self):
        b = build_basis(model(-1, 1), 4)
        F = pullback_jacobian_many(b, np.array([0.3, 0.1, 0.7, 0.2]))[0]
        assert np.max(np.abs(F + F.T)) < 1e-12

    def test_unitary_composition_invariance(self):
        b = build_basis(model(-1), 8)
        rng = np.random.default_rng(7)
        U = haar_unitary(b.dim, rng)
        z = np.array([0.21, 0.67])
        F0 = pullback_jacobian_many(b, z)[0]
        F1 = _oracles.pullback_jacobian_many(RemixedBasis(b, U), z)[0]   # the product route reads any basis
        assert np.max(np.abs(F0 - F1)) < 1e-12

    def test_projective_gauge_invariance(self):
        # multiply the lift by a smooth nonvanishing scalar field: form unchanged
        from torusbergman.embedding import _real_partials

        b = build_basis(model(-1), 6)
        z = np.atleast_2d(np.array([0.3, 0.4]))
        jets = b.jets(z)
        w = jets["val"][:, 0]
        V = _real_partials(jets["dz"], jets["dzb"])[0]
        rng = np.random.default_rng(3)
        chi = complex(*rng.normal(size=2))
        dchi = rng.normal(size=2) + 1j * rng.normal(size=2)   # d(chi)/dx_a

        def fs_form(w, V, k):
            nrm2 = np.vdot(w, w).real
            vw = V @ w.conj()
            vv = V @ V.conj().T
            num = np.outer(vw, vw.conj()) - vv * nrm2
            F = np.imag(num) / (np.pi * nrm2**2) / k
            return 0.5 * (F - F.T)

        F0 = fs_form(w, V, b.k)
        Vg = chi * V + dchi[:, None] * w[None, :]
        F1 = fs_form(chi * w, Vg, b.k)
        assert np.max(np.abs(F0 - F1)) < 1e-10 * max(1.0, np.max(np.abs(F0)))

    def test_methods_agree_for_holomorphic_map(self):
        b = build_basis(model(1), 3)
        rng = np.random.default_rng(11)
        pts = rng.random((10, 2))
        gap = np.max(np.abs(pullback_jacobian_many(b, pts) - pullback_ddbar_many(b, pts)))
        assert gap < 1e-8

    def test_omega_term_alone_reproduces_omega(self):
        # for large k the correction term dies; the base term is exactly omega
        m = model(-1)
        w0 = omega(m)
        b = build_basis(m, 24)
        F = pullback_ddbar_many(b, np.array([0.3, 0.8]))[0]
        assert np.max(np.abs(F - w0)) < 1e-9

    def test_correction_term_bounded_by_c_over_k(self):
        m = model(-1)
        rng = np.random.default_rng(5)
        pts = rng.random((32, 2))
        w0 = omega(m)
        sup = []
        for k in (4, 6, 8, 10):
            b = build_basis(m, k)
            F = pullback_ddbar_many(b, pts)
            sup.append(np.max(np.abs(F - w0)))
        sup = np.array(sup)
        assert np.all(sup * np.arange(4, 11, 2) < sup[0] * 4 + 1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_hermitian_to_real_form_stacks(self, n):
        rng = np.random.default_rng(n)
        A = rng.normal(size=(5, 3, n, n)) + 1j * rng.normal(size=(5, 3, n, n))
        H = A + np.conj(np.swapaxes(A, -1, -2))
        F = hermitian_to_real_form(H)
        assert F.shape == (5, 3, 2 * n, 2 * n)
        # the earlier single-matrix route: dz_a and dzbar_b as rows on (x, y) directions
        Aa = np.zeros((n, 2 * n), dtype=complex)
        Ab = np.zeros((n, 2 * n), dtype=complex)
        for c in range(n):
            Aa[c, 2 * c:2 * c + 2] = (1.0, 1j)
            Ab[c, 2 * c:2 * c + 2] = (1.0, -1j)
        for i in range(5):
            for j in range(3):
                single = hermitian_to_real_form(H[i, j])
                assert np.array_equal(F[i, j], single)
                M = Aa.T @ H[i, j] @ Ab
                assert np.max(np.abs(single - (1j * (M - M.T)).real)) <= 1e-15 * np.max(np.abs(H))

    def test_closedness_of_sampled_field(self):
        # discrete exterior derivative of the 2-form field vanishes (n=2)
        m = model(-1, 1)
        b = build_basis(m, 8)
        N = 6
        g = (np.arange(N) + 0.5) / N
        pts = np.stack([a.ravel() for a in np.meshgrid(*(g,) * 4, indexing="ij")], axis=1)
        F = pullback_jacobian_many(b, pts).reshape(N, N, N, N, 4, 4)
        dmax = 0.0
        for a in range(4):
            for bb in range(a + 1, 4):
                for c in range(bb + 1, 4):
                    term = ((np.roll(F, -1, axis=a) - np.roll(F, 1, axis=a))[..., bb, c]
                            + (np.roll(F, -1, axis=bb) - np.roll(F, 1, axis=bb))[..., c, a]
                            + (np.roll(F, -1, axis=c) - np.roll(F, 1, axis=c))[..., a, bb])
                    dmax = max(dmax, float(np.max(np.abs(term * N / 2.0))))
        assert dmax < 1e-2   # ripple-scale derivative at k=8; omega term is exact


class TestConvergence:
    def test_signature_10_rate(self):
        rep = convergence_report(model(-1), [4, 6, 8, 10, 12, 14, 16], grid_n=9)
        assert -rep.slopes["ddbar_log"].slope >= 0.8
        e = rep.errors["jacobian"]
        assert np.all(np.diff(e[len(e) // 2:]) < 0)

    def test_signature_11_rate_and_signature_preservation(self):
        m = model(-1, 1)
        rep = convergence_report(m, [4, 6, 8, 10], grid_n=4)
        assert -rep.slopes["ddbar_log"].slope >= 0.8
        assert rep.errors["jacobian"][-1] < 1e-4
        b = build_basis(m, 10)
        rng = np.random.default_rng(9)
        for p in rng.random((10, 4)):
            F = pullback_jacobian_many(b, p)[0]
            assert F[0, 1] < 0 and F[2, 3] > 0
            assert abs(np.linalg.det(F)) > 1e-6

    def test_identity_control_zero_error(self):
        w0 = omega(model(-1, 1))
        assert np.max(np.abs(w0 - w0)) == 0.0

    def test_short_ladder_rejected(self):
        with pytest.raises(ValueError):
            convergence_report(model(-1), [4, 6, 8], grid_n=5)

    def test_float_floor_is_not_a_rise(self):
        # E(k) reaches the float floor at k = 24 and then wobbles there
        rep = convergence_report(model(-1), [16, 20, 24, 28, 32], grid_n=9)
        assert rep.floor == 1e-12
        for m in ("jacobian", "ddbar_log"):
            assert np.all(rep.errors[m][2:] <= rep.floor)
        cfg = parse_config("factor = 0.0 1.0 -1\nk_ladder = 16 20 24 28 32\nexperiments = pullback\n")
        rep = run(cfg)    # A8's jacobian monotonicity check is floor-aware too
        assert rep.passed and not rep.warnings

    def test_a8_rate_is_fitted_above_the_float_floor(self, monkeypatch):
        # E(k) is 2.4e-9 and 5.7e-12 at k = 16, 20 and at the floor from k = 24,
        # so a fit over the top half of the ladder reads beta = -0.83
        cfg = parse_config("factor = 0.0 1.0 -1\nk_ladder = 16 20 24 28 32 36 40 44 48\n"
                           "experiments = pullback\n")
        (a8,) = run(cfg).criteria
        assert a8["pass"] and "k = [24, 28, 32, 36, 40, 44, 48]" in a8["description"]
        # control: a basis that ignores k keeps E(k) constant above the floor
        from torusbergman import basis as basis_mod

        build = basis_mod.build_basis
        monkeypatch.setattr(basis_mod, "build_basis", lambda model, k, eps=1e-12: build(model, 4, eps=eps))
        (a8,) = run(cfg).criteria
        assert not a8["pass"] and abs(a8["measured"]) < 1e-6

    @pytest.mark.parametrize("factors, ks, grid_n", [
        (((1j, -1), (1j, 1)), (4, 8, 12, 16), 4),
        (((0.3 + 1.1j, -1), (1j, 1), (-0.2 + 0.9j, 1)), (2, 3, 4, 5), 3),
        (((1j, -2), (0.25 + 1.5j, 1)), (4, 8, 12, 16), 4),
    ])
    def test_factor_fields_match_product_route(self, factors, ks, grid_n):
        # the Segre identity: the kept factor fields on the product of the
        # factor grids, fields made at a cloud, and the public
        # pullback_*_many at the cloud, against the product route on the full
        # product basis (tests/_oracles.py)
        from torusbergman.pullback import _factor_forms

        m = ProductModel.from_factors([TorusFactor(tau, d) for tau, d in factors])
        n2 = 2 * m.n
        cross = np.arange(n2)[:, None] // 2 != np.arange(n2)[None, :] // 2
        rep = convergence_report(m, ks, grid_n=grid_n)
        q = grid_n ** 2
        assert rep.grid.shape == (q, 2)
        grid = product_grid(rep.grid, m.n)
        cloud = np.random.default_rng(3).random((40, n2))
        routes = {"jacobian": (pullback_jacobian_many, _oracles.pullback_jacobian_many),
                  "ddbar_log": (pullback_ddbar_many, _oracles.pullback_ddbar_many)}
        for k in ks:
            b = build_basis(m, k)
            for method, (public, product) in routes.items():
                made = [_factor_forms(b, t, cloud[:, 2 * t:2 * t + 2], (method,))[method] for t in range(m.n)]
                for pts, field in ((grid, expand_form_fields([f[:q] for f in rep.fields[(method, k)]], q)),
                                   (cloud, expand_form_fields(made)),
                                   (cloud, public(b, cloud))):
                    want = np.concatenate([product(b, pts[i:i + 128]) for i in range(0, len(pts), 128)])
                    assert np.max(np.abs(field - want)) <= 1e-12, (method, k)
                    assert np.all(field[:, cross] == 0.0)

    def test_report_holds_no_product_size_field(self):
        # embed_sig11's model, ladder and scan, whose 14 product fields of shape
        # (4096, 4, 4) would hold 7.3 MB; nor does a pullback block hold a
        # P-length array of values
        from torusbergman.report import IndexedColumn

        m = model(-1, 1)
        ks = [4, 6, 8, 10, 12, 14, 16]
        convergence_report(m, ks[:4], grid_n=2)       # warm the imports and caches
        tracemalloc.start()
        try:
            rep = convergence_report(m, ks, grid_n=8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6, peak
        assert rep.grid.shape == (64, 2)
        assert all(f.shape == (64 + 128,) for f in rep.fields[("ddbar_log", 16)])
        cfg = parse_config("factor = 0.0 1.0 -1\nfactor = 0.0 1.0 1\nk_ladder = 4 6 8 10 12 14 16\n"
                           "embed_grid_n = 8\nexperiments = pullback\n")
        header, blocks = run(cfg).tables["pullback"]
        assert len(blocks) == 14
        for block in blocks:
            assert len(block) == len(header) - 2          # the grid columns hold 2 cells each
            for v in block:
                assert isinstance(v, (IndexedColumn, int, str, float)), type(v)
                if isinstance(v, IndexedColumn):
                    assert len(v) == 8 ** 4 and len(v.values) <= 2 * 64

    def test_factor_forms_once_per_factor_and_rung(self, monkeypatch):
        # one _factor_forms call per (rung, factor), both routes at once, not
        # one per (method, rung, factor): here 4 * 2 instead of 2 * 4 * 2
        from torusbergman import pullback

        calls = []
        forms = pullback._factor_forms

        def counting(basis, t, u, methods):
            calls.append((basis.k, t, len(u), tuple(methods)))
            return forms(basis, t, u, methods)

        monkeypatch.setattr(pullback, "_factor_forms", counting)
        ks = [4, 6, 8, 10]
        convergence_report(model(-1, 1), ks, grid_n=3)
        assert calls == [(k, t, 9 + 128, ("jacobian", "ddbar_log")) for k in ks for t in range(2)]

    @pytest.mark.parametrize("n, grid_n", [(1, 9), (2, 3), (2, 8)])
    def test_report_samples_factor_grid_then_cloud(self, n, grid_n):
        # factor t's samples are the grid_n^2 half-offset pairs, first
        # coordinate slowest, then the z_t of a 128-point cloud seeded with 7;
        # E(k) is the worse factor's max |f_t - omega_t|, bit for bit
        from torusbergman.pullback import _factor_forms
        from torusbergman.util import Draws

        m = model(*[(-1) ** t for t in range(n)])
        ks = [4, 6, 8, 10]
        rep = convergence_report(m, ks, grid_n=grid_n)
        want = [((i + 0.5) / grid_n, (j + 0.5) / grid_n) for i in range(grid_n) for j in range(grid_n)]
        assert rep.grid.tobytes() == np.array(want).tobytes()
        cloud = Draws(7).random((128, 2 * n))
        w0 = omega(m)
        for i, k in enumerate(ks):
            b = build_basis(m, k)
            for method in ("jacobian", "ddbar_log"):
                fs = rep.fields[(method, k)]
                assert len(fs) == n
                for t, f in enumerate(fs):
                    u = np.concatenate([np.array(want), cloud[:, 2 * t:2 * t + 2]])
                    assert f.tobytes() == _factor_forms(b, t, u, (method,))[method].tobytes()
                err = max(float(np.max(np.abs(f - w0[2 * t, 2 * t + 1]))) for t, f in enumerate(fs))
                assert rep.errors[method][i] == err

    @pytest.mark.parametrize("factors, k, U", [
        (((0.3 + 1.1j, -1),), 6, 40),                         # n = 1, d < 0, Re tau != 0
        (((1j, -1), (0.25 + 1.5j, 2)), 5, 40),                # n = 2, d < 0 and d > 0
        (((-0.2 + 0.9j, 1), (1j, -2)), 4, 1100),              # U > 512: three chunks
    ])
    def test_shared_table_fields_match_single_method(self, factors, k, U):
        # both routes from one "d2" table per chunk, against each route on its
        # own (the jacobian one reading a "d1" table), bit for bit
        from torusbergman.pullback import _factor_forms

        m = ProductModel.from_factors([TorusFactor(tau, d) for tau, d in factors])
        b = build_basis(m, k)
        u = np.random.default_rng(U).random((U, 2))
        for t in range(m.n):
            both = _factor_forms(b, t, u, ("jacobian", "ddbar_log"))
            assert list(both) == ["jacobian", "ddbar_log"]
            for method, f in both.items():
                alone = _factor_forms(b, t, u, (method,))[method]
                assert f.shape == (U,) and f.tobytes() == alone.tobytes()

    def test_one_table_per_rung_factor_and_chunk(self, monkeypatch):
        # convergence_report asks for each factor's table once per rung and
        # 512-point chunk, with both routes reading it: grid 20 gives each
        # factor 400 grid and 128 cloud points, a chunk of 512 and one of 16
        from torusbergman import basis as basis_mod

        calls = []
        table = basis_mod.weighted_table

        def counting(m, tau, z, orders=0, eps=1e-12):
            calls.append((m, len(z), orders))
            return table(m, tau, z, orders=orders, eps=eps)

        monkeypatch.setattr(basis_mod, "weighted_table", counting)
        ks = [4, 6, 8, 10]
        convergence_report(model(-1, 1), ks, grid_n=20)
        assert calls == [(k, size, 1) for k in ks for _ in range(2) for size in (512, 16)]

    def test_nonmonotone_errors_detected(self, monkeypatch):
        # a build_basis that scrambles the ladder produces increasing E(k),
        # reported as the largest rung-to-rung ratio of each method's E(k)
        from torusbergman import basis as basis_mod

        m = model(-1)
        scramble = {4: 12, 6: 4, 8: 8, 10: 6}
        monkeypatch.setattr(basis_mod, "build_basis", lambda model, k, eps=1e-12: build_basis(model, scramble[k]))
        rep = convergence_report(m, [4, 6, 8, 10], grid_n=5)
        for meth, e in rep.errors.items():
            assert rep.rise[meth] == np.max(e[1:] / e[:-1]) > 1e4
        # unscrambled, E(k) falls on every step: no rise
        monkeypatch.undo()
        assert all(r < 1.0 for r in convergence_report(m, [4, 6, 8, 10], grid_n=5).rise.values())


class TestDerivativeSums:
    @pytest.fixture(scope="module")
    def mixed_report(self):
        m = model(-1, 1)
        bases = [build_basis(m, k) for k in (8, 12, 16, 20)]
        return derivative_sums(bases, np.array([0.31, 0.42, 0.56, 0.27])), m

    def test_special_directions_exactly_zero_on_flat_models(self, mixed_report):
        rep, m = mixed_report
        for d, fam in rep.families.items():
            if fam == "special":
                assert d in rep.exact_zero
                assert np.all(rep.sums[d] == 0.0)

    def test_generic_direction_slope_k_to_n_plus_one(self, mixed_report):
        rep, m = mixed_report
        for d, fam in rep.families.items():
            if fam == "generic":
                assert rep.slopes[d].slope == pytest.approx(m.n + 1, abs=0.05)
                assert rep.slopes[d].slope >= m.n + 0.7

    def test_extremal_identity(self, mixed_report):
        rep, _ = mixed_report
        assert rep.extremal_dev <= 1e-9

    def test_factor_tables_jets_match_theta_table_oracle(self):
        # degrees -2, -1, 1, 2, Re tau != 0 and three factors; k in 4..100 at 200
        # random points.  The two routes differ only in the generic direction's
        # rounding (their values are the same bits): sum |du|^2 (or |dubar|^2)
        # agrees to 5.6e-16 here and to 7.8e-16 at most over 12 seeds; the
        # special direction's sum is exactly 0 on both, which needs P0 built
        # exactly as factor_tables builds P
        models = [ProductModel.from_factors([TorusFactor(tau, d) for tau, d in fs]) for fs in (
            [(0.3 + 1.2j, -2), (-0.2 + 0.9j, 1)], [(1j, -1), (0.5 + 1j, 2)], [(0.45 + 0.6j, -1)],
            [(1j, -1), (0.1 + 1.1j, -2), (-0.4 + 0.7j, 1)], [(-0.3 + 1.5j, 2)])]
        rng = np.random.default_rng(3)
        worst = 0.0
        for i in range(200):
            m = models[i % len(models)]
            b = HarmonicBasis(m, int(rng.integers(4, 101)))
            p = rng.random(2 * m.n)
            for t, (new, old) in enumerate(zip(_normal_frame_first_jets(b, p), normal_frame_first_jets(b, p))):
                special, generic = ("du", "dubar") if t < m.n_minus else ("dubar", "du")
                assert np.array_equal(new["v"], old["v"])
                assert np.sum(np.abs(new[special]) ** 2) == 0.0 == np.sum(np.abs(old[special]) ** 2)
                s_new, s_old = (np.sum(np.abs(j[generic]) ** 2) for j in (new, old))
                worst = max(worst, abs(s_new / s_old - 1.0))
        assert worst <= 1e-15

    def test_positive_config_special_family_vanishes(self):
        m = model(2)
        bases = [build_basis(m, k) for k in (4, 6, 8, 10)]
        rep = derivative_sums(bases, np.array([0.4, 0.3]))
        # q=0: the special family is all Lbar directions
        assert rep.families[(0, "Lbar")] == "special"
        assert (0, "Lbar") in rep.exact_zero

    def test_unitary_invariance_of_sums(self):
        m = model(-1, 1)
        rng = np.random.default_rng(13)
        p = np.array([0.1, 0.9, 0.3, 0.5])
        bases = [build_basis(m, k) for k in (4, 6, 8, 10)]
        rep0 = derivative_sums(bases, p)
        # remixing leaves sum_j |Z S_j|^2 unchanged: check via explicit jets
        U = haar_unitary(bases[-1].dim, rng)
        jets0 = bases[-1].jets(p)
        jets1 = RemixedBasis(bases[-1], U).jets(p)
        s0 = np.sum(np.abs(jets0["dz"][0]) ** 2)
        s1 = np.sum(np.abs(jets1["dz"][0]) ** 2)
        assert s0 == pytest.approx(s1, rel=1e-9)
        assert rep0.sums[(0, "Lbar")][-1] > 0
