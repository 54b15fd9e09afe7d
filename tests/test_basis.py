import tracemalloc
from itertools import product

import numpy as np
import pytest

from _oracles import RemixedBasis, dense_grid_gram, looped_weighted_grid_gram, product_density, recompute_gram
from torusbergman import basis as basis_mod
from torusbergman.basis import (
    _HALF,
    GramError,
    HarmonicBasis,
    _covariant,
    _padded_member,
    build_basis,
    default_resolution,
    factor_gram,
    factor_harmonicity_residual,
    gram,
    harmonicity_residual,
    theta_gram_diagonal,
)
from torusbergman.geometry import ProductModel, TorusFactor, factor_volume
from torusbergman.kernel import density
from torusbergman.theta import weighted_table

TAU = 1j


def model(*degrees, tau=TAU):
    return ProductModel.from_factors([TorusFactor(tau, d) for d in degrees])


def haar_unitary(n, rng):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestRawFactorBasis:
    def test_positive_degree_one_power_one(self):
        (s,) = HarmonicBasis(model(1), 1).factor_sets
        assert s.level == 1

    def test_negative_three_members_at_k3(self):
        (s,) = HarmonicBasis(model(-1), 3).factor_sets
        assert s.level == 3

    def test_member_count_k_times_degree(self):
        assert HarmonicBasis(model(-2), 5).factor_sets[0].level == 10

    def test_rejects_nonpositive_power(self):
        for k in (0, -1):
            with pytest.raises(ValueError):
                HarmonicBasis(model(1), k)
            with pytest.raises(ValueError):
                build_basis(model(-1, 1), k)

    def test_conjugate_first_order_identity(self):
        # (d/dz + 2 dphi_plus/dz) f = 0 certified by the residual operator
        r = factor_harmonicity_residual(TorusFactor(TAU, -1), 3, 1, grid_n=192)
        assert r["first_order"] <= 1e-6


class TestGram:
    def test_conjugation_duality(self):
        # bit for bit, Re tau != 0 and thin tori included: dims forms one Gram per
        # (tau, |degree|) and reads its minimum eigenvalue and deviation for both signs
        for tau, d, k in [(TAU, 1, 3), (0.3 + 1.2j, 1, 4), (0.1 + 0.7j, 2, 3),
                          (-0.2 + 0.9j, 1, 12), (0.4 + 0.05j, 1, 4)]:
            gp = factor_gram(TorusFactor(tau, d), k)
            gn = factor_gram(TorusFactor(tau, -d), k)
            assert np.array_equal(gn.diagonal, gp.diagonal)

    def test_doubling_resolution_stable(self):
        b = build_basis(model(-1), 3)
        N = default_resolution(3)
        assert np.max(np.abs(b.grid_gram(0, N) - b.grid_gram(0, 2 * N))) < 1e-10

    def test_level_one_matches_brute_force_integral(self):
        # dense quadrature of |theta|^2 e^{-2 phi} * 2 dx dy with a radius-50 sum
        f = TorusFactor(TAU, 1)
        N = 400
        t = (np.arange(N) + 0.5) / N
        A, B = np.meshgrid(t, t, indexing="ij")
        z = (A + TAU * B).ravel()
        vals = np.zeros_like(z)
        for r in range(-50, 51):
            vals += np.exp(1j * np.pi * r**2 * TAU + 2j * np.pi * r * z)
        phi = np.pi * z.imag**2
        integral = np.sum(np.abs(vals) ** 2 * np.exp(-2 * phi)) * 2.0 / N**2
        g = factor_gram(f, 1)
        assert g.diagonal[0] == pytest.approx(integral, abs=1e-10)
        # closed form sqrt(2 T / m)
        assert g.diagonal[0] == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_tensor_product_identity(self):
        m = model(-1, 2)
        G = gram(build_basis(m, 2))
        g1 = factor_gram(m.factors[0], 2)
        g2 = factor_gram(m.factors[1], 2)
        assert np.max(np.abs(G.diagonal - np.kron(g1.diagonal, g2.diagonal))) < 1e-12

    @pytest.mark.parametrize("k", [5, 20, 40])
    @pytest.mark.parametrize("d", [-1, 2])
    @pytest.mark.parametrize("tau", [TAU, 0.3 + 1.2j, 0.1 + 0.05j])
    def test_grid_gram_matches_dense_grid_table_route(self, tau, d, k):
        # on the default grid, which m divides, the point-by-point Gram is
        # diagonal up to rounding, and its diagonal is the profile sum's
        b = build_basis(model(d, tau=tau), k)
        m = b.factor_sets[0].level
        N = default_resolution(m, tau.imag)
        want = dense_grid_gram(b, 0, N)
        scale = np.max(np.abs(np.diag(want)))
        assert np.max(np.abs(want - np.diag(np.diag(want)))) <= 1e-14 * scale
        assert np.max(np.abs(b.grid_gram(0, N) - np.diag(want))) <= 1e-14 * scale

    @pytest.mark.parametrize("tau", [TAU, 0.3 + 1.2j, 0.1 + 0.05j])
    @pytest.mark.parametrize("m, d", [(1, 1), (1, -1), (2, 1), (2, -1), (2, 2), (2, -2), (3, 1), (3, -1),
                                      (5, 1), (5, -1), (16, 1), (16, -1), (16, 2), (16, -2),
                                      (64, 1), (64, -1), (64, 2), (64, -2)])
    def test_grid_gram_is_the_alias_pair_oracle_diagonal(self, tau, m, d):
        # the oracle keeps every aliased term pair; where m divides N its
        # off-diagonal is exactly 0, and the pairs the profile sum leaves out
        # are below rounding on the default grid and its double (measured:
        # at most 8.9e-16 relative)
        b = build_basis(model(d, tau=tau), m // abs(d))
        s = b.factor_sets[0]
        assert s.level == m
        for N in (default_resolution(m, tau.imag), 2 * default_resolution(m, tau.imag)):
            want = looped_weighted_grid_gram(m, tau, N) * (s.scale ** 2 * factor_volume(s.factor) / N**2)
            want = want.conj() if d < 0 else want
            assert not np.any(want - np.diag(np.diag(want)))
            assert np.max(np.abs(b.grid_gram(0, N) - np.diag(want)) / np.abs(np.diag(want))) <= 1.5e-15, N

    def test_factor_gram_holds_no_grid_table(self):
        # the (160, 640^2) complex grid table alone is 1 GB
        tracemalloc.start()
        try:
            g = factor_gram(TorusFactor(TAU, -1), 160)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        c = theta_gram_diagonal(160, 1.0)
        assert np.max(np.abs(g.diagonal - c)) <= 1e-14 * c
        assert peak < 100e6

    def test_grid_gram_refuses_a_side_the_level_does_not_divide(self):
        # off the multiples of m the trapezoid Gram is not diagonal
        b = build_basis(model(-1), 8)
        with pytest.raises(ValueError):
            b.grid_gram(0, 4 * 8 + 3)

    def test_gram_matrix_validation(self):
        from torusbergman.basis import GramMatrix

        for diagonal in ([1.0, -1.0], [1.0, 0.0], [1.0, np.nan]):
            with pytest.raises(GramError):
                GramMatrix(diagonal=np.array(diagonal), quadrature_resolution=16)

    def test_default_resolution_is_a_multiple_of_the_level(self):
        for T in (1.0, 0.3, 0.05):
            for m in range(1, 201):
                N = default_resolution(m, T)
                thin = int(np.ceil(np.sqrt(2 * m * np.log(1e16) / (np.pi * T))))
                assert N % m == 0 and N >= max(4 * m, 16, thin), (m, T)
        assert default_resolution(3) == 18

    @pytest.mark.parametrize("m, tau, N", [(8, 0.05j, 32), (8, 0.05j, 24), (2, 0.05j, 4), (4, 0.02j, 8),
                                           (3, 0.1 + 0.05j, 12), (8, 0.05j, 64)])
    def test_left_out_pairs_within_the_aliasing_bound(self, m, tau, N):
        # the pairs n - n' = q N / m of one characteristic are, relative to its
        # entry, at most exp(-pi Im(tau) q^2 N^2 / (2m)) = est^(q^2) for each of q
        # and -q: together below 2 est / (1 - est^3), est factor_gram's estimate;
        # Re tau != 0 only lowers them (phases)
        est = np.exp(-np.pi * tau.imag * N**2 / (2.0 * m))
        f = TorusFactor(tau, 1)
        full = looped_weighted_grid_gram(m, tau, N) * (factor_volume(f) / N**2)
        got = build_basis(model(1, tau=tau), m).grid_gram(0, N) * theta_gram_diagonal(m, tau.imag)
        left_out = np.max(np.abs(np.diag(full) - got) / got)
        assert left_out <= 2 * est / (1 - est**3) + 1e-15
        if tau.real == 0 and 1e-16 < est < 0.01:
            # attained where the windows hold both partners of every pair
            assert left_out >= 1.9 * est


def lex_indices(b):
    """The per-factor member indices of b's sections, in their lexicographic order."""
    return list(product(*(range(s.level) for s in b.factor_sets)))


class TestKunneth:
    def test_product_count(self):
        b = build_basis(model(-1, 1), 2)
        assert b.dim == 4
        assert len(lex_indices(b)) == 4

    def test_positive_single_factor_reduces_to_theta_basis(self):
        m = model(2)
        assert m.n_minus == 0
        b = build_basis(m, 1)
        assert b.factor_sets[0].level == 2
        assert b.dim == 2

    def test_ordering_deterministic(self):
        a = lex_indices(build_basis(model(-1, 2), 2))
        b = lex_indices(build_basis(model(-1, 2), 2))
        assert a == b
        assert a[:3] == [(0, 0), (0, 1), (0, 2)]

    def test_values_are_the_lexicographic_products_of_factor_values(self):
        b = build_basis(model(-1, 2), 2)
        pts = np.random.default_rng(5).random((7, 4))
        zs = b.model.chart_z(pts)
        v0, v1 = (b.factor_tables(t, zs[:, t])["v"] for t in range(2))
        want = np.stack([v0[i] * v1[j] for i, j in lex_indices(b)])
        assert np.array_equal(b.values(pts), want)


class TestOrthonormalize:
    def test_recomputed_gram_is_identity(self):
        b = build_basis(model(-1, 2), 2)
        G = recompute_gram(b)
        assert np.max(np.abs(G - np.eye(b.dim))) < 1e-9

    def test_already_orthonormal_unchanged(self):
        b = build_basis(model(-1), 3)
        G = recompute_gram(b)
        L = np.linalg.cholesky(G)
        assert np.max(np.abs(L - np.eye(b.dim))) < 1e-12

    def test_dimension_law(self):
        for degs, k in [((-1,), 4), ((-2,), 3), ((-1, 1), 2), ((-1, 2), 2)]:
            b = build_basis(model(*degs), k)
            expected = k ** len(degs) * int(np.prod([abs(d) for d in degs]))
            assert b.dim == expected

    def test_unitary_remix_leaves_density_invariant(self):
        b = build_basis(model(-1), 4)
        rng = np.random.default_rng(17)
        U = haar_unitary(b.dim, rng)
        pts = rng.random((20, 2))
        d0 = density(b, pts)
        d1 = product_density(RemixedBasis(b, U), pts)
        assert np.max(np.abs(d0 - d1)) < 1e-10 * np.max(d0)

    def test_closed_form_matches_quadrature(self):
        for tau, d, k in [(TAU, 1, 5), (0.3 + 1.2j, -2, 4), (0.1 + 0.7j, 3, 3), (TAU, -1, 40)]:
            g = factor_gram(TorusFactor(tau, d), k).diagonal
            c = theta_gram_diagonal(k * abs(d), tau.imag)
            assert np.max(np.abs(g - c)) <= 1e-13 * c
        # thin torus: the full 4m-point trapezoid rule (every aliased pair kept)
        # is the inaccurate side; the default resolution grows with 1 / Im tau
        # and meets the closed form
        f = TorusFactor(0.05j, -1)
        c = theta_gram_diagonal(8, 0.05)
        coarse = looped_weighted_grid_gram(8, 0.05j, 32) * (factor_volume(f) / 32**2)
        coarse = np.max(np.abs(coarse - c * np.eye(8))) / c
        fine = np.max(np.abs(factor_gram(f, 8).diagonal - c)) / c
        assert default_resolution(8, 0.05) > 32 == default_resolution(8, 1.0)
        assert coarse > 1e-5 and fine < 1e-13

    @pytest.mark.parametrize("factors", [
        [(TAU, -1)],
        [(0.3 + 1.2j, -1), (TAU, 1)],
        [(0.1 + 0.7j, -1), (TAU, 1), (-0.2 + 0.9j, 2)],
    ])
    def test_factor_tables_match_cholesky_of_quadrature_gram(self, factors):
        # the closed-form scale against the Cholesky-of-factor_gram route it replaced
        k = 3
        b = build_basis(ProductModel.from_factors([TorusFactor(t, d) for t, d in factors]), k)
        rng = np.random.default_rng(23)
        for t, s in enumerate(b.factor_sets):
            f, m = s.factor, s.level
            z = rng.random(9) + f.tau * rng.random(9)
            L = np.linalg.cholesky(np.diag(factor_gram(f, k).diagonal))
            W0, W1 = (np.linalg.solve(L, w) for w in weighted_table(m, f.tau, z, orders=1))
            P = -1j * np.pi * m * z.imag / f.im_tau
            Q = np.conj(P)
            dz = W1 - P * W0
            dzb = -Q * W0
            dzdzb = -np.pi * m / (2.0 * f.im_tau) * W0 - Q * dz
            if f.degree < 0:
                W0, dz, dzb, dzdzb = np.conj(W0), np.conj(dzb), np.conj(dz), np.conj(dzdzb)
            got = b.factor_tables(t, z, "d2")
            for key, want in (("v", W0), ("z", dz), ("zb", dzb), ("zzb", dzdzb)):
                assert np.max(np.abs(got[key] - want)) <= 1e-12 * np.max(np.abs(want))


class TestGridEvaluator:
    @pytest.mark.parametrize("tau,d,k", [(TAU, -1, 7), (TAU, 1, 7), (0.3 + 1.2j, -2, 3), (0.1 + 0.7j, 3, 2)])
    def test_grid_table_and_density_match_factor_tables_on_meshgrid(self, tau, d, k):
        # the old route: factor_tables at the meshgrid points of the half-offset grid
        b = build_basis(model(d, tau=tau), k)
        N = 4 * b.factor_sets[0].level + 3
        g = (np.arange(N) + 0.5) / N
        A, B = np.meshgrid(g, g, indexing="ij")
        V = b.factor_tables(0, (A + tau * B).ravel(), "v")["v"]
        table = b.grid_table(0, N)
        assert table.shape == V.shape
        assert np.max(np.abs(table - V)) <= 1e-12 * np.max(np.abs(V))
        dens = np.sum(np.abs(V) ** 2, axis=0).reshape(N, N)
        assert np.max(np.abs(b.grid_density(0, N) - dens)) <= 1e-12 * np.max(dens)


class TestHarmonicity:
    def test_holomorphic_dbar_residual_small(self):
        r = factor_harmonicity_residual(TorusFactor(TAU, 1), 1, 0, grid_n=64)
        assert r["first_order"] <= 1e-8

    def test_conjugate_laplacian_residual_unit_level(self):
        r = factor_harmonicity_residual(TorusFactor(TAU, -1), 1, 0, grid_n=64)
        assert r["laplacian"] <= 1e-6

    def test_conjugate_laplacian_residual_level_three_fine_grid(self):
        r = factor_harmonicity_residual(TorusFactor(TAU, -1), 3, 0, grid_n=192)
        assert r["laplacian"] <= 1e-6

    def test_fourth_order_convergence(self):
        f = TorusFactor(TAU, -1)
        r64 = factor_harmonicity_residual(f, 2, 0, grid_n=64)["laplacian"]
        r128 = factor_harmonicity_residual(f, 2, 0, grid_n=128)["laplacian"]
        assert r128 < r64 / 8   # at least cubic observed decay
        assert r128 < r64 / 32  # the 6th-order stencil: ~64x observed

    def test_perturbed_section_detected(self):
        r = factor_harmonicity_residual(
            TorusFactor(TAU, -1), 3, 0, grid_n=64,
            perturb=lambda A, B: 0.01 * np.cos(2 * np.pi * A) * np.cos(2 * np.pi * B))
        assert r["laplacian"] >= 1e-3

    def test_conjugate_cocycle_does_not_overflow(self):
        # level 57 is the first at tau = i where a conjugate member's unweighted
        # values, exp(-2 phi_plus) conj(theta), overflow on this grid
        with np.errstate(over="raise", invalid="raise"):
            r = factor_harmonicity_residual(TorusFactor(TAU, -1), 57, 0, grid_n=128)
        assert np.isfinite(r["first_order"]) and np.isfinite(r["laplacian"])

    @pytest.mark.parametrize("d", [1, -1])
    def test_high_level_stays_finite(self, d):
        # 2 pi m Im tau > 709 at level 120: the weighted gauge has no cocycle to overflow
        with np.errstate(over="raise", invalid="raise"):
            r = factor_harmonicity_residual(TorusFactor(TAU, d), 120, 0, grid_n=64)
        assert np.isfinite(r["first_order"]) and np.isfinite(r["laplacian"])

    @pytest.mark.parametrize("tau", [TAU, 0.3 + 1.2j])
    @pytest.mark.parametrize("k", [1, 3])
    def test_conjugate_residuals_equal_holomorphic(self, tau, k):
        # the conjugate member's identities are the conjugates of the holomorphic ones
        assert (factor_harmonicity_residual(TorusFactor(tau, 1), k, 0)
                == factor_harmonicity_residual(TorusFactor(tau, -1), k, 0))

    @pytest.mark.parametrize("tau", [TAU, 0.3 + 1.2j])
    def test_comparator_closed_form_in_every_column(self, tau):
        # Dbar D W, by the stencil, equals -(pi m / Im tau) W column by column,
        # the columns next to each b edge included: nothing is wrapped there
        W, P = _padded_member(TorusFactor(tau, -1), 1, 0, 64)
        DW, _ = _covariant(W, P, tau, 1.0 / 64)
        _, DbDW = _covariant(DW, P[_HALF:-_HALF], tau, 1.0 / 64)
        c = np.pi / tau.imag
        Wi = W[:, 2 * _HALF:-2 * _HALF]
        assert DbDW.shape == Wi.shape == (64, 64)
        col = np.linalg.norm(DbDW + c * Wi, axis=0)
        assert np.all(col <= 1e-6 * c * np.linalg.norm(Wi, axis=0))

    @pytest.mark.parametrize("N", [16, 64])
    @pytest.mark.parametrize("tau,d,k,member", [(TAU, 1, 1, 0), (TAU, -2, 3, 5),
                                                (0.3 + 1.2j, 1, 7, 6), (0.1 + 0.7j, -3, 2, 1),
                                                (TAU, 1, 57, 0), (TAU, -1, 57, 28),
                                                (TAU, -1, 120, 0), (TAU, 1, 120, 99),
                                                (0.05j, -1, 1, 0), (0.05j, 1, 1, 0)])
    def test_padded_member_matches_its_weighted_table_row(self, tau, d, k, member, N):
        # the stencil's member, read from the separable grid evaluator on the
        # stencil's own axes, ghost b columns included, is within rounding of the
        # pointwise evaluator at every stencil point.  The a-phases 2 pi (m n + j) a
        # reach order m radians and both evaluators round them, so above level 10
        # the bound grows as m eps (measured: 2.8e-14 at level 57 and 5.7e-14 at
        # level 120, members away from 0)
        m = k * abs(d)
        W, _ = _padded_member(TorusFactor(tau, d), k, member, N)
        ta = (np.arange(N) + 0.5) / N - 0.5
        tb = (np.arange(-2 * _HALF, N + 2 * _HALF) + 0.5) / N - 0.5
        A, B = np.meshgrid(ta, tb, indexing="ij")
        want = weighted_table(m, tau, (A + tau * B).ravel(), eps=1e-14)[0, member]
        assert np.max(np.abs(W.ravel() - want)) <= max(1e-14, 1e-15 * m) * np.max(np.abs(want))

    def test_residual_holds_no_pointwise_grid(self):
        # the stencil grid is read through the separable evaluator: the pointwise
        # route held 2.34 MB of scratch for this call
        m = model(-1, 1)
        harmonicity_residual(m, 1, (0, 0), grid_n=16)
        tracemalloc.start()
        try:
            harmonicity_residual(m, 1, (0, 0), grid_n=64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1e6, peak

    def test_product_section_residual(self):
        m = model(-1, 1)
        res = harmonicity_residual(m, 1, (0, 0), grid_n=64)
        assert res <= 1e-6

    def test_product_residual_evaluates_each_distinct_member_once(self, monkeypatch):
        # mixed signs and taus: (i, -1) and (i, 1) share (tau, |d|, member), the
        # other factors differ in tau or member; the result is the per-factor maximum
        factors = (TorusFactor(TAU, -1), TorusFactor(0.3 + 1.2j, -1), TorusFactor(TAU, 1),
                   TorusFactor(0.3 + 1.2j, 2))
        m, index = ProductModel(factors), (1, 0, 1, 1)
        want = max(factor_harmonicity_residual(f, 2, j, grid_n=16)["laplacian"]
                   for f, j in zip(factors, index))
        calls = []
        real = basis_mod.factor_harmonicity_residual
        monkeypatch.setattr(basis_mod, "factor_harmonicity_residual",
                            lambda f, k, j, **kw: calls.append((f.tau, abs(f.degree), j)) or real(f, k, j, **kw))
        assert harmonicity_residual(m, 2, index, grid_n=16) == want
        assert sorted(calls, key=str) == sorted({(TAU, 1, 1), (0.3 + 1.2j, 1, 0), (0.3 + 1.2j, 2, 1)}, key=str)
