import numpy as np
import pytest

from _oracles import recompute_gram
from torusbergman.basis import (
    _HALF,
    CONJUGATE_FORM,
    HOLOMORPHIC,
    GramError,
    _covariant,
    _padded_member,
    build_basis,
    default_resolution,
    factor_gram,
    factor_harmonicity_residual,
    gram,
    harmonicity_residual,
    kunneth_basis,
    raw_factor_basis,
    theta_gram_diagonal,
)
from torusbergman.geometry import ProductModel, TorusFactor
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
        s = raw_factor_basis(TorusFactor(TAU, 1), 1)
        assert s.kind == HOLOMORPHIC
        assert s.count == 1

    def test_negative_three_members_at_k3(self):
        s = raw_factor_basis(TorusFactor(TAU, -1), 3)
        assert s.kind == CONJUGATE_FORM
        assert s.count == 3
        assert s.level == 3

    def test_member_count_k_times_degree(self):
        assert raw_factor_basis(TorusFactor(TAU, -2), 5).count == 10

    def test_rejects_nonpositive_power(self):
        with pytest.raises(ValueError):
            raw_factor_basis(TorusFactor(TAU, 1), 0)

    def test_conjugate_first_order_identity(self):
        # (d/dz + 2 dphi_plus/dz) f = 0 certified by the residual operator
        r = factor_harmonicity_residual(TorusFactor(TAU, -1), 3, 1, grid_n=192)
        assert r["first_order"] <= 1e-6


class TestGram:
    def test_conjugation_duality(self):
        gp = factor_gram(TorusFactor(TAU, 1), 3)
        gn = factor_gram(TorusFactor(TAU, -1), 3)
        assert np.max(np.abs(gn.entries - gp.entries.conj())) < 1e-10

    def test_doubling_resolution_stable(self):
        f = TorusFactor(TAU, -1)
        g1 = factor_gram(f, 3)
        g2 = factor_gram(f, 3, resolution=2 * g1.quadrature_resolution)
        assert np.max(np.abs(g1.entries - g2.entries)) < 1e-10

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
        assert g.entries[0, 0].real == pytest.approx(integral, abs=1e-10)
        # closed form sqrt(2 T / m)
        assert g.entries[0, 0].real == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_tensor_product_identity(self):
        m = model(-1, 2)
        kb = kunneth_basis(m, 2)
        G = gram(m, kb)
        g1 = factor_gram(m.factors[0], 2)
        g2 = factor_gram(m.factors[1], 2)
        assert np.max(np.abs(G.entries - np.kron(g1.entries, g2.entries))) < 1e-12

    def test_floor_violation_raises(self):
        with pytest.raises(GramError):
            factor_gram(TorusFactor(TAU, -1), 8, resolution=16)

    def test_gram_matrix_validation(self):
        from torusbergman.basis import GramMatrix

        with pytest.raises(GramError):
            GramMatrix(entries=np.array([[1.0, 2.0], [2.0, 1.0]]), quadrature_resolution=16)


class TestKunneth:
    def test_product_count(self):
        kb = kunneth_basis(model(-1, 1), 2)
        assert kb.count == 4
        assert len(kb.indices) == 4

    def test_positive_single_factor_reduces_to_theta_basis(self):
        m = model(2)
        assert m.n_minus == 0
        assert m.J0 == ()
        kb = kunneth_basis(m, 1)
        assert kb.factor_sets[0].kind == HOLOMORPHIC
        assert kb.count == 2

    def test_ordering_deterministic(self):
        a = kunneth_basis(model(-1, 2), 2).indices
        b = kunneth_basis(model(-1, 2), 2).indices
        assert a == b
        assert a[:3] == [(0, 0), (0, 1), (0, 2)]


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
        d1 = density(b.remixed(U), pts)
        assert np.max(np.abs(d0 - d1)) < 1e-10 * np.max(d0)

    def test_closed_form_matches_quadrature(self):
        for tau, d, k in [(TAU, 1, 5), (0.3 + 1.2j, -2, 4), (0.1 + 0.7j, 3, 3), (TAU, -1, 40)]:
            g = factor_gram(TorusFactor(tau, d), k).entries
            c = theta_gram_diagonal(k * abs(d), tau.imag)
            assert np.max(np.abs(g - c * np.eye(len(g)))) <= 1e-13 * c
        # thin torus: a 4m-point quadrature is the inaccurate side; the default
        # resolution grows with 1 / Im tau and meets the closed form
        f = TorusFactor(0.05j, -1)
        c = theta_gram_diagonal(8, 0.05)
        coarse = np.max(np.abs(factor_gram(f, 8, resolution=32).entries - c * np.eye(8))) / c
        fine = np.max(np.abs(factor_gram(f, 8).entries - c * np.eye(8))) / c
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
            L = np.linalg.cholesky(factor_gram(f, k).entries)
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

    @pytest.mark.parametrize("tau,d,k,member", [(TAU, 1, 1, 0), (TAU, -2, 3, 5),
                                                (0.3 + 1.2j, 1, 7, 6), (0.1 + 0.7j, -3, 2, 1)])
    def test_padded_member_is_its_weighted_table_row(self, tau, d, k, member):
        # the stencil evaluates one characteristic, with the same bits as the full table
        N = 16
        W, _ = _padded_member(TorusFactor(tau, d), k, member, N)
        ta = (np.arange(N) + 0.5) / N - 0.5
        tb = (np.arange(-2 * _HALF, N + 2 * _HALF) + 0.5) / N - 0.5
        A, B = np.meshgrid(ta, tb, indexing="ij")
        want = weighted_table(k * abs(d), tau, (A + tau * B).ravel(), eps=1e-14)[0, member]
        assert np.array_equal(W.ravel(), want)

    def test_product_section_residual(self):
        m = model(-1, 1)
        res = harmonicity_residual(m, 1, (0, 0), grid_n=64)
        assert res <= 1e-6
