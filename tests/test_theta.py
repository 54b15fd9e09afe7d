import numpy as np
import pytest

from torusbergman.theta import ThetaSeries, basis_of_level, phi_plus, weighted_grid, weighted_table

TAU = 1j


def brute_force(series, z, radius=50, order=0):
    m, j, tau = series.level, series.characteristic, series.tau
    r = np.arange(-radius, radius + 1) + j / m
    terms = np.exp(1j * np.pi * m * r**2 * tau + 2j * np.pi * m * r * z)
    if order:
        terms = terms * (2j * np.pi * m * r) ** order
    return terms.sum()


class TestEval:
    def test_periodicity_z_plus_one(self):
        s = ThetaSeries(1, 0, TAU)
        z = 0.3 + 0.2j
        assert abs(s.eval(z + 1) - s.eval(z)) < 1e-12

    def test_quasi_periodicity_z_plus_tau(self):
        s = ThetaSeries(3, 2, 0.3 + 1.1j)
        z = 0.23 + 0.31j
        eps = 1e-13
        cocycle = np.exp(-1j * np.pi * 3 * s.tau - 2j * np.pi * 3 * z)
        err = abs(s.eval(z + s.tau, eps) - cocycle * s.eval(z, eps))
        envelope = np.exp(phi_plus(3, s.tau, z + s.tau))
        assert err <= 10 * eps * envelope

    def test_matches_oversized_brute_force_at_origin(self):
        s = ThetaSeries(1, 0, TAU)
        assert abs(s.eval(0.0) - brute_force(s, 0.0)) < 1e-13

    def test_parity_maps_characteristic_to_negative(self):
        # theta_{m,j}(-z) = theta_{m,(m-j) mod m}(z): r -> -r re-indexes the coset
        m = 5
        z = 0.37 + 0.21j
        for j in range(m):
            a = ThetaSeries(m, j, TAU).eval(-z)
            b = ThetaSeries(m, (m - j) % m, TAU).eval(z)
            assert abs(a - b) < 1e-12 * max(1.0, abs(b))

    def test_characteristic_shift_phase(self):
        # re-indexing the lattice sum: theta(z + 1/m) = e^{2 pi i j/m} theta(z)
        m = 4
        z = 0.11 + 0.29j
        for j in range(m):
            s = ThetaSeries(m, j, TAU)
            lhs = s.eval(z + 1.0 / m)
            rhs = np.exp(2j * np.pi * j / m) * s.eval(z)
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))

    def test_certified_error_against_doubled_radius(self):
        rng = np.random.default_rng(42)
        eps = 1e-12
        for _ in range(100):
            m = int(rng.integers(1, 8))
            j = int(rng.integers(0, m))
            s = ThetaSeries(m, j, TAU)
            z = complex(rng.random(), rng.random() - 0.5)
            bound = s.truncation(np.array([z]), eps)
            v1 = s.eval(z, eps)
            v2 = s.eval(z, eps, radius=2 * bound.radius + 4)
            assert abs(v1 - v2) <= eps * np.exp(phi_plus(m, TAU, z))

    def test_rejects_bad_eps_and_tau(self):
        s = ThetaSeries(1, 0, TAU)
        with pytest.raises(ValueError):
            s.eval(0.1, eps=0.0)
        with pytest.raises(ValueError):
            ThetaSeries(1, 0, 1.0 - 0.5j)


class TestGrad:
    def test_matches_central_difference(self):
        s = ThetaSeries(2, 1, TAU)
        z = 0.31 + 0.17j
        h = 1e-5
        fd = (s.eval(z + h, 1e-14) - s.eval(z - h, 1e-14)) / (2 * h)
        assert abs(fd - s.eval_grad(z)) / abs(s.eval_grad(z)) < 1e-8

    def test_gradient_consistency_property(self):
        rng = np.random.default_rng(9)
        h = 1e-5
        for _ in range(100):
            m = int(rng.integers(1, 6))
            s = ThetaSeries(m, int(rng.integers(0, m)), TAU)
            z = complex(rng.random(), rng.random() - 0.5)
            g = s.eval_grad(z, 1e-14)
            fd = (s.eval(z + h, 1e-14) - s.eval(z - h, 1e-14)) / (2 * h)
            scale = max(abs(g), abs(s.eval(z)))
            assert abs(fd - g) <= 1e-7 * scale

    def test_derivative_of_quasi_periodicity(self):
        # d/dz of theta(z+tau) = c(z) theta(z) gives theta'(z+tau) = c (theta' - 2 pi i m theta)
        m, tau = 3, TAU
        s = ThetaSeries(m, 1, tau)
        z = 0.23 + 0.11j
        c = np.exp(-1j * np.pi * m * tau - 2j * np.pi * m * z)
        lhs = s.eval_grad(z + tau, 1e-14)
        rhs = c * (s.eval_grad(z, 1e-14) - 2j * np.pi * m * s.eval(z, 1e-14))
        assert abs(lhs - rhs) <= 1e-9 * abs(rhs)

    def test_zero_of_level_one_with_nonzero_gradient(self):
        s = ThetaSeries(1, 0, TAU)
        z0 = (1 + TAU) / 2
        assert abs(s.eval(z0)) < 1e-12 * abs(brute_force(s, 0.0))
        assert abs(s.eval_grad(z0)) > 1.0
        assert abs(s.eval_grad(z0) - brute_force(s, z0, order=1)) < 1e-12


class TestHess:
    def test_matches_second_difference(self):
        s = ThetaSeries(3, 0, TAU)
        z = 0.27 + 0.13j
        h = 1e-4
        fd = (s.eval(z + h, 1e-14) - 2 * s.eval(z, 1e-14) + s.eval(z - h, 1e-14)) / h**2
        assert abs(fd - s.eval_hess(z)) / abs(s.eval_hess(z)) < 1e-6

    def test_even_symmetry_at_origin(self):
        # theta_{1,0} is even, so the gradient vanishes at 0 but the hessian does not
        s = ThetaSeries(1, 0, TAU)
        assert abs(s.eval_grad(0.0)) < 1e-12
        assert abs(s.eval_hess(0.0)) > 1.0

    def test_oversized_truncation_agreement(self):
        s = ThetaSeries(2, 1, TAU)
        z = 0.41 + 0.37j
        assert abs(s.eval_hess(z) - brute_force(s, z, order=2)) < 1e-10


class TestBasisOfLevel:
    def test_level_one_single_series(self):
        assert len(basis_of_level(1, TAU)) == 1

    def test_rejects_nonpositive_level(self):
        with pytest.raises(ValueError):
            basis_of_level(0, TAU)

    def test_gram_nonsingular_with_small_condition(self):
        m = 3
        N = 48
        g = (np.arange(N) + 0.5) / N
        A, B = np.meshgrid(g, g, indexing="ij")
        z = (A + TAU * B).ravel()
        W = weighted_table(m, TAU, z)[0]
        G = (W @ W.conj().T) * 2 * TAU.imag / N**2
        w = np.linalg.eigvalsh(G)
        assert w.min() > 0
        assert w.max() / w.min() < 1e3

    def test_riemann_roch_count_via_gram_rank(self):
        # k-th power of a degree-d bundle has k*d independent sections
        k, d = 4, 2
        m = k * d
        series = basis_of_level(m, TAU)
        assert len(series) == m
        N = 4 * m
        g = (np.arange(N) + 0.5) / N
        A, B = np.meshgrid(g, g, indexing="ij")
        z = (A + TAU * B).ravel()
        W = weighted_table(m, TAU, z)[0]
        G = (W @ W.conj().T) * 2 / N**2
        assert np.linalg.matrix_rank(G, tol=1e-10) == k * d


class TestWeightedTable:
    def test_consistency_with_raw_eval(self):
        m, tau = 4, 0.2 + 1.4j
        z = np.array([0.3 + 0.41j, -0.2 + 0.9j])
        W = weighted_table(m, tau, z, orders=2)
        env = np.exp(-phi_plus(m, tau, z))
        for j in range(m):
            s = ThetaSeries(m, j, tau)
            assert np.allclose(W[0, j], s.eval(z, 1e-14) * env, atol=1e-13)
            assert np.allclose(W[1, j], s.eval_grad(z, 1e-14) * env, atol=1e-12)
            assert np.allclose(W[2, j], s.eval_hess(z, 1e-14) * env, rtol=1e-10, atol=1e-10)

    def test_bounded_even_high_in_the_cylinder(self):
        # the weighted form never produces large intermediates
        W = weighted_table(40, TAU, np.array([0.3 + 0.95j]), orders=0)
        assert np.all(np.abs(W) < 10)


class TestWeightedGrid:
    @pytest.mark.parametrize("tau", [1j, 0.3 + 1.2j, 0.1 + 0.05j])
    @pytest.mark.parametrize("m", [1, 5, 40])
    def test_matches_weighted_table_at_every_grid_point(self, tau, m):
        # the separable fast path against the slow path it replaces, on a grid
        # whose side is not a multiple of the level
        N = 4 * m + 3
        g = (np.arange(N) + 0.5) / N
        A, B = np.meshgrid(g, g, indexing="ij")
        W = weighted_table(m, tau, (A + tau * B).ravel())[0]
        grids = list(weighted_grid(m, tau, N))
        assert len(grids) == m and all(G.shape == (N, N) for G in grids)
        got = np.stack([G.ravel() for G in grids])
        assert np.max(np.abs(got - W)) <= 1e-12 * np.max(np.abs(W))
