import tracemalloc

import numpy as np
import pytest

from _oracles import looped_weighted_grid, looped_weighted_table, phi_plus
from torusbergman import theta
from torusbergman.theta import grid_pairs, half_offset, weighted_grid, weighted_grid_gram, weighted_table

TAU = 1j

# Every identity of the raw series theta_{m,j} is checked in weighted form,
# W_nu = theta^(nu) * exp(-phi_plus), so a raw tolerance tol becomes
# tol * exp(-phi_plus(z)) and a relative one stays as it is.


def brute_force(m, j, tau, z, radius=50, order=0):
    r = np.arange(-radius, radius + 1) + j / m
    terms = np.exp(1j * np.pi * m * r**2 * tau + 2j * np.pi * m * r * z)
    if order:
        terms = terms * (2j * np.pi * m * r) ** order
    return terms.sum()


def weighted(m, j, tau, z, order=0, eps=1e-12):
    """Weighted value (order 0) or derivative sum of theta_{m,j} at one point."""
    return weighted_table(m, tau, np.array([z]), orders=order, eps=eps)[order, j, 0]


def weight(m, tau, z):
    return np.exp(-phi_plus(m, tau, z))


class TestEval:
    def test_periodicity_z_plus_one(self):
        z = 0.3 + 0.2j
        assert abs(weighted(1, 0, TAU, z + 1) - weighted(1, 0, TAU, z)) < 1e-12 * weight(1, TAU, z)

    def test_quasi_periodicity_z_plus_tau(self):
        m, j, tau = 3, 2, 0.3 + 1.1j
        z = 0.23 + 0.31j
        eps = 1e-13
        cocycle = np.exp(-1j * np.pi * m * tau - 2j * np.pi * m * z)
        # weighted: W(z + tau) = cocycle * exp(phi(z) - phi(z + tau)) W(z), a unit factor
        gauge = np.exp(phi_plus(m, tau, z) - phi_plus(m, tau, z + tau))
        err = abs(weighted(m, j, tau, z + tau, eps=eps) - cocycle * gauge * weighted(m, j, tau, z, eps=eps))
        assert err <= 10 * eps

    def test_matches_oversized_brute_force_at_origin(self):
        assert abs(weighted(1, 0, TAU, 0.0) - brute_force(1, 0, TAU, 0.0)) < 1e-13

    def test_parity_maps_characteristic_to_negative(self):
        # theta_{m,j}(-z) = theta_{m,(m-j) mod m}(z): r -> -r re-indexes the coset
        m = 5
        z = 0.37 + 0.21j
        e = weight(m, TAU, z)
        for j in range(m):
            a = weighted(m, j, TAU, -z)
            b = weighted(m, (m - j) % m, TAU, z)
            assert abs(a - b) < 1e-12 * max(e, abs(b))

    def test_characteristic_shift_phase(self):
        # re-indexing the lattice sum: theta(z + 1/m) = e^{2 pi i j/m} theta(z)
        m = 4
        z = 0.11 + 0.29j
        e = weight(m, TAU, z)
        for j in range(m):
            lhs = weighted(m, j, TAU, z + 1.0 / m)
            rhs = np.exp(2j * np.pi * j / m) * weighted(m, j, TAU, z)
            assert abs(lhs - rhs) < 1e-12 * max(e, abs(rhs))

    def test_certified_error_against_doubled_radius(self):
        # the certified window against the oversized radius-50 sum
        rng = np.random.default_rng(42)
        eps = 1e-12
        for _ in range(100):
            m = int(rng.integers(1, 8))
            j = int(rng.integers(0, m))
            z = complex(rng.random(), rng.random() - 0.5)
            ref = brute_force(m, j, TAU, z) * weight(m, TAU, z)
            assert abs(weighted(m, j, TAU, z, eps=eps) - ref) <= eps

    @pytest.mark.parametrize("evaluate", [
        lambda m, tau, eps: weighted_table(m, tau, 0.1, eps=eps),
        lambda m, tau, eps: weighted_grid(m, tau, half_offset(8), half_offset(8), eps=eps),
        lambda m, tau, eps: weighted_grid_gram(m, tau, 8, eps=eps),
    ], ids=["table", "grid", "grid_gram"])
    @pytest.mark.parametrize("m, tau, eps", [(0, TAU, 1e-12), (1, 1.0 - 0.5j, 1e-12), (1, 1.0 + 0j, 1e-12),
                                             (1, TAU, 0.0), (1, TAU, -1e-12)],
                             ids=["level_0", "im_tau_negative", "im_tau_0", "eps_0", "eps_negative"])
    def test_every_evaluator_rejects_bad_arguments(self, evaluate, m, tau, eps):
        with pytest.raises(ValueError):
            evaluate(m, tau, eps)


class TestGrad:
    def test_matches_central_difference(self):
        m, j = 2, 1
        z = 0.31 + 0.17j
        h = 1e-5
        fd = (weighted(m, j, TAU, z + h, eps=1e-14) - weighted(m, j, TAU, z - h, eps=1e-14)) / (2 * h)
        g = weighted(m, j, TAU, z, order=1)
        assert abs(fd - g) / abs(g) < 1e-8

    def test_gradient_consistency_property(self):
        rng = np.random.default_rng(9)
        h = 1e-5
        for _ in range(100):
            m = int(rng.integers(1, 6))
            j = int(rng.integers(0, m))
            z = complex(rng.random(), rng.random() - 0.5)
            g = weighted(m, j, TAU, z, order=1, eps=1e-14)
            fd = (weighted(m, j, TAU, z + h, eps=1e-14) - weighted(m, j, TAU, z - h, eps=1e-14)) / (2 * h)
            scale = max(abs(g), abs(weighted(m, j, TAU, z)))
            assert abs(fd - g) <= 1e-7 * scale

    def test_derivative_of_quasi_periodicity(self):
        # d/dz of theta(z+tau) = c(z) theta(z) gives theta'(z+tau) = c (theta' - 2 pi i m theta)
        m, j, tau = 3, 1, TAU
        z = 0.23 + 0.11j
        c = np.exp(-1j * np.pi * m * tau - 2j * np.pi * m * z)
        gauge = np.exp(phi_plus(m, tau, z) - phi_plus(m, tau, z + tau))
        lhs = weighted(m, j, tau, z + tau, order=1, eps=1e-14)
        rhs = c * gauge * (weighted(m, j, tau, z, order=1, eps=1e-14)
                           - 2j * np.pi * m * weighted(m, j, tau, z, eps=1e-14))
        assert abs(lhs - rhs) <= 1e-9 * abs(rhs)

    def test_zero_of_level_one_with_nonzero_gradient(self):
        z0 = (1 + TAU) / 2
        e = weight(1, TAU, z0)
        assert abs(weighted(1, 0, TAU, z0)) < 1e-12 * abs(brute_force(1, 0, TAU, 0.0)) * e
        assert abs(weighted(1, 0, TAU, z0, order=1)) > e
        assert abs(weighted(1, 0, TAU, z0, order=1) - brute_force(1, 0, TAU, z0, order=1) * e) < 1e-12 * e


class TestHess:
    def test_matches_second_difference(self):
        m, j = 3, 0
        z = 0.27 + 0.13j
        h = 1e-4
        fd = (weighted(m, j, TAU, z + h, eps=1e-14) - 2 * weighted(m, j, TAU, z, eps=1e-14)
              + weighted(m, j, TAU, z - h, eps=1e-14)) / h**2
        hess = weighted(m, j, TAU, z, order=2)
        assert abs(fd - hess) / abs(hess) < 1e-6

    def test_even_symmetry_at_origin(self):
        # theta_{1,0} is even, so the gradient vanishes at 0 but the hessian does not
        assert abs(weighted(1, 0, TAU, 0.0, order=1)) < 1e-12
        assert abs(weighted(1, 0, TAU, 0.0, order=2)) > 1.0

    def test_oversized_truncation_agreement(self):
        m, j = 2, 1
        z = 0.41 + 0.37j
        e = weight(m, TAU, z)
        assert abs(weighted(m, j, TAU, z, order=2) - brute_force(m, j, TAU, z, order=2) * e) < 1e-10 * e


class TestBasisOfLevel:
    def test_level_one_single_series(self):
        assert weighted_table(1, TAU, 0.3).shape == (1, 1, 1)
        assert weighted_grid(1, TAU, half_offset(8), half_offset(8)).shape == (1, 8, 8)

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
        N = 4 * m
        g = (np.arange(N) + 0.5) / N
        A, B = np.meshgrid(g, g, indexing="ij")
        z = (A + TAU * B).ravel()
        W = weighted_table(m, TAU, z)[0]
        assert W.shape[0] == m
        G = (W @ W.conj().T) * 2 / N**2
        assert np.linalg.matrix_rank(G, tol=1e-10) == k * d


class TestWeightedTable:
    def test_consistency_with_raw_eval(self):
        m, tau = 4, 0.2 + 1.4j
        z = np.array([0.3 + 0.41j, -0.2 + 0.9j])
        W = weighted_table(m, tau, z, orders=2)
        e = weight(m, tau, z)
        for j in range(m):
            raw = [np.array([brute_force(m, j, tau, zi, order=nu) for zi in z]) for nu in range(3)]
            assert np.allclose(W[0, j], raw[0] * e, atol=1e-13)
            assert np.allclose(W[1, j], raw[1] * e, atol=1e-12)
            assert np.allclose(W[2, j], raw[2] * e, rtol=1e-10, atol=1e-10)

    def test_bounded_even_high_in_the_cylinder(self):
        # the weighted form never produces large intermediates
        W = weighted_table(40, TAU, np.array([0.3 + 0.95j]), orders=0)
        assert np.all(np.abs(W) < 10)


    @pytest.mark.parametrize("m, tau, P", [(1, 1j, 7), (3, 0.3 + 1.2j, 1), (8, 0.1 + 0.05j, 2),
                                           (16, 1j, 3), (40, 0.1 + 0.05j, 1), (40, 1j, 1000),
                                           (400, 0.3 + 1.2j, 97)])
    @pytest.mark.parametrize("orders", [0, 2])
    def test_matches_one_characteristic_loop(self, m, tau, P, orders):
        # all characteristics in one term array per pass over the points, each
        # point over its own window, against the loop over characteristics on
        # the window of the whole batch
        rng = np.random.default_rng(m + P)
        z = rng.random(P) - 0.5 + tau * (1.4 * rng.random(P) - 0.2)
        got = weighted_table(m, tau, z, orders=orders)
        want = looped_weighted_table(m, tau, z, orders=orders)
        for nu in range(orders + 1):
            assert np.max(np.abs(got[nu] - want[nu])) <= 2e-15 * np.max(np.abs(want[nu])), nu

    def test_window_length_does_not_grow_with_the_spread_of_im_z(self, monkeypatch):
        # a batch spanning twenty periods of Im z sums as many terms per point as
        # one spanning one period, and each point matches the batch-window loop
        m, tau = 8, 0.3 + 1.2j
        shapes = []
        exponent = theta._exponent

        def recording(m, tau, r, s):
            shapes.append(np.broadcast_shapes(r.shape, s.shape))
            return exponent(m, tau, r, s)

        monkeypatch.setattr(theta, "_exponent", recording)
        rng = np.random.default_rng(3)
        lengths = []
        for periods in (1, 20):
            z = rng.random(64) + tau * periods * (rng.random(64) - 0.5)
            shapes.clear()
            got = weighted_table(m, tau, z)
            lengths.append({shape[1] for shape in shapes})
            want = looped_weighted_table(m, tau, z)
            err = np.max(np.abs(got - want), axis=(0, 1))
            assert np.all(err <= 2e-15 * np.max(np.abs(want), axis=(0, 1))), periods
        assert len(lengths[0]) == 1 and lengths[0] == lengths[1], lengths

    def test_one_pass_holds_a_bounded_number_of_terms(self):
        # the (2, 400, 512) table is 6.6 MB; one pass over all 512 points
        # would hold about 13 MB of terms on top of it
        z = np.random.default_rng(0).random(512) * (1 + 1j)
        weighted_table(400, TAU, z[:8], orders=1)
        tracemalloc.start()
        try:
            weighted_table(400, TAU, z, orders=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6, peak


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
        grids = weighted_grid(m, tau, g, g)
        assert grids.shape == (m, N, N)
        got = grids.reshape(m, N * N)
        assert np.max(np.abs(got - W)) <= 1e-12 * np.max(np.abs(W))
        # grid_pairs lists the same points in the same (a-major) order
        assert np.array_equal(grid_pairs(N), np.stack([A.ravel(), B.ravel()], axis=1))

    @pytest.mark.parametrize("tau", [1j, 0.3 + 1.2j, 0.1 + 0.05j, -0.4 + 0.7j])
    @pytest.mark.parametrize("m, N", [(1, 16), (3, 12), (5, 23), (8, 48), (12, 50), (40, 163)])
    def test_stacked_characteristics_match_per_characteristic_loop(self, tau, m, N):
        # the b-only factors of every characteristic formed in one pass, against
        # the per-characteristic loop that they replace: bit for bit, thin tori
        # and sides that the level does not divide included
        t = half_offset(N)
        got = weighted_grid(m, tau, t, t)
        want = looped_weighted_grid(m, tau, N)
        assert got.shape == (m, N, N) and len(want) == m
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        if N % m:
            with pytest.raises(ValueError):
                weighted_grid_gram(m, tau, N)
