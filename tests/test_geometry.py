import numpy as np
import pytest

from _oracles import (
    curvature_matrix,
    distance,
    global_weight,
    injectivity_scale,
    normal_chart,
    normal_weight,
    signature,
)
from torusbergman.geometry import ProductModel, TorusFactor, omega

TAU = 1j


def model(*degrees, tau=TAU):
    return ProductModel.from_factors([TorusFactor(tau, d) for d in degrees])


class TestTorusFactor:
    def test_weight_scale_sign_matches_degree(self):
        assert TorusFactor(TAU, 1).weight_scale == pytest.approx(np.pi / 2)
        assert TorusFactor(TAU, -1).weight_scale == pytest.approx(-np.pi / 2)
        assert TorusFactor(0.5 + 2j, -3).weight_scale == pytest.approx(-3 * np.pi / 4)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            TorusFactor(1.0 - 1j, 1)
        with pytest.raises(ValueError):
            TorusFactor(TAU, 0)


class TestProductModel:
    def test_ordering_negative_first(self):
        m = ProductModel.from_factors([TorusFactor(TAU, 2), TorusFactor(TAU, -1)])
        assert m.degrees == (-1, 2)
        assert m.n_minus == 1

    def test_rejects_wrong_order(self):
        with pytest.raises(ValueError):
            ProductModel((TorusFactor(TAU, 1), TorusFactor(TAU, -1)))

    def test_signature_invariant_under_permutation(self):
        a = ProductModel.from_factors([TorusFactor(TAU, -1), TorusFactor(2j, 2)])
        b = ProductModel.from_factors([TorusFactor(2j, 2), TorusFactor(TAU, -1)])
        assert signature(a) == signature(b) == (1, 1)

    def test_chart_and_reduction(self):
        m = model(-1, 1)
        p = np.array([1.25, -0.5, 0.75, 2.0])
        assert np.allclose(m.reduce(p), [0.25, 0.5, 0.75, 0.0])
        z = m.chart_z(np.array([0.25, 0.5, 0.75, 0.0]))
        assert np.allclose(z, [0.25 + 0.5j, 0.75])


class TestCurvature:
    def test_single_factor_tau_i_degree_one_is_pi(self):
        # 2*lambda with lambda = pi/2, pinned by the calibration oracles
        assert np.allclose(curvature_matrix(model(1)), [[np.pi]])

    def test_sign_flip_under_degree_negation(self):
        assert np.allclose(curvature_matrix(model(-1)), -curvature_matrix(model(1)))

    def test_product_is_blockwise(self):
        assert np.allclose(curvature_matrix(model(-1, 1)), np.diag([-np.pi, np.pi]))

    def test_tensor_power_scaling(self):
        m = model(-1, 2)
        assert np.allclose(curvature_matrix(m, k=5), 5 * curvature_matrix(m))

    def test_signature_counts(self):
        assert signature(model(-1)) == (1, 0)
        assert signature(model(-1, 2)) == (1, 1)
        assert signature(model(3)) == (0, 1)


class TestOmega:
    def test_integral_over_factor_is_degree(self):
        for d, tau in [(1, TAU), (-2, TAU), (3, 0.3 + 1.7j)]:
            m = model(d, tau=tau)
            w = omega(m)
            # constant form: integral = omega_xy * (euclidean area = Im tau)
            assert w[0, 1] * tau.imag == pytest.approx(d, abs=1e-13)

    def test_sign_flip(self):
        assert np.allclose(omega(model(-1)), -omega(model(1)))

    def test_product_is_direct_sum(self):
        w = omega(model(-1, 2))
        assert np.allclose(w[:2, :2], omega(model(-1)))
        assert np.allclose(w[2:, 2:], omega(model(2)))
        assert np.allclose(w[:2, 2:], 0)

    def test_closed_and_nondegenerate(self):
        w = omega(model(-1, 2))
        assert np.allclose(w, -w.T)
        assert np.min(np.abs(np.linalg.eigvals(w))) > 0.1


class TestNormalChart:
    # the tests' chart oracle, checked on its own: the kernel phase is read in
    # closed form, and the chart only checks that closed form

    def test_weight_vanishes_at_center_no_linear_term(self):
        m = model(-1, 2)
        rng = np.random.default_rng(3)
        for _ in range(5):
            ch = normal_chart(m, rng.random(4))
            assert normal_weight(ch, np.zeros(2, dtype=complex)) == 0
            h = 1e-6
            for t in range(2):
                u = np.zeros(2, dtype=complex)
                u[t] = h
                # no linear term: weight is O(h^2)
                assert abs(normal_weight(ch, u)) < 10 * h**2

    def test_second_order_coefficients_are_lambdas(self):
        m = model(-1, 2)
        ch = normal_chart(m, np.array([0.3, 0.7, 0.1, 0.9]))
        h = 1e-4
        for t, lam in enumerate(m.lambdas):
            u = np.zeros(2, dtype=complex)
            u[t] = h
            assert normal_weight(ch, u) / h**2 == pytest.approx(lam, rel=1e-8)

    def test_gauge_at_lattice_origin_is_pure_quadratic(self):
        m = model(-1)
        ch = normal_chart(m, np.zeros(2))
        assert ch.a0[0] == 0
        assert ch.a1[0] == 0
        assert ch.a2[0] == pytest.approx(-m.lambdas[0])

    def test_gauge_consistency_between_frames(self):
        # |s|^2_h computed globally equals the normal-frame computation
        m = model(-1, 2)
        k = 3
        rng = np.random.default_rng(11)
        p = rng.random(4)
        ch = normal_chart(m, p)
        for _ in range(50):
            q = p + 0.2 * (rng.random(4) - 0.5)
            u = m.chart_z(q) - ch.z0
            f = np.exp(1.3j * u.sum() + 0.4 * u[0])       # stand-in coefficient
            norm_global = abs(f) ** 2 * np.exp(-2 * k * global_weight(m, m.chart_z(q)))
            f_normal = f * np.exp(-ch.gauge(u, k))
            norm_normal = abs(f_normal) ** 2 * np.exp(-2 * k * normal_weight(ch, u))
            assert norm_normal == pytest.approx(norm_global, rel=1e-12)


class TestDistance:
    def test_zero_and_symmetry(self):
        m = model(-1, 1)
        rng = np.random.default_rng(5)
        x, y = rng.random(4), rng.random(4)
        assert distance(m, x, x) == 0
        assert distance(m, x, y) == pytest.approx(distance(m, y, x), abs=1e-15)

    def test_half_period_with_calibration_scale(self):
        m = model(-1)
        d = distance(m, np.array([0.0, 0.0]), np.array([0.5, 0.0]))
        assert d == pytest.approx(0.5 * np.sqrt(2.0))

    def test_wraps_around_lattice(self):
        m = model(-1)
        d = distance(m, np.array([0.05, 0.0]), np.array([0.95, 0.0]))
        assert d == pytest.approx(0.1 * np.sqrt(2.0), rel=1e-12)

    def test_triangle_inequality_random_triples(self):
        m = model(-1, 2, tau=0.4 + 1.3j)
        rng = np.random.default_rng(7)
        for _ in range(50):
            x, y, z = rng.random((3, 4))
            assert distance(m, x, z) <= distance(m, x, y) + distance(m, y, z) + 1e-12

    def test_injectivity_scale(self):
        assert injectivity_scale(model(-1)) == pytest.approx(np.sqrt(2) / 2)
