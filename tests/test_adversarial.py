import numpy as np
import pytest

import lqshield as lq
from lqshield.errors import NotApplicable, SingularB

from conftest import random_stabilizable


def identity_plant(n):
    return lq.LinearModel(A=np.zeros((n, n)), B=np.eye(n), Q=np.eye(n), R=np.eye(n))


class TestDiagonalCase:
    def test_two_by_two_reference(self):
        model = identity_plant(2)
        K1 = -np.diag([0.5, -0.5])  # F1 = diag(0.5, -0.5)
        cert = lq.construct_adversarial_K2(model, K1, 0.5)
        assert cert.construction_case == "diagonal_2x2_embedded"
        assert np.allclose(cert.F2, 16.0 * np.array([[1, 1], [-1, -1]]))
        assert cert.rho_F2 == pytest.approx(0.0, abs=1e-9)
        # hand eigenvalue: lam*b + (lam(a-b) + sqrt((lam(a-b))^2 + 16)) / 2
        expected = 0.5 * (-0.5) + (0.5 * 1.0 + np.sqrt(0.25 + 16.0)) / 2.0
        assert cert.rho_combined == pytest.approx(expected, rel=1e-12)
        assert cert.rho_combined > 2.0

    def test_negative_dominant_entry_uses_sign_flip(self):
        model = identity_plant(3)
        K1 = -np.diag([-0.7, 0.2, 0.1])
        cert = lq.construct_adversarial_K2(model, K1, 0.3)
        assert cert.construction_case == "diagonal_2x2_embedded"
        cert.self_check()

    def test_multiple_of_identity_not_applicable(self):
        model = identity_plant(3)
        with pytest.raises(NotApplicable):
            lq.construct_adversarial_K2(model, -0.4 * np.eye(3), 0.5)

    def test_zero_closed_loop_not_applicable(self):
        model = identity_plant(2)
        with pytest.raises(NotApplicable):
            lq.construct_adversarial_K2(model, np.zeros((2, 2)), 0.5)


class TestOffDiagonalCase:
    def test_three_dim_reference(self):
        # stabilizing K1 with a nonzero upper entry in F1
        model = identity_plant(3)
        F1_target = np.array([[0.2, 0.5, 0.0], [0.0, 0.1, 0.3], [0.0, 0.0, -0.2]])
        K1 = model.A - F1_target  # B = I
        cert = lq.construct_adversarial_K2(model, K1, 0.3, beta=0.5)
        assert cert.construction_case == "off_diagonal"
        assert cert.rho_combined >= 2.0 - 1e-6
        assert abs(abs(cert.det_combined) - 2.0**3) <= 1e-6 * 2.0**3

    def test_lower_triangular_goes_through_transpose(self):
        model = identity_plant(2)
        F1_target = np.array([[0.3, 0.0], [0.4, 0.2]])
        K1 = -F1_target  # A = 0, B = I
        cert = lq.construct_adversarial_K2(model, K1, 0.6)
        assert cert.construction_case == "off_diagonal"
        cert.self_check()
        assert cert.rho_combined >= 2.0 - 1e-6

    def test_entry_too_small_to_size_passes_to_the_next(self):
        # the first upper entry, 1e-10, cannot size the singleton at any
        # beta; the next one, 0.5, builds the certificate it builds alone
        model = lq.LinearModel(A=0.9 * np.eye(3), B=np.eye(3), Q=np.eye(3), R=np.eye(3))
        F1 = np.array([[0.5, 1e-10, 0.0], [0.0, 0.3, 0.5], [0.0, 0.0, 0.2]])
        cert = lq.construct_adversarial_K2(model, model.A - F1, 0.5, beta=0.5)
        cert.self_check()
        assert cert.construction_case == "off_diagonal"
        F1[0, 1] = 0.0
        alone = lq.construct_adversarial_K2(model, model.A - F1, 0.5, beta=0.5)
        assert np.array_equal(cert.F2, alone.F2)

    def test_no_sizable_entry_not_applicable(self):
        model = identity_plant(3)
        F1 = np.array([[0.5, 1e-10, 0.0], [0.0, 0.3, 0.0], [0.0, 0.0, 0.2]])
        with pytest.raises(NotApplicable, match="sizes the singleton"):
            lq.construct_adversarial_K2(model, -F1, 0.5, beta=0.5)

    def test_gain_reconstruction(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            model = random_stabilizable(rng, n, n)
            syn = lq.synthesize(model)
            cert = lq.construct_adversarial_K2(model, syn.K, float(rng.uniform(0.1, 0.9)))
            scale = max(1.0, np.max(np.abs(cert.F2)))
            assert np.max(np.abs(model.A - model.B @ cert.K2 - cert.F2)) <= 1e-10 * scale

    def test_partner_gain_derives_from_the_closed_loop(self):
        """K2 is B^-1 (A - F2), bit for bit, for both construction cases."""
        rng = np.random.default_rng(4)
        models = [random_stabilizable(rng, n, n) for n in (2, 3, 4)]
        certs = [lq.construct_adversarial_K2(m, lq.synthesize(m).K, 0.4) for m in models]
        certs.append(lq.construct_adversarial_K2(identity_plant(2), -np.diag([0.5, -0.5]), 0.5))
        assert {c.construction_case for c in certs} == {"off_diagonal", "diagonal_2x2_embedded"}
        for cert in certs:
            A, B = cert.model.A, cert.model.B
            assert np.array_equal(cert.K2, np.linalg.inv(B) @ (A - cert.F2))


class TestPropertySweep:
    def test_random_draws_all_valid(self):
        rng = np.random.default_rng(2024)
        off_diag_rhos = []
        for _ in range(200):
            n = int(rng.choice([2, 3, 4]))
            lam = float(rng.uniform(0.1, 0.9))
            model = random_stabilizable(rng, n, n)
            syn = lq.synthesize(model)
            cert = lq.construct_adversarial_K2(model, syn.K, lam, beta=float(rng.uniform(0.2, 0.8)))
            assert cert.rho_F1 < 1.0
            assert cert.rho_F2 < 1.0
            assert cert.rho_combined > 1.0
            if cert.construction_case == "off_diagonal":
                off_diag_rhos.append(cert.rho_combined)
        assert off_diag_rhos and min(off_diag_rhos) >= 2.0 - 1e-6


class TestPreconditions:
    def test_rejects_non_square_B(self):
        model = lq.LinearModel(
            A=np.zeros((2, 2)), B=np.array([[1.0], [0.0]]), Q=np.eye(2), R=np.eye(1)
        )
        with pytest.raises(SingularB):
            lq.construct_adversarial_K2(model, np.zeros((1, 2)), 0.5)

    def test_rejects_bad_lambda(self):
        model = identity_plant(2)
        with pytest.raises(ValueError):
            lq.construct_adversarial_K2(model, -np.diag([0.5, -0.5]), 1.0)

    def test_rejects_destabilizing_K1(self):
        model = identity_plant(2)
        with pytest.raises(ValueError):
            lq.construct_adversarial_K2(model, -np.diag([1.5, 0.2]), 0.5)

    def test_rejects_scalar_dimension(self):
        model = lq.LinearModel(A=[[0.0]], B=[[1.0]], Q=[[1.0]], R=[[1.0]])
        with pytest.raises(lq.NotApplicable, match="n > 1"):
            lq.construct_adversarial_K2(model, [[-0.5]], 0.5)


@pytest.fixture(scope="module")
def cert2():
    model = identity_plant(2)
    return lq.construct_adversarial_K2(model, -np.diag([0.5, -0.5]), 0.5)


class TestDemonstrateInstability:

    def test_blended_explodes_partner_contracts(self, cert2):
        combined, alone = lq.demonstrate_instability(cert2, [1.0, 0.0], 50)
        assert combined.diverged or np.linalg.norm(combined.states[-1]) > 1e6
        assert not alone.diverged
        assert np.linalg.norm(alone.states[-1]) < 1e-3

    def test_zero_start_stays_zero(self, cert2):
        combined, alone = lq.demonstrate_instability(cert2, [0.0, 0.0], 20)
        assert np.all(combined.states == 0.0)
        assert np.all(alone.states == 0.0)

    def test_weight_swap_symmetry(self, cert2):
        lam = cert2.lam
        swapped = (1 - lam) * cert2.K1 + (1 - (1 - lam)) * cert2.K2
        assert np.allclose(swapped, cert2.combined_gain, atol=1e-14)

    def test_summary_text_mentions_radii(self, cert2):
        text = cert2.summary_text()
        assert "rho(combined)" in text and "K2" in text


def test_radii_are_the_spectral_radii_of_the_closed_loops():
    rng = np.random.default_rng(5)
    checked = 0
    for _ in range(20):
        n = int(rng.integers(2, 5))
        model = random_stabilizable(rng, n)
        syn = lq.synthesize(model)
        try:
            cert = lq.construct_adversarial_K2(model, syn.K, float(rng.uniform(0.2, 0.8)))
        except (NotApplicable, SingularB):
            continue
        A, B = model.A, model.B
        assert cert.rho_F1 == lq.spectral_radius(A - B @ cert.K1)
        assert cert.rho_F2 == lq.spectral_radius(cert.F2)
        assert cert.rho_combined == lq.spectral_radius(A - B @ cert.combined_gain)
        checked += 1
    assert checked >= 10
