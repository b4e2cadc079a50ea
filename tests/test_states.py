import math

import numpy as np
import pytest

import oracle
from entb92.qcore import born_probabilities, partial_trace
from entb92.states import (
    ProtocolAngle,
    basis_state_x,
    basis_state_z,
    bob_basis,
    ch_settings,
    conjugate_state,
    entangled_state,
    signal_mixture,
    signal_state,
    steered_state,
    uninformative_states,
)

RNG = np.random.default_rng(8816)
THETAS = RNG.uniform(1e-3, math.pi / 2 - 1e-3, size=100)


class TestProtocolAngle:
    def test_interior_angle(self):
        ang = ProtocolAngle(math.pi / 3)
        assert ang.theta == pytest.approx(math.pi / 3)
        assert ang.degrees == pytest.approx(60.0)
        assert ang.alpha == pytest.approx(math.sin(math.pi / 6))
        assert ang.beta == pytest.approx(math.cos(math.pi / 6))

    @pytest.mark.parametrize("bad", [0.0, math.pi / 2, -0.1, math.nan, True, "1.0", np.True_, None])
    def test_rejects_boundary_and_invalid(self, bad):
        with pytest.raises(ValueError):
            ProtocolAngle(bad)

    def test_from_degrees(self):
        assert ProtocolAngle.from_degrees(60.0).theta == pytest.approx(math.pi / 3)

    @pytest.mark.parametrize("bad", [True, np.True_, "60", None, 10 ** 400, -10 ** 400,
                                     0, 90, -1.0, math.nan, math.inf])
    def test_from_degrees_rejects_non_angles(self, bad):
        # every bad input raises ValueError, before math.radians can convert or overflow
        with pytest.raises(ValueError, match="degrees"):
            ProtocolAngle.from_degrees(bad)

    def test_amplitudes_normalized(self):
        for th in THETAS:
            ang = ProtocolAngle(th)
            assert ang.alpha ** 2 + ang.beta ** 2 == pytest.approx(1.0)


class TestBasisStates:
    def test_z_states(self):
        np.testing.assert_allclose(basis_state_z(0).amplitudes, [1, 0], atol=0)
        np.testing.assert_allclose(basis_state_z(1).amplitudes, [0, 1], atol=0)

    def test_x_states(self):
        r = 1 / math.sqrt(2)
        np.testing.assert_allclose(basis_state_x(0).amplitudes, [r, r], atol=1e-15)
        np.testing.assert_allclose(basis_state_x(1).amplitudes, [r, -r], atol=1e-15)

    def test_bit_validated(self):
        with pytest.raises(ValueError):
            basis_state_z(2)


class TestSignalStates:
    def test_overlap_is_cosine(self):
        for th in THETAS:
            ang = ProtocolAngle(th)
            ov = signal_state(0, ang).overlap(signal_state(1, ang))
            assert ov.real == pytest.approx(math.cos(th), abs=1e-12)
            assert ov.imag == pytest.approx(0.0, abs=1e-15)

    def test_matches_reference_vectors(self):
        for th in THETAS[:25]:
            ang = ProtocolAngle(th)
            for j in (0, 1):
                np.testing.assert_allclose(signal_state(j, ang).amplitudes,
                                           oracle.signal(j, th), atol=1e-14)

    def test_conjugate_orthogonal_to_partner(self):
        for th in THETAS:
            ang = ProtocolAngle(th)
            for k in (0, 1):
                ov = conjugate_state(k, ang).overlap(signal_state(k, ang))
                assert abs(ov) == pytest.approx(0.0, abs=1e-12)

    def test_conclusive_overlap_squared(self):
        # |<conjugate_k|signal_{1-k}>|^2 = sin^2(theta)
        for th in THETAS:
            ang = ProtocolAngle(th)
            ov = conjugate_state(0, ang).overlap(signal_state(1, ang))
            assert abs(ov) ** 2 == pytest.approx(math.sin(th) ** 2, abs=1e-12)


class TestEntangledState:
    def test_symmetric_point_is_bell_state(self):
        ang = ProtocolAngle(math.pi / 2 - 1e-12)
        amps = entangled_state(ang).amplitudes
        r = 1 / math.sqrt(2)
        np.testing.assert_allclose(amps, [r, 0, 0, r], atol=1e-9)

    def test_two_decompositions_agree(self):
        # x-basis Schmidt form equals the z-basis signal-state expansion
        for th in THETAS:
            ang = ProtocolAngle(th)
            amps = entangled_state(ang).amplitudes
            alt = 0.5 * (np.kron(oracle.ket_z(0), oracle.signal(0, th))
                         + np.kron(oracle.ket_z(1), oracle.signal(1, th))) * 2
            alt = alt / np.linalg.norm(alt)
            np.testing.assert_allclose(amps, alt, atol=1e-12)

    def test_matches_reference(self):
        for th in THETAS[:25]:
            ang = ProtocolAngle(th)
            np.testing.assert_allclose(entangled_state(ang).amplitudes,
                                       oracle.entangled(th), atol=1e-14)


class TestBobBasis:
    def test_labels_and_size(self):
        povm = bob_basis(0, ProtocolAngle(1.0))
        assert povm.labels == ("conclusive", "inconclusive")
        assert len(povm) == 2

    def test_never_conclusive_on_matching_signal(self):
        for th in THETAS:
            ang = ProtocolAngle(th)
            for k in (0, 1):
                rho = signal_state(k, ang).to_density()
                p = born_probabilities(rho, bob_basis(k, ang))
                assert p[0] == pytest.approx(0.0, abs=1e-12)
                assert p[1] == pytest.approx(1.0, abs=1e-12)

    def test_conclusive_probability_on_other_signal(self):
        ang = ProtocolAngle(math.pi / 3)
        rho = signal_state(1, ang).to_density()
        p = born_probabilities(rho, bob_basis(0, ang))
        assert p[0] == pytest.approx(0.75, abs=1e-12)


class TestReducedStates:
    def test_signal_mixture_equals_partial_trace(self):
        for th in THETAS[:30]:
            ang = ProtocolAngle(th)
            joint = entangled_state(ang).to_density()
            np.testing.assert_allclose(signal_mixture(ang).matrix,
                                       partial_trace(joint, keep="B").matrix,
                                       atol=1e-12)

    def test_eigenvalues_are_amplitude_squares(self):
        ang = ProtocolAngle(math.pi / 3)
        ev = np.linalg.eigvalsh(signal_mixture(ang).matrix)
        np.testing.assert_allclose(sorted(ev), [0.25, 0.75], atol=1e-12)

    def test_uninformative_decomposition(self):
        for th in THETAS[:30]:
            ang = ProtocolAngle(th)
            pairs = uninformative_states(ang)
            assert sum(w for _, w in pairs) == pytest.approx(1.0)
            mix = sum(w * sv.to_density().matrix for sv, w in pairs)
            np.testing.assert_allclose(mix, signal_mixture(ang).matrix,
                                       atol=1e-12)

    def test_uninformative_weights(self):
        ang = ProtocolAngle(math.pi / 3)
        (_, w0), (_, w1) = uninformative_states(ang)
        assert w0 == pytest.approx(0.75)
        assert w1 == pytest.approx(0.25)


class TestSteering:
    def test_z_outcomes_equiprobable(self):
        for th in THETAS[:20]:
            ang = ProtocolAngle(th)
            for j in (0, 1):
                sv, prob = steered_state("Z", j, ang)
                assert prob == pytest.approx(0.5, abs=1e-12)
                np.testing.assert_allclose(sv.amplitudes, oracle.signal(j, th),
                                           atol=1e-12)

    def test_x_steering_example(self):
        sv, prob = steered_state("X", 0, ProtocolAngle(math.pi / 3))
        assert prob == pytest.approx(0.75, abs=1e-12)
        np.testing.assert_allclose(sv.amplitudes, oracle.ket_x(0), atol=1e-12)

    def test_probabilities_sum_per_basis(self):
        for th in THETAS[:20]:
            ang = ProtocolAngle(th)
            for basis in ("Z", "X"):
                total = sum(steered_state(basis, j, ang)[1] for j in (0, 1))
                assert total == pytest.approx(1.0, abs=1e-12)

    def test_consistent_with_projection_of_joint_state(self):
        # steering must reproduce conditional states of the entangled pair
        for th in THETAS[:20]:
            ang = ProtocolAngle(th)
            rho = entangled_state(ang).to_density().matrix.reshape(2, 2, 2, 2)
            for basis, kets in (("Z", [oracle.ket_z(0), oracle.ket_z(1)]),
                                ("X", [oracle.ket_x(0), oracle.ket_x(1)])):
                for j, ket in enumerate(kets):
                    sv, prob = steered_state(basis, j, ang)
                    cond = np.einsum("ikjl,kl->ij", rho,
                                     oracle.proj(ket).T)
                    w = np.trace(cond).real
                    assert prob == pytest.approx(w, abs=1e-12)
                    np.testing.assert_allclose(cond / w,
                                               sv.to_density().matrix,
                                               atol=1e-11)

    def test_basis_validated(self):
        with pytest.raises(ValueError):
            steered_state("Y", 0, ProtocolAngle(1.0))


class TestDecodeRule:
    def test_conclusive_click_never_wrong_without_noise(self):
        # sender bit j, receiver guesses 1-k on a conclusive click in basis k;
        # the error cell requires k == j and has zero weight in a clean run
        grid = np.linspace(1e-4, math.pi / 2 - 1e-4, 1000)
        worst = 0.0
        for th in grid:
            ang = ProtocolAngle(th)
            for j in (0, 1):
                rho = signal_state(j, ang).to_density()
                p = born_probabilities(rho, bob_basis(j, ang))
                worst = max(worst, p[0])
        assert worst < 1e-12


class TestChSettings:
    def test_targets(self):
        ang = ProtocolAngle(math.pi / 3)
        spec = ch_settings(ang)
        a0 = spec.alice[0]
        a1 = spec.alice[1]
        np.testing.assert_allclose(a0.elements[0].matrix,
                                   oracle.proj(oracle.ket_z(0)), atol=1e-14)
        np.testing.assert_allclose(a1.elements[0].matrix,
                                   oracle.proj(oracle.ket_x(1)), atol=1e-14)
        for k in (0, 1):
            bk = spec.bob[k]
            np.testing.assert_allclose(
                bk.elements[0].matrix,
                oracle.proj(oracle.conj_state(k, math.pi / 3)), atol=1e-14)
        assert spec.bob_theta == pytest.approx(math.pi / 3)

    def test_detuned_receiver_angle(self):
        ang = ProtocolAngle(math.pi / 3)
        bt = math.atan(math.sin(math.pi / 3))
        spec = ch_settings(ang, bob_theta=bt)
        assert spec.bob_theta == pytest.approx(bt)
        np.testing.assert_allclose(spec.bob[1].elements[0].matrix,
                                   oracle.proj(oracle.conj_state(1, bt)),
                                   atol=1e-14)

    def test_labels(self):
        spec = ch_settings(ProtocolAngle(1.0))
        assert spec.alice[0].labels == ("target", "orthogonal")
