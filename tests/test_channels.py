import math
import re

import numpy as np
import pytest

import oracle
from entb92.bell import ch_with_loss
from entb92.channels import (
    ChannelModel,
    JointState,
    analytic_pipeline_state,
    depolarize,
    lossy_povm,
    resend_states,
    usd_attack_channel,
    usd_povm,
)
from entb92.qcore import DensityMatrix, Povm, born_probabilities, partial_trace
from entb92.rates import binary_entropy, depolarized_ch, gain_from_ch, gain_from_chsh, pm_reference_rate
from entb92.states import ProtocolAngle, entangled_state, signal_state

RNG = np.random.default_rng(41907)


def random_density(rng, n=2):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = g @ g.conj().T
    return DensityMatrix(rho / np.trace(rho).real)


def z_projectors():
    p0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    return [p0, np.eye(2, dtype=complex) - p0]


class TestChannelModel:
    def test_defaults_ideal(self):
        ch = ChannelModel()
        assert (ch.eta_a, ch.eta_b, ch.depol_p, ch.attacker) == (1.0, 1.0, 0.0, "none")

    @pytest.mark.parametrize("kw", [
        {"eta_a": -0.1}, {"eta_a": 1.1}, {"eta_b": 2.0},
        {"depol_p": -0.01}, {"depol_p": 1.5}, {"attacker": "mitm"},
    ])
    def test_rejects_out_of_range(self, kw):
        with pytest.raises(ValueError):
            ChannelModel(**kw)

    def test_numbers_are_stored_as_floats(self):
        ch = ChannelModel(eta_a=np.float32(0.5), eta_b=1, depol_p=np.float64(0.25))
        assert [type(v) for v in (ch.eta_a, ch.eta_b, ch.depol_p)] == [float, float, float]

    def test_negative_zero_is_stored_as_zero(self):
        ch = ChannelModel(eta_a=-0.0, eta_b=-0.0, depol_p=-0.0)
        assert [math.copysign(1.0, v) for v in (ch.eta_a, ch.eta_b, ch.depol_p)] == [1.0, 1.0, 1.0]


# every probability argument goes through one check, named as its call site names it
PROBABILITY_SITES = {
    "ChannelModel": (lambda v: ChannelModel(depol_p=v), "depol_p"),
    "depolarize": (lambda v: depolarize(random_density(RNG), v), "depolarization probability"),
    "lossy_povm": (lambda v: lossy_povm(Povm(z_projectors(), labels=("t", "o")), v), "efficiency"),
    "ch_with_loss": (lambda v: ch_with_loss(1.0, v, 1.0), "eta_a"),
    "binary_entropy": (binary_entropy, "binary entropy argument"),
    "gain_from_ch": (lambda v: gain_from_ch(0.1, v), "error rate"),
    "gain_from_chsh": (lambda v: gain_from_chsh(2.4, v), "error rate"),
    "depolarized_ch": (lambda v: depolarized_ch(0.1, v), "depolarization probability"),
    "pm_reference_rate": (pm_reference_rate, "depolarization probability"),
}


@pytest.mark.parametrize("site", PROBABILITY_SITES)
def test_probabilities_reject_bools_and_strings(site):
    call, name = PROBABILITY_SITES[site]
    for bad in (True, False, np.bool_(True), "0.5", None, math.nan, math.inf, -0.1, 1.5):
        with pytest.raises(ValueError, match=re.escape(f"{name} must lie in [0, 1], got {bad!r}")):
            call(bad)
    for good in (0, 1, np.int64(1), np.float64(0.25), np.float32(0.5)):
        call(good)


# every Bell-value argument of a gain must be a finite real number before its domain is checked
BELL_VALUE_SITES = {
    "gain_from_ch": (lambda v: gain_from_ch(v, 0.05), "Bell value"),
    "gain_from_chsh": (lambda v: gain_from_chsh(v, 0.05), "correlator value"),
    "depolarized_ch": (lambda v: depolarized_ch(v, 0.1), "Bell value"),
}


@pytest.mark.parametrize("site", BELL_VALUE_SITES)
def test_bell_values_reject_bools_and_strings(site):
    call, name = BELL_VALUE_SITES[site]
    for bad in (True, False, np.bool_(False), "0.1", None, math.nan, math.inf, 10 ** 400):
        with pytest.raises(ValueError, match=re.escape(f"{name} must be a finite real number, got {bad!r}")):
            call(bad)
    for good in (0, np.int64(0), np.float64(0.1), np.float32(0.1)):
        assert type(call(good)) is float


class TestDepolarize:
    def test_zero_strength_identity(self):
        dm = random_density(RNG)
        np.testing.assert_allclose(depolarize(dm, 0.0).matrix, dm.matrix,
                                   atol=1e-14)

    def test_full_mixing_at_three_quarters(self):
        dm = random_density(RNG)
        np.testing.assert_allclose(depolarize(dm, 0.75).matrix, np.eye(2) / 2,
                                   atol=1e-12)

    def test_bloch_shrink_factor(self):
        for p in (0.01, 0.1, 0.3):
            dm = random_density(RNG)
            out = depolarize(dm, p).matrix
            expect = (1 - 4 * p / 3) * dm.matrix + (4 * p / 3) * np.eye(2) / 2
            np.testing.assert_allclose(out, expect, atol=1e-12)

    def test_matches_reference_map(self):
        for p in (0.0, 0.02, 0.2, 0.75, 1.0):
            dm = random_density(RNG)
            np.testing.assert_allclose(depolarize(dm, p).matrix,
                                       oracle.depol2(dm.matrix, p), atol=1e-12)

    def test_two_qubit_acts_on_receiver_only(self):
        ang = ProtocolAngle(1.1)
        joint = entangled_state(ang).to_density()
        out = depolarize(joint, 0.3)
        np.testing.assert_allclose(out.matrix,
                                   oracle.depol_B(joint.matrix, 0.3),
                                   atol=1e-12)
        # sender marginal untouched
        np.testing.assert_allclose(partial_trace(out, keep="A").matrix,
                                   partial_trace(joint, keep="A").matrix,
                                   atol=1e-12)

    def test_strength_validated(self):
        with pytest.raises(ValueError):
            depolarize(random_density(RNG), 1.2)


class TestLossyPovm:
    def test_unit_efficiency_keeps_click_stats(self):
        povm = lossy_povm(Povm(z_projectors(), labels=("t", "o")), 1.0)
        assert len(povm) == 3
        assert povm.labels[2] == "vacuum"
        np.testing.assert_allclose(povm.elements[2].matrix, np.zeros((2, 2)),
                                   atol=1e-14)

    def test_zero_efficiency_all_vacuum(self):
        povm = lossy_povm(Povm(z_projectors(), labels=("t", "o")), 0.0)
        dm = random_density(RNG)
        np.testing.assert_allclose(born_probabilities(dm, povm), [0, 0, 1],
                                   atol=1e-12)

    def test_clicks_scale_linearly(self):
        base = Povm(z_projectors(), labels=("t", "o"))
        dm = random_density(RNG)
        p_full = born_probabilities(dm, lossy_povm(base, 1.0))
        p_part = born_probabilities(dm, lossy_povm(base, 0.75))
        np.testing.assert_allclose(p_part[:2], 0.75 * p_full[:2], atol=1e-12)
        assert p_part.sum() == pytest.approx(1.0, abs=1e-12)

    def test_marginal_includes_vacuum_mass(self):
        # click + vacuum mass reproduces the loss-free marginal split
        base = Povm(z_projectors(), labels=("t", "o"))
        for eta in RNG.uniform(0.05, 1.0, size=20):
            dm = random_density(RNG)
            p = born_probabilities(dm, lossy_povm(base, eta))
            assert p[2] == pytest.approx(1.0 - eta, abs=1e-12)

    def test_rejects_nonprojective_input(self):
        # unambiguous-discrimination elements are subnormalized projectors
        with pytest.raises(ValueError):
            lossy_povm(usd_povm(ProtocolAngle(1.0)), 0.9)

    def test_efficiency_validated(self):
        base = Povm(z_projectors(), labels=("t", "o"))
        with pytest.raises(ValueError):
            lossy_povm(base, 1.5)


class TestUsdPovm:
    def test_completeness_and_labels(self):
        for th in RNG.uniform(1e-3, math.pi / 2 - 1e-3, size=25):
            povm = usd_povm(ProtocolAngle(th))
            total = sum(e.matrix for e in povm.elements)
            np.testing.assert_allclose(total, np.eye(2), atol=1e-10)
        assert usd_povm(ProtocolAngle(1.0)).labels == (
            "identified_1", "identified_0", "ambiguous_0", "ambiguous_1")

    def test_never_misidentifies(self):
        # element claiming "input was signal j" has zero weight on signal 1-j
        for th in RNG.uniform(1e-3, math.pi / 2 - 1e-3, size=25):
            ang = ProtocolAngle(th)
            povm = usd_povm(ang)
            p_on_0 = born_probabilities(signal_state(0, ang).to_density(), povm)
            p_on_1 = born_probabilities(signal_state(1, ang).to_density(), povm)
            assert p_on_0[0] == pytest.approx(0.0, abs=1e-12)
            assert p_on_1[1] == pytest.approx(0.0, abs=1e-12)

    def test_identification_probability(self):
        ang = ProtocolAngle(math.pi / 3)
        p = born_probabilities(signal_state(0, ang).to_density(), usd_povm(ang))
        assert p[1] == pytest.approx(0.5 * math.sin(math.pi / 3) ** 2, abs=1e-12)

    def test_matches_reference_elements(self):
        ang = ProtocolAngle(0.8)
        for got, want in zip(usd_povm(ang).elements, oracle.usd_elements(0.8)):
            np.testing.assert_allclose(got.matrix, want, atol=1e-13)

    def test_resend_catalog(self):
        ang = ProtocolAngle(0.8)
        out = resend_states(ang)
        np.testing.assert_allclose(out[0].amplitudes, oracle.signal(1, 0.8),
                                   atol=1e-13)
        np.testing.assert_allclose(out[1].amplitudes, oracle.signal(0, 0.8),
                                   atol=1e-13)
        assert out[2] is None and out[3] is None


class TestJointState:
    def test_weights_must_sum_to_one(self):
        qubit = DensityMatrix(0.5 * np.eye(4) / 4, subnormalized=True)
        vac = DensityMatrix(0.25 * np.eye(2) / 2, subnormalized=True)
        with pytest.raises(ValueError):
            JointState(qubit, vac)

    def test_vacuum_weight(self):
        qubit = DensityMatrix(0.6 * np.eye(4) / 4, subnormalized=True)
        vac = DensityMatrix(0.4 * np.eye(2) / 2, subnormalized=True)
        js = JointState(qubit, vac)
        assert js.vacuum_weight == pytest.approx(0.4)
        assert JointState(DensityMatrix(np.eye(4) / 4)).vacuum_weight == 0.0


class TestUsdAttackChannel:
    def test_branch_weights(self):
        for th in RNG.uniform(1e-3, math.pi / 2 - 1e-3, size=20):
            ang = ProtocolAngle(th)
            js = usd_attack_channel(entangled_state(ang).to_density(), ang)
            want = (1 + math.cos(th) ** 2) / 2
            assert js.vacuum_weight == pytest.approx(want, abs=1e-12)

    def test_example_vacuum_weight(self):
        ang = ProtocolAngle(math.pi / 3)
        js = usd_attack_channel(entangled_state(ang).to_density(), ang)
        assert js.vacuum_weight == pytest.approx(0.625, abs=1e-12)

    def test_matches_reference_state(self):
        for th in (0.4, math.pi / 3, 1.3):
            ang = ProtocolAngle(th)
            js = usd_attack_channel(entangled_state(ang).to_density(), ang)
            want_q, want_v, _ = oracle.attacked_state(th)
            np.testing.assert_allclose(js.qubit.matrix, want_q, atol=1e-12)
            np.testing.assert_allclose(js.receiver_vacuum.matrix, want_v,
                                       atol=1e-12)


class TestAnalyticPipeline:
    def test_identity_channel_returns_source(self):
        ang = ProtocolAngle(1.0)
        js = analytic_pipeline_state(ang, ChannelModel())
        np.testing.assert_allclose(js.qubit.matrix,
                                   entangled_state(ang).to_density().matrix,
                                   atol=1e-14)
        assert js.receiver_vacuum is None

    def test_depolarizing_channel(self):
        ang = ProtocolAngle(1.0)
        js = analytic_pipeline_state(ang, ChannelModel(depol_p=0.05))
        want = oracle.depol_B(oracle.proj(oracle.entangled(1.0)), 0.05)
        np.testing.assert_allclose(js.qubit.matrix, want, atol=1e-12)

    def test_attack_then_noise_ordering(self):
        ang = ProtocolAngle(1.0)
        js = analytic_pipeline_state(ang, ChannelModel(depol_p=0.05,
                                                       attacker="usd"))
        want_q, want_v, _ = oracle.attacked_state(1.0)
        np.testing.assert_allclose(js.qubit.matrix,
                                   oracle.depol_B(want_q, 0.05), atol=1e-12)
        np.testing.assert_allclose(js.receiver_vacuum.matrix, want_v,
                                   atol=1e-12)
