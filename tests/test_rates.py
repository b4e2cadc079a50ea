import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import oracle
from oracle import golden_section_max
from entb92 import bell, qcore, rates
from entb92.bell import CH_QUANTUM_MAX, ch_value, ch_with_loss, table_from_state
from entb92.channels import ChannelModel, analytic_pipeline_state, depolarize
from entb92.rates import (
    PM_REFERENCE_MAX_DEPOL,
    PM_REFERENCE_RATE_AT_ZERO,
    STRATEGIES,
    RateReport,
    ThresholdResult,
    binary_entropy,
    depolarized_ch,
    efficiency_threshold,
    gain_from_ch,
    gain_from_chsh,
    key_rate,
    max_depolarization,
    normalized_rate,
    optimal_theta,
    pm_reference_rate,
    qber_and_conclusive,
)
from entb92.states import ProtocolAngle, bob_basis, ch_settings, signal_state

RNG = np.random.default_rng(9203)
FIXTURES = Path(__file__).parent / "fixtures"


class TestBinaryEntropy:
    def test_endpoints_and_midpoint(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)

    def test_reference_value(self):
        assert binary_entropy(0.11) == pytest.approx(0.499915958164528,
                                                     abs=1e-12)

    def test_symmetry(self):
        for q in RNG.uniform(0.0, 1.0, size=50):
            assert binary_entropy(q) == pytest.approx(binary_entropy(1 - q),
                                                      abs=1e-12)

    def test_domain_validated(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.01)
        with pytest.raises(ValueError):
            binary_entropy(1.01)


class TestGainFormulas:
    def test_classical_boundary_is_zero(self):
        assert gain_from_chsh(2.0, 0.0) == pytest.approx(0.0, abs=1e-12)
        assert gain_from_ch(0.0, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_maximal_violation_with_clean_key(self):
        assert gain_from_chsh(2 * math.sqrt(2), 0.0) == pytest.approx(1.0,
                                                                      abs=1e-12)

    def test_reference_operating_point(self):
        assert gain_from_ch(0.125, 0.0) == pytest.approx(0.26756769267675207,
                                                         abs=1e-12)
        assert gain_from_chsh(2.5, 0.0) == pytest.approx(0.26756769267675207,
                                                         abs=1e-12)

    def test_two_parameterizations_agree(self):
        # dense sweep over the shared domain; identity must hold to 1e-12
        # (grid stops short of the algebraic edge where double-precision
        # cancellation in either form exceeds that tolerance)
        for s in np.linspace(-1.2, 0.207, 250):
            for q in (0.0, 0.01, 0.05, 0.11):
                a = gain_from_ch(s, q)
                b = gain_from_chsh(4 * s + 2, q)
                assert a == pytest.approx(b, abs=1e-12)

    def test_matches_reference(self):
        for s in np.linspace(-1.2, 0.207, 120):
            got = gain_from_ch(s, 0.02)
            assert got == pytest.approx(oracle.gain_ch(s, 0.02), abs=1e-12)

    def test_error_rate_only_subtracts_entropy(self):
        q = 0.07
        assert gain_from_ch(0.125, q) == pytest.approx(
            gain_from_ch(0.125, 0.0) - binary_entropy(q), abs=1e-12)

    def test_domain_validated(self):
        with pytest.raises(ValueError):
            gain_from_chsh(2 * math.sqrt(2) + 1e-6, 0.0)
        with pytest.raises(ValueError):
            gain_from_ch(0.21, 0.0)
        with pytest.raises(ValueError):
            gain_from_ch(-1.21, 0.0)

    def test_positive_iff_bridge_value_is_nonclassical(self):
        # sign tracks |4s + 2| > 2, which covers violations of either sign
        for s in np.linspace(-1.2, 0.207, 200):
            g = gain_from_ch(s, 0.0)
            if s > 1e-9 or s < -1.0 - 1e-9:
                assert g > 0.0
            elif -1.0 + 1e-9 < s < -1e-9:
                assert g < 0.0

    def test_key_rate_scales_with_conclusive_count(self):
        assert key_rate(0, 0.5) == 0.0
        assert key_rate(10 ** 6, 0.26756769267675207) == pytest.approx(
            267567.69267675207)
        assert key_rate(100, -0.2) == pytest.approx(-20.0)
        assert key_rate(np.int64(3), np.float32(0.5)) == 1.5

    @pytest.mark.parametrize("n_con, gain, name", [
        (math.nan, 1.0, "conclusive count"), (True, 0.5, "conclusive count"), ("3", 0.5, "conclusive count"),
        (None, 0.5, "conclusive count"), (-1, 0.5, "conclusive count"), (10 ** 400, 0.5, "conclusive count"),
        (3, math.inf, "gain"), (3, -math.inf, "gain"), (3, math.nan, "gain"), (3, False, "gain"),
        (3, "0.5", "gain"), (3, 10 ** 400, "gain")])
    def test_key_rate_rejects_what_is_not_a_finite_real(self, n_con, gain, name):
        with pytest.raises(ValueError, match=name):
            key_rate(n_con, gain)


class TestOneGain:
    """``_gain`` on a lattice over both ends of its domain, against the oracle's gain, bit for bit."""

    # the domain's ends and one float past each, where the radicand 1 - 4s - 4s^2 clips to 0
    S = [math.nextafter(rates._CH_DOMAIN_LO, -math.inf), rates._CH_DOMAIN_LO, -0.5, 0.0, 0.1, CH_QUANTUM_MAX,
         math.nextafter(CH_QUANTUM_MAX, math.inf)]
    Q = [0.0, 1e-300, 0.5, 1.0 - 1e-16, 1.0]

    def test_lattice_is_oracle_bits_without_float_warnings(self):
        assert all(1.0 - 4.0 * s - 4.0 * s * s < 0.0 for s in (self.S[0], self.S[-1]))
        s, q = (a.ravel() for a in np.meshgrid(self.S, self.Q))
        pairs = list(zip(s.tolist(), q.tolist()))
        with np.errstate(all="raise"):
            got_array = rates._gain(s, q, rates._ARRAY)
            got_float = [gain_from_ch(si, qi) for si, qi in pairs]
        assert bits(got_array) == bits(oracle.np_gain_array(s, q))
        assert bits(got_float) == bits(oracle.gain_ch(si, qi) for si, qi in pairs)

    def test_binary_entropy_is_oracle_bits(self):
        for q in [*self.Q, *np.random.default_rng(2911).uniform(0.0, 1.0, 200).tolist()]:
            assert binary_entropy(q).hex() == oracle.h2(q).hex()


class TestDepolarizedCh:
    def test_no_noise_identity(self):
        for s in np.linspace(-0.5, 0.2, 30):
            assert depolarized_ch(s, 0.0) == pytest.approx(s, abs=1e-15)

    def test_matches_state_pipeline(self):
        # closed form against the full density-matrix computation
        from entb92.bell import analytic_ch
        for th in RNG.uniform(1e-3, math.pi / 2 - 1e-3, size=25):
            for p in (0.005, 0.02, 0.05):
                rho = oracle.depol_B(oracle.proj(oracle.entangled(th)), p)
                want = oracle.ch_born(th, rho=rho)
                got = depolarized_ch(analytic_ch(th), p)
                assert got == pytest.approx(want, abs=1e-11)

    def test_strength_validated(self):
        with pytest.raises(ValueError):
            depolarized_ch(0.1, -0.1)

    def test_elementwise_on_real_finite_arrays(self):
        s = np.linspace(-0.5, 0.2, 30)
        # a float32 array is widened first, as the float call widens each element
        for values in (s, s.reshape(5, 6), np.arange(-2, 3), s.astype(np.float32)):
            got = depolarized_ch(values, 0.02)
            assert got.shape == values.shape
            assert bits(got.ravel()) == bits(depolarized_ch(v, 0.02) for v in values.ravel().tolist())
        for bad in (np.array([0.1, math.nan]), np.array([math.inf]), np.array([True, False]),
                    np.array(["0.1"]), np.array([0.1], dtype=object), np.array([0.1 + 0j])):
            with pytest.raises(ValueError, match="Bell value"):
                depolarized_ch(bad, 0.02)


class TestQberAndConclusive:
    def test_noiseless_channel_is_error_free(self):
        for th in RNG.uniform(1e-3, math.pi / 2 - 1e-3, size=30):
            q, f = qber_and_conclusive(th, ChannelModel())
            assert q == pytest.approx(0.0, abs=1e-12)
            assert f == pytest.approx(math.sin(th) ** 2 / 2, abs=1e-12)

    def test_reference_operating_point(self):
        q, f = qber_and_conclusive(math.pi / 3, ChannelModel(depol_p=0.02))
        assert q == pytest.approx(0.017621145374449365, abs=1e-12)
        assert f == pytest.approx(0.37833333333333333, abs=1e-12)

    def test_closed_form_on_grid(self):
        for th in RNG.uniform(1e-3, math.pi / 2 - 1e-3, size=30):
            p = RNG.uniform(0.0, 0.3)
            q, f = qber_and_conclusive(th, ChannelModel(depol_p=p))
            want_q, want_f = oracle.qber_closed(th, p)
            assert q == pytest.approx(want_q, abs=1e-11)
            assert f == pytest.approx(want_f, abs=1e-11)

    def test_matches_measurement_pipeline(self):
        for th in RNG.uniform(1e-3, math.pi / 2 - 1e-3, size=15):
            p = RNG.uniform(0.0, 0.2)
            q, f = qber_and_conclusive(th, ChannelModel(depol_p=p))
            want_q, want_f = oracle.qf_born(th, p)
            assert q == pytest.approx(want_q, abs=1e-11)
            assert f == pytest.approx(want_f, abs=1e-11)

    def test_attacker_rejected(self):
        with pytest.raises(ValueError):
            qber_and_conclusive(1.0, ChannelModel(attacker="usd"))

    def test_receiver_angle_is_the_source_angle(self):
        with pytest.raises(TypeError):
            qber_and_conclusive(1.0, ChannelModel(), bob_theta=0.5)


class TestRateReport:
    def test_normalized_rate_report_consistency(self):
        # without a conclusive count, rate is the normalized rate
        for rep in (normalized_rate(math.pi / 3, 0.01), rates._rate_report(0.1, 0.02, 0.4)):
            assert isinstance(rep, RateReport)
            assert rep.s_chsh == pytest.approx(4 * rep.s_ch + 2, abs=1e-12)
            assert rep.normalized_rate == pytest.approx(
                rep.conclusive_fraction * rep.gain, abs=1e-12)
            assert rep.rate == rep.normalized_rate
            assert 0.0 < rep.normalized_rate < rep.conclusive_fraction

    def test_only_the_gain_reads_the_clipped_bell_value(self):
        # an estimate beyond either root of the gain domain is reported as observed
        rep = rates._rate_report(0.3, 0.0, 0.5, 10)
        assert (rep.s_ch, rep.s_chsh) == (0.3, 3.2)
        assert rep.gain == gain_from_ch(CH_QUANTUM_MAX, 0.0)
        assert rep.rate == key_rate(10, rep.gain)
        low = rates._rate_report(-2.0, 0.1, 0.5, 10)
        assert (low.s_ch, low.s_chsh) == (-2.0, -6.0)
        assert low.gain == gain_from_ch(rates._CH_DOMAIN_LO, 0.1)

    def test_zero_noise_point(self):
        rep = normalized_rate(math.pi / 3, 0.0)
        assert rep.s_ch == pytest.approx(0.125, abs=1e-12)
        assert rep.qber == pytest.approx(0.0, abs=1e-12)
        assert rep.gain == pytest.approx(0.26756769267675207, abs=1e-12)
        assert rep.conclusive_fraction == pytest.approx(0.375, abs=1e-12)

    def test_strategies_differ(self):
        # detuning the receiver raises the violation but costs key errors
        fixed = normalized_rate(1.2, 0.01, strategy="fixed_settings")
        tuned = normalized_rate(1.2, 0.01, strategy="ch_max")
        assert tuned.s_ch > fixed.s_ch
        assert tuned.qber > fixed.qber

    def test_strategy_validated(self):
        with pytest.raises(ValueError):
            normalized_rate(1.0, 0.01, strategy="other")
        assert STRATEGIES == ("fixed_settings", "ch_max")

    def test_report_field_bounds_enforced(self):
        with pytest.raises(ValueError):
            RateReport(s_ch=0.1, s_chsh=2.4, qber=1.5,
                       conclusive_fraction=0.4, gain=0.2, rate=0.08,
                       normalized_rate=0.08)
        with pytest.raises(ValueError):
            RateReport(s_ch=0.1, s_chsh=2.4, qber=0.0,
                       conclusive_fraction=0.4, gain=0.2, rate=0.5,
                       normalized_rate=0.5)

    def test_json_dict_fields(self):
        d = normalized_rate(1.0, 0.005).to_json_dict()
        assert set(d) == {"s_ch", "s_chsh", "qber", "conclusive_fraction",
                          "gain", "rate", "normalized_rate"}


class TestOptimalTheta:
    def test_golden_section_on_parabola(self):
        x, fx = golden_section_max(lambda x: -(x - 1.3) ** 2 + 2.0, 0.0, 3.0)
        assert x == pytest.approx(1.3, abs=1e-6)
        assert fx == pytest.approx(2.0, abs=1e-10)

    def test_optimum_beats_neighbors(self):
        theta, rep = optimal_theta(0.01)
        for d in (-0.01, 0.01):
            assert normalized_rate(theta + d, 0.01).gain <= rep.gain + 1e-12

    def test_reference_angles(self):
        # gain-optimal source angle per noise level, in degrees
        for p, want in ((0.01, 61.56), (0.02, 62.65), (0.03, 63.57)):
            theta, rep = optimal_theta(p)
            assert math.degrees(theta) == pytest.approx(want, abs=0.1)
            assert rep.normalized_rate > 0.0

    def test_tuned_strategy_angle_shifts_up(self):
        th_fixed, _ = optimal_theta(0.02, strategy="fixed_settings")
        th_tuned, _ = optimal_theta(0.02, strategy="ch_max")
        assert th_tuned > th_fixed


def pipeline_terms(theta, p, strategy):
    """(S_CH, QBER, conclusive fraction) through the density-matrix pipeline."""
    angle = ProtocolAngle(theta)
    phi = theta if strategy == "fixed_settings" else math.atan(math.sin(theta))
    channel = ChannelModel(depol_p=p)
    settings = ch_settings(angle, None if strategy == "fixed_settings" else phi)
    s = ch_value(table_from_state(analytic_pipeline_state(angle, channel), settings, channel)).value
    p_con = p_err = 0.0
    for j in (0, 1):
        rho = depolarize(signal_state(j, angle).to_density(), p)
        for k in (0, 1):
            pc = 0.25 * float(qcore.born_probabilities(rho, bob_basis(k, ProtocolAngle(phi)))[0])
            p_con += pc
            p_err += pc if k == j else 0.0
    return s, p_err / p_con, p_con


class TestClosedFormKernel:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("p", [0.0, 0.01, 0.03, 0.2])
    def test_matches_density_matrix_pipeline(self, strategy, p):
        for th in np.linspace(0.05, math.pi / 2 - 0.05, 25):
            rep = normalized_rate(th, p, strategy)
            s, q, f = pipeline_terms(th, p, strategy)
            assert rep.s_ch == pytest.approx(s, abs=1e-12)
            assert rep.qber == pytest.approx(q, abs=1e-12)
            assert rep.conclusive_fraction == pytest.approx(f, abs=1e-12)
            assert rep.gain == pytest.approx(gain_from_ch(s, q), abs=1e-12)

    def test_noiseless_qber_is_exactly_zero(self):
        # the pipeline leaves about 4e-9 of rounding here; the closed form none
        assert qber_and_conclusive(1e-4, ChannelModel())[0] == 0.0
        assert normalized_rate(1e-4, 0.0).qber == 0.0

    def test_report_fields_are_python_floats(self):
        rep = normalized_rate(1.0, 0.01, strategy="ch_max")
        assert all(type(v) is float for v in rep.to_json_dict().values())
        assert all(type(v) is float for v in qber_and_conclusive(1.0, ChannelModel(depol_p=0.01)))

    def test_scan_gain_matches_gain_from_ch(self):
        for strategy in STRATEGIES:
            for p in (0.0, 0.02, 0.05):
                s, q, _ = rates._closed_form(rates._THETA_GRID, p, strategy)
                want = [gain_from_ch(si, qi) for si, qi in zip(s, q)]
                np.testing.assert_allclose(rates._gain(s, q, rates._ARRAY), want, rtol=0.0, atol=1e-13)

    def test_hot_path_builds_no_density_matrices(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("density matrix or POVM built on the analytic path")

        monkeypatch.setattr(qcore.DensityMatrix, "__init__", refuse)
        monkeypatch.setattr(qcore.Povm, "__init__", refuse)
        with pytest.raises(AssertionError):  # the guard is live
            qcore.DensityMatrix(np.eye(2) / 2)
        normalized_rate(1.0, 0.01)
        normalized_rate(1.0, 0.01, strategy="ch_max")
        for strategy in STRATEGIES:
            optimal_theta(0.02, strategy)
        assert max_depolarization("fixed_settings").value == pytest.approx(0.0336, abs=5e-4)


class TestExactThetaStar:
    def test_noiseless_fixed_settings_optimum_is_pi_over_3(self):
        theta, rep = optimal_theta(0.0)
        assert theta == pytest.approx(math.pi / 3, abs=1e-12)
        assert rep.qber == 0.0

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("p", [0.01, 0.02, 0.03])
    def test_slope_changes_sign_at_theta_star(self, strategy, p):
        theta, _ = optimal_theta(p, strategy)
        for delta in (1e-6, 1e-9):
            assert rates._gain_slope(theta - delta, p, strategy) > 0.0
            assert rates._gain_slope(theta + delta, p, strategy) < 0.0
        # bisected down to adjacent floats
        assert rates._gain_slope(theta, p, strategy) > 0.0
        assert rates._gain_slope(math.nextafter(theta, math.inf), p, strategy) <= 0.0

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("p", [5e-324, 1e-310, 2e-308])
    def test_subnormal_noise_keeps_the_noiseless_theta_star(self, strategy, p):
        # with fixed settings (1 - Q)/Q overflows at subnormal p; the entropy term it scales is below 1e-300
        assert rates._gain_slope(math.pi / 4, p, strategy) < math.inf
        assert optimal_theta(p, strategy)[0].hex() == optimal_theta(0.0, strategy)[0].hex()

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_slope_matches_finite_difference(self, strategy):
        h = 1e-6
        for p in (0.0, 0.01, 0.03, 0.2):
            for th in np.linspace(0.1, math.pi / 2 - 0.1, 15):
                fd = (normalized_rate(th + h, p, strategy).gain
                      - normalized_rate(th - h, p, strategy).gain) / (2 * h)
                assert rates._gain_slope(th, p, strategy) == pytest.approx(fd, abs=1e-8)


def bits(values):
    return [float(v).hex() for v in values]


def golden_p_values():
    """The default rate-curve grid, then both noise thresholds with the float past each."""
    grid = [row["p"] for row in json.loads((FIXTURES / "rate_curve_golden.json").read_text())["rows"]]
    noise = json.loads((FIXTURES / "thresholds_golden.json").read_text())["max_depolarization"]
    return [*grid, *(x for entry in noise.values() for x in entry["bracket"])]


def oracle_p_values():
    """p = 0, the default rate-curve grid, both noise thresholds with the float past each, random p up to 0.71
    and beyond it, where the float the bisection lands on is most sensitive to how the slope is computed."""
    rng = np.random.default_rng(2107)
    return [0.0, *golden_p_values(), *rng.uniform(0.0, 0.05, 60), *rng.uniform(0.05, 0.71, 30),
            *rng.uniform(0.71, 1.0, 40), 1.0]


class TestSolverOracle:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_theta_star_and_report_match_numpy_scalar_solver(self, strategy):
        ps = oracle_p_values()
        assert len(ps) >= 200 and sum(p > 0.71 for p in ps) >= 40
        for p in ps:
            theta_ref = oracle.np_optimal_theta(p, strategy)
            theta, report = optimal_theta(p, strategy)
            assert theta.hex() == theta_ref.hex(), (p, strategy)
            want = rates._rate_report(*oracle.np_closed_form(theta_ref, p, strategy))
            assert bits(vars(report).values()) == bits(vars(want).values()), (p, strategy)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_slope_matches_numpy_scalar_slope(self, strategy):
        for theta in np.random.default_rng(3301).uniform(0.0, math.pi / 2, 200).tolist():
            for p in (0.0, 0.02, 0.8):
                assert rates._gain_slope(theta, p, strategy).hex() == oracle.np_gain_slope(theta, p, strategy).hex()


def lattice_p_values():
    """1 048 p: dense on [0, 0.05], the golden grid and noise brackets, p from 1e-12 up geometrically (where tuned
    settings near the quantum bound make the slope's rounding error largest), random p in (0.71, 1], p on both sides
    of 0.75 (where d = 1 - 4p/3 shrinks every slope), 5e-324 and 1.0."""
    rng = np.random.default_rng(2411)
    near = 0.75 + np.geomspace(1e-9, 1e-2, 20)
    return [*np.linspace(0.0, 0.05, 701).tolist(), *golden_p_values(), *np.geomspace(1e-12, 1e-3, 60).tolist(),
            *rng.uniform(0.71, 1.0, 160).tolist(), *near.tolist(), *(1.5 - near).tolist(), 5e-324, 1.0]


@pytest.fixture(scope="module")
def lattice_solves():
    """(p, theta*, report, calls of rates._gain_slope) of optimal_theta at every lattice p, per strategy."""
    slope, calls = rates._gain_slope, [0]

    def counted(theta, p, strategy):
        calls[0] += 1
        return slope(theta, p, strategy)

    solves = {strategy: [] for strategy in STRATEGIES}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rates, "_gain_slope", counted)
        for strategy, rows in solves.items():
            for p in lattice_p_values():
                calls[0] = 0
                rows.append((p, *optimal_theta(p, strategy), calls[0]))
    return solves


class TestSignWindow:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_theta_star_is_the_plain_bisection_float(self, lattice_solves, strategy):
        assert len(lattice_solves[strategy]) >= 1000
        for p, theta, report, _ in lattice_solves[strategy]:
            want = oracle.np_optimal_theta(p, strategy, slope=rates._gain_slope)
            assert theta.hex() == want.hex(), (p, strategy)
            assert bits(vars(report).values()) == bits(vars(normalized_rate(want, p, strategy)).values()), p

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_slope_evaluations_per_theta_star(self, lattice_solves, strategy):
        # the bisection from the grid bracket alone takes 48
        rows = lattice_solves[strategy]
        assert np.mean([n for p, _, _, n in rows if p <= 0.05]) <= 24
        assert max(n for *_, n in rows) <= 50

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_computed_sign_is_settled_outside_the_window(self, monkeypatch, strategy):
        # where the slope's rounding error is largest: tuned settings at tiny p, and d near 0
        near = 0.75 + np.geomspace(1e-7, 1e-3, 12)
        windows, find = [], rates._sign_window

        def recorded(f, a, b, fa, fb, tau):
            windows.append((f, a, b, *find(f, a, b, fa, fb, tau)))
            return windows[-1][-2:]

        monkeypatch.setattr(rates, "_sign_window", recorded)
        for p in [*np.geomspace(1e-9, 1e-4, 12), *near, *(1.5 - near), 0.013, 0.3]:
            optimal_theta(float(p), strategy)
        assert len(windows) >= 12
        for f, a, b, lo, hi in windows:
            assert a <= lo < hi <= b
            below = [x for k in range(200) if (x := lo - k * math.ulp(lo)) > a]
            above = [x for k in range(200) if (x := hi + k * math.ulp(hi)) < b]
            assert all(f(x) > 0.0 for x in below) and all(f(x) < 0.0 for x in above), (a, lo, hi)

    def test_sign_window_ends(self):
        # rises from f(0) = 0.001 to a peak, then falls through its root just past pi
        f, root = (lambda x: 0.001 + math.sin(x)), math.pi + math.asin(0.001)
        fa, fb = f(0.0), f(4.0)
        lo, hi = rates._sign_window(f, 0.0, 4.0, fa, fb, 1e-6)
        assert 0.0 < lo < root < hi < 4.0 and f(lo) > 1e-6 and f(hi) < -1e-6 and hi - lo < 1e-4
        # f(0) is within tau, so the estimate stays at 0 and nothing below the peak is skipped
        assert rates._sign_window(f, 0.0, 4.0, fa, fb, 0.01) == [0.0, 4.0]
        assert rates._sign_window(f, 0.0, 4.0, fa, fb, math.inf) == [0.0, 4.0]

    X0 = 1.123456789
    FLIPS = (1.0, -1.0, 1.0, -1.0, 1.0, 1.0, -1.0)  # f on the floats from X0 - 3 ulp to X0 + 3 ulp

    def flipping(self, calls):
        """A slope that is positive below X0 - 3 ulp and negative above X0 + 3 ulp, with FLIPS between."""
        def f(x):
            calls.append(x)
            k = round((x - self.X0) / math.ulp(self.X0))
            return 1.0 if k < -3 else -1.0 if k > 3 else self.FLIPS[k + 3]
        return f

    @pytest.mark.parametrize("a, b", [(1.0, 1.25), (0.5, 2.0), (X0 - 1e-9, X0 + 3e-12)])
    def test_bisect_calls_f_only_inside_its_window(self, a, b):
        plain_calls = []
        plain = oracle.bisect_adjacent(self.flipping(plain_calls), a, b)
        assert rates._bisect(self.flipping([]), a, b) == plain
        calls = []
        assert rates._bisect(self.flipping(calls), a, b, a, b) == plain
        assert calls == plain_calls
        u = math.ulp(self.X0)
        for lo_ulps, hi_ulps in ((4, 4), (5, 900), (2 ** 20, 7), (10 ** 9, 10 ** 9)):
            lo, hi = self.X0 - lo_ulps * u, self.X0 + hi_ulps * u
            calls = []
            assert rates._bisect(self.flipping(calls), a, b, lo, hi) == plain, (lo_ulps, hi_ulps)
            assert all(lo < x < hi for x in calls)
            assert len(calls) <= len(plain_calls) - (lo > a) - (hi < b)


class TestBackends:
    ANGLES = [*rates._THETA_GRID.tolist(), *np.random.default_rng(4411).uniform(0.0, math.pi / 2, 1200).tolist()]

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_float_backend_equals_array_elements(self, strategy):
        # if this host's numpy sin, cos, sqrt or float_power rounds unlike libm, this is the test that fails
        theta = np.array(self.ANGLES)
        setting = rates._setting(theta, strategy)
        # the receiver's overlaps at phi = theta, and at the strategy's phi (theta again, or atan(sin theta))
        phi = setting[0]
        overlaps = [bell._overlaps(theta, angle, bell._ARRAY) for angle in (theta, phi)]
        closed = rates._closed_form(theta, 0.013, strategy)
        for k, th in enumerate(self.ANGLES):
            got = rates._setting(th, strategy, rates._FLOAT)
            assert bits(got) == bits(np.broadcast_to(col, theta.shape)[k] for col in setting), th
            for angle, want in zip((th, got[0]), overlaps):
                values = bell._overlaps(th, angle)
                assert all(type(v) is float for v in values)
                assert bits(values) == bits(col[k] for col in want), (th, angle)
            float_closed = rates._closed_form(th, 0.013, strategy, rates._FLOAT)
            assert all(type(v) is float for v in float_closed)
            assert bits(float_closed) == bits(col[k] for col in closed), th

    def test_overlaps_at_the_source_angle(self):
        # at phi = theta: 0, sin^2 theta, cos^2(theta/2), sin^2(theta/2), each square pow(x, 2.0), bit for bit
        for th in self.ANGLES:
            want = (0.0, math.pow(math.sin(th), 2.0), math.pow(math.cos(th / 2.0), 2.0),
                    math.pow(math.sin(th / 2.0), 2.0))
            assert bits(bell._overlaps(th, th)) == bits(want), th
        theta = np.array(self.ANGLES)
        want = [np.float_power(f(x), 2.0) for f, x in ((np.sin, 0.0 * theta), (np.sin, theta),
                                                        (np.cos, theta / 2.0), (np.sin, theta / 2.0))]
        assert [bits(v) for v in bell._overlaps(theta, theta, bell._ARRAY)] == [bits(v) for v in want]

    def test_scan_columns_are_read_only(self):
        assert set(rates._SCAN_COLUMNS) == set(STRATEGIES)
        arrays = [rates._THETA_GRID, *(row for rows in rates._SCAN_COLUMNS.values() for row in rows)]
        assert len(arrays) == 7
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("p", [0.0, 0.0005, 0.013, 0.033624, 0.2, 0.75, 0.93, 1.0])
    def test_scan_columns_give_closed_form_bits(self, strategy, p):
        s, same, diff = rates._depolarized(p, *rates._SCAN_COLUMNS[strategy])
        s_want, q_want, f_want = rates._closed_form(rates._THETA_GRID, p, strategy)
        q, total = rates._qber_and_total(same, diff)
        for got, want in ((s, s_want), (q, q_want), (0.5 * total, f_want)):
            assert bits(got) == bits(want)


def violation_condition(eta_a, eta_b):
    """4 (eta_a - 1/2) eta_b - eta_a: positive iff some angle violates the CH inequality."""
    return 4 * (eta_a - Fraction(1, 2)) * eta_b - eta_a


EFFICIENCY_MODES = {"alice_perfect": lambda e: (1, e), "bob_perfect": lambda e: (e, 1),
                    "symmetric": lambda e: (e, e)}


class TestExactThresholds:
    @pytest.mark.parametrize("mode", sorted(EFFICIENCY_MODES))
    def test_efficiency_bracket_straddles_exact_condition(self, mode):
        res = efficiency_threshold(mode)
        lo, hi = res.bracket
        assert res.value == lo and hi == math.nextafter(lo, 1.0) and res.tolerance == hi - lo
        assert violation_condition(*map(Fraction, EFFICIENCY_MODES[mode](lo))) <= 0
        assert violation_condition(*map(Fraction, EFFICIENCY_MODES[mode](hi))) > 0

    def test_condition_sign_matches_lattice_maximum(self):
        # the supremum over theta is approached as theta -> 0, so the angles
        # run geometrically down to 1e-4
        thetas = np.geomspace(1e-4, math.pi / 2, 150)
        etas = np.linspace(0.0, 1.0, 51)
        checked = 0
        for eta_a in etas:
            for eta_b in etas:
                cond = float(violation_condition(Fraction(eta_a), Fraction(eta_b)))
                if abs(cond) <= 1e-3:
                    continue
                best = max(ch_with_loss(t, eta_a, eta_b) for t in thetas)
                assert (best > 0.0) == (cond > 0.0), (eta_a, eta_b, best)
                checked += 1
        assert checked > 2500

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_noise_bracket_holds_adjacent_floats(self, strategy):
        res = max_depolarization(strategy)
        a, b = res.bracket
        assert res.value == a and b == math.nextafter(a, 1.0) and res.tolerance == b - a
        assert optimal_theta(a, strategy)[1].normalized_rate > 0.0
        assert optimal_theta(b, strategy)[1].normalized_rate <= 0.0


class TestThresholdResult:
    def test_value_must_sit_inside_bracket(self):
        with pytest.raises(ValueError):
            ThresholdResult(parameter="depol_p", value=0.2,
                            bracket=(0.0, 0.1), tolerance=1e-5)

    def test_json_dict(self):
        r = ThresholdResult(parameter="eta", value=0.75, bracket=(0.7, 0.8),
                            tolerance=1e-4)
        assert r.to_json_dict() == {"parameter": "eta", "value": 0.75,
                                    "bracket": [0.7, 0.8], "tolerance": 1e-4}


class TestPmReference:
    def test_anchors(self):
        assert pm_reference_rate(0.0) == pytest.approx(PM_REFERENCE_RATE_AT_ZERO)
        assert pm_reference_rate(PM_REFERENCE_MAX_DEPOL) == pytest.approx(0.0,
                                                                          abs=1e-15)

    def test_linear_in_between(self):
        p = 0.017
        want = PM_REFERENCE_RATE_AT_ZERO * (1 - p / PM_REFERENCE_MAX_DEPOL)
        assert pm_reference_rate(p) == pytest.approx(want, abs=1e-15)
