import math
import re

import numpy as np
import pytest

import oracle
from entb92.bell import (
    CH_QUANTUM_MAX,
    BellValue,
    CorrelationTable,
    analytic_ch,
    analytic_ch_max,
    ch_value,
    ch_with_loss,
    chsh_from_ch,
    chsh_value,
    table_from_state,
)
from entb92 import bell, qcore
from entb92.channels import ChannelModel, JointState, analytic_pipeline_state, lossy_povm
from entb92.qcore import DensityMatrix, Povm
from entb92.rates import normalized_rate
from entb92.session import SessionConfig, run_session
from entb92.states import ProtocolAngle, SettingPairSpec, ch_settings, entangled_state

RNG = np.random.default_rng(550)


def prob_table(grids):
    return CorrelationTable(mode="probability", grids=np.asarray(grids, float))


def ideal_table(theta, bob_theta=None, eta_a=1.0, eta_b=1.0, depol_p=0.0,
                attacker="none"):
    ang = ProtocolAngle(theta)
    channel = ChannelModel(eta_a=eta_a, eta_b=eta_b, depol_p=depol_p,
                           attacker=attacker)
    joint = analytic_pipeline_state(ang, channel)
    return table_from_state(joint, ch_settings(ang, bob_theta=bob_theta),
                            channel)


class TestCorrelationTable:
    def test_probability_grids_must_normalize(self):
        grids = np.zeros((2, 2, 3, 3))
        grids[:, :, 0, 0] = 0.5
        with pytest.raises(ValueError):
            prob_table(grids)

    def test_shape_enforced(self):
        with pytest.raises(ValueError):
            CorrelationTable(mode="probability", grids=np.zeros((2, 2, 2, 2)))

    def test_mode_enforced(self):
        with pytest.raises(ValueError):
            CorrelationTable(mode="weird", grids=np.zeros((2, 2, 3, 3)))

    def test_count_mode_requires_integers(self):
        grids = np.zeros((2, 2, 3, 3))
        grids[:, :, 0, 0] = 10.5
        with pytest.raises(ValueError):
            CorrelationTable(mode="count", grids=grids)

    def test_count_mode_rejects_negative(self):
        grids = np.zeros((2, 2, 3, 3))
        grids[0, 0, 0, 0] = -3
        with pytest.raises(ValueError):
            CorrelationTable(mode="count", grids=grids)

    def test_count_totals_derived(self):
        grids = np.zeros((2, 2, 3, 3), dtype=np.int64)
        grids[:, :, 0, 0] = [[10, 20], [30, 40]]
        t = CorrelationTable(mode="count", grids=grids)
        np.testing.assert_array_equal(t.totals, [[10, 20], [30, 40]])

    def test_count_totals_mismatch_rejected(self):
        grids = np.zeros((2, 2, 3, 3), dtype=np.int64)
        grids[:, :, 0, 0] = 5
        data = CorrelationTable(mode="count", grids=grids).to_json_dict()
        for totals in (dict.fromkeys(data["totals"], 7), None):
            with pytest.raises(ValueError, match="totals"):
                CorrelationTable.from_json_dict({**data, "totals": totals})
        data = ideal_table(math.pi / 3).to_json_dict()
        with pytest.raises(ValueError, match="totals"):
            CorrelationTable.from_json_dict({**data, "totals": dict.fromkeys(data["pairs"], 1)})

    def test_counts_must_be_exact_floats(self):
        grids = np.zeros((2, 2, 3, 3), dtype=np.int64)
        for big in (2 ** 53, 2 ** 53 + 1):
            grids[0, 0, 0, 0] = big
            with pytest.raises(ValueError, match=r"2\*\*53"):
                CorrelationTable(mode="count", grids=grids)
            data = CorrelationTable(mode="count", grids=np.zeros_like(grids)).to_json_dict()
            data["pairs"]["00"][0], data["totals"]["00"] = big, big
            with pytest.raises(ValueError, match=r"2\*\*53"):
                CorrelationTable.from_json_dict(data)
        # a Python int beyond the float range is rejected the same way, not with an OverflowError
        huge = np.zeros((2, 2, 3, 3)).tolist()
        huge[0][0][0][0] = 10 ** 400
        with pytest.raises(ValueError, match=r"2\*\*53"):
            CorrelationTable(mode="count", grids=huge)
        with pytest.raises(ValueError, match="must be finite"):
            CorrelationTable(mode="probability", grids=huge)
        data["pairs"]["00"][0], data["totals"]["00"] = 10 ** 400, 10 ** 400
        with pytest.raises(ValueError, match=r"2\*\*53"):
            CorrelationTable.from_json_dict(data)
        grids[0, 0, 0, 0] = 2 ** 53 - 1
        t = CorrelationTable(mode="count", grids=grids)
        assert t.grids[0, 0, 0, 0] == t.totals[0, 0] == 2 ** 53 - 1
        assert CorrelationTable.from_json_dict(t.to_json_dict()).totals[0, 0] == 2 ** 53 - 1

    @pytest.mark.parametrize("mode, fill", [("count", 1), ("probability", 1 / 9)])
    def test_cells_must_be_real_numbers(self, mode, fill):
        # bools and numeric strings once converted silently, in lists and in arrays alike;
        # a nested cell makes the grid ragged, and the error names the cell
        for bad in (True, np.True_, "5", None, [fill, fill]):
            grids = np.full((2, 2, 3, 3), fill).tolist()
            grids[0][0][0][0] = bad
            with pytest.raises(ValueError, match=re.escape(f"real numbers, got {bad!r}")):
                CorrelationTable(mode, grids)
        for grids in (np.ones((2, 2, 3, 3), dtype=bool), np.full((2, 2, 3, 3), "1"),
                      np.full((2, 2, 3, 3), fill, dtype=object), np.ones((2, 2, 3, 3), dtype=complex)):
            if grids.dtype == object:
                grids[1, 1, 2, 2] = "1"
            with pytest.raises(ValueError, match="real numbers"):
                CorrelationTable(mode, grids)
        data = CorrelationTable(mode, np.full((2, 2, 3, 3), fill)).to_json_dict()
        for pair in (["1"] * 9, [True] * 9, [fill] * 8 + ["1"]):
            with pytest.raises(ValueError, match="real numbers"):
                CorrelationTable.from_json_dict({**data, "pairs": {**data["pairs"], "00": pair}})
        # numpy scalars and plain ints and floats are numbers
        grids = np.full((2, 2, 3, 3), fill, dtype=object)
        grids[0, 0, 0, 0] = np.float64(fill) if mode == "probability" else np.int64(fill)
        assert CorrelationTable(mode, grids).grids.tolist() == np.full((2, 2, 3, 3), fill).tolist()

    def test_pair_probabilities_empty_pair_rejected(self):
        grids = np.zeros((2, 2, 3, 3), dtype=np.int64)
        grids[0, :, 0, 0] = 4
        t = CorrelationTable(mode="count", grids=grids)
        for functional in (ch_value, chsh_value):
            with pytest.raises(ValueError, match=r"setting pair \(1,0\) has no rounds"):
                functional(t)

    @pytest.mark.parametrize("data, key", [
        ([], "'mode'"), ("count", "'mode'"), (None, "'mode'"), ({"pairs": {}}, "'mode'"),
        ({"mode": "count"}, "'pairs'"), ({"mode": "count", "pairs": [1]}, "'pairs'"),
        ({"mode": "count", "pairs": {"00": [0] * 9}}, "'pairs'"), ({"mode": "count", "pairs": None}, "'pairs'"),
    ])
    def test_malformed_documents_name_the_key(self, data, key):
        with pytest.raises(ValueError, match=re.escape(key)):
            CorrelationTable.from_json_dict(data)

    def test_json_roundtrip_both_modes(self):
        grids = np.zeros((2, 2, 3, 3), dtype=np.int64)
        grids[:, :, 0, 0] = 2
        grids[0, 1, 2, 1] = 5
        for t in (CorrelationTable(mode="count", grids=grids),
                  ideal_table(math.pi / 3)):
            back = CorrelationTable.from_json_dict(t.to_json_dict())
            assert back.mode == t.mode
            np.testing.assert_allclose(back.grids, t.grids, atol=1e-15)


class TestChValue:
    def test_ideal_point(self):
        v = ch_value(ideal_table(math.pi / 3))
        assert v.value == pytest.approx(0.125, abs=1e-12)
        assert v.standard_error == 0.0

    def test_intermediate_angle(self):
        v = ch_value(ideal_table(math.pi / 4))
        assert v.value == pytest.approx(0.10355339059327376, abs=1e-12)

    def test_matches_reference_on_grid(self):
        for th in RNG.uniform(1e-3, math.pi / 2 - 1e-3, size=40):
            got = ch_value(ideal_table(th)).value
            assert got == pytest.approx(oracle.ch_born(th), abs=1e-11)

    def test_signaling_table_rejected(self):
        grids = np.zeros((2, 2, 3, 3))
        grids[:, :, 0, 0] = [[1.0, 1.0], [1.0, 0.0]]
        grids[1, 1, 1, 1] = 1.0
        with pytest.raises(ValueError):
            ch_value(prob_table(grids))

    def test_count_mode_estimate_and_stderr(self):
        grids = np.zeros((2, 2, 3, 3), dtype=np.int64)
        # build a near-ideal empirical table by scaling the exact one
        probs = ideal_table(math.pi / 3)
        grids = np.round(probs.grids * 250000).astype(np.int64)
        t = CorrelationTable(mode="count", grids=grids)
        v = ch_value(t)
        assert v.value == pytest.approx(0.125, abs=1e-3)
        assert 0.0 < v.standard_error < 0.01

    def test_stderr_shrinks_with_counts(self):
        probs = ideal_table(math.pi / 3)
        small = CorrelationTable(
            mode="count", grids=np.round(probs.grids * 4000).astype(np.int64))
        big = CorrelationTable(
            mode="count", grids=np.round(probs.grids * 400000).astype(np.int64))
        ratio = ch_value(small).standard_error / ch_value(big).standard_error
        assert ratio == pytest.approx(10.0, rel=0.05)


class TestChValueBits:
    """``ch_value`` of count tables against the dense contraction of ``oracle.np_ch_value``, bit for bit."""

    @staticmethod
    def assert_oracle_bits(grids):
        table = CorrelationTable("count", grids)
        got = ch_value(table)
        want = oracle.np_ch_value(table.grids, "count")
        assert (repr(got.value), repr(got.standard_error)) == tuple(map(repr, want))
        return got

    def test_pair_terms_are_numpy_pair_sums(self):
        # the twelve nonzero terms at -0.0, 0.0 or random values, every other cell 0.0: zero signs included
        rng = np.random.default_rng(25)
        for _ in range(2000):
            terms = rng.choice([-0.0, 0.0, *rng.standard_normal(4)], size=12)
            dense = np.zeros(36)
            dense[list(bell._CH_CELLS)] = terms
            want = dense.reshape(4, 9).sum(axis=-1).tolist()
            assert list(map(repr, bell._ch_pairs(terms.tolist()))) == list(map(repr, want))

    def test_random_sessions(self):
        rng = np.random.default_rng(26)
        for k in range(60):
            channel = ChannelModel(eta_a=rng.uniform(0.7, 1.0), eta_b=rng.uniform(0.7, 1.0),
                                   depol_p=rng.uniform(0.0, 0.05), attacker="usd" if k % 2 else "none")
            config = SessionConfig(angle=ProtocolAngle(rng.uniform(0.2, 1.4)), n_rounds=int(rng.integers(200, 20001)),
                                   test_fraction=rng.uniform(0.1, 0.9), channel=channel, seed=k)
            self.assert_oracle_bits(run_session(config).table.grids)

    def test_tables_with_zero_cells(self):
        rng = np.random.default_rng(27)
        for _ in range(300):
            grids = rng.integers(0, 50, (2, 2, 3, 3))
            grids[rng.random((2, 2, 3, 3)) < rng.uniform(0.3, 0.9)] = 0
            grids[:, :, 1, 1] += 1
            self.assert_oracle_bits(grids)

    @pytest.mark.parametrize("pair", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_pair_with_one_nonzero_cell(self, pair):
        rng = np.random.default_rng(28)
        for row in range(3):
            for col in range(3):
                grids = rng.integers(1, 1000, (2, 2, 3, 3))
                grids[pair] = 0
                grids[pair + (row, col)] = 7
                self.assert_oracle_bits(grids)

    @pytest.mark.parametrize("cell", [(2, 2), (0, 0)], ids=["all-vacuum", "all-target"])
    def test_exact_zero_keeps_its_sign(self, cell):
        # every round in one cell of each pair: S_CH and its error are exactly 0, as +0.0
        grids = np.zeros((2, 2, 3, 3), dtype=np.int64)
        grids[(slice(None), slice(None)) + cell] = [[3, 5], [8, 13]]
        got = self.assert_oracle_bits(grids)
        assert (repr(got.value), repr(got.standard_error)) == ("0.0", "0.0")

    def test_counts_near_the_float_limit(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            grids = 2 ** 53 - 1 - rng.integers(0, 2 ** 20, (2, 2, 3, 3))
            grids[rng.random((2, 2, 3, 3)) < 0.4] = rng.integers(0, 3)
            grids[:, :, 0, 0] = np.maximum(grids[:, :, 0, 0], 1)
            self.assert_oracle_bits(grids)


class TestLocalBound:
    def test_all_deterministic_strategies(self):
        # every deterministic assignment, vacuum outcomes included
        for a0 in range(3):
            for a1 in range(3):
                for b0 in range(3):
                    for b1 in range(3):
                        g = oracle.deterministic_grids(a0, a1, b0, b1)
                        t = prob_table(g)
                        assert ch_value(t).value <= 0.0 + 1e-12
                        assert abs(chsh_value(t).value) <= 2.0 + 1e-12

    def test_local_mixtures_stay_classical(self):
        for _ in range(100):
            t = prob_table(oracle.random_local_grids(RNG))
            assert ch_value(t).value <= 1e-10
            assert abs(chsh_value(t).value) <= 2.0 + 1e-10


class TestChsh:
    def test_ideal_point(self):
        v = chsh_value(ideal_table(math.pi / 3))
        assert v.value == pytest.approx(2.5, abs=1e-12)

    def test_all_vacuum_table_is_trivially_classical(self):
        grids = np.zeros((2, 2, 3, 3))
        grids[:, :, 2, 2] = 1.0
        v = chsh_value(prob_table(grids))
        assert v.value == pytest.approx(2.0, abs=1e-12)

    def test_conversion_from_ch(self):
        out = chsh_from_ch(BellValue(0.125, 0.002))
        assert out.value == pytest.approx(2.5)
        assert out.standard_error == pytest.approx(0.008)
        assert chsh_from_ch(BellValue(0.0, 0.0)).value == pytest.approx(2.0)

    def test_bridge_identity_on_random_tables(self):
        for _ in range(300):
            t = prob_table(oracle.random_no_signaling_grids(RNG))
            s_ch = ch_value(t).value
            s_chsh = chsh_value(t).value
            assert s_chsh == pytest.approx(4.0 * s_ch + 2.0, abs=1e-10)

    def test_count_mode_bridge_uses_pooled_marginals(self):
        probs = ideal_table(math.pi / 3)
        grids = np.round(probs.grids * 100000).astype(np.int64)
        t = CorrelationTable(mode="count", grids=grids)
        s_ch = ch_value(t).value
        s_chsh = chsh_value(t).value
        # equal per-pair totals keep the statistical bridge nearly exact
        assert s_chsh == pytest.approx(4.0 * s_ch + 2.0, abs=1e-6)

    def test_value_and_error_are_oracle_bits(self):
        rng = np.random.default_rng(32)
        tables = [prob_table(oracle.random_no_signaling_grids(rng)) for _ in range(200)]
        for _ in range(300):
            grids = rng.integers(0, 50, (2, 2, 3, 3))
            grids[rng.random((2, 2, 3, 3)) < rng.uniform(0.0, 0.9)] = 0
            grids[:, :, 2, 2] += 1
            tables.append(CorrelationTable("count", grids))
        for k in range(6):
            channel = ChannelModel(eta_a=0.9, depol_p=0.02, attacker="usd" if k % 2 else "none")
            tables.append(run_session(SessionConfig(angle=ProtocolAngle(0.3 + 0.2 * k), n_rounds=5000,
                                                    channel=channel, seed=k)).table)
        for table in tables:
            got = chsh_value(table)
            want = oracle.np_chsh_value(table.grids, table.mode)
            assert (got.value.hex(), got.standard_error.hex()) == tuple(x.hex() for x in want)


class TestClosedForms:
    def test_fixed_settings_curve(self):
        assert analytic_ch(math.pi / 3) == pytest.approx(0.125, abs=1e-15)
        assert analytic_ch(0.0) == pytest.approx(0.0, abs=1e-15)
        assert analytic_ch(math.pi / 2) == pytest.approx(0.0, abs=1e-15)
        for th in np.linspace(0.0, math.pi / 2, 200):
            assert analytic_ch(th) == pytest.approx(oracle.ch_closed(th),
                                                    abs=1e-14)

    def test_fixed_settings_max_location(self):
        grid = np.linspace(1e-4, math.pi / 2 - 1e-4, 5001)
        vals = [analytic_ch(t) for t in grid]
        assert max(vals) <= 0.125 + 1e-15
        assert grid[int(np.argmax(vals))] == pytest.approx(math.pi / 3,
                                                           abs=1e-3)

    def test_theta_range_validated(self):
        with pytest.raises(ValueError):
            analytic_ch(-0.1)
        with pytest.raises(ValueError):
            analytic_ch(math.pi / 2 + 0.1)
        # an angle is a real number: bools and numeric strings are not converted
        for bad in (lambda: analytic_ch("1.0"), lambda: analytic_ch(True), lambda: analytic_ch_max(np.True_),
                    lambda: ch_with_loss("1.0", 0.9, 0.9), lambda: normalized_rate("1.0", 0.01),
                    lambda: normalized_rate(True, 0.01), lambda: ch_settings(ProtocolAngle(1.0), bob_theta=True),
                    lambda: ch_settings(ProtocolAngle(1.0), bob_theta="0.5")):
            with pytest.raises(ValueError):
                bad()

    def test_optimized_settings_curve(self):
        val, bob_theta = analytic_ch_max(math.pi / 2)
        assert val == pytest.approx(0.20710678118654757, abs=1e-12)
        assert bob_theta == pytest.approx(math.pi / 4, abs=1e-12)
        for th in np.linspace(1e-3, math.pi / 2, 100):
            val, bob_theta = analytic_ch_max(th)
            assert val == pytest.approx(oracle.ch_max_closed(th), abs=1e-13)
            assert math.tan(bob_theta) == pytest.approx(math.sin(th),
                                                        abs=1e-12)

    def test_optimized_dominates_fixed(self):
        for th in np.linspace(1e-3, math.pi / 2 - 1e-3, 200):
            assert analytic_ch_max(th)[0] >= analytic_ch(th) - 1e-13

    def test_optimized_settings_against_pipeline(self):
        for th in RNG.uniform(1e-3, math.pi / 2 - 1e-3, size=25):
            val, bob_theta = analytic_ch_max(th)
            got = ch_value(ideal_table(th, bob_theta=bob_theta)).value
            assert got == pytest.approx(val, abs=1e-11)

    def test_lossy_curve(self):
        assert ch_with_loss(math.pi / 3, 1.0, 1.0) == pytest.approx(0.125,
                                                                    abs=1e-14)
        for _ in range(60):
            th = RNG.uniform(1e-3, math.pi / 2 - 1e-3)
            ea = RNG.uniform(0.0, 1.0)
            eb = RNG.uniform(0.0, 1.0)
            assert ch_with_loss(th, ea, eb) == pytest.approx(
                oracle.ch_loss_closed(th, ea, eb), abs=1e-14)

    def test_loss_monotone_near_unit_efficiency(self):
        # quadratic in symmetric efficiency; increasing past its turning point
        th = 1.0
        vals = [ch_with_loss(th, e, e) for e in np.linspace(0.5, 1.0, 30)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


class TestTableFromState:
    def test_cell_values_at_reference_angle(self):
        t = ideal_table(math.pi / 3)
        # target-target cell of the (second sender, second receiver) pair
        assert t.grids[1, 1][0, 0] == pytest.approx(3.0 / 16.0, abs=1e-12)
        assert t.grids[0, 0][0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_loss_moves_mass_to_vacuum(self):
        t = ideal_table(1.0, eta_a=0.8, eta_b=0.6)
        for i in range(2):
            for j in range(2):
                g = t.grids[i, j]
                assert g.sum() == pytest.approx(1.0, abs=1e-12)
                assert g[2, :].sum() == pytest.approx(0.2, abs=1e-12)
                assert g[:, 2].sum() >= 0.4 - 1e-12

    def test_zero_efficiency_is_all_vacuum(self):
        t = ideal_table(1.0, eta_a=0.0, eta_b=0.0)
        for i in range(2):
            for j in range(2):
                assert t.grids[i, j][2, 2] == pytest.approx(1.0, abs=1e-12)

    def test_lossy_pipeline_matches_closed_form(self):
        for _ in range(40):
            th = RNG.uniform(1e-3, math.pi / 2 - 1e-3)
            ea = RNG.uniform(0.1, 1.0)
            eb = RNG.uniform(0.1, 1.0)
            got = ch_value(ideal_table(th, eta_a=ea, eta_b=eb)).value
            assert got == pytest.approx(oracle.ch_loss_closed(th, ea, eb),
                                        abs=1e-11)

    def test_attacked_table_has_vacuum_branch_mass(self):
        t = ideal_table(math.pi / 3, attacker="usd")
        for i in range(2):
            g = t.grids[i, 0]
            assert g.sum() == pytest.approx(1.0, abs=1e-12)
            # receiver vacuum at least the discarded-branch weight
            assert g[:, 2].sum() >= 0.625 - 1e-12

    def test_attacked_value_matches_reference(self):
        for th in (0.5, math.pi / 3, 1.2):
            got = ch_value(ideal_table(th, attacker="usd")).value
            assert got == pytest.approx(oracle.attacked_ch(th), abs=1e-11)


def random_settings(rng):
    """Four random complex projective settings, as raw projector pairs and as a SettingPairSpec."""
    projs = [oracle._rand_qubit_proj(rng) for _ in range(4)]
    povms = [Povm(pair, labels=("target", "orthogonal")) for pair in projs]
    return projs, SettingPairSpec(alice=tuple(povms[:2]), bob=tuple(povms[2:]), bob_theta=0.0)


class TestComplexInputs:
    # every state and setting of the protocol is real, so only complex inputs tell
    # Tr[(A x B) rho] from Tr[(A^T x B^T) rho]
    @pytest.mark.parametrize("vacuum", [False, True], ids=["no-vacuum", "vacuum"])
    def test_cells_are_born_traces(self, vacuum):
        rng = np.random.default_rng(8812 + vacuum)
        for _ in range(30):
            weight = rng.uniform() if vacuum else 1.0
            rho, sigma = weight * oracle._rand_state(rng), (1.0 - weight) * oracle._rand_state(rng, 2)
            joint = JointState(qubit=DensityMatrix(rho, subnormalized=vacuum),
                               receiver_vacuum=DensityMatrix(sigma, subnormalized=True) if vacuum else None)
            projs, settings = random_settings(rng)
            channel = ChannelModel(eta_a=rng.uniform(), eta_b=rng.uniform())
            grids = table_from_state(joint, settings, channel).grids
            for i, j in np.ndindex(2, 2):
                alice = oracle.lossy_elements(projs[i], channel.eta_a)
                bob = oracle.lossy_elements(projs[2 + j], channel.eta_b)
                want = np.array([[np.trace(np.kron(a, b) @ rho).real for b in bob] for a in alice])
                if vacuum:
                    want[:, 2] += [np.trace(a @ sigma).real for a in alice]
                np.testing.assert_allclose(grids[i, j], want, rtol=0.0, atol=1e-13)


class TestTableBoundary:
    def test_builds_no_density_matrices_or_povms(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("density matrix or POVM built inside table_from_state")

        ang = ProtocolAngle(1.0)
        cases = []
        for channel in (ChannelModel(eta_a=0.9, eta_b=0.8, depol_p=0.02),
                        ChannelModel(eta_a=0.7, depol_p=0.01, attacker="usd")):
            state, settings = analytic_pipeline_state(ang, channel), ch_settings(ang)
            cases.append((state, settings, channel, table_from_state(state, settings, channel).grids))
        monkeypatch.setattr(qcore.DensityMatrix, "__init__", refuse)
        monkeypatch.setattr(qcore.Povm, "__init__", refuse)
        with pytest.raises(AssertionError):  # the guard is live
            qcore.DensityMatrix(np.eye(2) / 2)
        for state, settings, channel, grids in cases:
            np.testing.assert_array_equal(table_from_state(state, settings, channel).grids, grids)

    def test_inputs_checked_at_the_boundary(self):
        ang = ProtocolAngle(1.0)
        channel = ChannelModel(eta_a=0.9)
        state, settings = analytic_pipeline_state(ang, channel), ch_settings(ang)
        half = Povm([np.eye(2) / 2, np.eye(2) / 2], labels=("target", "orthogonal"))
        for unsharp in (SettingPairSpec(alice=(settings.alice[0], half), bob=settings.bob, bob_theta=1.0),
                        SettingPairSpec(alice=settings.alice, bob=(half, settings.bob[1]), bob_theta=1.0)):
            with pytest.raises(ValueError, match="projective"):
                table_from_state(state, unsharp, channel)
        for joint in (state.qubit.matrix, None, "rho"):
            with pytest.raises(ValueError, match="DensityMatrix or JointState"):
                table_from_state(joint, settings, channel)

    def test_lossy_povm_elements_are_exact(self):
        for povm in (*ch_settings(ProtocolAngle(0.7)).bob, random_settings(np.random.default_rng(8814))[1].alice[0]):
            for eta in (0.0, 0.31, 0.9, 1.0):
                elements = [e.matrix for e in lossy_povm(povm, eta).elements]
                want = oracle.lossy_elements([e.matrix for e in povm.elements], eta)
                assert len(elements) == len(want)
                assert all(np.array_equal(got, w) for got, w in zip(elements, want))


class TestBellValue:
    def test_negative_stderr_rejected(self):
        with pytest.raises(ValueError):
            BellValue(0.1, -0.01)

    def test_quantum_max_constant(self):
        assert CH_QUANTUM_MAX == pytest.approx(0.20710678118654757, abs=1e-15)
