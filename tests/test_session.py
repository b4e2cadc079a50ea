import bisect
import hashlib
import itertools
import json
import math
import os
import sys
import threading
import warnings
from fractions import Fraction
from statistics import NormalDist

import numpy as np
import pytest

import entb92
import oracle
from entb92 import channels, cli, qcore, rates, session
from entb92.bell import CorrelationTable, _probability_ch, ch_value, table_from_state
from entb92.channels import (
    ChannelModel,
    analytic_pipeline_state,
    depolarize,
    lossy_povm,
    resend_states,
    usd_povm,
)
from entb92.qcore import born_probabilities
from entb92.session import (
    MAX_ROUNDS,
    RoundRecord,
    SessionConfig,
    _Distributions,
    _tally_chunk,
    born_table,
    run_session,
    sample_round,
)
from entb92.states import ProtocolAngle, ch_settings, entangled_state

ANG = ProtocolAngle(math.pi / 3)


def cfg(**kw):
    base = dict(angle=ANG, n_rounds=10000, seed=7)
    base.update(kw)
    return SessionConfig(**base)


def replay_rounds(config):
    """Drive the scalar sampler with the same stream the engine uses: round r is the seed's stream advanced r steps."""
    records = []
    for idx in range(config.n_rounds):
        gen = np.random.Generator(np.random.PCG64DXSM(config.seed).advance(idx))
        records.append(sample_round(gen, config))
    return records


def record_cell(rec):
    """Grid cell (i, j, row, col) of a round record, from README's layout alone.

    Sender basis i (0 = Z, 1 = X), receiver basis j, row the Z outcome,
    1 - the X outcome or 2 for vacuum, and col the receiver's
    conclusive/inconclusive/vacuum.
    """
    i = ("Z", "X").index(rec.alice_basis)
    if rec.alice_outcome == "vacuum":
        row = 2
    else:
        row = rec.alice_outcome if i == 0 else 1 - rec.alice_outcome
    return i, rec.bob_basis, row, ("conclusive", "inconclusive", "vacuum").index(rec.bob_outcome)


def tally_records(records):
    """Count grid and (n_con, n_err) of round records, from README's layout and key rule alone.

    A key round is a Z round where the sender clicked and the receiver
    clicked conclusively; it decodes 1 - j and is an error when that differs
    from the sender's outcome. ``key_bit`` is not read, so it cannot vouch
    for itself.
    """
    grid = np.zeros((2, 2, 3, 3), dtype=np.int64)
    n_con = n_err = 0
    for rec in records:
        i, _, row, col = cell = record_cell(rec)
        grid[cell] += 1
        if i == 0 and row < 2 and col == 0:
            n_con += 1
            n_err += rec.alice_outcome != 1 - rec.bob_basis
    return grid, n_con, n_err


def assert_replay_matches_engine(config):
    """The scalar sampler's rounds tally to the engine's grid, n_con and n_err."""
    grid, n_con, n_err = tally_records(replay_rounds(config))
    res = run_session(config)
    np.testing.assert_array_equal(grid, res.table.grids)
    assert (n_con, n_err) == (res.n_con, res.n_err)
    return res


class TestSessionConfig:
    def test_defaults(self):
        c = cfg()
        assert c.test_fraction == 0.25
        assert c.channel == ChannelModel()
        assert c.abort_threshold == 0.0

    @pytest.mark.parametrize("kw", [
        {"n_rounds": 0}, {"test_fraction": 0.0}, {"test_fraction": 1.0},
        {"seed": -1}, {"n_rounds": 1000.7}, {"n_rounds": True}, {"seed": True},
        {"n_rounds": "5"}, {"seed": "7"}, {"test_fraction": "0.3"}, {"abort_threshold": True},
        {"n_rounds": np.bool_(True)}, {"n_rounds": MAX_ROUNDS + 1},
        {"angle": True}, {"angle": math.pi / 3}, {"channel": "usd"}, {"channel": None},
        {"test_fraction": 10 ** 400}, {"abort_threshold": 10 ** 400}, {"abort_threshold": -10 ** 400},
        {"abort_threshold": math.inf}, {"abort_threshold": math.nan},
    ])
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            cfg(**kw)

    def test_numpy_float32_fraction_and_threshold_warn_nothing(self):
        # checked as floats, not against the float range cast to float32, which overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            c = cfg(test_fraction=np.float32(0.25), abort_threshold=np.float32(-0.5))
        assert [(type(v), v) for v in (c.test_fraction, c.abort_threshold)] == [(float, 0.25), (float, -0.5)]

    def test_round_count_bounded(self):
        # the bound is checked when the config is built, so no session of MAX_ROUNDS + 1 rounds draws a round
        assert cfg(n_rounds=MAX_ROUNDS).n_rounds == MAX_ROUNDS
        with pytest.raises(ValueError, match=rf"n_rounds must lie in \[1, {MAX_ROUNDS}\]"):
            cfg(n_rounds=MAX_ROUNDS + 1)

    def test_json_dict(self):
        d = cfg(seed=np.uint64(3), n_rounds=10000.0, abort_threshold=0).to_json_dict()
        assert json.dumps([d["seed"], d["n_rounds"], d["abort_threshold"]]) == "[3, 10000, 0.0]"
        assert d["theta"] == pytest.approx(math.pi / 3)
        assert d["theta_degrees"] == pytest.approx(60.0)
        assert d["channel"]["attacker"] == "none"


class TestRoundRecord:
    def test_key_bit_requires_conclusive_z_round(self):
        ok = RoundRecord(alice_basis="Z", alice_outcome=0, bob_basis=1,
                         bob_outcome="conclusive", key_bit=(0, 0))
        assert ok.key_bit == (0, 0)
        with pytest.raises(ValueError):
            RoundRecord(alice_basis="X", alice_outcome=0, bob_basis=1,
                        bob_outcome="conclusive", key_bit=(0, 0))
        with pytest.raises(ValueError):
            RoundRecord(alice_basis="Z", alice_outcome=0, bob_basis=1,
                        bob_outcome="inconclusive", key_bit=(0, 0))

    def test_key_bit_must_match_the_round(self):
        fields = dict(alice_basis="Z", alice_outcome=0, bob_basis=1, bob_outcome="conclusive")
        assert RoundRecord(**fields, key_bit=(0, 0)).key_bit == (0, 0)
        for wrong in ("junk", (1, 1), (0, 1), None):
            with pytest.raises(ValueError, match="key_bit"):
                RoundRecord(**fields, key_bit=wrong)
        # an error round keeps the sender's bit next to the decoded one
        assert RoundRecord("Z", 1, 1, "conclusive", key_bit=(1, 0)).key_bit == (1, 0)

    def test_field_validation(self):
        with pytest.raises(ValueError):
            RoundRecord(alice_basis="Y", alice_outcome=0, bob_basis=0,
                        bob_outcome="conclusive")
        with pytest.raises(ValueError):
            RoundRecord(alice_basis="Z", alice_outcome=0, bob_basis=2,
                        bob_outcome="conclusive")
        with pytest.raises(ValueError):
            RoundRecord(alice_basis="Z", alice_outcome=0, bob_basis=0,
                        bob_outcome="click")

    def test_bools_and_floats_rejected(self):
        for args, kw, field in ((("Z", True, 1, "conclusive"), {"key_bit": (1, 0)}, "alice_outcome"),
                                (("Z", 1.0, 1, "conclusive"), {"key_bit": (1, 0)}, "alice_outcome"),
                                (("Z", 1, True, "conclusive"), {"key_bit": (1, 0)}, "bob_basis"),
                                (("Z", 1, 1.0, "conclusive"), {"key_bit": (1, 0)}, "bob_basis"),
                                (("Z", 1, 1, "conclusive"), {"key_bit": (True, 0)}, "key_bit"),
                                (("Z", 1, 1, "conclusive"), {"key_bit": (1, 0.0)}, "key_bit"),
                                (("Z", 1, 1, "conclusive"), {"key_bit": (1, 0), "eve_outcome": True}, "eve_outcome"),
                                (("Z", 1, 1, "conclusive"), {"key_bit": (1, 0), "eve_outcome": 2.0}, "eve_outcome")):
            with pytest.raises(ValueError, match=field):
                RoundRecord(*args, **kw)
        assert RoundRecord("Z", np.int64(1), np.int64(1), "conclusive", key_bit=(1, np.int64(0)),
                           eve_outcome=np.int64(2)).eve_outcome == 2


class TestScalarSampler:
    def test_matches_vectorized_engine_ideal(self):
        assert assert_replay_matches_engine(cfg(n_rounds=4000)).n_con > 0

    def test_matches_vectorized_engine_noisy(self):
        res = assert_replay_matches_engine(cfg(n_rounds=4000, seed=11,
                                               channel=ChannelModel(eta_a=0.8, eta_b=0.7, depol_p=0.03)))
        assert res.n_err > 0

    def test_matches_vectorized_engine_attacked(self):
        # the attacker resends only signals it identified, so it adds no key errors
        res = assert_replay_matches_engine(cfg(n_rounds=4000, seed=5, channel=ChannelModel(attacker="usd")))
        assert res.n_con > 0 and res.n_err == 0

    def test_attack_bookkeeping(self):
        config = cfg(n_rounds=500, channel=ChannelModel(attacker="usd"))
        for rec in replay_rounds(config):
            assert rec.eve_outcome in (1, 2, 3, 4)
            # ambiguous attacker outcomes suppress the signal entirely
            if rec.eve_outcome >= 3:
                assert rec.bob_outcome == "vacuum"
            # branch e (eve_outcome e + 1) identifies signal 1 - e, never the sender's Z outcome e
            if rec.alice_basis == "Z" and rec.alice_outcome != "vacuum":
                assert rec.eve_outcome != rec.alice_outcome + 1

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("chunk_size", [1, 7, 65536])
    @pytest.mark.parametrize("attacker", ["none", "usd"])
    def test_replay_reproduces_every_round(self, monkeypatch, attacker, chunk_size, workers):
        # the rounds a session draws in its chunks, each decoded to its grid cell
        # and attacker branch, are the rounds sample_round gives one at a time
        config = cfg(n_rounds=1500, seed=37,
                     channel=ChannelModel(eta_a=0.9, eta_b=0.8, depol_p=0.02, attacker=attacker))
        monkeypatch.setattr(session, "_CHUNK", chunk_size)
        drawn, draw = {}, session._words
        monkeypatch.setattr(session, "_words",
                            lambda seed, start, n, out: drawn.setdefault(start, draw(seed, start, n, out).copy()))
        res = run_session(config, workers=workers)
        variates = np.concatenate([drawn[start] for start in sorted(drawn)])
        dist = session._shared_distributions(config.angle, config.channel, config.test_fraction)
        cells, ts = row_cells(attacker == "usd"), exact_thresholds(dist.cdf)
        # each round's row cell counts the row's exact thresholds at or below its variate, as sample_round does
        rows = [bisect.bisect_right(ts, int(x * GRID)) for x in variates]
        want = [(cell, None if e is None else e + 1) for cell, e in (cells[k] for k in rows)]
        assert session._decode(variates, dist).tolist() == [cell for cell, _ in want]
        records = replay_rounds(config)
        assert [(np.ravel_multi_index(record_cell(rec), (2, 2, 3, 3)), rec.eve_outcome) for rec in records] == want
        np.testing.assert_array_equal(tally_records(records)[0], res.table.grids)

    def test_no_attack_leaves_no_trace(self):
        for rec in replay_rounds(cfg(n_rounds=50)):
            assert rec.eve_outcome is None

    def test_tables_built_once_per_setting(self, monkeypatch):
        builds = []
        real_init = _Distributions.__init__

        def counting_init(self, *args):
            builds.append(args)
            real_init(self, *args)

        session._shared_distributions.cache_clear()
        monkeypatch.setattr(_Distributions, "__init__", counting_init)
        lossy = ChannelModel(eta_b=0.9)
        replay_rounds(cfg(n_rounds=20))
        replay_rounds(cfg(n_rounds=20, seed=8))  # another seed, same setting
        replay_rounds(cfg(n_rounds=20, channel=lossy))
        replay_rounds(cfg(n_rounds=20, test_fraction=0.5))
        assert builds == [(ANG, ChannelModel(), 0.25), (ANG, lossy, 0.25),
                          (ANG, ChannelModel(), 0.5)]

    def test_shared_tables_are_read_only(self):
        for channel in (ChannelModel(), ChannelModel(attacker="usd")):
            dist = session._shared_distributions(ANG, channel, 0.25)
            for table in (dist.cdf, dist.thresholds, dist.guide):
                with pytest.raises(ValueError):
                    table[0] = 1


def row_cells(attacked):
    """The (grid cell, attacker branch) of each row cell: the (i, j, row, col) grid, with the branch e fastest.

    Without an attacker the branch is None; with one, every grid cell holds all
    four branches, those the attack model never reaches included.
    """
    return [(c, e) for c in range(36) for e in (range(4) if attacked else [None])]


def structural_zeros():
    """Whether each attacked row cell (i, j, row, col, e) is zero at every setting, from the attack model alone.

    The receiver sees vacuum on the suppressing branches 2 and 3, and the
    sender's Z outcome row never comes with branch e = row < 2.
    """
    return np.array([(e >= 2 and col < 2) or (i == 0 and row == e < 2)
                     for i, j, row, col, e in np.ndindex(2, 2, 3, 3, 4)])


def grid_counts(cells, attacked):
    """Count grid of decoded row cells, folded onto (i, j, row, col) through ``row_cells``."""
    counts, row = np.zeros(36, dtype=np.int64), row_cells(attacked)
    for k in cells:
        counts[row[k][0]] += 1
    return counts.reshape(2, 2, 3, 3)


def grid_variates(cdf):
    """Every CDF entry rounded down to the 2^-53 grid of ``random()``, one step either side, and 0 and 1 - 2^-53."""
    units = np.floor(cdf * 2.0 ** 53)
    near = np.concatenate([units - 1, units, units + 1, [0.0, 2.0 ** 53 - 1]])
    return np.unique(near[(near >= 0) & (near < 2.0 ** 53)]) * 2.0 ** -53


class TestDecodeKernel:
    """The chunk tally against an independent decode, at every CDF boundary."""

    @pytest.mark.parametrize("channel", [
        ChannelModel(),
        ChannelModel(eta_a=0.8, eta_b=0.7, depol_p=0.03),
        ChannelModel(attacker="usd"),
        ChannelModel(eta_a=0.9, eta_b=0.75, depol_p=0.05, attacker="usd"),
    ], ids=["ideal", "lossy-depolarized", "attacked", "attacked-lossy"])
    def test_matches_searchsorted_at_cdf_boundaries(self, channel):
        dist, attacked = _Distributions(ANG, channel, 0.25), channel.attacker == "usd"
        variates = grid_variates(dist.cdf)
        want = np.minimum(np.searchsorted(dist.cdf, variates, side="right"), len(dist.cdf) - 1)
        assert {row_cells(attacked)[k][0] // 9 for k in want} == {0, 1, 2, 3}  # every basis pair
        for x, k in zip(variates, want):
            np.testing.assert_array_equal(_tally_chunk(np.array([x]), dist), grid_counts([k], attacked),
                                          err_msg=repr(x))
        np.testing.assert_array_equal(_tally_chunk(variates, dist), grid_counts(want, attacked))


ALL_ONES = 2 ** 64 - 1
# zero-probability cells (eta = 1, eta = 0, p = 0), CDF rows whose sum rounds
# away from 1 (above it in "short-rows", below it in "crowded-attacked") and,
# in the "crowded" settings, guide buckets that two or more distinct
# thresholds split
WORD_CHANNELS = {
    "ideal": ChannelModel(),
    "short-rows": ChannelModel(eta_a=0.9, eta_b=0.95, depol_p=0.03),
    "eta-0": ChannelModel(eta_a=0.0, eta_b=0.0),
    "eta-b-0": ChannelModel(eta_a=0.8, eta_b=0.0, depol_p=0.03),
    "attacked-p-0": ChannelModel(attacker="usd"),
    "attacked-eta-a-0": ChannelModel(eta_a=0.0, attacker="usd"),
    "crowded": ChannelModel(eta_a=0.99999, eta_b=0.99998, depol_p=1e-5),
    "crowded-attacked": ChannelModel(eta_a=0.9999, attacker="usd"),
}
GRID = 2 ** 53  # random() returns k / GRID for an integer 0 <= k < GRID


def exact_thresholds(cdf):
    """Least k with c <= k / GRID, for every entry c but the last, in exact rationals."""
    return [math.ceil(Fraction(float(c)) * GRID) for c in cdf[:-1]]


def grid_thresholds(dist):
    """The exact thresholds at each grid cell's last row cell but the last grid cell's, as ``row_cells`` places them.

    A variate's grid cell is the count of these at or below it: every row cell
    of grid cell g lies past the last row cell of each grid cell before g.
    """
    ts, grid = exact_thresholds(dist.cdf), [c for c, _ in row_cells(len(dist.cdf) > 36)]
    return [t for t, c, after in zip(ts, grid, grid[1:]) if after != c]


def threshold_units(dist):
    """Every k = t - 1, t and t + 1 at a threshold t, and 0 and GRID - 1, that random() can return as k / GRID."""
    ts = set(exact_thresholds(dist.cdf))
    units = {t + d for t in ts for d in (-1, 0, 1)} | {0, GRID - 1}
    return sorted(k for k in units if 0 <= k < GRID)


class TestWordKernel:
    """The decode of a round's one variate against exact rationals."""

    @pytest.mark.parametrize("seed", [0, 7, 2 ** 63 + 12345, ALL_ONES])
    @pytest.mark.parametrize("offset", [0, 7001, 3 * 2 ** 22 + 5, 2 ** 38 - 5])
    def test_random_is_raw_word_without_low_11_bits(self, seed, offset):
        # the contract run_session relies on: Generator.random() * 2^64 is the
        # raw PCG64DXSM word with its low 11 bits cleared, wherever advance() puts the stream
        floats = np.random.Generator(np.random.PCG64DXSM(seed).advance(offset)).random(4096)
        raw = np.random.PCG64DXSM(seed).advance(offset).random_raw(4096)
        np.testing.assert_array_equal((floats * 2.0 ** 64).astype(np.uint64), raw & ~np.uint64(0x7FF))

    @pytest.mark.parametrize("channel", WORD_CHANNELS.values(), ids=WORD_CHANNELS.keys())
    def test_search_counts_exact_thresholds(self, channel):
        dist = _Distributions(ANG, channel, 0.25)
        if channel == WORD_CHANNELS["short-rows"]:
            assert dist.cdf[-1] > 1.0
        if channel == WORD_CHANNELS["crowded-attacked"]:
            assert dist.cdf[-1] < 1.0
        units = threshold_units(dist)
        variates = np.array(units, dtype=np.float64) / GRID
        ts, grid_ts = exact_thresholds(dist.cdf), grid_thresholds(dist)
        # the row cell sample_round reads, and the grid cell the tally reads
        rows, grid = ([sum(t <= k for t in thresholds) for k in units] for thresholds in (ts, grid_ts))
        assert dist.thresholds.searchsorted(variates, side="right").tolist() == rows
        assert session._decode(variates, dist).tolist() == grid

    @pytest.mark.parametrize("name", ["crowded", "crowded-attacked"])
    def test_crowded_settings_split_a_bucket_twice(self, name):
        # some bucket holds two distinct thresholds past its first variate, so
        # the fallback steps more than once for the variates above both
        splits = {}
        for t in set(exact_thresholds(_Distributions(ANG, WORD_CHANNELS[name], 0.25).cdf)):
            if t < GRID and t % 2 ** 41:
                splits.setdefault(t >> 41, set()).add(t)
        assert max(map(len, splits.values())) >= 2

    @pytest.mark.parametrize("channel", WORD_CHANNELS.values(), ids=WORD_CHANNELS.keys())
    def test_every_guide_bucket_matches_its_definition(self, channel):
        # entry b counts the thresholds <= the bucket's first variate b / 4096 and
        # is flagged exactly when that count changes by the bucket's last variate
        dist = _Distributions(ANG, channel, 0.25)
        assert dist.guide.shape == (4096,)
        ts = sorted(grid_thresholds(dist))
        assert (dist.thresholds * GRID).tolist() == [min(t, GRID) for t in exact_thresholds(dist.cdf)] + [GRID]
        b = dist.branches
        assert (dist.thresholds[b - 1::b] * GRID).tolist() == [min(t, GRID) for t in grid_thresholds(dist)] + [GRID]
        at = [bisect.bisect_right(ts, b << 41) for b in range(4097)]
        last = [bisect.bisect_right(ts, ((b + 1) << 41) - 1) for b in range(4096)]
        guide = dist.guide.tolist()
        assert [g & 0x7F for g in guide] == at[:-1]
        assert [g >= 0x80 for g in guide] == [n != c for n, c in zip(last, at)]

    def test_attacked_tally_splits_buckets_only_between_grid_cells(self):
        # thresholds between two row cells of one grid cell change no count, so
        # the tally's guide leaves their buckets whole: 75 of the row's split buckets, at most 35 of the grid's
        channel = ChannelModel(eta_a=0.95, eta_b=0.9, depol_p=0.02, attacker="usd")
        dist = _Distributions(ProtocolAngle.from_degrees(60.3), channel, 0.25)
        cells = row_cells(True)
        lasts = [max(k for k, (c, _) in enumerate(cells) if c == g) for g in range(36)]
        assert dist.guide.tolist() == session._guide_table(dist.thresholds[lasts]).tolist()
        row_splits = {t >> 41 for t in exact_thresholds(dist.cdf) if t < GRID and t % 2 ** 41}
        assert len(row_splits) == 75
        assert np.count_nonzero(dist.guide >= 0x80) <= 35

    @pytest.mark.parametrize("channel", WORD_CHANNELS.values(), ids=WORD_CHANNELS.keys())
    def test_masked_raw_words_match_float_decode(self, channel, monkeypatch):
        # run_session, in chunks, on the variates random() makes of crafted raw
        # words, words that differ only in the 11 bits it drops included,
        # against the exact decode of each word's top 53 bits
        dist, attacked = _Distributions(ANG, channel, 0.25), channel.attacker == "usd"
        words = [k << 11 | low for k in threshold_units(dist) for low in (0, 0x400, 0x7FF)]
        variates = (np.array(words, dtype=np.uint64) >> np.uint64(11)) / GRID
        monkeypatch.setattr(session, "_words", lambda seed, start, n, out: variates[start:start + n])
        monkeypatch.setattr(session, "_CHUNK", 97)
        res = run_session(SessionConfig(angle=ANG, n_rounds=len(words), channel=channel))
        ts = exact_thresholds(dist.cdf)
        np.testing.assert_array_equal(res.table.grids, grid_counts([sum(t <= w >> 11 for t in ts) for w in words],
                                                                   attacked))

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="minor-fault counts are read on Linux")
    def test_session_does_not_refault_its_heap(self):
        # per-chunk temporaries above the heap's trim threshold are returned to
        # the system and faulted back in on every chunk
        import resource

        config = cfg(n_rounds=2 ** 20, seed=5, channel=ChannelModel(eta_b=0.9, depol_p=0.02))
        run_session(config)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        run_session(config)
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 1000


def pipeline_row(angle, channel):
    """P(i, j, row, col, e) at test fraction 1/4 through the density-matrix pipeline, not the closed form.

    Without an attacker the last axis has length one.
    """
    w = np.array([0.75, 0.25]) / 2
    settings = ch_settings(angle)
    if channel.attacker == "none":
        grids = table_from_state(analytic_pipeline_state(angle, channel), settings, channel).grids
        return np.einsum("i,ijrc->ijrc", w, grids)[..., None]
    rho = entangled_state(angle).to_density().matrix
    alice = [lossy_povm(settings.alice[i], channel.eta_a) for i in (0, 1)]
    bob = [lossy_povm(settings.bob[j], channel.eta_b) for j in (0, 1)]
    stage1 = np.array([[[np.trace(np.kron(a.matrix, e.matrix) @ rho).real
                         for e in usd_povm(angle).elements]
                        for a in alice[i].elements] for i in (0, 1)])
    stage2 = np.zeros((4, 2, 3))
    for e, chi in enumerate(resend_states(angle)):
        if chi is None:
            stage2[e, :, 2] = 1.0
        else:
            resent = depolarize(chi.to_density(), channel.depol_p)
            stage2[e] = [born_probabilities(resent, bob[j]) for j in (0, 1)]
    return np.einsum("i,ire,ejc->ijrce", w, stage1, stage2)


class TestClosedFormTables:
    """The closed-form sampling tables against the density-matrix pipeline."""

    @pytest.mark.parametrize("attacker", ["none", "usd"])
    @pytest.mark.parametrize("p", [0.0, 0.02, 0.75, 1.0])
    def test_match_pipeline(self, attacker, p):
        for theta in np.linspace(0.05, math.pi / 2 - 0.05, 6):
            angle = ProtocolAngle(theta)
            for eta_a in (0.0, 0.37, 1.0):
                for eta_b in (0.0, 0.37, 1.0):
                    channel = ChannelModel(eta_a=eta_a, eta_b=eta_b, depol_p=p, attacker=attacker)
                    dist = _Distributions(angle, channel, 0.25)
                    state = analytic_pipeline_state(angle, channel)
                    want = table_from_state(state, ch_settings(angle), channel).grids
                    np.testing.assert_allclose(born_table(angle, channel).grids, want, rtol=0.0, atol=1e-13)
                    # the row holds every cell the pipeline gives, in row_cells order
                    fine = pipeline_row(angle, channel)
                    assert len(dist.cdf) == len(row_cells(attacker == "usd")) == fine.size
                    np.testing.assert_allclose(dist.cdf, np.cumsum(fine), rtol=0.0, atol=1e-13)
                    if attacker == "usd":
                        np.testing.assert_allclose(fine.ravel()[structural_zeros()], 0.0, rtol=0.0, atol=1e-13)

    def test_structural_zeros_are_exact(self):
        # the attacked row cells no branch reaches are exactly 0.0, so the CDF
        # and the thresholds repeat their predecessors' there, bit for bit, and no variate lands on them
        zeros = structural_zeros()
        assert zeros.sum() == 60
        rng = np.random.default_rng(32)
        for _ in range(300):
            eta_a, eta_b, p = (rng.choice([0.0, 1.0, rng.uniform()]) for _ in range(3))
            channel = ChannelModel(eta_a=eta_a, eta_b=eta_b, depol_p=p, attacker="usd")
            theta = rng.uniform(1e-3, math.pi / 2 - 1e-3)
            stage1, stage2 = session._born_stages(theta, channel)
            assert stage1[0, [0, 1], [0, 1]].tolist() == [0.0, 0.0] and not stage2[2:, :, :2].any()
            dist = _Distributions(ProtocolAngle(theta), channel, rng.uniform(0.05, 0.95))
            for table in (dist.cdf, dist.thresholds):
                before = np.concatenate([[0.0], table[:-1]])
                assert table[zeros].tolist() == before[zeros].tolist()

    def test_sessions_build_no_density_matrices(self, monkeypatch, tmp_path):
        def refuse(*args, **kwargs):
            raise AssertionError("density matrix or POVM built on the session path")

        monkeypatch.setattr(qcore.DensityMatrix, "__init__", refuse)
        monkeypatch.setattr(qcore.Povm, "__init__", refuse)
        with pytest.raises(AssertionError):  # the guard is live
            qcore.DensityMatrix(np.eye(2) / 2)
        session._shared_distributions.cache_clear()
        monkeypatch.setattr(session, "_CHUNK", 1000)
        for channel in (ChannelModel(eta_a=0.9, eta_b=0.8, depol_p=0.02),
                        ChannelModel(depol_p=0.01, attacker="usd")):
            config = cfg(n_rounds=3000, channel=channel)
            for workers in (1, 2):
                assert run_session(config, workers=workers).table.grids.sum() == 3000
            gen = np.random.Generator(np.random.PCG64DXSM(config.seed))
            assert isinstance(sample_round(gen, config), RoundRecord)
        assert cli.main(["attack-demo", "--output", str(tmp_path / "demo.csv")]) == 0


# a dense grid over the open interval, with angles within 1e-6 rad of both ends
EDGE_THETAS = sorted({*np.linspace(1e-6, math.pi / 2 - 1e-6, 2000).tolist(),
                      1e-9, 1e-7, 5e-7, math.pi / 2 - 5e-7, math.pi / 2 - 1e-7, math.nextafter(math.pi / 2, 0.0)})


class TestBatchedBornCh:
    """``born_ch`` over a grid against ``ch_value(born_table(...))`` one angle at a time."""

    @pytest.mark.parametrize("channel", [
        ChannelModel(attacker="usd"),
        ChannelModel(eta_a=0.9, eta_b=0.8, attacker="usd"),
        ChannelModel(depol_p=0.03, attacker="usd"),
        ChannelModel(eta_a=0.9, eta_b=0.8, depol_p=0.03),
    ], ids=["usd-ideal", "usd-lossy", "usd-depolarized", "clean-lossy-depolarized"])
    def test_bit_identical_to_one_table_at_a_time(self, channel):
        want = [ch_value(born_table(ProtocolAngle(theta), channel)).value for theta in EDGE_THETAS]
        assert session.born_ch(np.array(EDGE_THETAS), channel).tolist() == want

    @pytest.mark.parametrize("changes", [
        {(0, 0, 2, 2): math.nan},
        {(1, 0, 0, 1): math.inf},
        {(1, 1, 2, 0): -1e-6},
        {(0, 1, 1, 1): 0.5},
        # mass moved between the sender's outcomes in pair (0, 1) alone: its sum stays 1, its marginal moves
        {(0, 1, 0, 2): -0.01, (0, 1, 1, 2): 0.01},
    ], ids=["nan", "inf", "negative", "unnormalized", "signaling"])
    def test_bad_grid_raises_as_a_table_does(self, changes):
        stack = np.array([born_table(ProtocolAngle(theta), ChannelModel(eta_b=0.7, attacker="usd")).grids
                          for theta in (0.3, 0.8, 1.2)])
        for cell, change in changes.items():
            stack[(1, *cell)] += change
        with pytest.raises(ValueError) as single:
            CorrelationTable("probability", stack[1])
        with pytest.raises(ValueError) as batched:
            _probability_ch(np.moveaxis(stack, 0, -1))
        assert str(batched.value) == str(single.value)
        good = stack[[0, 2]]
        assert _probability_ch(np.moveaxis(good, 0, -1)).tolist() == [
            ch_value(CorrelationTable("probability", g)).value for g in good]


def check_message(check, grids):
    """The message of the ValueError that ``check(grids)`` raises, None when it raises none."""
    try:
        check(grids)
    except ValueError as exc:
        return str(exc)
    return None


class TestCheckRows:
    """Each row of ``bell._CHECK_ROWS``, through every cell of one valid USD table with no cell below 1e-3."""

    # the closed-form cells of born_table, before any check
    GOOD = session._born_grids(*session._born_stages(0.8, ChannelModel(
        eta_a=0.9, eta_b=0.7, depol_p=0.03, attacker="usd")))

    def message(self, bad):
        """The message of ``bad`` as one table; the same table between two good ones, batch last, must match it."""
        single = check_message(lambda g: CorrelationTable("probability", g), bad)
        batched = check_message(_probability_ch, np.stack([self.GOOD, bad, self.GOOD], axis=-1))
        assert batched == single
        return single

    def test_the_table_is_valid(self):
        assert self.GOOD.min() > 1e-3
        assert self.message(self.GOOD.copy()) is None

    @pytest.mark.parametrize("pair", list(np.ndindex(2, 2)))
    def test_moved_mass_disagrees_exactly_when_a_marginal_moves(self, pair):
        for a, b in itertools.combinations(np.ndindex(3, 3), 2):
            bad = self.GOOD.copy()
            bad[(*pair, *a)] += 1e-3
            bad[(*pair, *b)] -= 1e-3
            # the sender's outcome-0 marginal is row 0 of the pair, the receiver's column 0
            moved = (a[0] == 0) != (b[0] == 0) or (a[1] == 0) != (b[1] == 0)
            want = "setting marginals disagree across pairs by 1.000e-03" if moved else None
            assert self.message(bad) == want, (pair, a, b)

    @pytest.mark.parametrize("change", [1e-3, -1e-3, 2e-9])
    def test_any_one_cell_breaks_its_pair_sum(self, change):
        for cell in np.ndindex(2, 2, 3, 3):
            bad = self.GOOD.copy()
            bad[cell] += change
            assert self.message(bad) == "each probability grid must sum to 1 within 1e-9", cell


class TestSessionEstimator:
    @pytest.mark.parametrize("channel", [
        ChannelModel(),
        ChannelModel(attacker="usd"),
        ChannelModel(eta_a=0.9, eta_b=0.8, depol_p=0.03, attacker="usd"),
        ChannelModel(eta_a=0.9, eta_b=0.8, depol_p=0.03),
    ], ids=["clean", "usd", "usd-lossy-depolarized", "clean-lossy-depolarized"])
    def test_born_table_value_is_the_dense_contraction(self, channel):
        for theta in EDGE_THETAS:
            table = born_table(ProtocolAngle(theta), channel)
            got = ch_value(table)
            want = oracle.np_ch_value(table.grids, "probability")
            assert (repr(got.value), repr(got.standard_error)) == tuple(map(repr, want)), theta

    @pytest.mark.parametrize("cell", range(9))
    def test_a_pair_without_rounds_is_insufficient(self, cell):
        # each pair holds rounds only in one cell, and pair 00 a key round besides; then one pair is emptied
        for empty in (None, 0, 1, 2, 3):
            grids = np.zeros((4, 9), dtype=np.int64)
            grids[:, cell] = 2
            grids[0, 0] += 1
            if empty is not None:
                grids[empty] = 0
            result = session._result_from_table(CorrelationTable("count", grids.reshape(2, 2, 3, 3)), cfg(n_rounds=100))
            assert result.insufficient_statistics == (empty is not None) == (result.s_ch_estimate is None)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_estimate_per_session(self, monkeypatch, workers):
        # the benchmark times session._result_from_table and bell.ch_value as the session's estimator
        calls = {}

        def counted(name):
            target = getattr(session, name)

            def count(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return target(*args, **kwargs)
            monkeypatch.setattr(session, name, count)

        counted("_result_from_table")
        counted("ch_value")
        result = run_session(cfg(n_rounds=2 * session._CHUNK + 5), workers=workers)
        assert not result.insufficient_statistics
        assert calls == {"_result_from_table": 1, "ch_value": 1}

    def test_one_gain_per_session(self, monkeypatch):
        # the raw and the extrapolated report share S_CH and the error rate, so they share one gain
        result = run_session(cfg(channel=ChannelModel(eta_a=0.9, depol_p=0.01)))
        calls = []
        gain = rates._gain
        monkeypatch.setattr(rates, "_gain", lambda *args: calls.append(args) or gain(*args))
        again = session._result_from_table(result.table, result.config)
        assert len(calls) == 1
        monkeypatch.undo()
        for report in (again.rate_report, again.rate_report_extrapolated):
            assert report == rates._rate_report(report.s_ch, report.qber, report.conclusive_fraction, result.n_con)
        assert again.rate_report.conclusive_fraction < again.rate_report_extrapolated.conclusive_fraction


class TestSift:
    def test_clean_run_has_no_errors(self):
        config = cfg(n_rounds=20000)
        records = replay_rounds(config)
        _, n_con, n_err = tally_records(records)
        assert n_con > 0 and n_err == 0
        assert (run_session(config).n_con, sum(rec.key_bit is not None for rec in records)) == (n_con, n_con)
        # decode rule: receiver announces basis k, key bit is 1 - k
        for rec in records:
            if rec.key_bit is not None:
                sent, decoded = rec.key_bit
                assert decoded == 1 - rec.bob_basis
                assert sent == decoded

    def test_noisy_error_rate_within_bounds(self):
        config = cfg(n_rounds=200000, seed=23,
                     channel=ChannelModel(depol_p=0.02))
        res = run_session(config)
        want_q = oracle.qber_closed(math.pi / 3, 0.02)[0]
        sigma = math.sqrt(want_q * (1 - want_q) / res.n_con)
        assert res.qber == pytest.approx(want_q, abs=3 * sigma)

    def test_conclusive_fraction_tracks_prediction(self):
        config = cfg(n_rounds=200000, seed=29)
        res = run_session(config)
        # raw denominator spans both branches, so the key-branch share
        # (1 - test_fraction) multiplies the conclusive probability
        want_f = 0.75 * math.sin(math.pi / 3) ** 2 / 2
        got_f = res.n_con / res.n_detected
        assert got_f == pytest.approx(want_f, abs=0.005)


class TestRunSession:
    def test_ideal_estimate_within_three_sigma(self):
        res = run_session(cfg(n_rounds=1_000_000, seed=1))
        est = res.s_ch_estimate
        assert abs(est.value - 0.125) <= 3 * est.standard_error
        assert res.qber == 0.0
        assert not res.aborted
        assert res.rate_report.rate > 0.0

    def test_count_bookkeeping_invariants(self):
        for seed in range(5):
            res = run_session(cfg(n_rounds=30000, seed=seed,
                                  channel=ChannelModel(eta_a=0.9, eta_b=0.6,
                                                       depol_p=0.01)))
            assert 0 <= res.n_err <= res.n_con
            assert res.n_con <= res.n_detected
            assert res.n_detected <= res.config.n_rounds
            # each round lands in exactly one cell of one pair grid
            assert res.table.grids.sum() == res.config.n_rounds
            assert res.table.totals.sum() == res.config.n_rounds

    def test_worker_count_does_not_change_results(self, monkeypatch):
        monkeypatch.setattr(session, "_CHUNK", 4096)
        config = cfg(n_rounds=300000, seed=13)
        a = run_session(config, workers=1)
        b = run_session(config, workers=4)
        assert json.dumps(a.to_json_dict(), sort_keys=True) == \
            json.dumps(b.to_json_dict(), sort_keys=True)

    @pytest.mark.parametrize("workers", [2.5, True, 0.0, -1, "2"])
    def test_workers_must_be_a_positive_integer(self, workers):
        with pytest.raises(ValueError, match="workers"):
            run_session(cfg(n_rounds=100), workers=workers)

    def test_numpy_integer_workers(self, monkeypatch):
        monkeypatch.setattr(session, "_CHUNK", 4096)
        config = cfg(n_rounds=20000, seed=3)
        a, b = run_session(config, workers=np.int64(2)), run_session(config, workers=2)
        assert json.dumps(a.to_json_dict(), sort_keys=True) == json.dumps(b.to_json_dict(), sort_keys=True)

    @pytest.mark.parametrize("workers, cpus, pool", [
        (64, 8, 3), (64, 2, 2), (2, 8, 2), (64, None, None), (1, 8, None),
    ])
    def test_thread_pool_is_capped(self, monkeypatch, workers, cpus, pool):
        sizes, tasks = [], []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                items = list(items)
                tasks.append(len(items))
                return map(fn, items)

        monkeypatch.setattr(session, "ThreadPoolExecutor", SerialPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(session, "_CHUNK", 1000)
        config = cfg(n_rounds=3000)
        res = run_session(config, workers=workers)
        assert sizes == ([] if pool is None else [pool])
        # one task per thread, not one per chunk
        assert len(tasks) == len(sizes) and all(n <= size for n, size in zip(tasks, sizes))
        np.testing.assert_array_equal(res.table.grids, run_session(config).table.grids)

    # (4, 9) counts per basis pair 2i + j; guards the per-round stream
    # contract: these must not change when the sampler is rewritten. Pinned
    # from the first version of the PCG64DXSM stream. The
    # estimate, its error and the QBER pin the estimator on those counts.
    @pytest.mark.parametrize("channel, seed, counts, estimate", [
        (ChannelModel(eta_a=0.9, eta_b=0.8, depol_p=0.02), 31, [
            [350, 26371, 6711, 20072, 7087, 6814, 2256, 3871, 1501],
            [20306, 6901, 6737, 358, 26381, 6847, 2268, 3754, 1521],
            [3332, 1118, 1066, 3512, 9989, 3358, 729, 1281, 471],
            [3372, 1132, 1198, 3560, 9891, 3361, 752, 1250, 522],
        ], ("0x1.fdbdf4552f560p-9", "0x1.101ce3b31a300p-9", 0.01723214720342696)),
        (ChannelModel(attacker="usd"), 17, [
            [0, 14177, 23294, 10468, 3521, 23375, 0, 0, 0],
            [10650, 3530, 23407, 0, 14066, 23159, 0, 0, 0],
            [1735, 2909, 1607, 1768, 3076, 14109, 0, 0, 0],
            [1793, 2863, 1586, 1721, 3106, 14080, 0, 0, 0],
        ], ("-0x1.b78e453d31db8p-4", "0x1.0de8269d5c064p-9", 0.0)),
    ], ids=["lossy-depolarized", "attacked"])
    def test_counts_pinned_across_versions(self, channel, seed, counts, estimate):
        res = run_session(cfg(n_rounds=200000, seed=seed, channel=channel))
        assert res.table.grids.reshape(4, 9).tolist() == counts
        value, stderr, qber = estimate
        assert res.s_ch_estimate.value == float.fromhex(value)
        assert res.s_ch_estimate.standard_error == float.fromhex(stderr)
        assert res.qber == qber

    @pytest.mark.parametrize("channel, seed", [
        (ChannelModel(), 101),
        (ChannelModel(eta_a=0.9, eta_b=0.8, depol_p=0.02), 102),
        (ChannelModel(attacker="usd"), 103),
        (ChannelModel(eta_a=0.9, eta_b=0.8, depol_p=0.02, attacker="usd"), 104),
    ], ids=["ideal", "lossy", "attacked", "lossy-attacked"])
    def test_long_session_counts_fit_born_table(self, channel, seed):
        # chi^2 of 4 M rounds against born_table weighted by the basis choices,
        # within 5 sigma by Wilson-Hilferty; a cell of probability zero is never hit
        config = cfg(n_rounds=2 ** 22, seed=seed, channel=channel)
        counts = run_session(config).table.grids.ravel()
        w = np.array([1.0 - config.test_fraction, config.test_fraction]) / 2
        p = (w[:, None, None, None] * born_table(ANG, channel).grids).ravel()
        assert counts[p == 0].sum() == 0
        expected = config.n_rounds * p[p > 0]
        chi2 = float(((counts[p > 0] - expected) ** 2 / expected).sum())
        dof = int((p > 0).sum()) - 1
        # (chi^2 / dof)^(1/3) is about normal, with mean 1 - 2 / (9 dof) and variance 2 / (9 dof)
        fit = NormalDist(1.0 - 2.0 / (9 * dof), math.sqrt(2.0 / (9 * dof)))
        assert abs(fit.zscore((chi2 / dof) ** (1.0 / 3.0))) < 5.0

    @pytest.mark.parametrize("attacker", ["none", "usd"])
    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("chunk", [1, 7, 977])
    def test_chunk_partition_does_not_change_results(self, monkeypatch, chunk, workers, attacker):
        config = cfg(n_rounds=20000, seed=3, channel=ChannelModel(eta_b=0.9, depol_p=0.01, attacker=attacker))
        default = json.dumps(run_session(config).to_json_dict(), sort_keys=True)
        monkeypatch.setattr(session, "_CHUNK", chunk)
        assert json.dumps(run_session(config, workers=workers).to_json_dict(), sort_keys=True) == default

    def test_three_sigma_coverage_over_seeds(self):
        # fixed-seed sweep; the interval must cover the true value throughout
        misses = 0
        for seed in range(50):
            res = run_session(cfg(n_rounds=100000, seed=seed))
            est = res.s_ch_estimate
            if abs(est.value - 0.125) > 3 * est.standard_error:
                misses += 1
        assert misses / 50 <= 0.01

    def test_attacked_session_aborts(self):
        res = run_session(cfg(n_rounds=200000, seed=17,
                              channel=ChannelModel(attacker="usd")))
        assert res.aborted
        assert res.s_ch_estimate.value < 0.0
        want = oracle.attacked_ch(math.pi / 3)
        assert res.s_ch_estimate.value == pytest.approx(want, abs=0.01)

    def test_abort_threshold_filters_weak_violations(self):
        config = cfg(n_rounds=100000, seed=2, abort_threshold=0.2)
        res = run_session(config)
        # healthy run, but the bar is above the quantum maximum for this angle
        assert res.aborted

    def test_insufficient_statistics(self):
        res = run_session(cfg(n_rounds=1, seed=0))
        assert res.insufficient_statistics
        assert res.aborted
        assert res.s_ch_estimate is None
        assert res.qber is None
        assert res.rate_report is None

    def test_extrapolated_rate_uses_key_branch_denominator(self):
        res = run_session(cfg(n_rounds=400000, seed=41))
        raw = res.rate_report
        ext = res.rate_report_extrapolated
        assert ext.normalized_rate >= raw.normalized_rate
        assert ext.gain == raw.gain
        # all rounds in the key branch: extrapolated fraction near sin^2/2
        assert ext.conclusive_fraction == pytest.approx(
            math.sin(math.pi / 3) ** 2 / 2, abs=0.01)

    def test_json_roundtrip_structure(self):
        res = run_session(cfg(n_rounds=5000, seed=19))
        d = res.to_json_dict()
        assert d["config"]["seed"] == 19
        assert d["n_detected"] == res.n_detected
        assert d["n_con"] == res.n_con
        assert d["aborted"] is False
        assert "table" in d and d["table"]["mode"] == "count"


# SHA-256 of the JSON of every session in SESSION_MATRIX, pinned from the first version of the PCG64DXSM stream
# and re-pinned, with each config's chunk size dropped, from the last version that had one: any change to a byte
# of a session's output, at any worker count or chunk size, changes it
SESSION_MATRIX_SHA256 = "6f79a4c987a33ccf6ca8318eb4baaf9fb1c42f31298ce54e0b38b1012bc023c0"
SESSION_MATRIX = list(itertools.product(("none", "usd"), (1, 2), (1, 7, 65536), (1, 64, 20000)))


class TestFixedPath:
    """What a session does once, around its tally: the tables, the generator and the result."""

    def test_session_matrix_is_pinned(self, monkeypatch):
        docs = []
        for k, (attacker, workers, chunk, n_rounds) in enumerate(SESSION_MATRIX):
            monkeypatch.setattr(session, "_CHUNK", chunk)
            # a distinct setting for every session, so none reuses another's tables
            config = SessionConfig(angle=ProtocolAngle.from_degrees(40.0 + 0.5 * k), n_rounds=n_rounds, seed=k,
                                   channel=ChannelModel(eta_a=0.95, eta_b=0.85, depol_p=0.02, attacker=attacker))
            docs.append(run_session(config, workers=workers).to_json_dict())
        digest = hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest()
        assert digest == SESSION_MATRIX_SHA256

    def test_session_counts_stay_exact_floats(self):
        # why run_session may adopt its own tally without CorrelationTable's checks
        assert MAX_ROUNDS < 2 ** 53

    def test_trusted_table_matches_validated_table(self):
        rng = np.random.default_rng(11)
        tallies = [rng.integers(0, 2 ** 32, (2, 2, 3, 3)) for _ in range(20)]
        tallies += [rng.integers(0, 50, (2, 2, 3, 3)) for _ in range(20)]
        tallies.append(np.zeros((2, 2, 3, 3), dtype=np.int64))
        one_empty = rng.integers(1, 1000, (2, 2, 3, 3))
        one_empty[1, 0] = 0  # a setting pair never sampled
        tallies.append(one_empty)
        near_cap = np.full((2, 2, 3, 3), (2 ** 38 - 1) // 36, dtype=np.int64)
        near_cap[0, 0, 0, 0] += 2 ** 38 - 1 - near_cap.sum()
        tallies.append(near_cap)
        config = cfg(n_rounds=MAX_ROUNDS)
        for grid in tallies:
            grid = grid.astype(np.int64)
            trusted = session._result_from_table(CorrelationTable._from_tally(grid.copy()), config)
            validated = session._result_from_table(CorrelationTable("count", grid), config)
            assert json.dumps(trusted.to_json_dict()) == json.dumps(validated.to_json_dict())
            # the one contraction against the cell map gives the masked sums
            assert (trusted.n_detected, trusted.n_con, trusted.n_err) == (
                grid[:, :, :2, :2].sum(), grid[0, :, :2, 0].sum(), grid[0, 0, 0, 0] + grid[0, 1, 1, 0])
            assert not trusted.table.grids.flags.writeable and not trusted.table.totals.flags.writeable
        assert near_cap.sum() == 2 ** 38 - 1

    @pytest.mark.parametrize("seed", [12345, 2 ** 64 - 1])
    @pytest.mark.parametrize("start", [0, 65536 + 3])
    def test_reused_generator_draws_each_chunk_from_its_own_counter(self, seed, start):
        # one stream drawn chunk after chunk, back to back and then past gaps: round r is variate r of the seed's stream
        want = np.random.Generator(np.random.PCG64DXSM(seed)).random(start + 5000)
        stream = [np.random.Generator(np.random.PCG64DXSM(seed)), 0]
        for first in (start, start + 1000, start + 2500, start + 4999):
            n = min(1000, start + 5000 - first)
            np.testing.assert_array_equal(session._words(stream, first, n, np.empty(1000)), want[first:first + n])
            assert stream[1] == first + n

    def test_words_are_slices_of_one_long_draw(self):
        seed = 2 ** 63 + 5
        whole = np.random.Generator(np.random.PCG64DXSM(seed)).random(2 ** 17)
        # one fresh stream: the first variate, 30 spans (some empty) at increasing starts with gaps between, the last
        cuts = np.sort(np.random.default_rng(3).integers(1, 2 ** 17 - 1, 60)).tolist()
        spans = [(0, 1), *((cuts[k], cuts[k + 1] - cuts[k]) for k in range(0, 60, 2)), (2 ** 17 - 1, 1)]
        stream = [np.random.Generator(np.random.PCG64DXSM(seed)), 0]
        for start, n in spans:
            drawn = session._words(stream, start, n, np.empty(n + 5))
            np.testing.assert_array_equal(drawn, whole[start:start + n])
        whole_again = [np.random.Generator(np.random.PCG64DXSM(seed)), 0]
        np.testing.assert_array_equal(session._words(whole_again, 0, 2 ** 17, np.empty(2 ** 17)), whole)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_generator_construction_per_session(self, monkeypatch, workers):
        # each worker thread seeds one generator per session, and its chunks construct none
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        built = []

        class PCG64DXSM(np.random.PCG64DXSM):
            def __init__(self, seed):
                built.append(seed)
                super().__init__(seed)

        monkeypatch.setattr(np.random, "PCG64DXSM", PCG64DXSM)
        monkeypatch.setattr(session, "_CHUNK", 7)
        for seed in range(3):
            run_session(cfg(n_rounds=700, seed=seed), workers=workers)  # 100 chunks each
        assert built == [seed for seed in range(3) for _ in range(workers)]

    def test_concurrent_sessions_match_serial_runs(self, monkeypatch):
        # two 2-worker sessions at once from two threads share no generator state, and leave no thread behind
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(session, "_CHUNK", 100)  # 400 chunks a session, so the two runs overlap
        configs = [cfg(n_rounds=40000, seed=3),
                   cfg(n_rounds=40000, seed=4, channel=ChannelModel(eta_b=0.9, attacker="usd"))]
        want = [json.dumps(run_session(config, workers=2).to_json_dict()) for config in configs]
        before = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                got, barrier = [None, None], threading.Barrier(2)

                def run(k):
                    barrier.wait(timeout=60)
                    got[k] = json.dumps(run_session(configs[k], workers=2).to_json_dict())

                callers = [threading.Thread(target=run, args=(k,)) for k in range(2)]
                for caller in callers:
                    caller.start()
                for caller in callers:
                    caller.join(timeout=60)
                    assert not caller.is_alive()
                assert got == want
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == before

    def test_threads_with_their_own_generators_match_one_thread(self, monkeypatch):
        # more threads than cores, switching often, each drawing many short chunks from its reused generator
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(session, "_CHUNK", 7)
        config = cfg(n_rounds=5000, seed=21, channel=ChannelModel(eta_b=0.9, attacker="usd"))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            tables = [run_session(config, workers=8).table.grids for _ in range(3)]
        finally:
            sys.setswitchinterval(interval)
        for grids in tables:
            np.testing.assert_array_equal(grids, run_session(config).table.grids)

    @pytest.mark.parametrize("workers, n_rounds", [(1, 5000), (4, 100)])
    def test_cpu_count_read_only_when_threads_could_help(self, monkeypatch, workers, n_rounds):
        def no_count():
            raise AssertionError("cpu_count read for a session that runs on one thread")

        monkeypatch.setattr(os, "cpu_count", no_count)
        monkeypatch.setattr(session, "_CHUNK", 1000)
        run_session(cfg(n_rounds=n_rounds), workers=workers)

    def test_sessions_share_the_tables_of_one_setting(self, monkeypatch):
        builds = []
        real_init = _Distributions.__init__

        def counting_init(self, *args):
            builds.append(args)
            real_init(self, *args)

        session._shared_distributions.cache_clear()
        monkeypatch.setattr(_Distributions, "__init__", counting_init)
        for seed in range(3):
            run_session(cfg(n_rounds=100, seed=seed))
        assert builds == [(ANG, ChannelModel(), 0.25)]


def test_package_exports_resolve_once():
    assert len(set(entb92.__all__)) == len(entb92.__all__)
    assert [name for name in entb92.__all__ if not hasattr(entb92, name)] == []
    for name in ("sift", "SiftSummary", "estimate_table"):
        assert name not in entb92.__all__
        assert not hasattr(entb92, name) and not hasattr(session, name)
    for name in ("AttackOutcome", "ATTACK_OUTCOMES"):
        assert name not in entb92.__all__
        assert not hasattr(entb92, name) and not hasattr(channels, name)
