"""Seeded Monte-Carlo engine for two-party key-distribution sessions.

Each round consumes exactly one variate of ``Generator.random()`` from one
PCG64DXSM stream per seed: round r reads variate r of
``Generator(PCG64DXSM(seed))``. Each worker seeds its own generator and
reaches the first round of a chunk by jumping the generator's linear
congruential state forward with ``advance``, which costs O(log r) for a
jump of r and draws nothing. Because the variate of round r lives at a
fixed offset in the seeded stream, any partition of rounds into chunks --
and any assignment of chunks to worker threads -- reproduces the same
per-round outcomes, and the integer tallies merge associatively. Results
are therefore bit-identical across worker counts.

The variate picks the whole round at once: basis choices, outcomes and, on
attacked sessions, the attacker's branch. Its cells are the exact Born
cells of ``_born_stages``, which ``born_table`` also returns, weighted by
the basis choices and laid out as one CDF row per setting, precomputed
with thresholds ``ceil(cdf * 2^53) * 2^-53`` on the variates' own grid. The
chunked tally counts grid cells straight from a guide table over the
thresholds at each grid cell's last row cell; the scalar ``sample_round``
counts the row's own thresholds, the same rule, which also gives the branch.
"""

from __future__ import annotations

import functools
import numbers
import operator
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .bell import _ARRAY, _FLOAT, BellValue, CorrelationTable, _Backend, _overlaps, _probability_ch, ch_value
from .channels import ChannelModel
from .rates import RateReport, _finite, _rate_report
from .states import ProtocolAngle, _is_real


def _read_only(array: np.ndarray) -> np.ndarray:
    """``array``, made read-only so that every caller can share it."""
    array.setflags(write=False)
    return array


_BOB_OUTCOMES = ("conclusive", "inconclusive", "vacuum")
# the most rounds a session holds, so that every count stays an exact float (below 2^53)
MAX_ROUNDS = 2 ** 38
# rounds per chunk. Memory does not grow with the chunk count; a chunk in flight holds 19 B per round, about 1.2 MB
_CHUNK = 2 ** 16
# a variate's top 12 bits, 4096 x truncated, pick its guide-table bucket; _MIXED flags a bucket a threshold splits
_BUCKETS, _MIXED = 4096, 0x80
# The record fields (alice_basis, alice_outcome, bob_basis, bob_outcome) and key bit of each cell
# 9 * (2i + j) + 3 * row + col of the (i, j, row, col) grid; row r of basis X holds outcome 1 - r.
# A key round is a sender's Z click r with a conclusive click in B_j, which decodes 1 - j.
_CELLS = tuple(
    (("ZX"[i], "vacuum" if row == 2 else row ^ i, j, _BOB_OUTCOMES[col]),
     (row, 1 - j) if i == 0 and row < 2 and col == 0 else None)
    for i in (0, 1) for j in (0, 1) for row in range(3) for col in range(3))
_KEY_BIT = dict(_CELLS)
# the cells counted in n_detected (both sides click), n_detected_z (and the sender measures Z), n_con (a key round)
# and n_err (a key round whose bits differ), each as a getter of those cells from a table's 36 counts
_COUNTED = tuple(operator.itemgetter(*np.flatnonzero(column).tolist()) for column in np.array(
    [(clicked, clicked and basis == "Z", bit is not None, bit is not None and bit[0] != bit[1])
     for (basis, a, _, b), bit in _CELLS for clicked in [a != "vacuum" and b != "vacuum"]]).T)
# The cells of a session's sampling row, by attacked flag: each is a grid cell and the attacker's branch e, None
# without an attacker. An attacked row keeps the 84 of the 144 (cell, e) that can be non-zero: on branches 2 and 3 the
# attacker suppresses the photon, so the receiver sees vacuum, and a Z round never takes branch e < 2 on sender row e.
_ROW_CELLS = (tuple((c, None) for c in range(36)),
              tuple((9 * (2 * i + j) + 3 * row + col, e) for i in (0, 1) for j in (0, 1) for row in range(3)
                    for col in range(3) for e in range(4) if (col == 2 if e > 1 else i or row != e)))
# each grid cell's last attacked row cell, whose threshold is the grid cell's
_LASTS = _read_only(np.flatnonzero(np.diff([c for c, _ in _ROW_CELLS[1]], append=36)))
# the grid cells, which a guide table repeats as often as each fills buckets
_GRID_CELLS = _read_only(np.arange(36, dtype=np.uint8))
# where each attacked row cell (i, j, row, col, e) reads the flat (i, row, e) and (e, j, col) stages of _born_stages
_STAGE1_AT, _STAGE2_AT = map(_read_only, np.array(
    [((c // 18 * 3 + c // 3 % 3) * 4 + e, (2 * e + c // 9 % 2) * 3 + c % 3) for c, e in _ROW_CELLS[1]]).T.copy())


def _integer(name: str, value) -> int:
    """``value`` as an int; bools, strings and non-integral values are rejected."""
    if not _is_real(value) or not (isinstance(value, numbers.Integral) or float(value).is_integer()):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _int_in(value, allowed) -> bool:
    """Whether ``value`` is an integer (not a bool or a float) equal to one of ``allowed``."""
    return isinstance(value, numbers.Integral) and _is_real(value) and value in allowed


def _json_fields(record) -> dict:
    """``vars(record)``, each nested record through its own ``to_json_dict``."""
    return {name: value.to_json_dict() if hasattr(value, "to_json_dict") else value
            for name, value in vars(record).items()}


@dataclass(frozen=True)
class SessionConfig:
    """Parameters of one simulated session.

    ``test_fraction`` is the probability that the sender measures X (the
    rounds feeding the a1 statistics); it must be strictly between 0 and 1
    so every setting pair accumulates counts. A session holds 1 to
    ``MAX_ROUNDS`` rounds.
    """

    angle: ProtocolAngle
    n_rounds: int
    test_fraction: float = 0.25
    channel: ChannelModel = field(default_factory=ChannelModel)
    seed: int = 0
    abort_threshold: float = 0.0

    def __post_init__(self):
        for name, kind in (("angle", ProtocolAngle), ("channel", ChannelModel)):
            if not isinstance(getattr(self, name), kind):
                raise ValueError(f"{name} must be a {kind.__name__}, got {getattr(self, name)!r}")
        for name in ("n_rounds", "seed"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        for name in ("test_fraction", "abort_threshold"):
            object.__setattr__(self, name, _finite(name, getattr(self, name)))
        if not 1 <= self.n_rounds <= MAX_ROUNDS:
            raise ValueError(f"n_rounds must lie in [1, {MAX_ROUNDS}], got {self.n_rounds!r}")
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError(f"test_fraction must lie strictly inside (0, 1), got {self.test_fraction!r}")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")

    def to_json_dict(self) -> dict:
        fields = _json_fields(self)
        angle = fields.pop("angle")
        return {"theta": angle.theta, "theta_degrees": angle.degrees, **fields}


@dataclass(frozen=True)
class RoundRecord:
    """One protocol round as both parties (and the simulator) see it.

    ``key_bit`` is the (sender bit, decoded bit) pair, present exactly when
    the sender measured Z and clicked while the receiver got a conclusive
    click; it must be the pair ``_CELLS`` gives the other four fields.
    ``eve_outcome`` is simulator-side bookkeeping: the attacker's 1-based
    measurement branch, None on attack-free rounds.
    """

    alice_basis: str
    alice_outcome: object
    bob_basis: int
    bob_outcome: str
    key_bit: Optional[Tuple[int, int]] = None
    eve_outcome: Optional[int] = None

    def __post_init__(self):
        if self.alice_basis not in ("Z", "X"):
            raise ValueError('alice_basis must be "Z" or "X"')
        if self.alice_outcome != "vacuum" and not _int_in(self.alice_outcome, (0, 1)):
            raise ValueError('alice_outcome must be 0, 1 or "vacuum"')
        if not _int_in(self.bob_basis, (0, 1)):
            raise ValueError("bob_basis must be 0 or 1")
        if self.bob_outcome not in _BOB_OUTCOMES:
            raise ValueError(f"bob_outcome must be one of {_BOB_OUTCOMES}")
        key_bit = _KEY_BIT[self.alice_basis, self.alice_outcome, self.bob_basis, self.bob_outcome]
        if self.key_bit != key_bit or not all(_int_in(b, (0, 1)) for b in self.key_bit or ()):
            raise ValueError(f"key_bit must be {key_bit!r} on this round, got {self.key_bit!r}")
        if self.eve_outcome is not None and not _int_in(self.eve_outcome, (1, 2, 3, 4)):
            raise ValueError("eve_outcome must be 1..4 when present")


@dataclass(frozen=True)
class SessionResult:
    """Aggregate outcome of a session.

    On insufficient statistics (no conclusive events, or some setting pair
    never sampled) the estimate, error rate, and rate reports are None and
    the session counts as aborted.
    """

    config: SessionConfig
    table: CorrelationTable
    s_ch_estimate: Optional[BellValue]
    qber: Optional[float]
    n_con: int
    n_err: int
    n_detected: int
    rate_report: Optional[RateReport]
    rate_report_extrapolated: Optional[RateReport]
    aborted: bool
    insufficient_statistics: bool

    def __post_init__(self):
        if not 0 <= self.n_err <= self.n_con <= self.n_detected <= self.config.n_rounds:
            raise ValueError("count ordering violated: need n_err <= n_con <= n_detected <= n_rounds")

    def to_json_dict(self) -> dict:
        return _json_fields(self)


def _with_sender_rows(w, per_ket, eta_a: float, axis: int) -> np.ndarray:
    """Rows (ket 0, ket 1, vacuum) on ``axis``, -2 or -3 before a batch axis: sender row r clicks with eta_a w_r."""
    joint = (w[..., None] if axis == -2 else w[..., None, :]) * per_ket
    return np.concatenate([eta_a * joint, (1.0 - eta_a) * joint.sum(axis=axis, keepdims=True)], axis=axis)


def _born_stages(theta, channel: ChannelModel, fns: _Backend = _FLOAT):
    """Closed-form Born cells of one setting, or of many, before any cumulative sum.

    Takes one source angle as a float, or with ``_ARRAY`` many as a 1-D array,
    which adds a last (batch) axis to every stage. Attack-free: the (i, j, row,
    col) grid and None. Attacked: the (i, row, e) joint of sender row and
    attacker branch e, and the (e, j, col) receiver cells. Sender row r of
    basis i (weight w_r) steers the receiver onto a ket whose squared overlaps
    with the receiver's and attacker's kets, both at theta, give each cell:
    ``_overlaps(theta, theta)``, and the attacker's cos^2 theta.
    """
    d, eta_b = 1.0 - 4.0 * channel.depol_p / 3.0, channel.eta_b
    zero, s2, b2, a2 = _overlaps(theta, theta, fns)  # ``zero`` gives a constant cell the batch shape
    axis = -3 if fns is _ARRAY else -2  # the sender-row axis
    one, half, vacuum = zero + 1.0, zero + 0.5, zero + (1.0 - eta_b)

    def receiver(k) -> list:
        """(conclusive, inconclusive, vacuum) at conclusive overlap k, depolarized to d k + (1 - d)/2."""
        con = eta_b * (d * k + (1.0 - d) / 2.0)
        return [con, eta_b - con, vacuum]

    off, on = receiver(zero), receiver(s2)
    if channel.attacker == "none":
        # (i, j, row): the ket steered by (i, row) against the conclusive ket of B_j
        x_rows = [receiver(b2), receiver(a2)]
        per_ket = np.array([[[off, on], [on, off]], [x_rows, x_rows]])
        w = np.array([[[half, half]], [[a2, b2]]])  # (i, j, row), the same for both j
        return _with_sender_rows(w, per_ket, channel.eta_a, axis), None
    # P(e | ket) for e = identified_1, identified_0, ambiguous_0, ambiguous_1
    c2 = fns.pow(fns.cos(theta), 2.0)
    eve = 0.5 * np.array([[[zero, s2, one, c2], [s2, zero, c2, one]],
                          [[b2, b2, a2, a2], [a2, a2, b2, b2]]])  # (i, row, e)
    # e = 0 resends signal 1 and e = 1 signal 0, and B_j clicks on signal s != j;
    # on e = 2, 3 the attacker suppresses the photon and the receiver sees vacuum
    suppressed = [zero, zero, one]
    receiver_cells = np.array([[on, off], [off, on], [suppressed] * 2, [suppressed] * 2])  # (e, j, col)
    w = np.array([[half, half], [a2, b2]])  # (i, row)
    return _with_sender_rows(w, eve, channel.eta_a, axis), receiver_cells


def _born_grids(stage1: np.ndarray, stage2: Optional[np.ndarray]) -> np.ndarray:
    """The (i, j, row, col, ...) probability grids of stages with any batch axes last; attacked cells sum over e.

    einsum adds the branches as ((p0 + p1) + p2) + p3 whatever the layout; a BLAS product need not.
    """
    return stage1 if stage2 is None else np.einsum("ire...,ejc...->ijrc...", stage1, stage2)


def born_table(angle: ProtocolAngle, channel: ChannelModel) -> CorrelationTable:
    """Exact probability table of one setting, in closed form.

    The twin of ``table_from_state(analytic_pipeline_state(angle, channel),
    ch_settings(angle), channel)``; attacked cells sum over the attacker's branch.
    """
    return CorrelationTable("probability", _born_grids(*_born_stages(angle.theta, channel)))


def born_ch(theta: np.ndarray, channel: ChannelModel) -> np.ndarray:
    """S_CH at each source angle of a 1-D radian array, bit for bit ``ch_value(born_table(angle, channel)).value``.

    The angles must lie in (0, pi/2) and are not checked here. One
    ``_born_stages`` pass over the whole batch, which stays the last axis
    throughout; any bad grid raises the ``ValueError`` that ``born_table`` would.
    """
    return _probability_ch(_born_grids(*_born_stages(theta, channel, _ARRAY)))


class _Distributions:
    """Sampling row of one setting: the CDF over its ``_ROW_CELLS`` and the decode tables of that CDF.

    Row cell (c, e) has probability w_i / 2 times the ``_born_stages`` cell
    of grid cell c (times the receiver cell of branch e on attacked
    sessions), with w_X = ``test_fraction`` and w_Z = 1 - w_X.
    ``thresholds`` holds the row's ``_thresholds``, ``bounds`` those at each
    grid cell's last row cell (the row's own without an attacker) and
    ``guide`` the ``_guide_table`` of ``bounds``. All are read-only, so one
    instance can serve many callers.
    """

    __slots__ = ("cells", "cdf", "thresholds", "bounds", "guide")

    def __init__(self, angle: ProtocolAngle, channel: ChannelModel, test_fraction: float):
        stage1, stage2 = _born_stages(angle.theta, channel)
        attacked = stage2 is not None
        self.cells = _ROW_CELLS[attacked]
        w = np.array([1.0 - test_fraction, test_fraction]) * 0.5
        probabilities = ((stage1 * w[:, None, None]).take(_STAGE1_AT) * stage2.take(_STAGE2_AT) if attacked
                         else (stage1 * w[:, None, None, None]).ravel())
        self.cdf = _read_only(probabilities.cumsum())
        self.thresholds = _thresholds(self.cdf)
        self.bounds = _read_only(self.thresholds.take(_LASTS)) if attacked else self.thresholds
        self.guide = _guide_table(self.bounds)


def _thresholds(cdf: np.ndarray) -> np.ndarray:
    """Thresholds of a CDF row: ``ceil(c * 2^53) * 2^-53`` of each entry c, the last one 1.

    Threshold k is the least variate on the 2^-53 grid of
    ``Generator.random()`` with c_k <= it; those of entries >= 1 and the last
    one become 1, which no variate reaches. A variate's row cell, the count
    of the thresholds <= it, is then ``searchsorted(thresholds, x, side="right")``.
    """
    bounds = np.ceil(np.minimum(cdf, 1.0) * 2.0 ** 53) * 2.0 ** -53
    bounds[-1] = 1.0
    return _read_only(bounds)


def _guide_table(bounds: np.ndarray) -> np.ndarray:
    """Guide table of the 36 grid-cell thresholds ``bounds``.

    Entry b is the count of the thresholds <= the bucket's first variate
    b / 4096, or'ed with ``_MIXED`` when a threshold falls later in the
    bucket. Scaling a threshold by 4096 to its bucket position q is exact.
    """
    q = bounds * _BUCKETS
    # cell k fills the buckets from the first wholly at or above threshold k - 1, ceil(q), to that of k
    first = np.ceil(q)
    filled = first.astype(np.intp)
    filled[1:] -= filled[:-1]
    guide = _GRID_CELLS.repeat(filled)
    # a threshold past its bucket's first variate splits the bucket below ceil(q)
    guide[first[first != q].astype(np.intp) - 1] |= _MIXED
    return _read_only(guide)


@functools.lru_cache(maxsize=16)
def _shared_distributions(angle: ProtocolAngle, channel: ChannelModel,
                          test_fraction: float) -> _Distributions:
    """The tables of one setting, built on its first ``sample_round`` or ``run_session`` only."""
    return _Distributions(angle, channel, test_fraction)


def _words(stream, start: int, n: int, out: np.ndarray) -> np.ndarray:
    """Variates ``start`` to ``start + n`` of the session stream, drawn into ``out`` (at least ``n`` long).

    ``stream`` is ``[generator, next undrawn round]``, the generator a worker's own
    ``Generator(PCG64DXSM(seed))``. Round r reads variate r: one 64-bit word, as ``random()`` makes it. The
    generator jumps ``start - next`` steps with ``advance``, so no round before ``start`` is drawn, and
    ``stream`` moves on to ``start + n``. The result is a view of ``out``.
    """
    gen, position = stream
    gen.bit_generator.advance(start - position)
    stream[1] = start + n
    return gen.random(out=out[:n])


def _decode(variates: np.ndarray, dist: _Distributions) -> np.ndarray:
    """The grid cell of each variate: the guide's count, or in a split bucket the count of ``dist.bounds`` <= it.

    Per-round arrays stay uint8/uint16: round-length intp temporaries let
    malloc trim the heap and fault it back in on every chunk.
    """
    key = np.multiply(variates, _BUCKETS, out=np.empty(len(variates), np.uint16), casting="unsafe")
    cell = dist.guide.take(key)
    slow = np.flatnonzero(cell >= _MIXED)
    if slow.size:
        cell[slow] = dist.bounds.searchsorted(variates[slow], side="right")
    return cell


def _tally_chunk(variates: np.ndarray, dist: _Distributions) -> np.ndarray:
    """Count-mode (2,2,3,3) tally for one block of variates."""
    return np.bincount(_decode(variates, dist), minlength=36).reshape(2, 2, 3, 3)


def sample_round(rng_state: np.random.Generator, config: SessionConfig) -> RoundRecord:
    """Draw one round; consumes exactly one variate from ``rng_state``.

    Passing ``Generator(PCG64DXSM(seed).advance(r))`` reproduces round r of
    the session with that seed, attacker branch included, independent of
    any other round. The sampling tables are built once per (angle, channel,
    test fraction) and reused by later calls with the same setting.
    """
    dist = _shared_distributions(config.angle, config.channel, config.test_fraction)
    cell, e = dist.cells[dist.thresholds.searchsorted(rng_state.random(), side="right")]
    fields, key_bit = _CELLS[cell]
    return RoundRecord(*fields, key_bit=key_bit, eve_outcome=None if e is None else e + 1)


def _result_from_table(table: CorrelationTable, config: SessionConfig) -> SessionResult:
    cells = table.grids.ravel().tolist()
    n_detected, n_detected_z, n_con, n_err = (sum(counted(cells)) for counted in _COUNTED)
    # a pair holds rounds when any of its nine counts is nonzero
    insufficient = n_con == 0 or not all(map(any, (cells[0:9], cells[9:18], cells[18:27], cells[27:36])))
    estimate = qber = raw = extrapolated = None
    if not insufficient:
        estimate = ch_value(table)
        qber = n_err / n_con
        raw = _rate_report(estimate.value, qber, n_con / n_detected, n_con)
        extrapolated = _rate_report(estimate.value, qber, n_con / n_detected_z, n_con, gain=raw.gain)
    return SessionResult(config=config, table=table, s_ch_estimate=estimate, qber=qber, n_con=n_con,
                         n_err=n_err, n_detected=n_detected, rate_report=raw, rate_report_extrapolated=extrapolated,
                         aborted=insufficient or bool(estimate.value <= config.abort_threshold),
                         insufficient_statistics=insufficient)


def run_session(config: SessionConfig, workers: int = 1) -> SessionResult:
    """Run every round and aggregate. Deterministic in (config.seed) alone.

    Rounds are processed in chunks of ``_CHUNK``; ``workers`` > 1 runs at
    most one thread per chunk and per CPU. Each thread seeds its own
    generator, takes the next chunk as it frees up and jumps to it with
    ``advance``, so no generator state is shared between threads or
    sessions. Neither can change any count: each round's variate sits at
    its own place in the seed's stream.
    """
    workers = _integer("workers", workers)
    if workers < 1:
        raise ValueError(f"workers must be positive, got {workers!r}")
    dist = _shared_distributions(config.angle, config.channel, config.test_fraction)
    starts = range(0, config.n_rounds, _CHUNK)
    threads = min(workers, len(starts))
    if threads > 1:
        threads = min(threads, os.cpu_count() or 1)

    chunks, lock = iter(starts), threading.Lock()

    def next_start() -> Optional[int]:
        with lock:
            return next(chunks, None)

    def work(_) -> np.ndarray:
        # one generator and one buffer per worker and session, the buffer first (else malloc may trim it off the heap
        # between sessions); a chunk allocates neither. Chunks go out in order, so each worker's starts increase.
        buffer = np.empty(min(_CHUNK, config.n_rounds))
        stream = [np.random.Generator(np.random.PCG64DXSM(config.seed)), 0]
        return sum(_tally_chunk(_words(stream, start, min(_CHUNK, config.n_rounds - start), buffer), dist)
                   for start in iter(next_start, None))

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            total = sum(pool.map(work, range(threads)))
    else:
        total = work(0)
    # a session holds at most MAX_ROUNDS = 2^38 rounds, so every count is exact below 2**53
    return _result_from_table(CorrelationTable._from_tally(total), config)
