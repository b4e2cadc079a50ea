"""Correlation tables and Bell functionals.

The Bell test uses two settings per party. For every setting pair the full
3x3 outcome grid is stored -- {target, orthogonal, vacuum} on each side --
because the correlator form of the inequality folds vacuum events into the
orthogonal outcome and therefore needs every cell, and because Monte-Carlo
estimation produces all cells anyway.

Two functionals are provided. The probability form

    S_CH = P(a1,b1) + P(a0,b1) + P(a1,b0) - P(a0,b0) - P(a1) - P(b1)

uses single-party marginals taken regardless of the partner's outcome
(vacuum included), with local-realist bound S_CH <= 0. The correlator form
S_CHSH, local bound 2, counts a vacuum as a click on the orthogonal outcome.
The two are affinely related, S_CHSH = 4 S_CH + 2, and that bridge survives
vacuum mass; it is exact whenever the table is non-signaling.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .channels import ChannelModel, JointState, _lossy_elements, _probability
from .qcore import DensityMatrix
from .states import SettingPairSpec, _is_real

PAIR_KEYS = ("00", "01", "10", "11")

# largest s for which the gain expression 1 - 4s - 4s^2 stays nonnegative
CH_QUANTUM_MAX = 0.5 * (math.sqrt(2.0) - 1.0)

_MARGINAL_ATOL = 1e-9

# correlator signs with vacuum folded onto the orthogonal outcome
_CHSH_SIGNS = np.array([[1.0, -1.0, -1.0],
                        [-1.0, 1.0, 1.0],
                        [-1.0, 1.0, 1.0]])

# The twelve cells where S_CH has a nonzero coefficient, as flat indices into a table's 36 (9 (2i + j) + 3 row + col):
# (0, 0) of pair 00, column 0 of pair 01, row 0 of pair 10, and row 0 and column 0 of pair 11; then the pair of each
_CH_CELLS = (0, 9, 12, 15, 18, 19, 20, 27, 28, 29, 30, 33)
_CH_PAIR = (0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 3, 3)

# 0/1 rows over a table's 36 flat cells (i, j, row, col): the four pair sums, then the outcome-0 marginals with the
# partner's setting 0 and, in the same order, with setting 1: the sender's on settings 0 and 1 (row 0 of pair (k, j)),
# then the receiver's (column 0 of pair (i, k))
_CHECK_ROWS = np.array(
    [[2 * i + j == k for i, j, _, _ in np.ndindex(2, 2, 3, 3)] for k in range(4)]
    + [[(i, j, row) == (k, partner, 0) if sender else (j, i, col) == (k, partner, 0)
        for i, j, row, col in np.ndindex(2, 2, 3, 3)]
       for partner in (0, 1) for sender in (True, False) for k in (0, 1)], dtype=float)
_CHECK_ROWS.setflags(write=False)


@dataclass(frozen=True)
class BellValue:
    """A Bell functional estimate with its standard error (0 when analytic)."""

    value: float
    standard_error: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError("Bell value must be finite")
        if not math.isfinite(self.standard_error) or self.standard_error < 0.0:
            raise ValueError("standard error must be finite and nonnegative")

    def to_json_dict(self) -> dict:
        return dict(vars(self))


class CorrelationTable:
    """Outcome statistics for the four setting pairs of the Bell test.

    ``grids`` has shape (2, 2, 3, 3): axes are (sender setting, receiver
    setting, sender outcome, receiver outcome) with outcomes ordered
    (target, orthogonal, vacuum). In probability mode every 3x3 grid sums to
    1 and no setting marginal depends on the partner's setting, both within
    1e-9, and ``totals`` is None; in count mode the grids hold nonnegative
    integers below 2**53 and ``totals`` are the per-pair sums.
    """

    def __init__(self, mode: str, grids):
        if mode not in ("probability", "count"):
            raise ValueError(f'mode must be "probability" or "count", got {mode!r}')
        cells = grids if isinstance(grids, np.ndarray) and grids.dtype != object else np.array(grids, dtype=object)
        # bools and numeric strings would convert silently; a Python int beyond int64 arrives as an object
        bad = [x for x in cells.flat if not _is_real(x)] \
            if cells.dtype == object else [] if cells.dtype.kind in "iuf" else [cells.dtype]
        if bad:
            raise ValueError(f"grid entries must be real numbers, got {bad[0]!r}")
        try:
            arr = np.asarray(cells, dtype=float)
        except OverflowError:  # a Python int beyond the float range
            raise ValueError("counts must be below 2**53" if mode == "count"
                             else "grid entries must be finite") from None
        if arr.shape != (2, 2, 3, 3):
            raise ValueError(f"grids must have shape (2, 2, 3, 3), got {arr.shape}")
        if mode == "count":
            if not np.all(np.isfinite(arr)):
                raise ValueError("grid entries must be finite")
            if np.any(arr < 0) or not np.array_equal(arr, np.round(arr)):
                raise ValueError("count-mode grids must hold nonnegative integers")
            # every integer below 2**53 survives the float conversion exactly; larger ones may not
            if np.any(arr >= 2.0 ** 53):
                raise ValueError("counts must be below 2**53")
            grids = arr.astype(np.int64)
        else:
            grids = _checked_probabilities(arr)
        self._adopt(mode, grids)

    def _adopt(self, mode: str, grids: np.ndarray) -> None:
        """Take ``grids`` as they stand, read-only; a count table derives its totals."""
        self._mode, self._grids = mode, grids
        self._totals = grids.sum(axis=(2, 3)) if mode == "count" else None
        grids.setflags(write=False)
        if self._totals is not None:
            self._totals.setflags(write=False)

    @classmethod
    def _from_tally(cls, counts: np.ndarray) -> "CorrelationTable":
        """Count table of the package's own int64 tally, below 2**53 by construction: no checks, no copy."""
        table = cls.__new__(cls)
        table._adopt("count", counts)
        return table

    @property
    def mode(self) -> str:
        return self._mode

    @property
    def grids(self) -> np.ndarray:
        return self._grids

    @property
    def totals(self) -> Optional[np.ndarray]:
        return self._totals

    def to_json_dict(self) -> dict:
        pairs = dict(zip(PAIR_KEYS, self._grids.reshape(4, 9).tolist()))
        totals = None if self._totals is None else dict(zip(PAIR_KEYS, self._totals.ravel().tolist()))
        return {"mode": self._mode, "pairs": pairs, "totals": totals}

    @classmethod
    def from_json_dict(cls, data: dict) -> "CorrelationTable":
        """Inverse of ``to_json_dict``; ``totals`` must be what the grids give, and a malformed document raises."""
        if not isinstance(data, dict) or "mode" not in data:
            raise ValueError("a table document must be an object with the key 'mode'")
        if not isinstance(pairs := data.get("pairs"), dict) or not all(key in pairs for key in PAIR_KEYS):
            raise ValueError(f"a table document's 'pairs' must be an object with the keys {', '.join(PAIR_KEYS)}")
        for key in PAIR_KEYS:
            try:
                if np.shape(pairs[key]) == (9,):
                    continue
            except ValueError:  # numpy's message on a ragged pair names no pair
                pass
            raise ValueError(f"pair {key} must hold 9 values")
        table = cls(data["mode"], np.array([pairs[key] for key in PAIR_KEYS], dtype=object).reshape(2, 2, 3, 3))
        totals, expected = data.get("totals"), table.to_json_dict()["totals"]
        if totals != expected:
            raise ValueError(f"totals must be {expected!r} on this {table.mode} table, got {totals!r}")
        return table

    def __repr__(self) -> str:
        return f"CorrelationTable(mode={self._mode!r})"


def _checked_probabilities(arr: np.ndarray) -> np.ndarray:
    """Probability grids (2, 2, 3, 3, ...), any batch axes last, checked, with their cells clipped at 0.

    Every cell must be finite and at least -1e-9; then, on the clipped cells,
    each pair's nine cells must sum to 1, and each party's outcome-0 marginal
    on a setting must not depend on the partner's setting, both within 1e-9.
    The sums and marginals of every table are one product of ``_CHECK_ROWS``
    with its 36 flat cells, a single table as one column.
    """
    lo, hi = arr.min(), arr.max()  # a nan spreads to both, and an infinity reaches one
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("grid entries must be finite")
    if lo < -_MARGINAL_ATOL:
        raise ValueError("probabilities must be nonnegative")
    g = np.maximum(arr, 0.0, order="C")  # contiguous whatever the layout of ``arr``, so each reshape is a view
    checks = _CHECK_ROWS @ g.reshape(36, -1)
    if np.abs(checks[:4] - 1.0).max() > _MARGINAL_ATOL:
        raise ValueError("each probability grid must sum to 1 within 1e-9")
    worst = np.abs(checks[4:8] - checks[8:]).max()
    if worst > _MARGINAL_ATOL:
        raise ValueError(f"setting marginals disagree across pairs by {worst:.3e}")
    return g


def _pair_totals(table: CorrelationTable) -> list:
    """A count table's pair totals [n00, n01, n10, n11] as ints; a pair without rounds raises."""
    totals = table.totals.ravel().tolist()
    if 0 in totals:
        i, j = divmod(totals.index(0), 2)
        raise ValueError(f"setting pair ({i},{j}) has no rounds")
    return totals


def _ch_cell_coefficients(w_a0, w_a1, w_b0, w_b1) -> tuple:
    """The coefficients of S_CH on ``_CH_CELLS``: the joint terms, less the pooled marginals P(a1) and P(b1).

    P(a1) weighs row 0 of pair (1, j) by w_aj and P(b1) column 0 of pair (i, 1) by w_bi; cell (0, 0) of
    pair 11 takes the sender's weight first.
    """
    return (-1.0, 1.0 - w_b0, -w_b0, -w_b0, 1.0 - w_a0, -w_a0, -w_a0, 1.0 - w_a1 - w_b1, -w_a1, -w_a1, -w_b1, -w_b1)


# a probability table's coefficients, as floats and as a column against a (12, n) stack of cells
_CH_HALVES = _ch_cell_coefficients(0.5, 0.5, 0.5, 0.5)
_CH_HALVES_COLUMN = np.array(_CH_HALVES)[:, None]


def _ch_pairs(t):
    """The four pair terms (00, 01, 10, 11) of S_CH from its twelve terms ``t`` on ``_CH_CELLS``, floats or arrays.

    Each is bit for bit numpy's sum over the pair's nine cells, which adds them as
    0 + ((((c0 + c1) + (c2 + c3)) + ((c4 + c5) + (c6 + c7))) + c8): a zero cell's + 0.0 leaves a nonzero
    partial sum as it is, and in each pair one of them turns a final -0.0 into 0.0.
    """
    return (t[0] + 0.0,
            t[1] + t[2] + t[3] + 0.0,
            t[4] + t[5] + t[6] + 0.0,
            t[7] + t[8] + (t[9] + t[10]) + t[11] + 0.0)


def _probability_ch(grids: np.ndarray) -> np.ndarray:
    """S_CH of each table of a stack (2, 2, 3, 3, n) of probability grids, after the checks of a probability table."""
    cells = _checked_probabilities(grids).reshape(36, -1).take(_CH_CELLS, axis=0)
    return sum(_ch_pairs(_CH_HALVES_COLUMN * cells))


def ch_value(table: CorrelationTable) -> BellValue:
    """Probability-form Bell functional of a table; local bound 0.

    Single-party marginals pool the two setting pairs that measured the
    relevant setting (count-weighted in count mode). The standard error is a
    multinomial delta-method estimate; analytic tables get 0. Both come from
    the twelve cells where a coefficient is nonzero, as Python floats, with
    each pair's terms added in numpy's order for the whole grid and the pairs
    added left to right from 0.
    """
    cells = table.grids.ravel().tolist()
    if table.mode == "probability":
        return BellValue(sum(_ch_pairs([k * cells[c] for k, c in zip(_CH_HALVES, _CH_CELLS)])))
    _, n01, n10, n11 = totals = _pair_totals(table)
    # every count and sum of counts becomes a float before it divides, as in numpy's int64 division
    n_a, n_b = float(n10 + n11), float(n01 + n11)
    coefficients = _ch_cell_coefficients(n10 / n_a, n11 / n_a, n01 / n_b, n11 / n_b)
    n = [float(total) for total in totals]
    p = [cells[c] / n[pair] for c, pair in zip(_CH_CELLS, _CH_PAIR)]
    mean = _ch_pairs([k * x for k, x in zip(coefficients, p)])
    second = _ch_pairs([k * k * x for k, x in zip(coefficients, p)])
    variances = [s - m * m for s, m in zip(second, mean)]
    return BellValue(sum(mean), math.sqrt(sum([(v if v > 0.0 else 0.0) / t for v, t in zip(variances, n)])))


def chsh_value(table: CorrelationTable) -> BellValue:
    """Correlator-form Bell functional; vacuum counts as the orthogonal click.

    Each correlator is E_ij = sum of the pair grid weighted by +-1, with the
    target outcome positive and both other outcomes negative on each side,
    each pair's nine terms summed by numpy. Local bound |S| <= 2. A count
    table's standard error is the multinomial delta method over the pairs'
    variances 1 - E_ij^2; a probability table's is 0.
    """
    p, n = table.grids, table.totals
    if n is not None:
        _pair_totals(table)  # a pair without rounds raises
        p = p / n[:, :, None, None]
    corr = (_CHSH_SIGNS * p).reshape(2, 2, 9).sum(axis=-1)
    (e00, e01), (e10, e11) = corr.tolist()
    error = 0.0 if n is None else math.sqrt(sum((np.maximum(1.0 - corr * corr, 0.0) / n).ravel().tolist()))
    return BellValue(e11 + e01 + e10 - e00, error)


def chsh_from_ch(s: BellValue) -> BellValue:
    """Map a probability-form value to the correlator form: S -> 4S + 2."""
    return BellValue(4.0 * s.value + 2.0, 4.0 * s.standard_error)


def _check_theta_range(theta: float) -> float:
    if not _is_real(theta) or not 0.0 <= theta <= math.pi / 2:
        raise ValueError(f"theta must lie in [0, pi/2], got {theta!r}")
    return float(theta)


# The elementwise functions of the closed forms: numpy's for arrays, and for single angles libm's through
# ``math``, where a numpy scalar call costs several times the arithmetic. The two must round alike, element for
# element, with one exception. Squares are pow(x, 2.0) on both sides (``np.float_power`` calls libm's pow; x * x
# differs from it in the last bit on about 0.1 % of inputs), and libm's atan differs from numpy's arctan in the
# last bit on about 0.2 % of inputs, so the float backend calls numpy's. The exception is log2: numpy's and libm's
# round apart on about 0.2 % of inputs in (0, 1) and 0.3 % in (1, 2), and each backend keeps its own. The arrays
# only rank the theta* scan's grid angles, while every reported gain comes from the floats' ``math.log2``. The
# float maximum is a conditional: the builtin ``max`` of two floats takes about twice as long.
_Backend = namedtuple("_Backend", "sin cos sqrt arctan pow log2 maximum")
_ARRAY = _Backend(np.sin, np.cos, np.sqrt, np.arctan, np.float_power, np.log2, np.maximum)
_FLOAT = _Backend(math.sin, math.cos, math.sqrt, lambda x: float(np.arctan(x)), math.pow, math.log2,
                  lambda x, y: y if x < y else x)


def _setting(theta, strategy: str, fns: _Backend = _ARRAY):
    """(phi, dphi/dtheta, clean S_CH, dS_CH/dtheta) of a strategy at source angle theta.

    The receiver's setting angle phi is theta for ``fixed_settings``, where
    S_CH = cos(theta)(1 - cos(theta))/2, and atan(sin theta) for ``ch_max``,
    where S_CH = (sqrt(sin^2 theta + 1) - 1)/2. This is the one statement of
    both curves.
    """
    sin_t, cos_t = fns.sin(theta), fns.cos(theta)
    if strategy == "fixed_settings":
        return theta, 1.0, 0.5 * cos_t * (1.0 - cos_t), 0.5 * sin_t * (2.0 * cos_t - 1.0)
    root = fns.sqrt(sin_t * sin_t + 1.0)
    return fns.arctan(sin_t), cos_t / (1.0 + sin_t * sin_t), 0.5 * (root - 1.0), 0.5 * sin_t * cos_t / root


def _overlaps(theta, phi, fns: _Backend = _FLOAT) -> tuple:
    """The receiver's squared overlaps (same, diff, X row 0, X row 1) at source angle theta and setting angle phi.

    The conclusive ket of B_j overlaps signal j by sin^2((phi - theta)/2) and signal 1 - j by
    sin^2((phi + theta)/2), and the X kets of sender rows 0 and 1 by cos^2(phi/2) and sin^2(phi/2); each square is
    pow(x, 2.0). This is the one statement of the four. At phi = theta they are 0, sin^2 theta, cos^2(theta/2) and
    sin^2(theta/2) bit for bit: 0.5 (theta + theta) is theta and 0.5 theta is theta/2 in floats.
    """
    sin, power, half = fns.sin, fns.pow, 0.5 * phi
    return (power(sin(0.5 * (phi - theta)), 2.0), power(sin(0.5 * (phi + theta)), 2.0),
            power(fns.cos(half), 2.0), power(sin(half), 2.0))


def analytic_ch(theta: float) -> float:
    """Closed-form S_CH of the source state with the standard settings.

    Equals cos(theta)(1 - cos(theta))/2: positive on the open interval,
    zero at both endpoints, maximal (1/8) at theta = pi/3.
    """
    return _setting(_check_theta_range(theta), "fixed_settings", _FLOAT)[2]


def analytic_ch_max(theta: float):
    """Best achievable S_CH for the source state, and the setting angle used.

    Returns ``(value, bob_angle)`` where value = (sqrt(sin^2 theta + 1) - 1)/2
    and the receiver's conclusive kets are built at bob_angle satisfying
    tan(bob_angle) = sin(theta). Reaches the quantum maximum (sqrt(2)-1)/2 at
    theta = pi/2.
    """
    bob_angle, _, value, _ = _setting(_check_theta_range(theta), "ch_max", _FLOAT)
    return value, bob_angle


def ch_with_loss(theta: float, eta_a: float, eta_b: float) -> float:
    """Closed-form S_CH with per-side detection efficiencies.

    (eta_a - 1/2) eta_b sin^2(theta) - eta_a sin^2(theta/2); reduces to
    analytic_ch at unit efficiencies. Monotone nondecreasing in both
    efficiencies.
    """
    theta = _check_theta_range(theta)
    eta_a, eta_b = _probability("eta_a", eta_a), _probability("eta_b", eta_b)
    _, diff, _, a2 = _overlaps(theta, theta)
    return (eta_a - 0.5) * eta_b * diff - eta_a * a2


def table_from_state(joint, settings: SettingPairSpec, channel: ChannelModel) -> CorrelationTable:
    """Exact Born-rule probability table for a state under lossy detection.

    ``joint`` is a JointState (or a plain two-qubit DensityMatrix, treated as
    one with no vacuum branch). Detection efficiencies from ``channel`` are
    attached to the setting POVMs as in ``lossy_povm``; the attacker's
    no-click branch, when present, lands in the receiver-vacuum column with
    the sender still measuring normally.
    """
    if isinstance(joint, DensityMatrix):
        joint = JointState(qubit=joint)
    elif not isinstance(joint, JointState):
        raise ValueError("joint must be a DensityMatrix or JointState")
    a = _lossy_elements(settings.alice, channel.eta_a)
    b = _lossy_elements(settings.bob, channel.eta_b)
    # Tr[(A x B) rho] with rho indexed (sender row, receiver row, sender column, receiver column)
    grids = np.einsum("ikjl,xaji,yblk->xyab", joint.qubit.matrix.reshape(2, 2, 2, 2), a, b).real
    if joint.receiver_vacuum is not None:
        grids[:, :, :, 2] += np.einsum("ij,xaji->xa", joint.receiver_vacuum.matrix, a).real[:, None]
    return CorrelationTable("probability", grids)
