"""Device-independent key-rate pipeline and threshold solvers.

The security argument runs entirely on observed statistics: a correlator
Bell value S bounds the adversary's information, and the error-correction
cost is the binary entropy of the observed error rate. The secure gain per
conclusive event is

    R = -log2(1/2 + 1/2 sqrt(2 - S^2 / 4)) - h(Q)

with S the correlator-form value; substituting the probability-form value s
via S = 4s + 2 gives the equivalent expression

    R = 1 - log2(1 + sqrt(1 - 4s - 4s^2)) - h(Q).

On top of the closed-form channel curves this module provides the solvers:
optimal source angle at a given depolarization, maximum tolerable
depolarization, and minimum detection efficiencies for a positive Bell
value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Tuple

import numpy as np

from .bell import _ARRAY, _FLOAT, CH_QUANTUM_MAX, _Backend, _overlaps, _setting
from .channels import ChannelModel, _probability
from .states import ProtocolAngle, _is_real

_CHSH_QUANTUM_MAX = 2.0 * math.sqrt(2.0)
_CH_DOMAIN_LO = -(1.0 + math.sqrt(2.0)) / 2.0
_SLACK = 1e-9
_LN2 = math.log(2.0)
_TINY = 5e-324  # the least positive float, the floor of the entropy's logarithm arguments
_SLOPE_MARGIN = 5e-12  # optimal_theta's tau in units of (f(a) - f(b)) / c, where the slope's error stays below 1.4e-14
_check_depol = partial(_probability, "depolarization probability")

STRATEGIES = ("fixed_settings", "ch_max")

# schematic prepare-and-measure comparison line: linear from its p=0 rate
# down through the zero crossing; only the crossing is a meaningful datum
PM_REFERENCE_MAX_DEPOL = 0.034
PM_REFERENCE_RATE_AT_ZERO = 0.3355


@dataclass(frozen=True)
class RateReport:
    """Everything the rate pipeline knows about one operating point.

    ``gain`` is secret bits per conclusive event; ``rate`` scales it by the
    number of conclusive events (for analytic reports, per detected pair, so
    it coincides with ``normalized_rate``); ``normalized_rate`` is per
    detected event. Negative gains are preserved: they carry the threshold
    information.
    """

    s_ch: float
    s_chsh: float
    qber: float
    conclusive_fraction: float
    gain: float
    rate: float
    normalized_rate: float

    def __post_init__(self):
        if not all(map(math.isfinite, vars(self).values())):
            raise ValueError("rate report fields must be finite")
        if not -_SLACK <= self.qber <= 1.0 + _SLACK:
            raise ValueError(f"qber must lie in [0, 1], got {self.qber!r}")
        if not -_SLACK <= self.conclusive_fraction <= 1.0 + _SLACK:
            raise ValueError(f"conclusive_fraction must lie in [0, 1], got {self.conclusive_fraction!r}")
        if self.gain > 1.0 + _SLACK:
            raise ValueError(f"gain cannot exceed 1, got {self.gain!r}")
        if self.normalized_rate > self.conclusive_fraction + _SLACK:
            raise ValueError("normalized_rate cannot exceed conclusive_fraction")

    def to_json_dict(self) -> dict:
        return dict(vars(self))


@dataclass(frozen=True)
class ThresholdResult:
    """Output of a one-dimensional threshold solver."""

    parameter: str
    value: float
    bracket: Tuple[float, float]
    tolerance: float

    def __post_init__(self):
        lo, hi = self.bracket
        if not lo <= self.value <= hi:
            raise ValueError("critical value must lie inside its bracket")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")

    def to_json_dict(self) -> dict:
        return {**vars(self), "bracket": list(self.bracket)}


def _gain(s, q, fns: _Backend):
    """The secure gain 1 - log2(1 + sqrt(max(1 - 4s - 4s^2, 0))) - h(q), floats or arrays through ``fns``; no checks.

    This is the one statement of the gain. h(q) = -q log2 q - (1-q) log2(1-q) takes the logarithms of q and 1 - q
    floored at the least positive float: the product with q or 1 - q is then exactly 0 at q = 0 and q = 1, so
    h(0) = h(1) = 0, and every q in (0, 1) keeps its plain expression bit for bit.
    """
    p = 1.0 - q
    entropy = -q * fns.log2(fns.maximum(q, _TINY)) - p * fns.log2(fns.maximum(p, _TINY))
    return 1.0 - fns.log2(1.0 + fns.sqrt(fns.maximum(1.0 - 4.0 * s - 4.0 * s * s, 0.0))) - entropy


def binary_entropy(q: float) -> float:
    """h(q) = -q log2 q - (1-q) log2(1-q), extended by continuity at 0 and 1."""
    # at s = 0 the Bell term 1 - log2(1 + 1) is exactly 0, so the gain is -h(q); subtracting from 0.0 keeps h(0) = +0.0
    return 0.0 - _gain(0.0, _probability("binary entropy argument", q), _FLOAT)


def gain_from_chsh(s_chsh: float, q: float) -> float:
    """Secure gain from a correlator-form Bell value and an error rate.

    Returns -log2(1/2 + 1/2 sqrt(2 - s^2/4)) - h(q), as gain_from_ch((s - 2)/4, q); may be negative. Values
    beyond the quantum bound 2 sqrt(2) are rejected as unphysical.
    """
    s = _finite("correlator value", s_chsh)
    if abs(s) > _CHSH_QUANTUM_MAX + 1e-12:
        raise ValueError(f"correlator value {s_chsh!r} exceeds the quantum bound 2*sqrt(2)")
    return _gain((s - 2.0) / 4.0, _probability("error rate", q), _FLOAT)


def gain_from_ch(s_ch: float, q: float) -> float:
    """Secure gain from a probability-form Bell value and an error rate.

    Equals gain_from_chsh(4 s + 2, q); defined while 1 - 4s - 4s^2 >= 0,
    i.e. for -(1 + sqrt(2))/2 = _CH_DOMAIN_LO <= s <= CH_QUANTUM_MAX = (sqrt(2) - 1)/2.
    """
    s = _finite("Bell value", s_ch)
    if not _CH_DOMAIN_LO - 1e-12 <= s <= CH_QUANTUM_MAX + 1e-12:
        raise ValueError(f"Bell value {s_ch!r} lies outside the gain domain (max {CH_QUANTUM_MAX:.6f})")
    return _gain(s, _probability("error rate", q), _FLOAT)


def _finite(name: str, value) -> float:
    """``value`` as a finite float; bools, strings, NaN, infinities and ints past the float range are rejected."""
    try:
        if _is_real(value) and math.isfinite(value):
            return float(value)
    except OverflowError:  # an int past the float range
        pass
    raise ValueError(f"{name} must be a finite real number, got {value!r}")


def key_rate(n_con: float, gain: float) -> float:
    """Total secret bits: conclusive events times gain (may be negative); both must be finite real numbers."""
    n, g = _finite("conclusive count", n_con), _finite("gain", gain)
    if n < 0:
        raise ValueError("conclusive count cannot be negative")
    return n * g


def depolarized_ch(s_ch: float, p: float) -> float:
    """Probability-form Bell value after depolarization of the receiver qubit.

    The map shrinks every receiver-side Bloch vector by (1 - 4p/3), which
    turns any rank-1-settings value s into (1 - 4p/3) s - 2p/3. Fully
    depolarizing (p = 3/4) lands on -1/2, the value of uncorrelated noise.
    Works elementwise on numpy arrays of real, finite numbers; any other
    Bell value must be a finite real number.
    """
    if not (isinstance(s_ch, np.ndarray) and s_ch.dtype.kind in "iuf"):
        s_ch = _finite("Bell value", s_ch)
    elif not np.isfinite(s_ch).all():
        raise ValueError("Bell values must be finite")
    return _depolarized(_check_depol(p), s_ch, 0.0, 0.0)[0]


def _as_angle(theta) -> ProtocolAngle:
    return theta if isinstance(theta, ProtocolAngle) else ProtocolAngle(theta)


def _check_strategy(strategy: str) -> None:
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")


def _depolarized(p: float, s_clean, same, diff):
    """Depolarization p (not validated) of a clean Bell value and of the clean key-round weights.

    All three scale by d = 1 - 4p/3; then the Bell value shifts by -2p/3 and the weights by +2p/3.
    """
    d, shift = 1.0 - 4.0 * p / 3.0, 2.0 * p / 3.0
    return d * s_clean - shift, d * same + shift, d * diff + shift


def _qber_and_total(same, diff):
    """Q = same/(same + diff) and the total same + diff of the key-round weights, twice the conclusive fraction."""
    total = same + diff
    return same / total, total


def _scan_columns(theta, strategy: str, fns: _Backend = _ARRAY):
    """The p-free columns (clean S_CH, same, diff) at source angle theta, same and diff from ``_overlaps``."""
    phi, _, s_clean, _ = _setting(theta, strategy, fns)
    return (s_clean, *_overlaps(theta, phi, fns)[:2])


def _closed_form(theta, p: float, strategy: str, fns: _Backend = _ARRAY):
    """(S_CH, QBER, conclusive fraction) at source angle theta: the clean columns, depolarized by p."""
    s, same, diff = _depolarized(p, *_scan_columns(theta, strategy, fns))
    q, total = _qber_and_total(same, diff)
    return s, q, 0.5 * total


def qber_and_conclusive(theta, channel: ChannelModel):
    """Error rate and conclusive fraction of the key rounds, in closed form.

    Sender measures Z, receiver picks basis B_0/B_1 at the source angle
    uniformly; the returned fraction is P(conclusive | both detected) and the
    error rate is P(decoded bit wrong | conclusive). Detection efficiencies
    cancel under the conditioning, so only ``depol_p`` matters.
    """
    if channel.attacker != "none":
        raise ValueError("analytic error rates are defined for attack-free channels")
    return _closed_form(_as_angle(theta).theta, channel.depol_p, "fixed_settings", _FLOAT)[1:]


def _rate_report(s_ch: float, qber: float, conclusive_fraction: float, n_con: Optional[int] = None, *,
                 gain: Optional[float] = None) -> RateReport:
    """The one constructor of a ``RateReport``, from an S_CH value, an error rate and a conclusive fraction.

    The gain reads S_CH clipped to the gain domain, which finite-sample estimates can leave, and the error rate
    unchecked; a caller that holds a report of the same S_CH and error rate passes its ``gain`` instead. ``rate``
    is ``key_rate(n_con, gain)``, or the normalized rate (per detected pair) when ``n_con`` is None.
    """
    gain = _gain(min(max(s_ch, _CH_DOMAIN_LO), CH_QUANTUM_MAX), qber, _FLOAT) if gain is None else gain
    r_norm = conclusive_fraction * gain
    return RateReport(s_ch=s_ch, s_chsh=4.0 * s_ch + 2.0, qber=qber, conclusive_fraction=conclusive_fraction,
                      gain=gain, rate=r_norm if n_con is None else key_rate(n_con, gain), normalized_rate=r_norm)


def normalized_rate(theta, p: float, strategy: str = "fixed_settings") -> RateReport:
    """Full rate report for a source angle and depolarization level.

    ``fixed_settings`` uses the protocol's own settings; ``ch_max`` estimates
    the Bell value with the violation-maximizing receiver angle, trading a
    larger Bell value against a larger error rate. ``rate`` is per detected pair.
    """
    _check_strategy(strategy)
    return _rate_report(*_closed_form(_as_angle(theta).theta, _check_depol(p), strategy, _FLOAT))


_THETA_GRID = np.linspace(1e-4, math.pi / 2 - 1e-4, 200)
_SCAN_COLUMNS = {strategy: _scan_columns(_THETA_GRID, strategy) for strategy in STRATEGIES}
for _fixed in (_THETA_GRID, *(row for rows in _SCAN_COLUMNS.values() for row in rows)):
    _fixed.setflags(write=False)


def _gain_slope(theta: float, p: float, strategy: str) -> float:
    """d(``_gain``)/d(theta) along the closed form, for one angle, on Python floats; p is not validated here.

    gain = 1 - log2(1 + r) - h(Q) with r = sqrt(1 - 4s - 4s^2), so
    d gain = 2 s' (1 + 2s) / (ln 2 r (1 + r)) - log2((1 - Q)/Q) Q'.
    The entropy term is dropped where Q = 0 (fixed settings on a noiseless
    channel, where Q vanishes identically) and where (1 - Q)/Q overflows
    (fixed settings at subnormal p, where the term's true size is below 1e-300).
    """
    d = 1.0 - 4.0 * p / 3.0
    phi, dphi, s_clean, ds_clean = _setting(theta, strategy, _FLOAT)
    s, same, diff = _depolarized(p, s_clean, *_overlaps(theta, phi)[:2])
    q, total = _qber_and_total(same, diff)
    r = math.sqrt(1.0 - 4.0 * s - 4.0 * s * s)
    slope = 2.0 * d * ds_clean * (1.0 + 2.0 * s) / (_LN2 * r * (1.0 + r))
    if q > 0.0 and (odds := (1.0 - q) / q) < math.inf:
        d_same = 0.5 * d * math.sin(phi - theta) * (dphi - 1.0)
        d_diff = 0.5 * d * math.sin(phi + theta) * (dphi + 1.0)
        dq = (d_same * diff - same * d_diff) / total ** 2
        slope -= math.log2(odds) * dq
    return slope


def _bisect(f: Callable[[float], float], a: float, b: float,
            lo: float = -math.inf, hi: float = math.inf) -> Tuple[float, float]:
    """Bisect a sign change of f, with f(a) > 0 >= f(b), until [a, b] holds two adjacent floats; a midpoint
    <= lo counts as positive and one >= hi as non-positive without a call of f, so the midpoints stay the same."""
    mid = 0.5 * (a + b)
    while a < mid < b:
        if mid <= lo or (mid < hi and f(mid) > 0.0):
            a = mid
        else:
            b = mid
        mid = 0.5 * (a + b)
    return a, b


def _sign_window(f: Callable[[float], float], a: float, b: float, fa: float, fb: float, tau: float) -> list:
    """The window (lo, hi) of [a, b] outside which the bisection of f from (a, b) need not call f.

    Illinois regula falsi (Dowell & Jarratt, BIT 11, 168 (1971)) from f(a) > 0 >= f(b) estimates the root x; it
    leaves x = a unless f(a) > tau. Each side steps out from x by (1.5 tau + |f(x)|) over the chord slope, 8 times
    as far after each miss, until f there is past +-tau, or keeps its end of [a, b] once the step passes it.
    Skipped midpoints keep their sign if f is within E of the true slope g on [a, b], tau >= 2E, and g rises to
    at most one peak and then falls: f(a), f(lo) > tau give g > E on all of [a, lo], so f > 0 there, and
    f(hi) < -tau puts hi past the peak, so g < -E and f < 0 on [hi, b]. The bisection walks the same midpoints.
    """
    x, fx, xa, xb, ya, yb, side = a, fa, a, b, fa, fb, 0
    for _ in range(10):
        t = xa + ya * (xb - xa) / (ya - yb)
        if abs(fx) <= tau or not xa < t < xb:
            break
        x, fx = t, f(t)
        if fx > 0.0:  # Illinois: the weight of an end kept twice in a row is halved
            xa, ya, yb, side = x, fx, 0.5 * yb if side > 0 else yb, 1
        else:
            xb, yb, ya, side = x, fx, 0.5 * ya if side < 0 else ya, -1
    window = [a, b]
    for n, sign in enumerate((1.0, -1.0)):
        step = (1.5 * tau + abs(fx)) * (b - a) / (fa - fb)
        while a < x - sign * step < b:
            if sign * f(x - sign * step) > tau:
                window[n] = x - sign * step
                break
            step *= 8.0
    return window


def optimal_theta(p: float, strategy: str = "fixed_settings"):
    """Source angle maximizing the secure gain at depolarization p.

    A 200-point scan of (0, pi/2), one array step from the p-free columns fixed at import, picks the best grid
    angle; its two neighbours bracket the maximum, where the analytic d(gain)/d(theta) changes sign from positive
    to negative. That root is bisected until the bracket holds two adjacent floats; theta* is the last float at
    which the computed slope is still positive. The slope is called only inside ``_sign_window``'s window, with
    tau = _SLOPE_MARGIN (f(a) - f(b)) / c and c the least |1 + 2s| (1 - 4s - 4s^2) around the grid maximum: the
    slope's rounding error grows as 1/c where d nears 0 or s the quantum bound, and stayed below 1.4e-14
    (f(a) - f(b)) / c against a 160-bit evaluation at every bracket sampled, p in [1e-9, 1]. Returns
    ``(theta_star, report)``; the report may carry a nonpositive rate when p is beyond the tolerable noise.
    """
    _check_strategy(strategy)
    p = _check_depol(p)
    s, same, diff = _depolarized(p, *_SCAN_COLUMNS[strategy])
    i = int(_gain(s, _qber_and_total(same, diff)[0], _ARRAY).argmax())
    a, b = _THETA_GRID.item(max(i - 1, 0)), _THETA_GRID.item(min(i + 1, len(_THETA_GRID) - 1))
    f = lambda theta: _gain_slope(theta, p, strategy)
    if (fa := f(a)) <= 0.0:
        theta_star = a  # gain falls from the low end of the scan range
    elif (fb := f(b)) > 0.0:
        theta_star = b  # gain rises to the high end of the scan range
    else:
        c = min(abs((1.0 + 2.0 * x) * (1.0 - 4.0 * x - 4.0 * x * x)) for x in s[max(i - 1, 0):i + 2].tolist())
        tau = _SLOPE_MARGIN * (fa - fb) / c if c > 0.0 else math.inf
        theta_star = _bisect(f, a, b, *_sign_window(f, a, b, fa, fb, tau))[0]
    return theta_star, normalized_rate(theta_star, p, strategy)


def max_depolarization(strategy: str = "fixed_settings") -> ThresholdResult:
    """Largest depolarization with a positive secure rate, by bisection.

    The objective g(p) is the normalized rate at the per-p optimal angle;
    g(0) must be positive and g at the upper bracket edge negative. The
    bracket is bisected until it holds two adjacent floats: the value is the
    last p with g(p) > 0 and the tolerance is the gap to the next float.
    """
    _check_strategy(strategy)
    a, b = 0.0, 0.05

    def g(p: float) -> float:
        return optimal_theta(p, strategy)[1].normalized_rate

    if not g(a) > 0.0:
        raise ValueError("no positive rate at zero noise; bracket invalid")
    if not g(b) < 0.0:
        raise ValueError("rate still positive at the upper bracket edge")
    a, b = _bisect(g, a, b)
    return ThresholdResult(parameter="depol_p", value=a, bracket=(a, b), tolerance=b - a)


def efficiency_threshold(mode: str) -> ThresholdResult:
    """Minimum detection efficiency for a positive Bell value, in closed form.

    ch_with_loss = sin^2(theta/2) [4 (eta_a - 1/2) eta_b cos^2(theta/2) - eta_a]
    with cos^2(theta/2) < 1 on (0, pi/2], so some angle violates the CH
    inequality iff 4 (eta_a - 1/2) eta_b > eta_a. The roots: eta_b = 1/2 with
    a perfect sender (``alice_perfect``), eta_a = 2/3 with a perfect receiver
    (``bob_perfect``) and eta = 3/4 for ``symmetric``. The bracket runs from
    the root's float to the next float up, where the condition holds.
    """
    roots = {"alice_perfect": ("eta_b", 1 / 2), "bob_perfect": ("eta_a", 2 / 3), "symmetric": ("eta", 3 / 4)}
    if mode not in roots:
        raise ValueError(f"mode must be one of {tuple(roots)}, got {mode!r}")
    parameter, root = roots[mode]
    hi = math.nextafter(root, 1.0)
    return ThresholdResult(parameter=parameter, value=root, bracket=(root, hi), tolerance=hi - root)


def pm_reference_rate(p: float) -> float:
    """Schematic prepare-and-measure comparison rate, linear in p.

    Anchored at PM_REFERENCE_RATE_AT_ZERO for p = 0 and crossing zero at
    PM_REFERENCE_MAX_DEPOL; only the crossing is quantitative.
    """
    p = _check_depol(p)
    return PM_REFERENCE_RATE_AT_ZERO * (1.0 - p / PM_REFERENCE_MAX_DEPOL)
