"""Protocol states and measurement settings, parameterized by one angle.

The source emits a non-maximally entangled two-qubit pair controlled by an
angle theta strictly between 0 and pi/2. Written in the X eigenbasis the pair
is ``beta |0_x 0_x> + alpha |1_x 1_x>`` with ``alpha = sin(theta/2)`` and
``beta = cos(theta/2)``. Equivalently, a Z measurement on the first qubit
steers the second onto one of two nonorthogonal signal states.

Everything here is a pure constructor over :class:`ProtocolAngle`; all the
returned objects are the immutable qcore types.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .qcore import DensityMatrix, Povm, StateVector

_SQRT_HALF = 1.0 / math.sqrt(2.0)


def _is_real(value) -> bool:
    """Whether ``value`` is a real number: floats, ints and numpy numbers are; bools, strings and objects are not."""
    return isinstance(value, float) or isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class ProtocolAngle:
    """Source angle theta, restricted to the open interval (0, pi/2).

    The endpoints are excluded: both degenerate to product states with no
    usable correlations, and several downstream expressions divide by
    quantities that vanish there.
    """

    theta: float

    def __post_init__(self):
        if not _is_real(self.theta) or not 0.0 < self.theta < math.pi / 2:
            raise ValueError(f"theta must lie strictly inside (0, pi/2), got {self.theta!r}")
        object.__setattr__(self, "theta", float(self.theta))

    @classmethod
    def from_degrees(cls, degrees: float) -> "ProtocolAngle":
        if not _is_real(degrees) or not 0.0 < degrees < 90.0:
            raise ValueError(f"theta must lie strictly inside (0, 90) degrees, got {degrees!r}")
        return cls(math.radians(degrees))

    @property
    def alpha(self) -> float:
        """sin(theta/2), the weight of the |1_x 1_x> component."""
        return math.sin(self.theta / 2.0)

    @property
    def beta(self) -> float:
        """cos(theta/2), the weight of the |0_x 0_x> component."""
        return math.cos(self.theta / 2.0)

    @property
    def degrees(self) -> float:
        return math.degrees(self.theta)


def basis_state_z(j: int) -> StateVector:
    """Computational basis ket |j_z>."""
    if j not in (0, 1):
        raise ValueError("outcome index must be 0 or 1")
    amp = np.zeros(2, dtype=complex)
    amp[j] = 1.0
    return StateVector(amp)


def basis_state_x(j: int) -> StateVector:
    """Hadamard basis ket |j_x> = (|0_z> + (-1)^j |1_z>)/sqrt(2)."""
    if j not in (0, 1):
        raise ValueError("outcome index must be 0 or 1")
    sign = 1.0 if j == 0 else -1.0
    return StateVector(np.array([_SQRT_HALF, sign * _SQRT_HALF], dtype=complex))


def signal_state(j: int, angle: ProtocolAngle) -> StateVector:
    """Sender-side signal ket for bit j: beta|0_x> + (-1)^j alpha|1_x>.

    The two signal states are nonorthogonal with overlap cos(theta).
    """
    if j not in (0, 1):
        raise ValueError("bit must be 0 or 1")
    a, b = angle.alpha, angle.beta
    sign = 1.0 if j == 0 else -1.0
    amp = b * basis_state_x(0).amplitudes + sign * a * basis_state_x(1).amplitudes
    return StateVector(amp)


def conjugate_state(k: int, angle: ProtocolAngle) -> StateVector:
    """Ket orthogonal to signal_state(k): alpha|0_x> - (-1)^k beta|1_x>.

    A click on this state when bit k^1 was sent is the conclusive
    detection event; it never fires when bit k was sent.
    """
    if k not in (0, 1):
        raise ValueError("bit must be 0 or 1")
    a, b = angle.alpha, angle.beta
    sign = 1.0 if k == 0 else -1.0
    amp = a * basis_state_x(0).amplitudes - sign * b * basis_state_x(1).amplitudes
    return StateVector(amp)


def entangled_state(angle: ProtocolAngle) -> StateVector:
    """The shared two-qubit source state, in the Z tensor Z storage basis.

    Constructed as beta|0_x 0_x> + alpha|1_x 1_x>; algebraically identical to
    (|0_z>|signal_0> + |1_z>|signal_1>)/sqrt(2).
    """
    a, b = angle.alpha, angle.beta
    x0 = basis_state_x(0).amplitudes
    x1 = basis_state_x(1).amplitudes
    amp = b * np.kron(x0, x0) + a * np.kron(x1, x1)
    return StateVector(amp)


def _projector(v: StateVector) -> np.ndarray:
    return np.outer(v.amplitudes, v.amplitudes.conj())


def bob_basis(k: int, angle: ProtocolAngle) -> Povm:
    """Receiver basis B_k: conclusive outcome on the conjugate ket, else inconclusive.

    Projective and complete. Conditional on a conclusive click in B_k the
    decoded bit is k^1.
    """
    if k not in (0, 1):
        raise ValueError("basis index must be 0 or 1")
    conclusive = _projector(conjugate_state(k, angle))
    inconclusive = _projector(signal_state(k, angle))
    return Povm([conclusive, inconclusive], labels=("conclusive", "inconclusive"))


def signal_mixture(angle: ProtocolAngle) -> DensityMatrix:
    """Receiver's unconditional state: the equal mixture of the two signals.

    Diagonal in the X basis with eigenvalues (beta^2, alpha^2), so it carries
    no information about which bit was encoded.
    """
    half = 0.5 * (_projector(signal_state(0, angle)) + _projector(signal_state(1, angle)))
    return DensityMatrix(half)


def uninformative_states(angle: ProtocolAngle):
    """Decoy preparation pair: (|0_x>, weight beta^2) and (|1_x>, weight alpha^2).

    The weighted mixture of the pair reproduces signal_mixture exactly, which
    is what makes these preparations indistinguishable from signal rounds to
    anyone who only sees the flying qubit. It is the pair an X measurement
    on the sender's qubit steers onto.
    """
    return tuple(steered_state("X", j, angle) for j in (0, 1))


def steered_state(basis: str, outcome: int, angle: ProtocolAngle):
    """Receiver-side conditional state after the sender measures her qubit.

    Parameters
    ----------
    basis : "Z" or "X"
        Sender's measurement basis.
    outcome : 0 or 1
        Sender's result.

    Returns
    -------
    (StateVector, float)
        The steered ket and the probability of that outcome. Z outcomes are
        equiprobable and steer onto the signal kets; X outcomes occur with
        probability beta^2 / alpha^2 and steer onto the X basis kets.
    """
    if outcome not in (0, 1):
        raise ValueError("outcome must be 0 or 1")
    if basis == "Z":
        return signal_state(outcome, angle), 0.5
    if basis == "X":
        weight = angle.beta ** 2 if outcome == 0 else angle.alpha ** 2
        return basis_state_x(outcome), weight
    raise ValueError('basis must be "Z" or "X"')


@dataclass(frozen=True)
class SettingPairSpec:
    """The four dichotomic measurement settings of the Bell test.

    Each setting is a two-outcome projective Povm whose element 0 is the
    targeted event (the one whose probability enters the CH combination) and
    element 1 its orthogonal complement. Sender: a0 targets |0_z>, a1 targets
    |1_x>. Receiver: b_k targets the conclusive ket of basis B_k, built at
    ``bob_theta`` (equal to the source angle by default).
    """

    alice: tuple
    bob: tuple
    bob_theta: float


def ch_settings(angle: ProtocolAngle, bob_theta: float | None = None) -> SettingPairSpec:
    """Standard Bell-test settings for the protocol.

    ``bob_theta`` overrides the angle at which the receiver's conclusive kets
    are built; passing ``arctan(sin(theta))`` yields the settings that attain
    the maximal violation for this source state.
    """
    bob_angle = angle if bob_theta is None else ProtocolAngle(bob_theta)
    a0_target = _projector(basis_state_z(0))
    a1_target = _projector(basis_state_x(1))
    alice = tuple(
        Povm([t, np.eye(2) - t], labels=("target", "orthogonal"))
        for t in (a0_target, a1_target)
    )
    bob = tuple(
        Povm([_projector(conjugate_state(k, bob_angle)), _projector(signal_state(k, bob_angle))],
             labels=("target", "orthogonal"))
        for k in (0, 1)
    )
    return SettingPairSpec(alice=alice, bob=bob, bob_theta=bob_angle.theta)
