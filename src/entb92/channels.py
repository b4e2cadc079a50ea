"""Noise, loss, and adversary models.

Three imperfections are modeled, composed in a fixed order:

1. an optional intercept-and-resend attacker sitting on the receiver's arm,
   built from the unambiguous-discrimination POVM,
2. depolarization of the receiver's qubit, and
3. finite detection efficiency on each side, expressed as an extra vacuum
   outcome appended to each measurement rather than as a state map.

A no-click branch produced by the attacker (the discrimination failed, so
nothing is resent) is carried as a classical flag next to the surviving
two-qubit part instead of a third Hilbert-space dimension; downstream code
only ever needs click/no-click statistics from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .qcore import (
    ATOL_DERIVED,
    DensityMatrix,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    Povm,
    apply_channel,
)
from .states import ProtocolAngle, _is_real, _projector, conjugate_state, entangled_state, signal_state

_ATTACKERS = ("none", "usd")


def _probability(name: str, value) -> float:
    """``value`` as a float in [0, 1], -0.0 stored as 0.0; bools, strings and NaN are rejected."""
    # floats skip the call: theta* bisections call this, and _is_real costs about as much as the rest
    if not (isinstance(value, float) or _is_real(value)) or not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return float(value) + 0.0


@dataclass(frozen=True)
class ChannelModel:
    """Channel and detector parameters for one session.

    eta_a and eta_b are per-side detection efficiencies in [0, 1]; depol_p is
    the depolarization probability in [0, 1]; attacker is "none" or "usd".
    """

    eta_a: float = 1.0
    eta_b: float = 1.0
    depol_p: float = 0.0
    attacker: str = "none"

    def __post_init__(self):
        for name in ("eta_a", "eta_b", "depol_p"):
            object.__setattr__(self, name, _probability(name, getattr(self, name)))
        if self.attacker not in _ATTACKERS:
            raise ValueError(f"attacker must be one of {_ATTACKERS}, got {self.attacker!r}")

    def to_json_dict(self) -> dict:
        return dict(vars(self))


@dataclass(frozen=True)
class JointState:
    """A two-qubit state plus the attacker's no-click branch.

    ``qubit`` is the (possibly subnormalized) two-qubit density matrix of the
    rounds where the receiver gets a photon. ``receiver_vacuum``, when
    present, is the sender-side reduced state of the rounds where the
    attacker suppressed the photon; its trace is that branch's weight. Branch
    weights must sum to 1.
    """

    qubit: DensityMatrix
    receiver_vacuum: Optional[DensityMatrix] = None

    def __post_init__(self):
        if self.qubit.dim != 4:
            raise ValueError("qubit branch must be a two-qubit state")
        total = self.qubit.trace
        if self.receiver_vacuum is not None:
            if self.receiver_vacuum.dim != 2:
                raise ValueError("vacuum branch must be a single-qubit state")
            total += self.receiver_vacuum.trace
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"branch weights must sum to 1, got {total!r}")

    @property
    def vacuum_weight(self) -> float:
        return 0.0 if self.receiver_vacuum is None else self.receiver_vacuum.trace


def _depolarizing_kraus(p: float, dim: int):
    ops = [
        math.sqrt(1.0 - p) * np.eye(2, dtype=complex),
        math.sqrt(p / 3.0) * PAULI_X,
        math.sqrt(p / 3.0) * PAULI_Y,
        math.sqrt(p / 3.0) * PAULI_Z,
    ]
    if dim == 2:
        return ops
    eye = np.eye(2, dtype=complex)
    return [np.kron(eye, k) for k in ops]


def depolarize(rho: DensityMatrix, p: float) -> DensityMatrix:
    """Depolarizing map (1-p) rho + (p/3) sum_i sigma_i rho sigma_i.

    On a two-qubit input the map acts on the second (receiver) factor only.
    Bloch vectors shrink by the factor (1 - 4p/3); p = 3/4 sends every qubit
    state to the maximally mixed one.
    """
    p = _probability("depolarization probability", p)
    return apply_channel(rho, _depolarizing_kraus(p, rho.dim))


def _lossy_elements(povms, eta: float) -> np.ndarray:
    """(POVM, outcome, row, column) stack of projective ``povms`` times eta, each ending in ``(1-eta) * identity``."""
    eta = _probability("efficiency", eta)
    m = np.array([[op.matrix for op in p.elements] for p in povms])
    if not np.allclose(m @ m, m, atol=ATOL_DERIVED, rtol=0.0):
        raise ValueError("lossy_povm requires a projective POVM")
    vacuum = np.broadcast_to((1.0 - eta) * np.eye(m.shape[-1], dtype=complex), m[:, :1].shape)
    return np.concatenate([eta * m, vacuum], axis=1)


def lossy_povm(m: Povm, eta: float) -> Povm:
    """Attach a detection-efficiency vacuum outcome to a projective POVM.

    Every original element is scaled by eta and a ``(1-eta) * identity``
    element labeled "vacuum" is appended, so completeness is preserved
    exactly and each original click probability is eta times the ideal one.
    """
    return Povm(list(_lossy_elements([m], eta)[0]), labels=m.labels + ("vacuum",))


def usd_povm(angle: ProtocolAngle) -> Povm:
    """The attacker's four-outcome unambiguous-discrimination POVM.

    Elements 1 and 2 project onto the kets orthogonal to signal 0 and
    signal 1 respectively, so a click identifies the other signal with
    certainty. Elements 3 and 4 are the ambiguous failures. Each carries
    weight 1/2, which makes the four sum to the identity.
    """
    halves = [
        0.5 * _projector(conjugate_state(0, angle)),
        0.5 * _projector(conjugate_state(1, angle)),
        0.5 * _projector(signal_state(0, angle)),
        0.5 * _projector(signal_state(1, angle)),
    ]
    return Povm(halves, labels=("identified_1", "identified_0", "ambiguous_0", "ambiguous_1"))


def _trace_out_receiver(rho4: np.ndarray, element: np.ndarray) -> np.ndarray:
    # Tr_B[rho (I x E)] as a sender-side 2x2 block
    return np.einsum("ikjl,kl->ij", rho4.reshape(2, 2, 2, 2), element.T)


def resend_states(angle: ProtocolAngle):
    """Kets the attacker resends per POVM outcome; None marks suppressed rounds."""
    return (signal_state(1, angle), signal_state(0, angle), None, None)


def usd_attack_channel(joint: DensityMatrix, angle: ProtocolAngle) -> JointState:
    """Apply the intercept-and-resend attack to the receiver's arm.

    The attacker measures the flying qubit with :func:`usd_povm`. On an
    identifying click she forwards a fresh copy of the identified signal; on
    an ambiguous click she suppresses the round, which the receiver sees as a
    loss. The output is separable by construction: the surviving branch is a
    convex sum of product states, so no Bell inequality can be violated
    downstream.
    """
    if joint.dim != 4:
        raise ValueError("attack input must be a two-qubit state")
    rho = joint.matrix
    qubit = np.zeros((4, 4), dtype=complex)
    sender_vac = np.zeros((2, 2), dtype=complex)
    for element, chi in zip(usd_povm(angle).elements, resend_states(angle)):
        cond = _trace_out_receiver(rho, element.matrix)
        if chi is None:
            sender_vac += cond
        else:
            qubit += np.kron(cond, _projector(chi))
    return JointState(
        qubit=DensityMatrix(qubit, subnormalized=True),
        receiver_vacuum=DensityMatrix(sender_vac, subnormalized=True),
    )


def analytic_pipeline_state(angle: ProtocolAngle, channel: ChannelModel) -> JointState:
    """Source state pushed through the attacker and the depolarizer.

    Composition order is fixed: source, then attacker (if configured), then
    depolarization of the receiver qubit. Detection efficiencies are not
    applied here; they belong to the measurement POVMs.
    """
    source = entangled_state(angle).to_density()
    if channel.attacker == "usd":
        state = usd_attack_channel(source, angle)
    else:
        state = JointState(qubit=source)
    if channel.depol_p > 0.0:
        state = JointState(
            qubit=depolarize(state.qubit, channel.depol_p),
            receiver_vacuum=state.receiver_vacuum,
        )
    return state
