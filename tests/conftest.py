"""Shared helpers for building random test objects and stock instances."""

from __future__ import annotations

import numpy as np

from reference import channel_action_matrix
from wiretap.channels import (
    AUX_LABEL,
    CqEnsemble,
    QuantumChannel,
    ResourceState,
    apply,
    channel_from_resource_state,
)
from wiretap.qcore import (
    TOL_EQ,
    TOL_TRACE,
    DensityOperator,
    LabeledSpace,
    ValidationError,
    basis_state,
    maximally_entangled,
    tensor,
)
from wiretap.scenario import Scenario, gallery_superdense

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def ginibre(gen: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return gen.standard_normal((rows, cols)) + 1j * gen.standard_normal((rows, cols))


def random_density_matrix(gen: np.random.Generator, dim: int, rank: int | None = None) -> np.ndarray:
    g = ginibre(gen, dim, rank or dim)
    m = g @ g.conj().T
    return m / np.trace(m)


def random_state(gen: np.random.Generator, space: LabeledSpace, rank: int | None = None) -> DensityOperator:
    return DensityOperator(space, random_density_matrix(gen, space.dim, rank))


def random_full_rank_state(
    gen: np.random.Generator, space: LabeledSpace, floor: float = 0.1
) -> DensityOperator:
    """Random state mixed with the maximally mixed state; full rank by construction."""
    d = space.dim
    m = (1.0 - floor) * random_density_matrix(gen, d) + floor * np.eye(d) / d
    return DensityOperator(space, m)


def random_pure_vector(gen: np.random.Generator, dim: int) -> np.ndarray:
    v = ginibre(gen, dim, 1).reshape(-1)
    return v / np.linalg.norm(v)


def random_pure_state(gen: np.random.Generator, space: LabeledSpace) -> DensityOperator:
    v = random_pure_vector(gen, space.dim)
    return DensityOperator(space, np.outer(v, v.conj()))


def random_unitary(gen: np.random.Generator, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(ginibre(gen, dim, dim))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_kraus(gen: np.random.Generator, d_in: int, d_out: int, n_kraus: int) -> list[np.ndarray]:
    """Random CPTP Kraus family via a Stinespring isometry."""
    n_kraus = max(n_kraus, -(-d_in // d_out))  # isometry needs d_out * n_kraus >= d_in
    g = ginibre(gen, d_out * n_kraus, d_in)
    q, _ = np.linalg.qr(g)
    return [q[k * d_out : (k + 1) * d_out, :] for k in range(n_kraus)]


# ---------------------------------------------------------------------------
# Small builders and predicates
# ---------------------------------------------------------------------------


def pure_state(space: LabeledSpace, amplitudes) -> DensityOperator:
    """The normalized projector onto ``amplitudes``."""
    vec = np.asarray(amplitudes, dtype=np.complex128).reshape(-1)
    norm = np.linalg.norm(vec)
    if vec.shape != (space.dim,) or norm == 0:
        raise ValidationError(f"need a nonzero amplitude vector of length {space.dim}")
    return DensityOperator(space, np.outer(vec, vec.conj()) / norm**2, validate=False)


def maximally_mixed(space: LabeledSpace) -> DensityOperator:
    return DensityOperator(space, np.eye(space.dim, dtype=np.complex128) / space.dim)


def is_pure(rho: DensityOperator) -> bool:
    return abs(rho.purity() - 1.0) <= TOL_TRACE


def identity_channel(space: LabeledSpace) -> QuantumChannel:
    return QuantumChannel(space, space, [np.eye(space.dim)])


def append_trivial_output(ch: QuantumChannel, label: str) -> QuantumChannel:
    """Tensor a one-dimensional factor onto the channel output (e.g. a trivial Eve)."""
    return QuantumChannel(ch.input_space, ch.output_space.tensor(LabeledSpace.of((label, 1))), ch.kraus)


def channels_equal_in_action(a: QuantumChannel, b: QuantumChannel, tol: float = TOL_EQ) -> bool:
    """Action equality on a spanning set of inputs (Kraus lists are non-unique)."""
    if a.input_space.dims != b.input_space.dims or a.output_space.dims != b.output_space.dims:
        return False
    return float(np.max(np.abs(channel_action_matrix(a) - channel_action_matrix(b)))) <= tol


def ensemble_pushforward(ens: CqEnsemble, ch: QuantumChannel, on) -> CqEnsemble:
    """Apply ``ch`` to every member state; probabilities unchanged."""
    return CqEnsemble(ens.labels, ens.probs, [apply(ch, s, on) for s in ens.states])


# ---------------------------------------------------------------------------
# Stock instances
# ---------------------------------------------------------------------------


def identity_qubit_wiretap() -> QuantumChannel:
    """Identity qubit channel to Bob with a trivial (one-dimensional) Eve."""
    return QuantumChannel(
        LabeledSpace.of(("A", 2)),
        LabeledSpace.of(("B", 2), ("E", 1)),
        [np.eye(2, dtype=complex)],
    )


def broadcast_copy_channel() -> QuantumChannel:
    """The classical-copy isometry |x> -> |x>_B |x>_E on qubits."""
    v = np.zeros((4, 2), dtype=complex)
    v[0, 0] = 1.0
    v[3, 1] = 1.0
    return QuantumChannel(LabeledSpace.of(("A", 2)), LabeledSpace.of(("B", 2), ("E", 2)), [v])


def amplitude_damping_wiretap(gamma: float) -> QuantumChannel:
    """Amplitude damping to Bob with the environment to Eve: the isometry
    |0> -> |00>_BE, |1> -> sqrt(1 - gamma)|10>_BE + sqrt(gamma)|01>_BE."""
    v = np.zeros((4, 2), dtype=complex)
    v[0, 0] = 1.0
    v[2, 1] = np.sqrt(1.0 - gamma)
    v[1, 1] = np.sqrt(gamma)
    return QuantumChannel(LabeledSpace.of(("A", 2)), LabeledSpace.of(("B", 2), ("E", 2)), [v])


def phi0_of(res: ResourceState) -> DensityOperator:
    """phi0 = vec(psi) as a state on (Alice's share, AUX_LABEL), from the
    resource's amplitude matrix; the reference the psi products are checked against."""
    r = len(res.psi)
    vec = res.psi.reshape(-1)
    space = LabeledSpace.of((res.zeta.space.labels[0], r), (AUX_LABEL, r))
    return DensityOperator(space, np.outer(vec, vec.conj()), validate=False)


def bell_resource_state() -> ResourceState:
    """Bell pair between Alice and Bob, trivial Eve share."""
    zeta = tensor(
        maximally_entangled("Ap", "Bp", 2),
        basis_state(LabeledSpace.of(("Ep", 1)), [0]),
    )
    return channel_from_resource_state(zeta)


def superdense_ensemble() -> CqEnsemble:
    """Four Pauli-rotated Bell states on (signal, reference copy), uniform."""
    phi = maximally_entangled("A", "App", 2)
    members = []
    for name in "IXYZ":
        u = np.kron(PAULI[name], np.eye(2))
        members.append(DensityOperator(phi.space, u @ phi.matrix @ u.conj().T, validate=False))
    return CqEnsemble(list("IXYZ"), [0.25] * 4, members)


def lift_to_reference(ens: CqEnsemble, aux_label: str = AUX_LABEL) -> CqEnsemble:
    """Tensor a one-dimensional reference factor onto every member."""
    one = basis_state(LabeledSpace.of((aux_label, 1)), [0])
    return CqEnsemble(ens.labels, ens.probs, [tensor(s, one) for s in ens.states])


def noisy_superdense(visibility: float = 0.9, noise: np.ndarray | None = None) -> Scenario:
    """The superdense gallery with its Bell pair mixed with full-rank noise.

    Bob's one-letter outputs are then full rank, so no codebook spans fewer
    product vectors than his block space and code-sim decodes him densely.
    White noise (the default) keeps them Bell-diagonal, so they commute;
    noise that is not Bell-diagonal makes them non-commuting.
    """
    sc = gallery_superdense()
    bell = maximally_entangled("Ap", "Bp", 2)
    noise = np.eye(4) / 4 if noise is None else noise
    werner = DensityOperator(bell.space, visibility * bell.matrix + (1 - visibility) * noise)
    resource = tensor(werner, basis_state(LabeledSpace.of(("Ep", 1)), [0]))
    return Scenario("noisy-superdense", "test instance", sc.channel, resource, sc.ensemble)
