"""CPTP maps, classical-quantum ensembles, and resource-state channels.

Channels are stored as Kraus families between two labeled spaces.  The Choi
representation used throughout is the *Choi state* (unit trace): the image
of the maximally entangled state on (reference copy of the input) x input.

The resource-state machinery turns a tripartite shared state zeta on
(Alice', Bob', Eve') into the unique channel Z with (id x Z) phi0 = zeta,
where phi0 is the symmetric purification of Alice's marginal, and converts
signal states with the correct marginal back into modulation channels.
Both directions are linear inversions weighted by the inverse square roots
of the marginal's spectrum, so they require (and check) a full-rank
marginal; rank-deficient inputs are first restricted to their support.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .qcore import (
    RANK_CUTOFF,
    TOL_EQ,
    DensityOperator,
    LabeledSpace,
    ValidationError,
    complex_matrix_from_json,
    complex_matrix_to_json,
    factors_from_json,
    factors_to_json,
    hermitian_trace_norm,
    partial_trace,
    permute_factors,
    state_from_json,
    state_to_json,
)

__all__ = [
    "QuantumChannel",
    "CqEnsemble",
    "ResourceState",
    "apply",
    "kraus_to_choi",
    "choi_to_kraus",
    "channel_from_resource_state",
    "modulation_from_choi",
    "ensemble_pushforward",
    "cq_state",
    "identity_channel",
    "constant_channel",
    "classical_channel",
    "isometry_channel",
    "append_trivial_output",
    "trivial_resource",
    "channel_action_matrix",
    "channels_equal_in_action",
    "channel_to_json",
    "channel_from_json",
    "ensemble_to_json",
    "ensemble_from_json",
]

# Choi eigenvalues below this are dropped when extracting Kraus operators.
KRAUS_TRUNCATION = 1e-12

# Trace-preservation tolerance asserted at channel construction.
TP_TOL = 1e-9

# Ensemble probabilities must sum to 1 within this.
PROB_TOL = 1e-12


class QuantumChannel:
    """CPTP map held as a Kraus family between two labeled spaces."""

    __slots__ = ("input_space", "output_space", "kraus")

    def __init__(
        self,
        input_space: LabeledSpace,
        output_space: LabeledSpace,
        kraus: Sequence[np.ndarray],
        tp_tol: float = TP_TOL,
    ) -> None:
        if not kraus:
            raise ValidationError("a channel needs at least one Kraus operator")
        d_in, d_out = input_space.dim, output_space.dim
        ops = []
        for i, k in enumerate(kraus):
            m = np.array(k, dtype=np.complex128)
            if m.shape != (d_out, d_in):
                raise ValidationError(
                    f"Kraus operator {i} has shape {m.shape}, expected ({d_out}, {d_in})"
                )
            m.setflags(write=False)
            ops.append(m)
        total = sum(k.conj().T @ k for k in ops)
        dev = float(np.max(np.abs(total - np.eye(d_in))))
        if dev > tp_tol:
            raise ValidationError(
                f"Kraus family is not trace preserving: sum K'K deviates from identity by {dev:.3e}"
            )
        object.__setattr__(self, "input_space", input_space)
        object.__setattr__(self, "output_space", output_space)
        object.__setattr__(self, "kraus", tuple(ops))

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("QuantumChannel is immutable")

    def __repr__(self) -> str:
        return (
            f"QuantumChannel({list(self.input_space.factors)} -> "
            f"{list(self.output_space.factors)}, {len(self.kraus)} Kraus)"
        )


def apply(ch: QuantumChannel, rho: DensityOperator, on: Sequence[str]) -> DensityOperator:
    """Apply ``ch`` to the factors named by ``on``; other factors pass through.

    The ``on`` labels are matched to the channel's input factors in order,
    so their dims must agree positionally.  The result lives on
    (passthrough factors, channel output factors).
    """
    on = list(on)
    if len(set(on)) != len(on):
        raise ValidationError(f"repeated labels in {on}")
    space = rho.space
    on_dims = tuple(space.dim_of(lab) for lab in on)
    if on_dims != ch.input_space.dims:
        raise ValidationError(
            f"factors {on} have dims {on_dims}, channel expects {ch.input_space.dims}"
        )
    pass_labels = [lab for lab in space.labels if lab not in set(on)]
    clash = set(ch.output_space.labels) & set(pass_labels)
    if clash:
        raise ValidationError(f"channel output labels {sorted(clash)} clash with passthrough")
    rho_p = permute_factors(rho, pass_labels + on)
    d_pass = rho_p.dim // ch.input_space.dim
    out = np.zeros((d_pass * ch.output_space.dim,) * 2, dtype=np.complex128)
    eye_pass = np.eye(d_pass)
    for k in ch.kraus:
        big = np.kron(eye_pass, k)
        out += big @ rho_p.matrix @ big.conj().T
    if pass_labels:
        new_space = space.subspace(pass_labels).tensor(ch.output_space)
    else:
        new_space = ch.output_space
    return DensityOperator(new_space, out, validate=False)


def kraus_to_choi(ch: QuantumChannel, ref_label: str = "ref") -> DensityOperator:
    """Choi state of ``ch``: (id x ch) applied to the maximally entangled state.

    The reference copy of the input is the first factor of the result.
    """
    if ref_label in ch.output_space.labels:
        raise ValidationError(f"reference label {ref_label!r} clashes with channel output")
    d_in = ch.input_space.dim
    d_out = ch.output_space.dim
    j = np.zeros((d_in * d_out,) * 2, dtype=np.complex128)
    for k in ch.kraus:
        v = k.T.reshape(-1) / np.sqrt(d_in)  # (id x K)|Phi>
        j += np.outer(v, v.conj())
    space = LabeledSpace.of((ref_label, d_in)).tensor(ch.output_space)
    return DensityOperator(space, j, validate=False)


def choi_to_kraus(
    choi: DensityOperator,
    input_space: LabeledSpace,
) -> QuantumChannel:
    """Extract a Kraus family from a Choi state (reference factor first).

    Rejects Choi states whose reference marginal is not maximally mixed,
    which is the trace-preservation condition in this normalization.
    Eigenvalues below ``KRAUS_TRUNCATION`` are dropped.
    """
    ref = choi.space.labels[0]
    d_in = choi.space.dim_of(ref)
    if d_in != input_space.dim:
        raise ValidationError(
            f"reference factor dimension {d_in} != input dimension {input_space.dim}"
        )
    output_space = choi.space.subspace(choi.space.labels[1:])
    d_out = output_space.dim
    marg = partial_trace(choi, {ref})
    dev = float(np.max(np.abs(marg.matrix - np.eye(d_in) / d_in)))
    if dev > TOL_EQ:
        raise ValidationError(
            f"Choi reference marginal deviates from I/d by {dev:.3e}; not trace preserving"
        )
    w, v = np.linalg.eigh(choi.matrix)
    kraus = []
    for i in range(len(w) - 1, -1, -1):
        if w[i] <= KRAUS_TRUNCATION:
            break
        kraus.append(np.sqrt(d_in * w[i]) * v[:, i].reshape(d_in, d_out).T)
    return QuantumChannel(input_space, output_space, kraus, tp_tol=TOL_EQ)


def channel_action_matrix(ch: QuantumChannel) -> np.ndarray:
    """Superoperator matrix (column-stacking convention); basis for equality checks."""
    return sum(np.kron(k.conj(), k) for k in ch.kraus)


def channels_equal_in_action(a: QuantumChannel, b: QuantumChannel, tol: float = TOL_EQ) -> bool:
    """Action equality on a spanning set of inputs (Kraus lists are non-unique)."""
    if a.input_space.dims != b.input_space.dims or a.output_space.dims != b.output_space.dims:
        return False
    return float(np.max(np.abs(channel_action_matrix(a) - channel_action_matrix(b)))) <= tol


# ---------------------------------------------------------------------------
# Stock channels
# ---------------------------------------------------------------------------


def identity_channel(space: LabeledSpace) -> QuantumChannel:
    return QuantumChannel(space, space, [np.eye(space.dim)])


def constant_channel(input_space: LabeledSpace, output_state: DensityOperator) -> QuantumChannel:
    """Discard the input and prepare ``output_state``."""
    w, v = np.linalg.eigh(output_state.matrix)
    kraus = []
    for i in range(len(w)):
        if w[i] <= RANK_CUTOFF:
            continue
        for a in range(input_space.dim):
            bra = np.zeros((1, input_space.dim), dtype=np.complex128)
            bra[0, a] = 1.0
            kraus.append(np.sqrt(w[i]) * v[:, i].reshape(-1, 1) @ bra)
    return QuantumChannel(input_space, output_state.space, kraus)


def classical_channel(
    transition: np.ndarray, input_space: LabeledSpace, output_space: LabeledSpace
) -> QuantumChannel:
    """Embed a column-stochastic matrix P[y, x] as a measure-and-prepare map."""
    p = np.asarray(transition, dtype=float)
    d_in, d_out = input_space.dim, output_space.dim
    if p.shape != (d_out, d_in):
        raise ValidationError(f"transition matrix shape {p.shape}, expected ({d_out}, {d_in})")
    if np.any(p < 0) or np.max(np.abs(p.sum(axis=0) - 1.0)) > 1e-12:
        raise ValidationError("transition matrix must be column stochastic")
    kraus = []
    for x in range(d_in):
        for y in range(d_out):
            if p[y, x] == 0.0:
                continue
            k = np.zeros((d_out, d_in), dtype=np.complex128)
            k[y, x] = np.sqrt(p[y, x])
            kraus.append(k)
    return QuantumChannel(input_space, output_space, kraus)


def isometry_channel(
    v: np.ndarray, input_space: LabeledSpace, output_space: LabeledSpace
) -> QuantumChannel:
    return QuantumChannel(input_space, output_space, [np.asarray(v, dtype=np.complex128)])


def append_trivial_output(ch: QuantumChannel, label: str) -> QuantumChannel:
    """Tensor a one-dimensional factor onto the channel output (e.g. a trivial Eve)."""
    return QuantumChannel(
        ch.input_space, ch.output_space.tensor(LabeledSpace.of((label, 1))), ch.kraus
    )


# ---------------------------------------------------------------------------
# Classical-quantum ensembles
# ---------------------------------------------------------------------------


class CqEnsemble:
    """Finite label set with probabilities and per-label states on one space."""

    __slots__ = ("labels", "probs", "states", "_index")

    def __init__(
        self,
        labels: Sequence,
        probs: Sequence[float],
        states: Sequence[DensityOperator],
    ) -> None:
        labels = tuple(labels)
        probs = np.array(probs, dtype=float)
        states = tuple(states)
        if not (len(labels) == len(probs) == len(states)) or not labels:
            raise ValidationError("labels, probs and states must be non-empty and equal length")
        if len(set(labels)) != len(labels):
            raise ValidationError("ensemble labels must be unique")
        if np.any(probs < -1e-15):
            raise ValidationError(f"negative probability {probs.min():.3e}")
        probs = np.clip(probs, 0.0, None)
        if abs(probs.sum() - 1.0) > PROB_TOL:
            raise ValidationError(f"probabilities sum to {probs.sum():.15g}, not 1")
        space = states[0].space
        for s in states[1:]:
            if s.space != space:
                raise ValidationError("all ensemble states must live on the same space")
        probs.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "_index", {u: i for i, u in enumerate(labels)})

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("CqEnsemble is immutable")

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def space(self) -> LabeledSpace:
        return self.states[0].space

    def members(self):
        return zip(self.labels, self.probs, self.states)

    def state_of(self, u) -> DensityOperator:
        return self.states[self._index[u]]

    def prob_of(self, u) -> float:
        return float(self.probs[self._index[u]])

    def average_state(self) -> DensityOperator:
        m = sum(q * s.matrix for q, s in zip(self.probs, self.states))
        return DensityOperator(self.space, m, validate=False)


def cq_state(ens: CqEnsemble, label: str = "U") -> DensityOperator:
    """Block-diagonal state sum_u q(u) |u><u| x rho_u, classical register first."""
    if label in ens.space.labels:
        raise ValidationError(f"register label {label!r} clashes with member space")
    n, d = len(ens), ens.space.dim
    out = np.zeros((n * d, n * d), dtype=np.complex128)
    for i, (_, q, s) in enumerate(ens.members()):
        out[i * d : (i + 1) * d, i * d : (i + 1) * d] = q * s.matrix
    space = LabeledSpace.of((label, n)).tensor(ens.space)
    return DensityOperator(space, out, validate=False)


def ensemble_pushforward(ens: CqEnsemble, ch: QuantumChannel, on: Sequence[str]) -> CqEnsemble:
    """Apply ``ch`` to every member state; probabilities unchanged."""
    return CqEnsemble(ens.labels, ens.probs, [apply(ch, s, on) for s in ens.states])


# ---------------------------------------------------------------------------
# Resource states and their channels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResourceState:
    """A tripartite resource state together with its induced channel.

    ``zeta`` is the (possibly support-restricted) resource state with
    Alice's factor first, ``phi0`` the symmetric purification of Alice's
    marginal on (alice, aux), and ``z_channel`` the unique map from the aux
    copy to (Bob', Eve') satisfying (id x z_channel) phi0 = zeta.  When the
    original Alice marginal was rank deficient, ``support_isometry`` holds
    the isometry from the restricted factor into the original one.
    """

    zeta: DensityOperator
    phi0: DensityOperator
    z_channel: QuantumChannel
    fullrank_flag: bool
    support_isometry: np.ndarray | None
    alice_label: str
    aux_label: str

    @property
    def bob_label(self) -> str:
        return self.zeta.space.labels[1]

    @property
    def eve_label(self) -> str:
        return self.zeta.space.labels[2]

    @property
    def zeta_marginal(self) -> DensityOperator:
        """Alice's marginal of the (restricted) resource state."""
        return partial_trace(self.zeta, {self.alice_label})


def _descending_eigh(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    w, v = np.linalg.eigh(matrix)
    return w[::-1], v[:, ::-1]


def _weighted_choi_from_blocks(
    source: DensityOperator,
    ref_label: str,
    lam: np.ndarray,
    vecs: np.ndarray,
) -> np.ndarray:
    """Choi-state matrix of the map M with (M x id) phi0 = source.

    ``source`` has the untouched reference factor ``ref_label``; ``lam`` and
    ``vecs`` are the spectrum and eigenbasis of the reference marginal that
    defines phi0.  Blocks are the sandwiches <v_i| source |v_j> on the
    reference factor, weighted by 1/sqrt(lam_i lam_j).
    """
    r = len(lam)
    others = [lab for lab in source.space.labels if lab != ref_label]
    sp = permute_factors(source, others + [ref_label])
    d_out = sp.dim // r
    t = sp.matrix.reshape(d_out, r, d_out, r)
    # blocks[i, j] = <v_i| . |v_j> / sqrt(lam_i lam_j)
    blocks = np.einsum("ai,oapb,bj->ijop", vecs.conj(), t, vecs)
    blocks /= np.sqrt(np.outer(lam, lam))[:, :, None, None]
    # Choi state: (1/r) sum_ij |conj(v_i)><conj(v_j)| x blocks[i, j]
    j = np.einsum("ai,ijop,bj->aobp", vecs.conj(), blocks, vecs) / r
    return j.reshape(r * d_out, r * d_out)


def channel_from_resource_state(
    zeta: DensityOperator,
    alice: str | None = None,
    aux_label: str = "App",
) -> ResourceState:
    """Build the resource-state channel decomposition of ``zeta``.

    Restricts Alice's factor to the support of her marginal (recording the
    isometry), builds the symmetric purification phi0 of the marginal, and
    solves for the unique channel Z with (id x Z) phi0 = zeta by linear
    inversion on the marginal's eigenbasis.  Raises if the reconstructed map
    fails to be CPTP beyond tolerance, which signals a numerically
    degenerate marginal spectrum.
    """
    space = zeta.space
    if len(space.factors) != 3:
        raise ValidationError(f"resource state must have exactly 3 factors, got {len(space.factors)}")
    alice = alice or space.labels[0]
    others = [lab for lab in space.labels if lab != alice]
    if len(others) != 2:
        raise ValidationError(f"alice label {alice!r} not found in {list(space.labels)}")
    if aux_label in space.labels:
        raise ValidationError(f"auxiliary label {aux_label!r} clashes with resource labels")

    zp = permute_factors(zeta, [alice] + others)
    d_alice = zp.space.dim_of(alice)
    d_rest = zp.dim // d_alice
    w, v = _descending_eigh(partial_trace(zp, {alice}).matrix)
    w = np.clip(w, 0.0, None)
    rank = max(1, int(np.count_nonzero(w > RANK_CUTOFF)))
    fullrank = rank == d_alice

    if fullrank:
        zeta_r = zp
        lam, vecs = w, v
        support_isometry = None
    else:
        iso = v[:, :rank]
        big = np.kron(iso, np.eye(d_rest))
        m = big.conj().T @ zp.matrix @ big
        m = m / np.real(np.trace(m))
        restricted_space = LabeledSpace.of((alice, rank)).tensor(zp.space.subspace(others))
        zeta_r = DensityOperator(restricted_space, m, validate=False)
        # In the restricted frame the marginal is diagonal in the computational basis.
        lam, vecs = _descending_eigh(partial_trace(zeta_r, {alice}).matrix)
        support_isometry = iso

    cond = float(lam[0] / lam[-1])
    phi_vec = np.zeros(rank * rank, dtype=np.complex128)
    for i in range(rank):
        phi_vec += np.sqrt(lam[i]) * np.kron(vecs[:, i], vecs[:, i])
    phi_space = LabeledSpace.of((alice, rank), (aux_label, rank))
    phi0 = DensityOperator(phi_space, np.outer(phi_vec, phi_vec.conj()), validate=False)

    j = _weighted_choi_from_blocks(zeta_r, alice, lam, vecs)
    choi_space = LabeledSpace.of((aux_label, rank)).tensor(zeta_r.space.subspace(others))
    choi = DensityOperator(choi_space, j, validate=False)
    try:
        z_channel = choi_to_kraus(choi, LabeledSpace.of((aux_label, rank)))
    except ValidationError as exc:
        raise ValidationError(
            f"resource channel reconstruction failed (marginal condition number {cond:.3e}): {exc}"
        ) from exc

    rebuilt = apply(z_channel, phi0, on=[aux_label])
    residual = hermitian_trace_norm(rebuilt.matrix - zeta_r.matrix)
    if residual > TOL_EQ:
        raise ValidationError(
            f"resource channel does not reproduce the state (residual {residual:.3e}, "
            f"marginal condition number {cond:.3e})"
        )
    return ResourceState(
        zeta=zeta_r,
        phi0=phi0,
        z_channel=z_channel,
        fullrank_flag=fullrank,
        support_isometry=support_isometry,
        alice_label=alice,
        aux_label=aux_label,
    )


def modulation_from_choi(
    eta: DensityOperator,
    zeta_marginal: DensityOperator,
    ref_label: str | None = None,
) -> QuantumChannel:
    """Recover the modulation E with (E x id) phi0 = eta.

    ``eta`` must carry the untouched reference copy as its factor
    ``ref_label`` (default: last factor), with marginal equal to
    ``zeta_marginal``, which must be full rank.
    """
    ref = ref_label or eta.space.labels[-1]
    if len(zeta_marginal.space.factors) != 1:
        raise ValidationError("zeta_marginal must be a single-factor state")
    d_ref = eta.space.dim_of(ref)
    if d_ref != zeta_marginal.dim:
        raise ValidationError(
            f"reference factor dimension {d_ref} != marginal dimension {zeta_marginal.dim}"
        )
    marg = partial_trace(eta, {ref})
    dev = hermitian_trace_norm(marg.matrix - zeta_marginal.matrix)
    if dev > TOL_EQ:
        raise ValidationError(f"eta marginal deviates from the resource marginal by {dev:.3e}")

    lam, vecs = _descending_eigh(zeta_marginal.matrix)
    lam = np.clip(lam, 0.0, None)
    if lam[-1] <= RANK_CUTOFF:
        raise ValidationError("zeta_marginal is not full rank; restrict support first")
    cond = float(lam[0] / lam[-1])

    j = _weighted_choi_from_blocks(eta, ref, lam, vecs)
    others = [lab for lab in eta.space.labels if lab != ref]
    out_space = eta.space.subspace(others)
    choi_space = LabeledSpace.of((ref, d_ref)).tensor(out_space)
    choi = DensityOperator(choi_space, j, validate=False)
    try:
        return choi_to_kraus(choi, zeta_marginal.space)
    except ValidationError as exc:
        raise ValidationError(
            f"modulation reconstruction failed (marginal condition number {cond:.3e}): {exc}"
        ) from exc


def trivial_resource(
    alice: str = "Ap", bob: str = "Bp", eve: str = "Ep"
) -> ResourceState:
    """The empty resource: one-dimensional shares for all three parties."""
    space = LabeledSpace.of((alice, 1), (bob, 1), (eve, 1))
    zeta = DensityOperator(space, np.array([[1.0 + 0j]]), validate=False)
    return channel_from_resource_state(zeta, alice=alice)


# ---------------------------------------------------------------------------
# JSON channel and ensemble files
# ---------------------------------------------------------------------------


def channel_to_json(ch: QuantumChannel) -> dict:
    return {
        "input": factors_to_json(ch.input_space),
        "output": factors_to_json(ch.output_space),
        "kraus": [complex_matrix_to_json(k) for k in ch.kraus],
    }


def channel_from_json(obj) -> QuantumChannel:
    if not isinstance(obj, dict):
        raise ValidationError("channel object must be a JSON object")
    for key in ("input", "output", "kraus"):
        if key not in obj:
            raise ValidationError(f"channel object is missing {key!r}")
    input_space = factors_from_json(obj["input"], "input")
    output_space = factors_from_json(obj["output"], "output")
    if not isinstance(obj["kraus"], list) or not obj["kraus"]:
        raise ValidationError("kraus must be a non-empty list of matrices")
    kraus = [
        complex_matrix_from_json(k, output_space.dim, input_space.dim, f"kraus[{i}]")
        for i, k in enumerate(obj["kraus"])
    ]
    return QuantumChannel(input_space, output_space, kraus)


def ensemble_to_json(ens: CqEnsemble) -> dict:
    return {
        "labels": list(ens.labels),
        "probs": [float(q) for q in ens.probs],
        "states": [state_to_json(s) for s in ens.states],
    }


def ensemble_from_json(obj) -> CqEnsemble:
    if not isinstance(obj, dict):
        raise ValidationError("ensemble object must be a JSON object")
    for key in ("labels", "probs", "states"):
        if key not in obj:
            raise ValidationError(f"ensemble object is missing {key!r}")
    states = [state_from_json(s) for s in obj["states"]]
    return CqEnsemble(obj["labels"], obj["probs"], states)
