"""CPTP maps, classical-quantum ensembles, and resource-state channels.

Channels are stored as Kraus families between two labeled spaces.

The resource-state machinery turns a tripartite shared state zeta on
(Alice', Bob', Eve') into the unique channel Z with (id x Z) phi0 = zeta,
where phi0 = sum_i sqrt(lam_i) v_i x v_i is the symmetric purification of
Alice's marginal, held as its amplitude matrix psi = V diag(sqrt(lam)) V^T,
and converts signal states with the correct marginal back into modulation
channels.  Both directions whiten the given state by psi^-1 on its
reference factor and read Kraus operators off the result, the channel's
Choi matrix, so they require a full-rank marginal; rank-deficient inputs
are first restricted to their support.  No phi0 matrix is built anywhere.
Every support here, of a marginal or of a state read as Kraus operators,
is ``qcore.support_eigh``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .qcore import (
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
    support_eigh,
)

__all__ = [
    "QuantumChannel",
    "CqEnsemble",
    "ResourceState",
    "apply",
    "channel_from_resource_state",
    "modulation_from_choi",
    "cq_state",
    "constant_channel",
    "classical_channel",
    "trivial_resource",
    "channel_action_matrix",
    "channel_to_json",
    "channel_from_json",
    "ensemble_to_json",
    "ensemble_from_json",
]

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
        if not dev <= tp_tol:  # a NaN deviation is refused too
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


def channel_action_matrix(ch: QuantumChannel) -> np.ndarray:
    """Superoperator matrix (column-stacking convention); basis for equality checks."""
    return sum(np.kron(k.conj(), k) for k in ch.kraus)


# ---------------------------------------------------------------------------
# Stock channels
# ---------------------------------------------------------------------------


def constant_channel(input_space: LabeledSpace, output_state: DensityOperator) -> QuantumChannel:
    """Discard the input and prepare ``output_state`` (Kraus |sqrt(w_i) v_i><a|)."""
    w, v = support_eigh(output_state.matrix)
    kraus = [np.outer(ket, bra) for ket in (v * np.sqrt(w)).T for bra in np.eye(input_space.dim)]
    return QuantumChannel(input_space, output_state.space, kraus)


def classical_channel(
    transition: np.ndarray, input_space: LabeledSpace, output_space: LabeledSpace
) -> QuantumChannel:
    """Embed a column-stochastic matrix P[y, x] as a measure-and-prepare map."""
    p = np.asarray(transition, dtype=float)
    d_in, d_out = input_space.dim, output_space.dim
    if p.shape != (d_out, d_in):
        raise ValidationError(f"transition matrix shape {p.shape}, expected ({d_out}, {d_in})")
    if not (np.all(p >= 0) and np.max(np.abs(p.sum(axis=0) - 1.0)) <= 1e-12):
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


# ---------------------------------------------------------------------------
# Classical-quantum ensembles
# ---------------------------------------------------------------------------


def _validated_probs(probs) -> np.ndarray:
    """A probability vector as a 1-D float array, entries clipped at 0.

    Refuses non-numeric (booleans included), non-finite or negative
    entries (beyond -1e-15 rounding) and sums further than PROB_TOL from 1.
    """
    if isinstance(probs, (list, tuple)) and any(isinstance(q, bool) for q in probs):
        raise ValidationError("probabilities must be numbers, not booleans")
    try:
        p = np.array(probs, dtype=float)
    except (TypeError, ValueError):
        raise ValidationError("probabilities must be numbers") from None
    if p.ndim != 1:
        raise ValidationError(f"probabilities must be a flat list, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ValidationError("probabilities must be finite")
    if np.any(p < -1e-15):
        raise ValidationError(f"negative probability {p.min():.3e}")
    p = np.clip(p, 0.0, None)
    if abs(p.sum() - 1.0) > PROB_TOL:
        raise ValidationError(f"probabilities sum to {p.sum():.15g}, not 1")
    return p


class CqEnsemble:
    """Finite label set with probabilities and per-label states on one space."""

    __slots__ = ("labels", "probs", "states")

    def __init__(
        self,
        labels: Sequence,
        probs: Sequence[float],
        states: Sequence[DensityOperator],
    ) -> None:
        labels = tuple(labels)
        states = tuple(states)
        probs = _validated_probs(probs)
        if not (len(labels) == len(probs) == len(states)) or not labels:
            raise ValidationError("labels, probs and states must be non-empty and equal length")
        try:
            unique = len(set(labels)) == len(labels)
        except TypeError:
            raise ValidationError("ensemble labels must be hashable") from None
        if not unique:
            raise ValidationError("ensemble labels must be unique")
        space = states[0].space
        for s in states[1:]:
            if s.space != space:
                raise ValidationError("all ensemble states must live on the same space")
        probs.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "states", states)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("CqEnsemble is immutable")

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def space(self) -> LabeledSpace:
        return self.states[0].space

    def average_state(self) -> DensityOperator:
        m = sum(q * s.matrix for q, s in zip(self.probs, self.states))
        return DensityOperator(self.space, m, validate=False)


def cq_state(ens: CqEnsemble) -> DensityOperator:
    """Block-diagonal state sum_u q(u) |u><u| x rho_u, classical register "U" first."""
    if "U" in ens.space.labels:
        raise ValidationError("register label 'U' clashes with member space")
    n, d = len(ens), ens.space.dim
    out = np.zeros((n * d, n * d), dtype=np.complex128)
    for i, (q, s) in enumerate(zip(ens.probs, ens.states)):
        out[i * d : (i + 1) * d, i * d : (i + 1) * d] = q * s.matrix
    space = LabeledSpace.of(("U", n)).tensor(ens.space)
    return DensityOperator(space, out, validate=False)


# ---------------------------------------------------------------------------
# Resource states and their channels
# ---------------------------------------------------------------------------


# phi0's copy of Alice's share: the reference factor of every signal state.
AUX_LABEL = "App"


@dataclass(frozen=True)
class ResourceState:
    """A tripartite resource state together with its induced channel.

    ``zeta`` is the (possibly support-restricted) resource state with
    Alice's factor first.  ``psi`` is the symmetric (r, r) amplitude matrix
    V diag(sqrt(lam)) V^T of phi0 = sum_i sqrt(lam_i) v_i x v_i, the
    purification of Alice's marginal on (Alice, AUX_LABEL): phi0 is
    vec(psi), and (K x 1) phi0 = vec(K psi).  ``z_channel`` is the unique
    map from the AUX_LABEL copy to (Bob', Eve') with (id x z_channel) phi0
    = zeta.
    """

    zeta: DensityOperator
    psi: np.ndarray
    z_channel: QuantumChannel

    @property
    def zeta_marginal(self) -> DensityOperator:
        """Alice's marginal of the (restricted) resource state."""
        return partial_trace(self.zeta, {self.zeta.space.labels[0]})


def _channel_through_phi0(
    state: np.ndarray,
    lam: np.ndarray,
    vecs: np.ndarray,
    input_space: LabeledSpace,
    output_space: LabeledSpace,
    what: str,
) -> QuantumChannel:
    """The map M: input_space -> output_space with (id x M) phi0 = ``state``.

    ``state`` is a matrix on (reference, output), reference first, and
    phi0 = sum_i sqrt(lam_i) v_i x v_i has the symmetric amplitude matrix
    Psi = V diag(sqrt(lam)) V^T, so ``state`` = sum_k vec(Psi K_k^T)
    vec(Psi K_k^T)^H for any Kraus family {K_k} of M.  Whitening by
    Psi^-1 = conj(V) diag(lam^-1/2) V^H leaves sum_k vec(K_k^T) vec(K_k^T)^H,
    M's Choi matrix, whose support eigenvectors (``support_eigh``) scaled
    by the square roots of their eigenvalues are the K_k^T.  A dropped
    eigenvalue moves sum K_k^H K_k by at most its own size, however small
    lam is.  Sum K_k^H K_k = 1 holds exactly when the reference marginal of
    ``state`` is phi0's; the trace-preservation check at TOL_EQ guards it,
    and its refusal names ``what`` and the marginal's condition number.
    """
    r, d = len(lam), output_space.dim
    psi_inv = (vecs.conj() / np.sqrt(lam)) @ vecs.conj().T
    # (Psi^-1 x 1) state (Psi^-1 x 1)^H: the row factor, then the column factor.
    left = (psi_inv @ state.reshape(r, -1)).reshape(r * d, r, d)
    w, v = support_eigh((psi_inv.conj() @ left).reshape(r * d, r * d))
    kraus = list((v * np.sqrt(w)).T.reshape(-1, r, d).transpose(0, 2, 1))
    try:
        return QuantumChannel(input_space, output_space, kraus, tp_tol=TOL_EQ)
    except ValidationError as exc:
        cond = lam[0] / lam[-1]
        raise ValidationError(
            f"{what} reconstruction failed (marginal condition number {cond:.3e}): {exc}"
        ) from exc


def channel_from_resource_state(zeta: DensityOperator) -> ResourceState:
    """Build the resource-state channel decomposition of ``zeta``.

    Alice's share is the first factor of ``zeta``, and phi0's copy of it
    is AUX_LABEL.  One eigensolve of Alice's marginal gives phi0's
    amplitude matrix; a rank-deficient marginal first restricts Alice's
    factor to its support, in whose frame the marginal is diag(lam).  The
    unique channel Z with (id x Z) phi0 = zeta is read off zeta whitened by
    that amplitude matrix (``_channel_through_phi0``).  Raises if Z fails to
    be trace preserving or to reproduce zeta beyond TOL_EQ, which signals a
    numerically degenerate marginal spectrum.
    """
    space = zeta.space
    if len(space.factors) != 3:
        raise ValidationError(f"resource state must have exactly 3 factors, got {len(space.factors)}")
    alice, *others = space.labels
    if AUX_LABEL in space.labels:
        raise ValidationError(f"auxiliary label {AUX_LABEL!r} clashes with resource labels")
    if not np.all(np.isfinite(zeta.matrix)):
        raise ValidationError("resource state has non-finite entries")

    d_alice = space.dim_of(alice)
    lam, vecs = support_eigh(partial_trace(zeta, {alice}).matrix)
    rank = len(lam)

    zeta_r = zeta
    if rank < d_alice:
        big = np.kron(vecs, np.eye(zeta.dim // d_alice))
        m = big.conj().T @ zeta.matrix @ big
        trace = np.real(np.trace(m))
        restricted_space = LabeledSpace.of((alice, rank)).tensor(space.subspace(others))
        zeta_r = DensityOperator(restricted_space, m / trace, validate=False)
        lam, vecs = lam / trace, np.eye(rank)

    psi = (vecs * np.sqrt(lam)) @ vecs.T
    aux = LabeledSpace.of((AUX_LABEL, rank))
    z_channel = _channel_through_phi0(
        zeta_r.matrix, lam, vecs, aux, zeta_r.space.subspace(others), "resource channel"
    )
    # sum_k vec(psi K_k^T) vec(psi K_k^T)^H is (id x Z) phi0.
    kraus_t = np.stack(z_channel.kraus).transpose(0, 2, 1)
    amplitudes = (psi @ kraus_t).reshape(len(kraus_t), -1)
    residual = hermitian_trace_norm(amplitudes.T @ amplitudes.conj() - zeta_r.matrix)
    if not residual <= TOL_EQ:
        raise ValidationError(
            f"resource channel does not reproduce the state (residual {residual:.3e}, "
            f"marginal condition number {lam[0] / lam[-1]:.3e})"
        )
    return ResourceState(zeta=zeta_r, psi=psi, z_channel=z_channel)


def modulation_from_choi(
    eta: DensityOperator,
    zeta_marginal: DensityOperator,
    ref_label: str | None = None,
) -> QuantumChannel:
    """Recover the modulation E with (E x id) phi0 = eta.

    ``eta`` must carry the untouched reference copy as its factor
    ``ref_label`` (default: last factor), with marginal equal to
    ``zeta_marginal``, which must be full rank.  phi0 is symmetric under
    swapping its two factors, so E is read off eta permuted to
    (reference, signal) by the same inversion that yields Z.
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
    if not dev <= TOL_EQ:
        raise ValidationError(f"eta marginal deviates from the resource marginal by {dev:.3e}")

    lam, vecs = support_eigh(zeta_marginal.matrix)
    if len(lam) < zeta_marginal.dim:
        raise ValidationError("zeta_marginal is not full rank; restrict support first")
    others = [lab for lab in eta.space.labels if lab != ref]
    state = permute_factors(eta, [ref] + others).matrix
    out_space = eta.space.subspace(others)
    return _channel_through_phi0(state, lam, vecs, zeta_marginal.space, out_space, "modulation")


@functools.cache
def trivial_resource() -> ResourceState:
    """The empty resource: one-dimensional shares Ap, Bp and Ep, built once."""
    space = LabeledSpace.of(("Ap", 1), ("Bp", 1), ("Ep", 1))
    zeta = DensityOperator(space, np.array([[1.0 + 0j]]), validate=False)
    return channel_from_resource_state(zeta)


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
    for key in ("labels", "states"):
        if not isinstance(obj[key], list):
            raise ValidationError(f"{key} must be a list")
    states = [state_from_json(s) for s in obj["states"]]
    return CqEnsemble(obj["labels"], obj["probs"], states)
