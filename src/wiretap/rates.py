"""Achievable private-rate functionals at block length one.

Three functionals share one report type:

* ``theorem1_rate`` -- the side-information rate for an ensemble of joint
  signal/reference states constrained only on its *average* reference
  marginal: I(U:BB') - max(I(U:EE'), I(U:A')).  The I(U:A') term is the
  price of relaxing the per-letter marginal constraint to an average one
  (Gelfand-Pinsker style coding).
* ``trivial_rate`` -- modulations applied directly to the shared resource,
  then fed through the channel: I(U:BB') - I(U:EE').
* ``unassisted_rate`` -- plain wiretap coding with no resource:
  I(U:B) - I(U:E).

Every I(U:X) is a Holevo quantity S(sum_u q_u rho_u) - sum_u q_u S(rho_u)
of the members' X-side states.  All three functionals, the grid oracle and
the code simulator's member outputs run on one kernel, ``_CqKernel``: it
pushes a stacked (k, d, d) member array through the composite Kraus family
K_channel x K_Z at once, takes the Bob (B B') and Eve (E E') marginals by
reshape and trace, and evaluates each Holevo term with one batched
eigensolve over [average; members].  The block-diagonal cq-state path
(``build_beta``, ``build_gamma``, ``cq_state``, ``mutual_information``) is
kept as the reference that the tests compare the kernel against.

All functionals evaluate exactly one channel use; multi-letter evaluation
is the caller's job (tensorize the channel and resource explicitly).
Rates are reported in bits and may be negative; the operational rate is
max(0, rate).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channels import CqEnsemble, QuantumChannel, ResourceState, apply, cq_state
from .entropic import ENTROPY_EIGENVALUE_CUTOFF
from .qcore import (
    DensityOperator,
    LabeledSpace,
    ValidationError,
    hermitian_trace_norm,
    partial_trace,
)

__all__ = [
    "FEASIBILITY_THRESHOLD",
    "RateReport",
    "build_beta",
    "build_gamma",
    "marginal_constraint_residual",
    "theorem1_rate",
    "trivial_rate",
    "unassisted_rate",
    "classical_embed",
]

# An ensemble whose average-marginal residual is below this counts as
# feasible; rates are still computed and reported above it.
FEASIBILITY_THRESHOLD = 1e-6

_MODES = ("theorem1", "trivial", "unassisted")


@dataclass(frozen=True)
class RateReport:
    """Decomposition of a rate value into its mutual-information parts."""

    i_u_bb: float
    i_u_ee: float
    i_u_aprime: float
    rate: float
    constraint_residual: float
    mode: str

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValidationError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.constraint_residual < 0:
            raise ValidationError("constraint_residual must be nonnegative")
        if self.mode == "theorem1":
            want = self.i_u_bb - max(self.i_u_ee, self.i_u_aprime)
        else:
            if self.i_u_aprime != 0.0:
                raise ValidationError(f"{self.mode} mode reports i_u_aprime = 0")
            want = self.i_u_bb - self.i_u_ee
        if abs(self.rate - want) > 1e-12:
            raise ValidationError(
                f"rate {self.rate} inconsistent with components (expected {want})"
            )

    @property
    def feasible(self) -> bool:
        return self.constraint_residual <= FEASIBILITY_THRESHOLD

    def summary(self) -> str:
        return (
            f"mode={self.mode} rate={self.rate:.6f} bits "
            f"[I(U:BB')={self.i_u_bb:.6f} I(U:EE')={self.i_u_ee:.6f} "
            f"I(U:A')={self.i_u_aprime:.6f} residual={self.constraint_residual:.3e}] "
            f"(operational rate is max(0, rate))"
        )


def _signal_labels(
    ens: CqEnsemble, res: ResourceState, channel: QuantumChannel | None = None
) -> list[str]:
    """Member labels other than the reference copy, checked against the
    resource and, when given, positionally against the channel input."""
    aux = res.aux_label
    labels = list(ens.space.labels)
    if aux not in labels:
        raise ValidationError(
            f"ensemble member space {labels} lacks the reference factor {aux!r}"
        )
    if ens.space.dim_of(aux) != res.phi0.space.dim_of(aux):
        raise ValidationError(
            f"reference factor dimension {ens.space.dim_of(aux)} != "
            f"resource copy dimension {res.phi0.space.dim_of(aux)}"
        )
    signal = [lab for lab in labels if lab != aux]
    dims = tuple(ens.space.dim_of(lab) for lab in signal)
    if channel is not None and dims != channel.input_space.dims:
        raise ValidationError(
            f"signal factors {signal} have dims {dims}, channel expects {channel.input_space.dims}"
        )
    return signal


def _stack(states: Sequence[DensityOperator], order: Sequence[str]) -> np.ndarray:
    """State matrices as one (k, d, d) array, factors permuted to ``order``."""
    space, k = states[0].space, len(states)
    perm = [space.index(lab) for lab in order]
    t = np.stack([s.matrix for s in states]).reshape((k,) + space.dims * 2)
    t = t.transpose([0] + [1 + p for p in perm] + [1 + len(perm) + p for p in perm])
    return t.reshape(k, space.dim, space.dim)


def _holevo(members: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """S(sum_u q_u rho_u) - sum_u q_u S(rho_u) in bits, per row q of ``probs``.

    Entropies use the ``entropic`` conventions, with one batched eigensolve
    over [averages; members].  A one-dimensional side is an exact zero, not
    the rounding of traces that differ from 1 in the last bit.
    """
    if members.shape[-1] == 1:
        return np.zeros(len(probs))
    avg = np.einsum("qk,kab->qab", probs, members)
    w = np.linalg.eigvalsh(np.concatenate([avg, members]))
    w = np.where(w > ENTROPY_EIGENVALUE_CUTOFF, w, 1.0)
    s = np.maximum(0.0, -np.sum(w * np.log2(w), axis=-1))
    return s[: len(avg)] - probs @ s[len(avg) :]


class _CqKernel:
    """Maps stacked (k, d, d) members on (signal, A') to joint outputs on
    (B, E, rest, B', E') through the Kraus family K_channel x K_Z.

    Signal factors meet the channel input positionally; "rest" (any further
    channel output) is traced out of every marginal.  Without a resource,
    A', B' and E' are one-dimensional.  The kernel has no register label.
    """

    def __init__(self, channel: QuantumChannel, res: ResourceState | None = None) -> None:
        out = channel.output_space
        z_out = res.z_channel.output_space if res else LabeledSpace(())
        self.labels = out.labels + z_out.labels
        names = self.labels + ((res.aux_label,) if res else ())
        if len(out.factors) < 2 or len(set(names)) < len(names):
            raise ValidationError(
                f"channel output {list(out.labels)} needs Bob's and Eve's factors, "
                f"and the labels {list(names)} must all differ"
            )
        self.marginal = res.zeta_marginal if res else None
        self.bob_space = LabeledSpace((out.factors[0],) + z_out.factors[:1])
        self.eve_space = LabeledSpace((out.factors[1],) + z_out.factors[1:])
        self.shape = out.dims[:2] + (math.prod(out.dims[2:]),) + (z_out.dims or (1, 1))
        self.d_signal = channel.input_space.dim
        z_kraus = res.z_channel.kraus if res else (np.ones((1, 1)),)
        self.kraus = np.stack([np.kron(kc, kz) for kc in channel.kraus for kz in z_kraus])

    def pushforward(self, members: np.ndarray) -> np.ndarray:
        k_h = self.kraus.conj().transpose(0, 2, 1)
        return (self.kraus[None] @ members[:, None] @ k_h[None]).sum(axis=1)

    def marginals(self, outputs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Bob (B B') and Eve (E E') marginals of stacked joint outputs."""
        k, (d_b, d_e, _, d_bp, d_ep) = len(outputs), self.shape
        t = outputs.reshape((k,) + self.shape * 2)
        bob = np.einsum("kberpfcerqf->kbpcq", t).reshape(k, d_b * d_bp, d_b * d_bp)
        eve = np.einsum("kberpfbgrph->kefgh", t).reshape(k, d_e * d_ep, d_e * d_ep)
        return bob, eve

    def reference_marginals(self, members: np.ndarray) -> np.ndarray:
        """A' marginals of stacked members."""
        k, d, r = len(members), self.d_signal, members.shape[1] // self.d_signal
        return np.einsum("ksasb->kab", members.reshape(k, d, r, d, r))

    def bob_eve(self, outputs: np.ndarray, probs: Sequence[float]) -> tuple[float, float]:
        """(I(U:BB'), I(U:EE')) of the ensemble's stacked joint outputs."""
        q = np.asarray(probs, dtype=float)[None]
        bob, eve = self.marginals(outputs)
        return float(_holevo(bob, q)[0]), float(_holevo(eve, q)[0])

    def reference_terms(self, members: np.ndarray, probs: np.ndarray) -> tuple[float, float]:
        """(I(U:A'), average-marginal residual) of the ensemble; I(U:A') is an
        exact zero when all members share their A' marginal bitwise."""
        margs = self.reference_marginals(members)
        residual = hermitian_trace_norm(np.einsum("k,kab->ab", probs, margs) - self.marginal.matrix)
        if np.all(margs == margs[0]):
            return 0.0, residual
        return float(_holevo(margs, np.asarray(probs)[None])[0]), residual


def build_beta(ens: CqEnsemble, u_label: str = "U") -> DensityOperator:
    """cq-state of the signal/reference ensemble on (U, members)."""
    return cq_state(ens, label=u_label)


def build_gamma(
    ens: CqEnsemble,
    channel: QuantumChannel,
    res: ResourceState,
    u_label: str = "U",
) -> DensityOperator:
    """cq-state after pushing every member through channel x resource channel."""
    signal = _signal_labels(ens, res, channel)
    members = [
        apply(res.z_channel, apply(channel, s, on=signal), on=[res.aux_label])
        for s in ens.states
    ]
    return cq_state(CqEnsemble(ens.labels, ens.probs, members), label=u_label)


def marginal_constraint_residual(ens: CqEnsemble, res: ResourceState) -> float:
    """Trace norm of (average reference marginal) - (resource marginal)."""
    aux = res.aux_label
    _signal_labels(ens, res)  # validates presence and dimension
    avg = sum(
        q * partial_trace(s, {aux}).matrix for q, s in zip(ens.probs, ens.states)
    )
    return hermitian_trace_norm(avg - res.zeta_marginal.matrix)


def theorem1_rate(
    ens: CqEnsemble,
    channel: QuantumChannel,
    res: ResourceState,
) -> RateReport:
    """Side-information rate of an average-constrained signal ensemble.

    When every member has the *same* reference marginal bitwise, the
    register is exactly product with the reference factor and I(U:A') is
    reported as an exact zero (block structure, no eigensolve).
    """
    signal = _signal_labels(ens, res, channel)
    kernel = _CqKernel(channel, res)
    members = _stack(ens.states, signal + [res.aux_label])
    i_u_bb, i_u_ee = kernel.bob_eve(kernel.pushforward(members), ens.probs)
    i_u_aprime, residual = kernel.reference_terms(members, ens.probs)
    rate = i_u_bb - max(i_u_ee, i_u_aprime)
    return RateReport(i_u_bb, i_u_ee, i_u_aprime, rate, residual, mode="theorem1")


def trivial_rate(
    probs: Sequence[float],
    modulations: Sequence[QuantumChannel],
    channel: QuantumChannel,
    res: ResourceState,
) -> RateReport:
    """Rate of modulations applied directly to the shared resource.

    Each modulation consumes Alice's share and produces the channel input;
    the resource's other shares ride along to Bob and Eve.
    """
    if len(probs) != len(modulations) or not modulations:
        raise ValidationError("need matching, non-empty probs and modulations")
    alice = res.alice_label
    d_alice = res.zeta.space.dim_of(alice)
    members = []
    avg_marg = np.zeros((res.phi0.space.dim_of(res.aux_label),) * 2, dtype=np.complex128)
    for q, mod in zip(probs, modulations):
        if mod.input_space.dims != (d_alice,):
            raise ValidationError(
                f"modulation input dims {mod.input_space.dims} != Alice share dimension {d_alice}"
            )
        if mod.output_space.dims != channel.input_space.dims:
            raise ValidationError(
                f"modulation output dims {mod.output_space.dims} != "
                f"channel input dims {channel.input_space.dims}"
            )
        w = apply(mod, res.zeta, on=[alice])  # (Bob', Eve', signal)
        members.append(apply(channel, w, on=list(mod.output_space.labels)))
        eta = apply(mod, res.phi0, on=[alice])  # (reference copy, signal)
        avg_marg = avg_marg + q * partial_trace(eta, {res.aux_label}).matrix
    residual = hermitian_trace_norm(avg_marg - res.zeta_marginal.matrix)

    kernel = _CqKernel(channel, res)
    i_u_bb, i_u_ee = kernel.bob_eve(_stack(members, kernel.labels), probs)
    return RateReport(i_u_bb, i_u_ee, 0.0, i_u_bb - i_u_ee, residual, mode="trivial")


def unassisted_rate(ens: CqEnsemble, channel: QuantumChannel) -> RateReport:
    """Plain single-letter wiretap rate I(U:B) - I(U:E)."""
    if ens.space.dims != channel.input_space.dims:
        raise ValidationError(
            f"ensemble member dims {ens.space.dims} != channel input dims "
            f"{channel.input_space.dims}"
        )
    kernel = _CqKernel(channel)
    members = _stack(ens.states, ens.space.labels)
    i_u_bb, i_u_ee = kernel.bob_eve(kernel.pushforward(members), ens.probs)
    return RateReport(i_u_bb, i_u_ee, 0.0, i_u_bb - i_u_ee, 0.0, mode="unassisted")


def classical_embed(
    pmf: np.ndarray, labels: tuple[str, str, str] = ("Ap", "Bp", "Ep")
) -> DensityOperator:
    """Diagonal embedding of a joint pmf over X x Y x Z as a resource state."""
    p = np.asarray(pmf, dtype=float)
    if p.ndim != 3:
        raise ValidationError(f"pmf must be a 3-way array, got shape {p.shape}")
    if np.any(p < 0):
        raise ValidationError(f"pmf has negative entries (min {p.min():.3e})")
    if abs(p.sum() - 1.0) > 1e-12:
        raise ValidationError(f"pmf sums to {p.sum():.15g}, not 1")
    space = LabeledSpace.of(
        (labels[0], p.shape[0]), (labels[1], p.shape[1]), (labels[2], p.shape[2])
    )
    return DensityOperator(space, np.diag(p.reshape(-1)).astype(np.complex128), validate=False)
