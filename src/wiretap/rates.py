"""Achievable private-rate functionals at block length one.

Three functionals share one report type:

* ``theorem1_rate`` -- the side-information rate for an ensemble of joint
  signal/reference states constrained only on its *average* reference
  marginal: I(U:BB') - max(I(U:EE'), I(U:A')).  The I(U:A') term is the
  price of relaxing the per-letter marginal constraint to an average one
  (Gelfand-Pinsker style coding).
* ``trivial_rate`` -- modulations M_u applied directly to the shared
  resource, then fed through the channel: I(U:BB') - I(U:EE').  This is the
  theorem1 functional of the members eta_u = (M_u x id) phi0, without the
  I(U:A') term.
* ``unassisted_rate`` -- plain wiretap coding with no resource:
  I(U:B) - I(U:E).  No resource is the empty one, ``trivial_resource()``,
  whose one-dimensional shares leave the channel's outputs as they are.

Every I(U:X) is a Holevo quantity S(sum_u q_u rho_u) - sum_u q_u S(rho_u)
of the members' X-side states.  All three functionals, the grid oracle and
the code simulator's member outputs run on one kernel, ``_CqKernel``: it
holds one linear map per side, Bob's (Tr_{E,rest} N) x (Tr_E' Z) and Eve's
(Tr_{B,rest} N) x (Tr_B' Z), so a stacked (k, d, d) member array reaches
both marginals in one matrix product per side; each Holevo term is then
one batched eigensolve over [average; members].  The block-diagonal cq-state path
(``build_gamma``, ``cq_state``, ``mutual_information``) is kept as the
reference that the tests compare the kernel against.

All functionals evaluate exactly one channel use; multi-letter evaluation
is the caller's job (tensorize the channel and resource explicitly).
Rates are reported in bits and may be negative; the operational rate is
max(0, rate).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channels import (
    AUX_LABEL,
    CqEnsemble,
    QuantumChannel,
    ResourceState,
    _validated_probs,
    apply,
    cq_state,
    trivial_resource,
)
from .entropic import _entropies
from .qcore import (
    DensityOperator,
    LabeledSpace,
    ValidationError,
    _permuted,
    check_working_bytes,
    hermitian_trace_norm,
    partial_trace,
)

__all__ = [
    "FEASIBILITY_THRESHOLD",
    "RateReport",
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
    labels = list(ens.space.labels)
    if AUX_LABEL not in labels:
        raise ValidationError(
            f"ensemble member space {labels} lacks the reference factor {AUX_LABEL!r}"
        )
    if ens.space.dim_of(AUX_LABEL) != len(res.psi):
        raise ValidationError(
            f"reference factor dimension {ens.space.dim_of(AUX_LABEL)} != "
            f"resource copy dimension {len(res.psi)}"
        )
    signal = [lab for lab in labels if lab != AUX_LABEL]
    dims = tuple(ens.space.dim_of(lab) for lab in signal)
    if channel is not None and dims != channel.input_space.dims:
        raise ValidationError(
            f"signal factors {signal} have dims {dims}, channel expects {channel.input_space.dims}"
        )
    return signal


def _stack(states: Sequence[DensityOperator], order: Sequence[str]) -> np.ndarray:
    """State matrices as one (k, d, d) array, factors permuted to ``order``."""
    space = states[0].space
    perm = [space.index(lab) for lab in order]
    return _permuted(np.stack([s.matrix for s in states]), space.dims, perm)


def _instrument(kraus: np.ndarray, psi: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Members eta_u and weights q_u of q_u eta_u = sum_e (K_ue x 1) phi0 (K_ue x 1)^+.

    ``kraus`` is an (..., env, k * d_sig, r) stack from Alice's share to
    (U, signal) and ``psi`` phi0's (r, r) amplitude matrix on (share, A'),
    so (K x 1) phi0 = vec(K psi); the members come back as (..., k, d, d)
    and the q_u as (..., k).  For an instrument, sum K^+ K = 1, the q_u sum
    to 1 and the average A' marginal is phi0's, the resource's.  An outcome
    with q_u = 0 has a zero member.
    """
    *lead, env, rows, r = kraus.shape
    n = len(lead)
    v = (kraus.reshape(*lead, env * rows, r) @ psi).reshape(*lead, env, k, -1)
    v = v.transpose(*range(n), n + 1, n + 2, n)
    weighted = v @ v.conj().swapaxes(-1, -2)
    probs = np.trace(weighted, axis1=-2, axis2=-1).real
    return weighted / np.where(probs > 0, probs, 1.0)[..., None, None], probs


def _holevo(members: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """S(sum_u q_u rho_u) - sum_u q_u S(rho_u) in bits.

    ``members`` is (..., k, d, d) and ``probs`` (..., k); their leading
    axes broadcast, and so does the result.  Members shared by several
    rows of ``probs`` have their entropies computed once.  Entropies come
    from ``entropic._entropies``, one batched eigensolve over [averages;
    members].  A one-dimensional side is an exact zero, not the rounding
    of traces that differ from 1 in the last bit.
    """
    lead = np.broadcast_shapes(members.shape[:-3], probs.shape[:-1])
    if members.shape[-1] == 1:
        return np.zeros(lead)
    d = members.shape[-1]
    avg = np.einsum("...k,...kab->...ab", probs, members).reshape(-1, d, d)
    s = _entropies(np.concatenate([avg, members.reshape(-1, d, d)]))
    s_members = s[len(avg) :].reshape(members.shape[:-2])
    return s[: len(avg)].reshape(lead) - (probs[..., None, :] @ s_members[..., None])[..., 0, 0]


def _side_liouville(kraus: np.ndarray, dims: tuple[int, ...], keep: int) -> np.ndarray:
    """(x, y, s, t) tensor of rho -> Tr_others sum_n K_n rho K_n^dag, keeping output ``keep``."""
    k = np.moveaxis(kraus.reshape((len(kraus), *dims, -1)), 1 + keep, 1)
    k = k.reshape(len(kraus), dims[keep], -1, kraus.shape[-1])
    return np.einsum("nxrs,nyrt->xyst", k, k.conj())


class _CqKernel:
    """Bob (B B') and Eve (E E') marginals of stacked (k, d, d) members on
    (signal, A') after channel x Z: one (d_side^2, d^2) map per side, the
    Kronecker product of the channel's and Z's Liouville tensors for it.
    Signal factors meet the channel input positionally, "rest" (any further
    channel output) is traced out, and only dimensions are read, so labels
    may repeat across channel and resource.  A map over MAX_WORKING_BYTES is
    refused unbuilt.
    """

    def __init__(self, channel: QuantumChannel, res: ResourceState) -> None:
        out, z_out = channel.output_space, res.z_channel.output_space
        if len(out.factors) < 2:
            raise ValidationError(f"channel output {list(out.labels)} needs Bob's and Eve's factors")
        self.marginal = res.zeta_marginal
        self.d_bob, self.d_eve = (out.dims[i] * z_out.dims[i] for i in (0, 1))
        self.d_signal = channel.input_space.dim
        d_member = self.d_signal * res.z_channel.input_space.dim
        check_working_bytes(16 * max(self.d_bob, self.d_eve) ** 2 * d_member**2, "a side map")
        self.bob_map, self.eve_map = (
            np.einsum(
                "xyst,pqab->xpyqsatb",
                _side_liouville(np.stack(channel.kraus), out.dims, i),
                _side_liouville(np.stack(res.z_channel.kraus), z_out.dims, i),
            ).reshape(d_side**2, d_member**2)
            for i, d_side in enumerate((self.d_bob, self.d_eve))
        )

    def sides(self, members: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Bob (B B') and Eve (E E') marginals of (..., d, d) stacked members' outputs."""
        lead = members.shape[:-2]
        flat = members.reshape(-1, members.shape[-1] ** 2)
        return (
            (flat @ self.bob_map.T).reshape(*lead, self.d_bob, -1),
            (flat @ self.eve_map.T).reshape(*lead, self.d_eve, -1),
        )

    def reference_marginals(self, members: np.ndarray) -> np.ndarray:
        """A' marginals of (..., d, d) stacked members."""
        d, r = self.d_signal, members.shape[-1] // self.d_signal
        return np.einsum("...sasb->...ab", members.reshape(*members.shape[:-2], d, r, d, r))

    def bob_eve(
        self, members: np.ndarray, probs: Sequence[float] | np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """(I(U:BB'), I(U:EE')) of (..., k, d, d) members with (..., k) probabilities,
        each of shape (...)."""
        q = np.asarray(probs, dtype=float)
        return tuple(_holevo(side, q) for side in self.sides(members))

    def reference_terms(self, members: np.ndarray, probs: np.ndarray) -> tuple[float, float]:
        """(I(U:A'), average-marginal residual) of the ensemble; I(U:A') is an
        exact zero when all members share their A' marginal bitwise."""
        margs = self.reference_marginals(members)
        residual = hermitian_trace_norm(np.einsum("k,kab->ab", probs, margs) - self.marginal.matrix)
        if np.all(margs == margs[0]):
            return 0.0, residual
        return float(_holevo(margs, np.asarray(probs))), residual


def build_gamma(
    ens: CqEnsemble,
    channel: QuantumChannel,
    res: ResourceState,
) -> DensityOperator:
    """cq-state after pushing every member through channel x resource channel."""
    signal = _signal_labels(ens, res, channel)
    members = [
        apply(res.z_channel, apply(channel, s, on=signal), on=[AUX_LABEL])
        for s in ens.states
    ]
    return cq_state(CqEnsemble(ens.labels, ens.probs, members))


def marginal_constraint_residual(ens: CqEnsemble, res: ResourceState) -> float:
    """Trace norm of (average reference marginal) - (resource marginal)."""
    _signal_labels(ens, res)  # validates presence and dimension
    avg = sum(
        q * partial_trace(s, {AUX_LABEL}).matrix for q, s in zip(ens.probs, ens.states)
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
    members = _stack(ens.states, signal + [AUX_LABEL])
    i_u_bb, i_u_ee = map(float, kernel.bob_eve(members, ens.probs))
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

    Each modulation M_u consumes Alice's share and produces the channel
    input; the resource's other shares ride along to Bob and Eve.  Since
    (id x Z) phi0 = zeta, the kernel scores the members eta_u = (M_u x id)
    phi0 on (signal, A'), built by ``_instrument`` from the modulations
    stacked as the outcomes of one instrument.
    """
    probs = _validated_probs(probs)
    if len(probs) != len(modulations) or not modulations:
        raise ValidationError("need matching, non-empty probs and modulations")
    r, d_sig = len(res.psi), channel.input_space.dim
    for mod in modulations:
        if mod.input_space.dims != (r,):
            raise ValidationError(
                f"modulation input dims {mod.input_space.dims} != Alice share dimension {r}"
            )
        if mod.output_space.dims != channel.input_space.dims:
            raise ValidationError(
                f"modulation output dims {mod.output_space.dims} != "
                f"channel input dims {channel.input_space.dims}"
            )
    # Outcome u holds M_u's Kraus operators, zero-padded to the longest family.
    env = max(len(mod.kraus) for mod in modulations)
    kraus = np.zeros((env, len(modulations), d_sig, r), dtype=np.complex128)
    for u, mod in enumerate(modulations):
        kraus[: len(mod.kraus), u] = mod.kraus
    members = _instrument(kraus.reshape(env, -1, r), res.psi, len(modulations))[0]
    kernel = _CqKernel(channel, res)
    i_u_bb, i_u_ee = map(float, kernel.bob_eve(members, probs))
    residual = kernel.reference_terms(members, probs)[1]
    return RateReport(i_u_bb, i_u_ee, 0.0, i_u_bb - i_u_ee, residual, mode="trivial")


def unassisted_rate(ens: CqEnsemble, channel: QuantumChannel) -> RateReport:
    """Plain single-letter wiretap rate I(U:B) - I(U:E).

    One-dimensional factors carry nothing and are ignored on both sides, so
    members may keep a trivial resource's reference copy; the remaining
    member factors meet the channel input by position.
    """
    dims = tuple(d for d in ens.space.dims if d > 1)
    if dims != tuple(d for d in channel.input_space.dims if d > 1):
        raise ValidationError(
            f"ensemble member dims {ens.space.dims} != channel input dims "
            f"{channel.input_space.dims} (one-dimensional factors aside)"
        )
    kernel = _CqKernel(channel, trivial_resource())
    members = np.stack([s.matrix for s in ens.states])
    i_u_bb, i_u_ee = map(float, kernel.bob_eve(members, ens.probs))
    return RateReport(i_u_bb, i_u_ee, 0.0, i_u_bb - i_u_ee, 0.0, mode="unassisted")


def classical_embed(pmf: np.ndarray) -> DensityOperator:
    """Diagonal embedding of a joint pmf over X x Y x Z as a resource state on (Ap, Bp, Ep)."""
    try:
        p = np.asarray(pmf, dtype=float)
    except (TypeError, ValueError):
        raise ValidationError("pmf entries must be numbers") from None
    if p.ndim != 3:
        raise ValidationError(f"pmf must be a 3-way array, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ValidationError("pmf entries must be finite")
    if np.any(p < 0):
        raise ValidationError(f"pmf has negative entries (min {p.min():.3e})")
    if abs(p.sum() - 1.0) > 1e-12:
        raise ValidationError(f"pmf sums to {p.sum():.15g}, not 1")
    space = LabeledSpace.of(("Ap", p.shape[0]), ("Bp", p.shape[1]), ("Ep", p.shape[2]))
    return DensityOperator(space, np.diag(p.reshape(-1)).astype(np.complex128), validate=False)
