"""Slow, direct reference paths that the tests check the package's kernels against.

The package computes each quantity one way: every Holevo term of a rate
through ``rates._CqKernel``, every channel objective through
``measures._ChannelKernel``.  The functions here compute the same
quantities another way, from the definitions, so that each fast path has
an independent check:

* ``fidelity`` -- Uhlmann fidelity from matrix square roots, the check of
  ``uhlmann_fixup``;
* ``channel_action_matrix`` -- the superoperator matrix, for channel
  equality in action;
* ``coherent_information`` and ``holevo_information`` -- entropies of
  whole states, the checks of the dense-coding objective and of the
  batched Holevo terms of ``rates._holevo``;
* ``build_gamma`` and ``marginal_constraint_residual`` -- the cq-state of
  the members pushed through channel x resource channel one by one, and
  the average A' marginal summed member by member, the checks of
  ``_CqKernel``'s side maps and of ``_CqKernel.reference_terms``;
* ``grid_oracle`` -- exhaustive search over a discretized family of
  feasible ensembles, the check of ``optimize_unassisted`` and
  ``optimize_theorem1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement
from typing import Iterable

import numpy as np

from wiretap.channels import (
    AUX_LABEL,
    CqEnsemble,
    QuantumChannel,
    ResourceState,
    apply,
    cq_state,
)
from wiretap.entropic import von_neumann_entropy
from wiretap.qcore import (
    DensityOperator,
    ResourceLimitError,
    ValidationError,
    hermitian_trace_norm,
    partial_trace,
)
from wiretap.rates import _CqKernel, _holevo, _signal_labels


def _psd_sqrt(matrix: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(matrix)
    w = np.sqrt(np.clip(w, 0.0, None))
    return (v * w) @ v.conj().T


def fidelity(rho: DensityOperator, sigma: DensityOperator) -> float:
    """Fidelity F = trace-norm of sqrt(rho) sqrt(sigma), in [0, 1]."""
    if rho.space != sigma.space:
        raise ValidationError("fidelity requires states on the same space")
    s = _psd_sqrt(rho.matrix)
    w = np.linalg.eigvalsh(s @ sigma.matrix @ s)
    f = float(np.sum(np.sqrt(np.clip(w, 0.0, None))))
    return min(max(f, 0.0), 1.0)


def channel_action_matrix(ch: QuantumChannel) -> np.ndarray:
    """Superoperator matrix (column-stacking convention); basis for equality checks."""
    return sum(np.kron(k.conj(), k) for k in ch.kraus)


def coherent_information(rho: DensityOperator, bob: Iterable[str] | None = None) -> float:
    """I(A>B) = S(B) - S(AB); may be negative.

    With ``bob=None`` the state must be bipartite and the second factor
    plays the role of B; otherwise ``bob`` names B's factors and the rest
    form A.
    """
    if bob is None:
        if len(rho.space.factors) != 2:
            raise ValidationError(
                f"state has {len(rho.space.factors)} factors; pass bob= for non-bipartite input"
            )
        bob = {rho.space.labels[1]}
    bob = set(bob)
    s_b = von_neumann_entropy(partial_trace(rho, bob))
    s_ab = von_neumann_entropy(rho)
    return s_b - s_ab


def holevo_information(ens: CqEnsemble) -> float:
    """Holevo quantity S(avg) - sum_u q(u) S(rho_u).

    Equals the mutual information across the register cut of the ensemble's
    cq-state; computed here blockwise as an independent code path.
    """
    avg = sum(q * s.matrix for q, s in zip(ens.probs, ens.states))
    s_avg = von_neumann_entropy(DensityOperator(ens.space, avg, validate=False))
    s_members = sum(
        float(q) * von_neumann_entropy(s) for q, s in zip(ens.probs, ens.states) if q > 0
    )
    return s_avg - s_members


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


@dataclass(frozen=True)
class GridOracleSpec:
    """Discretization of the product-member family used for validation.

    Members are pure qubit signals from a polar-angle grid tensored with
    the resource marginal (always feasible); probabilities come from a
    simplex grid with denominator ``prob_points``.
    """

    num_members: int = 2
    theta_points: int = 9
    phi_points: int = 6
    prob_points: int = 8
    cap: int = 10_000_000


def _compositions(total: int, parts: int) -> np.ndarray:
    """Every way to write ``total`` as ``parts`` nonnegative integers, one
    per row, in lexicographic order: stars and bars, each choice of
    parts - 1 bar positions among total + parts - 1 slots is one row."""
    slots = total + parts - 1
    bars = np.array(list(combinations(range(slots), parts - 1)), dtype=int)
    edges = np.pad(
        bars.reshape(len(bars), parts - 1), ((0, 0), (1, 1)), constant_values=((0, 0), (-1, slots))
    )
    return np.diff(edges, axis=1) - 1


def grid_oracle(
    channel: QuantumChannel, res: ResourceState, spec: GridOracleSpec = GridOracleSpec()
) -> float:
    """Exhaustive search over a discretized feasible-ensemble family.

    Only meant to validate the optimizers on tiny instances: signal space
    must be a qubit, and the total number of grid points must stay under
    ``spec.cap`` (refused otherwise, with the size estimate).
    """
    signal_space = channel.input_space
    if signal_space.dim != 2:
        raise ValidationError("grid oracle supports two-dimensional signal spaces only")

    vectors = [np.array([1.0, 0.0]), np.array([0.0, 1.0])] + [
        np.array([np.cos(th / 2), np.exp(1j * ph) * np.sin(th / 2)])
        for th in np.linspace(0.0, np.pi, spec.theta_points)[1:-1]
        for ph in np.linspace(0.0, 2 * np.pi, spec.phi_points, endpoint=False)
    ]

    k = spec.num_members
    n_states = len(vectors)
    n_member_sets = math.comb(n_states + k - 1, k)
    n_prob_vectors = math.comb(spec.prob_points + k - 1, k - 1)
    total = n_member_sets * n_prob_vectors
    if total > spec.cap:
        raise ResourceLimitError(
            f"grid oracle would evaluate {total} points (> cap {spec.cap}); "
            f"shrink the grid or raise the cap"
        )

    # Every grid member is (pure signal) x (resource marginal), so its Bob,
    # Eve and A' marginals are computed once per pool state, the first two by
    # one side-map product each; each member set then costs one batched
    # eigensolve per Holevo term, over all probability vectors at once.
    kernel = _CqKernel(channel, res)
    pool = np.stack([np.kron(np.outer(v, v.conj()), kernel.marginal.matrix) for v in vectors])
    sides = (*kernel.sides(pool), kernel.reference_marginals(pool))

    probs = _compositions(spec.prob_points, k) / spec.prob_points

    best = -np.inf
    for combo in combinations_with_replacement(range(n_states), k):
        i_bb, i_ee, i_ap = (_holevo(x[list(combo)], probs) for x in sides)
        best = max(best, float(np.max(i_bb - np.maximum(i_ee, i_ap))))
    return float(best)
