"""Resource measures of bipartite states: dense coding advantage and
entanglement of purification.

Both are channel optimizations.  The dense coding advantage maximizes the
coherent information extractable by pre-processing the first party's share:

    delta(A > B) = max over CPTP maps M: A -> A~  of  I(A~ > B)

with the output dimension capped.  The entanglement of purification
minimizes, over post-processings T of the purifying system E of rho^{CD},
the entropy of (C, F):

    E_P(C:D) = min over CPTP maps T: E -> F  of  S(CF),

with dim(F) capped; the entropy is taken on the first-argument party
together with F (the standard convention; dim caps make reported values
best-found bounds, not certified optima).  For any pure state on
(A, B, C) the two are linked by delta(A > B) + E_P(C:B) = S(B), which
``duality_residual`` uses to cross-certify the two optimizers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import (
    CqEnsemble,
    QuantumChannel,
    apply,
    constant_channel,
    isometry_channel,
)
from .entropic import holevo_information, von_neumann_entropy
from .optimize import OptimizerConfig, OptResult, optimize_channel_functional
from .qcore import (
    TOL_EQ,
    DensityOperator,
    LabeledSpace,
    ValidationError,
    _fresh_label,
    basis_state,
    partial_trace,
    permute_factors,
    purify,
)

__all__ = [
    "MeasureResult",
    "EpBoundResult",
    "dense_coding_advantage",
    "entanglement_of_purification",
    "duality_residual",
    "ep_ensemble_upper_bound",
]

# ep_ensemble_upper_bound flags a bound this far below E_P of the average.
FLAG_SLACK = 1e-2


@dataclass(frozen=True)
class MeasureResult:
    """Best value found, the channel witnessing it, and the optimizer trace."""

    value: float
    witness_channel: QuantumChannel
    diagnostics: OptResult


@dataclass(frozen=True)
class EpBoundResult:
    """Ensemble upper bound on the regularized entanglement of purification."""

    bound: float
    per_member: tuple[float, ...]
    info_term: float
    ep_average: float
    witness_flag: bool


def _embedding_isometry(d_in: int, d_out: int) -> np.ndarray:
    v = np.zeros((d_out, d_in), dtype=np.complex128)
    for i in range(d_in):
        v[i, i] = 1.0
    return v


def _channel_inits(
    input_space: LabeledSpace, output_space: LabeledSpace
) -> list[QuantumChannel]:
    """Known-good starting points: isometric embedding and constant |0>."""
    inits = []
    if output_space.dim >= input_space.dim:
        inits.append(
            isometry_channel(
                _embedding_isometry(input_space.dim, output_space.dim),
                input_space,
                output_space,
            )
        )
    inits.append(
        constant_channel(input_space, basis_state(output_space, [0] * len(output_space.factors)))
    )
    return inits


def dense_coding_advantage(
    zeta_ab: DensityOperator,
    dim_a_cap: int | None = None,
    cfg: OptimizerConfig = OptimizerConfig(seed=0),
) -> MeasureResult:
    """Maximal coherent information after pre-processing the first share.

    The search runs at output dimension exactly ``dim_a_cap`` (default:
    dim(A)^2); any channel with a smaller output embeds isometrically with
    the same objective, so the cap loses nothing.  The identity embedding
    is one of the starting points, so the result is never below the plain
    coherent information when the cap allows it.
    """
    if len(zeta_ab.space.factors) != 2:
        raise ValidationError("dense_coding_advantage expects a bipartite state")
    alice, bob = zeta_ab.space.labels
    d_a = zeta_ab.space.dim_of(alice)
    cap = dim_a_cap or d_a * d_a
    if cap < 1:
        raise ValidationError("dim_a_cap must be positive")
    out_label = _fresh_label("A", zeta_ab.space.labels)
    in_space = zeta_ab.space.subspace([alice])
    out_space = LabeledSpace.of((out_label, cap))

    def objective(om: QuantumChannel) -> float:
        omega = apply(om, zeta_ab, on=[alice])  # (bob, out)
        s_b = von_neumann_entropy(partial_trace(omega, {bob}))
        return s_b - von_neumann_entropy(omega)

    opt = optimize_channel_functional(
        objective,
        in_space,
        out_space,
        "max",
        cfg,
        inits=_channel_inits(in_space, out_space),
    )
    return MeasureResult(value=opt.best_value, witness_channel=opt.best_channel, diagnostics=opt)


def entanglement_of_purification(
    rho_cd: DensityOperator,
    dim_f_cap: int | None = None,
    cfg: OptimizerConfig = OptimizerConfig(seed=0),
) -> MeasureResult:
    """Best-found upper bound on the entanglement of purification E_P(C:D).

    Purifies ``rho_cd`` canonically (purifier dimension = rank), then
    minimizes S(C, F) over post-processings of the purifier with
    dim(F) = ``dim_f_cap`` (default: the purifier dimension).  Larger caps
    can only lower the value.  This is a non-convex minimization; the
    result is an upper bound witnessed by the returned channel.
    """
    if len(rho_cd.space.factors) != 2:
        raise ValidationError("entanglement_of_purification expects a bipartite state")
    c_label, d_label = rho_cd.space.labels
    e_label = _fresh_label("Epur", rho_cd.space.labels)
    psi = purify(rho_cd, e_label)
    d_e = psi.space.dim_of(e_label)
    cap = dim_f_cap or d_e
    if cap < 1:
        raise ValidationError("dim_f_cap must be positive")
    psi_ce = partial_trace(psi, {c_label, e_label})
    f_label = _fresh_label("F", rho_cd.space.labels)
    in_space = psi.space.subspace([e_label])
    out_space = LabeledSpace.of((f_label, cap))

    def objective(t: QuantumChannel) -> float:
        omega = apply(t, psi_ce, on=[e_label])  # (C, F)
        return von_neumann_entropy(omega)

    opt = optimize_channel_functional(
        objective,
        in_space,
        out_space,
        "min",
        cfg,
        inits=_channel_inits(in_space, out_space),
    )
    return MeasureResult(value=opt.best_value, witness_channel=opt.best_channel, diagnostics=opt)


def duality_residual(
    zeta_pure: DensityOperator,
    caps: tuple[int | None, int | None] = (None, None),
    cfg: OptimizerConfig = OptimizerConfig(seed=0),
) -> float:
    """|delta(A > B) + E_P(C:B) - S(B)| for a pure tripartite state.

    Each term is computed by its own optimizer; a small residual certifies
    both jointly.  The partition is the factor order of ``zeta_pure``.
    """
    if len(zeta_pure.space.factors) != 3:
        raise ValidationError("duality_residual expects a tripartite state")
    if 1.0 - zeta_pure.purity() > TOL_EQ:
        raise ValidationError(
            f"state is not pure (purity deficit {1.0 - zeta_pure.purity():.3e})"
        )
    a, b, c = zeta_pure.space.labels
    zeta_ab = partial_trace(zeta_pure, {a, b})
    delta = dense_coding_advantage(zeta_ab, caps[0], cfg).value
    rho_cb = permute_factors(partial_trace(zeta_pure, {c, b}), [c, b])
    ep = entanglement_of_purification(rho_cb, caps[1], cfg).value
    s_b = von_neumann_entropy(partial_trace(zeta_pure, {b}))
    return abs(delta + ep - s_b)


def ep_ensemble_upper_bound(
    ens: CqEnsemble,
    caps: int | None = None,
    cfg: OptimizerConfig = OptimizerConfig(seed=0),
) -> EpBoundResult:
    """sum_u q(u) E_P(rho_u) + I(U:CD), an upper bound on the regularized E_P.

    Also evaluates E_P of the average state for comparison and flags cases
    where the bound undercuts it by more than ``FLAG_SLACK`` (candidate
    non-additivity witnesses; both sides are best-found values, so the flag
    marks candidates, not certificates).
    """
    per_member = tuple(
        entanglement_of_purification(s, caps, cfg).value for s in ens.states
    )
    info_term = holevo_information(ens)
    bound = float(np.dot(ens.probs, per_member)) + info_term
    ep_average = entanglement_of_purification(ens.average_state(), caps, cfg).value
    return EpBoundResult(
        bound=bound,
        per_member=per_member,
        info_term=info_term,
        ep_average=ep_average,
        witness_flag=bound < ep_average - FLAG_SLACK,
    )
