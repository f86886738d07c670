"""Resource measures of bipartite states: dense coding advantage and
entanglement of purification.

Both are one channel search: minimize the output entropy S(pass, out)
over CPTP maps on one share of a bipartite state (``_min_output_entropy``).
The dense coding advantage is the coherent information extractable by
pre-processing the first party's share; a channel on A leaves S(B) alone,
so

    delta(A > B) = max over M: A -> A~  of  I(A~ > B) = S(B) - min_M S(B A~)

with the output dimension capped.  The entanglement of purification
minimizes, over post-processings T of the purifying system E of rho^{CD},
the entropy of (C, F):

    E_P(C:D) = min over CPTP maps T: E -> F  of  S(CF),

with dim(F) capped; the entropy is taken on the first-argument party
together with F (the standard convention; dim caps make reported values
best-found bounds, not certified optima).  For any pure state on
(A, B, C) the two are linked by delta(A > B) + E_P(C:B) = S(B), which
``duality_residual`` uses to cross-certify the two searches.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .entropic import _entropies, von_neumann_entropy
from .optimize import OptimizerConfig, OptResult, _lockstep_width, optimize_channel_functional
from .qcore import (
    TOL_EQ,
    DensityOperator,
    LabeledSpace,
    ValidationError,
    _fresh_label,
    _integer,
    partial_trace,
    permute_factors,
    purify,
    support_eigh,
)

__all__ = [
    "dense_coding_advantage",
    "entanglement_of_purification",
    "duality_residual",
]


class _ChannelKernel:
    """Maps (..., env, d_out, d_in) Kraus stacks on one factor of a
    bipartite state to the output states on (passthrough, output) and their
    entropies.

    The twin of ``rates._CqKernel`` for the channel searches.  The state is
    factored once as rho = R R^dagger on its support (``support_eigh``),
    with R held as an (in, pass * rank) matrix.  A stack of candidates then
    costs one matmul y = K R, a transpose of y into Z on (pass * out,
    env * rank), one more matmul for the smaller of omega = Z Z^dagger and
    Z^dagger Z, and one batched eigensolve.  It keeps no state between calls.
    """

    def __init__(self, rho: DensityOperator, on: str) -> None:
        (pass_label,) = [lab for lab in rho.space.labels if lab != on]
        self.d_pass, self.d_in = rho.space.dim_of(pass_label), rho.space.dim_of(on)
        w, v = support_eigh(permute_factors(rho, [pass_label, on]).matrix)
        self.rank = len(w)
        r = (v * np.sqrt(w)).reshape(self.d_pass, self.d_in, self.rank)
        self.factor = r.transpose(1, 0, 2).reshape(self.d_in, self.d_pass * self.rank)

    def search_bytes(self, d_out: int) -> int:
        """Estimated peak bytes of one scored pair of candidates on the top
        rung, env = d_in: per candidate, four complex (rows, in) arrays of the
        Stinespring step, y, Z and its adjoint on (rows, pass * rank), and the
        smaller Gram matrix with its eigensolver copy."""
        rows, side = d_out * self.d_in, min(self.d_pass * d_out, self.d_in * self.rank)
        return 2 * 16 * (rows * (4 * self.d_in + 3 * self.d_pass * self.rank) + 2 * side**2)

    def _z(self, kraus: np.ndarray) -> np.ndarray:
        """Z on (..., pass * out, env * rank), with omega = Z Z^dagger."""
        *lead, env, d_out, d_in = kraus.shape
        y = kraus.reshape(*lead, env * d_out, d_in) @ self.factor
        z = y.reshape(*lead, env, d_out, self.d_pass, self.rank).swapaxes(-4, -2)
        return z.reshape(*lead, self.d_pass * d_out, env * self.rank)

    def entropy(self, kraus: np.ndarray) -> np.ndarray:
        """Entropies in bits of the outputs, of shape (...), from the smaller Gram side."""
        z = self._z(kraus)
        zh = z.conj().swapaxes(-1, -2)
        return _entropies(z @ zh if z.shape[-2] <= z.shape[-1] else zh @ z)


def _channel_inits(d_in: int, d_out: int) -> list[np.ndarray]:
    """Known-good starting Kraus stacks: the isometric embedding (when
    d_out >= d_in) and the constant |0> channel, K_a = |0><a|."""
    const = np.zeros((d_in, d_out, d_in), dtype=np.complex128)
    const[np.arange(d_in), 0, np.arange(d_in)] = 1.0
    embed = [np.eye(d_out, d_in, dtype=np.complex128)[None]] if d_out >= d_in else []
    return embed + [const]


def _min_output_entropy(
    rho: DensityOperator,
    on: str,
    out_label: str,
    cap: int,
    cfg: OptimizerConfig,
    cap_name: str,
    what: str,
) -> OptResult:
    """Minimize S(pass, out) over channels from factor ``on`` of the
    bipartite ``rho`` to ``(out_label, cap)``.  The one channel search of
    both measures; ``cap_name`` and ``what`` word its refusals."""
    cap = _integer(cap, cap_name, 1)
    kernel = _ChannelKernel(rho, on)
    # Checked before any start is built, each row counted as a top-rung pair.
    pair = kernel.search_bytes(cap)
    width = _lockstep_width(pair, cfg, f"the {what} search at {cap_name} {cap}")
    return optimize_channel_functional(
        kernel.entropy,
        rho.space.subspace([on]),
        LabeledSpace.of((out_label, cap)),
        cfg,
        inits=_channel_inits(kernel.d_in, cap),
        width=width,
    )


def dense_coding_advantage(
    zeta_ab: DensityOperator,
    dim_a_cap: int | None = None,
    cfg: OptimizerConfig = OptimizerConfig(seed=0),
) -> OptResult:
    """Maximal coherent information after pre-processing the first share.

    A channel on Alice's share leaves Bob's marginal, hence S(B), unchanged,
    so delta(A > B) = S(B) - min S(BA~).  The search runs at output
    dimension exactly ``dim_a_cap`` (default: dim(A)^2); any channel with a
    smaller output embeds isometrically with the same objective, so the cap
    loses nothing.  The identity embedding is one of the starting points, so
    the result is never below the plain coherent information when the cap
    allows it.  The search's ``OptResult`` carries the value as
    ``best_value`` and the witness as ``best_channel``; its trace holds the
    searched entropies S(BA~), not values of delta.
    """
    if len(zeta_ab.space.factors) != 2:
        raise ValidationError("dense_coding_advantage expects a bipartite state")
    alice, bob = zeta_ab.space.labels
    d_a = zeta_ab.space.dim_of(alice)
    cap = d_a * d_a if dim_a_cap is None else dim_a_cap
    out_label = _fresh_label("A", zeta_ab.space.labels)
    out = _min_output_entropy(zeta_ab, alice, out_label, cap, cfg, "dim_a_cap", "dense-coding")
    s_b = von_neumann_entropy(partial_trace(zeta_ab, {bob}))
    return replace(out, best_value=s_b - out.best_value)


def entanglement_of_purification(
    rho_cd: DensityOperator,
    dim_f_cap: int | None = None,
    cfg: OptimizerConfig = OptimizerConfig(seed=0),
) -> OptResult:
    """Best-found upper bound on the entanglement of purification E_P(C:D).

    Purifies ``rho_cd`` canonically (purifier dimension = rank), then
    minimizes S(C, F) over post-processings of the purifier with
    dim(F) = ``dim_f_cap`` (default: the purifier dimension).  Larger caps
    lower the true minimum, but this non-convex search can do worse at them
    (``docs/decisions.md``); the result's ``best_value`` is an upper bound
    witnessed by its ``best_channel``.
    """
    if len(rho_cd.space.factors) != 2:
        raise ValidationError("entanglement_of_purification expects a bipartite state")
    c_label, _ = rho_cd.space.labels
    e_label = _fresh_label("Epur", rho_cd.space.labels)
    psi = purify(rho_cd, e_label)
    cap = psi.space.dim_of(e_label) if dim_f_cap is None else dim_f_cap
    f_label = _fresh_label("F", rho_cd.space.labels)
    psi_ce = partial_trace(psi, {c_label, e_label})
    return _min_output_entropy(psi_ce, e_label, f_label, cap, cfg, "dim_f_cap", "E_P")


def _tripartite_split(zeta: DensityOperator) -> tuple[DensityOperator, DensityOperator, float]:
    """(zeta_AB, rho_CB, S(B)) of a state on (A, B, C): the arguments of
    delta(A > B) and E_P(C:B), and the entropy that their sum meets."""
    a, b, c = zeta.space.labels
    rho_cb = permute_factors(partial_trace(zeta, {c, b}), [c, b])
    return partial_trace(zeta, {a, b}), rho_cb, von_neumann_entropy(partial_trace(zeta, {b}))


def duality_residual(
    zeta_pure: DensityOperator, cfg: OptimizerConfig = OptimizerConfig(seed=0)
) -> float:
    """|delta(A > B) + E_P(C:B) - S(B)| for a pure tripartite state.

    Each term is computed by its own optimizer; a small residual certifies
    both jointly.  The partition is the factor order of ``zeta_pure``.
    """
    if len(zeta_pure.space.factors) != 3:
        raise ValidationError("duality_residual expects a tripartite state")
    if not 1.0 - zeta_pure.purity() <= TOL_EQ:
        raise ValidationError(
            f"state is not pure (purity deficit {1.0 - zeta_pure.purity():.3e})"
        )
    zeta_ab, rho_cb, s_b = _tripartite_split(zeta_pure)
    delta = dense_coding_advantage(zeta_ab, cfg=cfg).best_value
    ep = entanglement_of_purification(rho_cb, cfg=cfg).best_value
    return abs(delta + ep - s_b)
