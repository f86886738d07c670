"""Derivative-free search over signal ensembles and channels.

The search engine is a coordinate random search with shrinking steps and
independent restarts.  Every restart owns a deterministic RNG sub-stream
derived from (seed, restart index), so results are reproducible and adding
restarts can only improve the best value.  Restart 0 (and 1, where
applicable) start from structured candidates -- a discrete-Weyl modulated
reference state for the assisted problem, a computational-basis ensemble
for the unassisted one, identity/constant isometries for channel searches
-- so the optimizer never reports worse than these known-good witnesses.

Ensembles are parametrized by unnormalized purification vectors (every
member state is a partial trace of a unit vector on member x purifier) plus
probability logits, so any real coordinate vector is a valid candidate.
Channels are parametrized by Stinespring isometry coordinates; the polar
projection keeps them CPTP by construction.  Channel objectives score the
(env, d_out, d_in) Kraus stack directly; a ``QuantumChannel`` is built once,
for the returned witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations_with_replacement, product
from typing import Callable, Sequence

import numpy as np

from .channels import CqEnsemble, QuantumChannel, ResourceState
from .qcore import (
    TOL_EQ,
    DensityOperator,
    LabeledSpace,
    ResourceLimitError,
    ValidationError,
    _fresh_label,
    hermitian_trace_norm,
    partial_trace,
)
from .rates import (
    FEASIBILITY_THRESHOLD,
    RateReport,
    _CqKernel,
    _holevo,
    theorem1_rate,
    unassisted_rate,
)

__all__ = [
    "OptimizerConfig",
    "OptResult",
    "TracePoint",
    "OptimizationError",
    "GridOracleSpec",
    "optimize_theorem1",
    "optimize_unassisted",
    "optimize_channel_functional",
    "grid_oracle",
]


# Coordinate-search schedule: the step starts at STEP_INITIAL, shrinks by
# STEP_SHRINK after STEP_PATIENCE consecutive rejected proposals, and a
# search stops once it falls below STEP_MIN.
STEP_INITIAL = 0.5
STEP_SHRINK = 0.5
STEP_PATIENCE = 25
STEP_MIN = 1e-9
# optimize_theorem1's weight on the squared marginal residual, x4 per stage.
PENALTY_WEIGHT = 32.0


class OptimizationError(RuntimeError):
    """Optimization could not deliver a feasible witness; carries diagnostics."""


@dataclass(frozen=True)
class OptimizerConfig:
    """Search sizes and seed of the coordinate random search.

    All four are integers.  ``num_labels_max=None`` resolves to the
    heuristic 2 * dim(signal) * dim(reference copy) at the call site; it
    caps the ensemble size searched over, not any provable sufficiency.
    The step schedule and the penalty are module constants.
    """

    seed: int
    num_labels_max: int | None = None
    restarts: int = 6
    max_iters: int = 1200

    def __post_init__(self) -> None:
        for name in ("seed", "num_labels_max", "restarts", "max_iters"):
            v = getattr(self, name)
            if v is None and name == "num_labels_max":
                continue
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise ValidationError(f"{name} must be an integer, got {v!r}")
        if self.seed < 0:
            raise ValidationError("seed must be a nonnegative integer")
        if self.num_labels_max is not None and self.num_labels_max < 1:
            raise ValidationError("num_labels_max must be positive")
        for name in ("restarts", "max_iters"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be positive")


@dataclass(frozen=True)
class TracePoint:
    restart: int
    iteration: int
    value: float
    residual: float


@dataclass(frozen=True)
class OptResult:
    best_value: float
    best_ensemble: CqEnsemble | None = None
    best_channel: QuantumChannel | None = None
    report: RateReport | None = None
    trace: tuple[TracePoint, ...] = field(default_factory=tuple)


def _coordinate_search(
    x0: np.ndarray,
    objective: Callable[[np.ndarray], float],
    gen: np.random.Generator,
    max_iters: int,
    on_accept: Callable[[int, float], None] | None = None,
) -> tuple[np.ndarray, float]:
    """Greedy single-coordinate random search, maximizing ``objective``."""
    x = x0.copy()
    best = objective(x)
    step = STEP_INITIAL
    stall = 0
    for it in range(max_iters):
        idx = int(gen.integers(len(x)))
        delta = step * float(gen.standard_normal())
        improved = False
        for sign in (1.0, -1.0):
            y = x.copy()
            y[idx] += sign * delta
            val = objective(y)
            if val > best:
                x, best = y, val
                improved = True
                if on_accept is not None:
                    on_accept(it, best)
                break
        if improved:
            stall = 0
        else:
            stall += 1
            if stall >= STEP_PATIENCE:
                step *= STEP_SHRINK
                stall = 0
                if step < STEP_MIN:
                    break
    return x, best


# ---------------------------------------------------------------------------
# Ensemble parametrization
# ---------------------------------------------------------------------------


class _EnsembleParam:
    """Members as partial traces of unit vectors on member x purifier."""

    def __init__(self, member_space: LabeledSpace, k: int) -> None:
        self.space = member_space
        self.d = member_space.dim
        self.k = k
        self.block = 2 * self.d * self.d  # real coords of one purification vector
        self.size = k * self.block + k  # plus one logit per member

    def arrays(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Stacked (k, d, d) member matrices and the probability vector."""
        dd = self.d * self.d
        blk = x[: self.k * self.block].reshape(self.k, 2, dd)
        v = blk[:, 0] + 1j * blk[:, 1]
        norm = np.linalg.norm(v, axis=1)
        small = norm < 1e-12
        v[small] = np.eye(1, dd)  # a vanishing block stands for |0><0|
        norm[small] = 1.0
        m = (v / norm[:, None]).reshape(self.k, self.d, self.d)
        logits = x[self.k * self.block :]
        z = np.exp(logits - logits.max())
        return m @ m.conj().transpose(0, 2, 1), z / z.sum()

    def unpack(self, x: np.ndarray) -> CqEnsemble:
        members, probs = self.arrays(x)
        states = [DensityOperator(self.space, m, validate=False) for m in members]
        return CqEnsemble(list(range(self.k)), probs, states)

    def pack(self, ens: CqEnsemble) -> np.ndarray:
        if len(ens) > self.k or ens.space.dim != self.d:
            raise ValidationError("ensemble does not fit this parametrization")
        x = np.zeros(self.size)
        probs = np.full(self.k, 1e-9)
        for u in range(self.k):
            if u < len(ens):
                w, v = np.linalg.eigh(ens.states[u].matrix)
                m = v * np.sqrt(np.clip(w, 0.0, None))
                probs[u] = max(float(ens.probs[u]), 1e-12)
            else:
                m = np.zeros((self.d, self.d))
                m[0, 0] = 1.0
            vec = m.reshape(-1)
            x[u * self.block : u * self.block + self.d * self.d] = vec.real
            x[u * self.block + self.d * self.d : (u + 1) * self.block] = vec.imag
        x[self.k * self.block :] = np.log(probs)
        return x

    def random(self, gen: np.random.Generator) -> np.ndarray:
        return gen.standard_normal(self.size)


def _discrete_weyl(dim: int) -> list[np.ndarray]:
    """The dim^2 shift/phase unitaries X^a Z^b."""
    omega = np.exp(2j * np.pi / dim)
    shift = np.zeros((dim, dim), dtype=np.complex128)
    for j in range(dim):
        shift[(j + 1) % dim, j] = 1.0
    phase = np.diag(omega ** np.arange(dim))
    out = []
    for a in range(dim):
        for b in range(dim):
            out.append(np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(phase, b))
    return out


def _weyl_modulated_init(
    member_space: LabeledSpace, res: ResourceState, k: int
) -> CqEnsemble | None:
    """Reference state modulated by discrete-Weyl unitaries; feasible by construction."""
    r = res.phi0.space.dim_of(res.aux_label)
    d_sig = member_space.dim // res.phi0.space.dim_of(res.aux_label)
    if d_sig != r or k < 1:
        return None
    unitaries = _discrete_weyl(r)[: min(k, r * r)]
    members = []
    eye_aux = np.eye(r)
    for u in unitaries:
        big = np.kron(u, eye_aux)
        members.append(
            DensityOperator(member_space, big @ res.phi0.matrix @ big.conj().T, validate=False)
        )
    n = len(members)
    return CqEnsemble(list(range(n)), [1.0 / n] * n, members)


def _product_basis_init(
    member_space: LabeledSpace, marginal: DensityOperator, d_sig: int, k: int
) -> CqEnsemble:
    """Computational-basis signals tensored with the resource marginal."""
    n = min(k, d_sig)
    members = [
        DensityOperator(member_space, np.kron(np.diag(e), marginal.matrix), validate=False)
        for e in np.eye(d_sig)[:n]
    ]
    return CqEnsemble(list(range(n)), [1.0 / n] * n, members)


def _project_to_feasible(
    ens: CqEnsemble,
    res: ResourceState,
    signal_space: LabeledSpace,
    marginal: DensityOperator | None = None,
) -> CqEnsemble:
    """Exact average-marginal repair by mixing in one corrective member.

    Finds the smallest mixing weight t such that (target - (1-t) achieved)/t
    is a state, and appends (maximally mixed signal) x that state.  The
    repaired average marginal matches the target up to matmul noise.
    ``marginal`` is the resource's A' marginal, read from ``res`` if omitted.
    """
    if marginal is None:
        marginal = res.zeta_marginal
    target, aux = marginal.matrix, res.aux_label
    avg = sum(q * partial_trace(s, {aux}).matrix for q, s in zip(ens.probs, ens.states))
    diff = target - avg
    resid = hermitian_trace_norm(diff)
    if resid <= 1e-12:
        return ens

    def min_eig(t: float) -> float:
        return float(np.linalg.eigvalsh(avg + diff / t)[0])

    margin = 1e-14
    hi = 1.0
    lo = min(1.0, resid / 4.0)
    while lo > 1e-12 and min_eig(lo) >= margin:
        hi = lo
        lo /= 2.0
    if min_eig(hi) < margin:
        hi = 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if min_eig(mid) >= margin:
            hi = mid
        else:
            lo = mid
    t = hi
    # Dividing by a small t magnifies the trace's rounding error; renormalize.
    corr = avg + diff / t
    mixed = np.eye(signal_space.dim) / signal_space.dim
    member = DensityOperator(ens.space, np.kron(mixed, corr / np.trace(corr).real), validate=False)
    labels = list(ens.labels) + [_fresh_label("repair", ens.labels)]
    probs = list((1.0 - t) * ens.probs) + [t]
    states = list(ens.states) + [member]
    return CqEnsemble(labels, probs, states)


# ---------------------------------------------------------------------------
# Ensemble optimizers
# ---------------------------------------------------------------------------


def optimize_theorem1(
    channel: QuantumChannel, res: ResourceState, cfg: OptimizerConfig
) -> OptResult:
    """Maximize the average-constrained side-information rate over ensembles.

    Each restart runs a penalty continuation (quadratic penalty on the
    trace-norm marginal residual, weight PENALTY_WEIGHT x4 per stage, three
    stages of max_iters // 3 iterations), then applies the
    exact projection and scores the projected ensemble with the true rate.
    A restart that began at a structured start keeps that start if it
    scores higher.  The returned value is always the re-evaluated rate of
    the returned (feasible) witness.
    """
    r_aux = res.phi0.space.dim_of(res.aux_label)
    signal_space = channel.input_space
    member_space = signal_space.tensor(LabeledSpace.of((res.aux_label, r_aux)))
    k = cfg.num_labels_max or 2 * signal_space.dim * r_aux
    param = _EnsembleParam(member_space, k)
    kernel = _CqKernel(channel, res)

    weyl = _weyl_modulated_init(member_space, res, k)
    starts = ([weyl] if weyl is not None else []) + [
        _product_basis_init(member_space, kernel.marginal, signal_space.dim, k)
    ]

    trace: list[TracePoint] = []
    best_ens: CqEnsemble | None = None
    best_rep: RateReport | None = None

    for restart in range(cfg.restarts):
        gen = np.random.default_rng([cfg.seed, restart])
        x = param.pack(starts[restart]) if restart < len(starts) else param.random(gen)
        iters_per_stage = max(1, cfg.max_iters // 3)
        offset = 0
        for stage in range(3):
            weight = PENALTY_WEIGHT * (4.0**stage)
            last_eval: list[tuple[float, float]] = [(0.0, 0.0)]

            def objective(xv: np.ndarray) -> float:
                members, probs = param.arrays(xv)
                i_bb, i_ee = kernel.bob_eve(kernel.pushforward(members), probs)
                i_ap, residual = kernel.reference_terms(members, probs)
                rate = i_bb - max(i_ee, i_ap)
                last_eval[0] = (rate, residual)
                return rate - weight * residual**2

            def on_accept(it: int, _val: float, _off=offset, _last=last_eval) -> None:
                trace.append(TracePoint(restart, _off + it, _last[0][0], _last[0][1]))

            x, _ = _coordinate_search(x, objective, gen, iters_per_stage, on_accept)
            offset += iters_per_stage

        ens = _project_to_feasible(param.unpack(x), res, signal_space, kernel.marginal)
        rep = theorem1_rate(ens, channel, res)
        if restart < len(starts):
            # The penalty trades residual for rate and projection takes the
            # rate back: never give up a structured start for a worse witness.
            start_rep = theorem1_rate(starts[restart], channel, res)
            if start_rep.rate > rep.rate:
                ens, rep = starts[restart], start_rep
        trace.append(TracePoint(restart, offset, rep.rate, rep.constraint_residual))
        if rep.constraint_residual > FEASIBILITY_THRESHOLD:
            raise OptimizationError(
                f"projection left residual {rep.constraint_residual:.3e} > "
                f"{FEASIBILITY_THRESHOLD} at restart {restart}"
            )
        if best_rep is None or rep.rate > best_rep.rate:
            best_ens, best_rep = ens, rep

    assert best_ens is not None and best_rep is not None
    return OptResult(
        best_value=best_rep.rate,
        best_ensemble=best_ens,
        report=best_rep,
        trace=tuple(trace),
    )


def optimize_unassisted(channel: QuantumChannel, cfg: OptimizerConfig) -> OptResult:
    """Maximize the plain single-letter wiretap rate over input ensembles."""
    signal_space = channel.input_space
    k = cfg.num_labels_max or 2 * signal_space.dim
    param = _EnsembleParam(signal_space, k)

    n = min(k, signal_space.dim)
    basis = [
        DensityOperator(signal_space, np.diag(e), validate=False)
        for e in np.eye(signal_space.dim)[:n]
    ]
    init0 = param.pack(CqEnsemble(list(range(n)), [1.0 / n] * n, basis))

    kernel = _CqKernel(channel)
    trace: list[TracePoint] = []
    best_ens: CqEnsemble | None = None
    best_rep: RateReport | None = None

    def objective(xv: np.ndarray) -> float:
        members, probs = param.arrays(xv)
        i_b, i_e = kernel.bob_eve(kernel.pushforward(members), probs)
        return i_b - i_e

    for restart in range(cfg.restarts):
        gen = np.random.default_rng([cfg.seed, restart])
        x = init0.copy() if restart == 0 else param.random(gen)
        x, val = _coordinate_search(
            x,
            objective,
            gen,
            cfg.max_iters,
            on_accept=lambda it, v, _r=restart: trace.append(TracePoint(_r, it, v, 0.0)),
        )
        ens = param.unpack(x)
        rep = unassisted_rate(ens, channel)
        if best_rep is None or rep.rate > best_rep.rate:
            best_ens, best_rep = ens, rep

    assert best_ens is not None and best_rep is not None
    return OptResult(
        best_value=best_rep.rate,
        best_ensemble=best_ens,
        report=best_rep,
        trace=tuple(trace),
    )


# ---------------------------------------------------------------------------
# Channel-space optimizer
# ---------------------------------------------------------------------------


class _StinespringParam:
    """Channels as polar projections of complex (d_out * env, d_in) matrices."""

    def __init__(self, input_space: LabeledSpace, output_space: LabeledSpace, env_dim: int):
        self.input_space = input_space
        self.output_space = output_space
        self.d_in = input_space.dim
        self.d_out = output_space.dim
        self.env = env_dim
        self.rows = self.d_out * self.env
        if self.rows < self.d_in:
            raise ValidationError(
                f"environment dimension {env_dim} too small for an isometry "
                f"({self.rows} rows < {self.d_in} columns)"
            )
        self.size = 2 * self.rows * self.d_in

    def kraus(self, x: np.ndarray) -> np.ndarray:
        """The polar isometry of ``x`` as an (env, d_out, d_in) Kraus stack."""
        half = self.rows * self.d_in
        v = (x[:half] + 1j * x[half:]).reshape(self.rows, self.d_in)
        u, _, vh = np.linalg.svd(v, full_matrices=False)
        return (u @ vh).reshape(self.env, self.d_out, self.d_in)

    def unpack(self, x: np.ndarray) -> QuantumChannel:
        kraus = list(self.kraus(x))
        return QuantumChannel(self.input_space, self.output_space, kraus, tp_tol=TOL_EQ)

    def pack(self, ch: QuantumChannel) -> np.ndarray:
        if len(ch.kraus) > self.env:
            raise ValidationError(f"channel has {len(ch.kraus)} Kraus operators > env {self.env}")
        v = np.zeros((self.rows, self.d_in), dtype=np.complex128)
        for e, kr in enumerate(ch.kraus):
            v[e * self.d_out : (e + 1) * self.d_out, :] = kr
        x = np.zeros(self.size)
        x[: self.rows * self.d_in] = v.real.reshape(-1)
        x[self.rows * self.d_in :] = v.imag.reshape(-1)
        return x

    def random(self, gen: np.random.Generator) -> np.ndarray:
        return gen.standard_normal(self.size)


def _env_ladder(full: int) -> list[int]:
    ladder = []
    e = 1
    while e < full:
        ladder.append(e)
        e *= 2
    ladder.append(full)
    return ladder


def optimize_channel_functional(
    objective: Callable[[np.ndarray], float],
    input_space: LabeledSpace,
    output_space: LabeledSpace,
    sense: str,
    cfg: OptimizerConfig,
    inits: Sequence[QuantumChannel] = (),
) -> OptResult:
    """Optimize a scalar functional over CPTP maps of a fixed signature.

    ``objective`` takes a channel as an (env, d_out, d_in) stack of Kraus
    operators.  Stinespring coordinates guarantee feasibility: every
    parameter vector maps to a valid Kraus stack, and the returned witness
    is built as a ``QuantumChannel`` (trace preservation checked) once, at
    the end.  ``inits`` seed the first restarts at the full
    environment dimension; the remaining restarts cycle through a ladder of
    smaller environments (Kraus-rank caps), which explore far better while
    staying inside the same channel family.  A final polish pass re-runs
    the search from the incumbent.
    """
    if sense not in ("max", "min"):
        raise ValidationError(f"sense must be 'max' or 'min', got {sense!r}")
    sign = 1.0 if sense == "max" else -1.0
    full_env = input_space.dim * output_space.dim
    ladder = [e for e in _env_ladder(full_env) if e * output_space.dim >= input_space.dim]
    params = {e: _StinespringParam(input_space, output_space, e) for e in ladder}
    full_param = params[full_env]

    packed_inits = []
    for ch in inits:
        if len(ch.kraus) <= full_param.env:
            packed_inits.append(full_param.pack(ch))
    trace: list[TracePoint] = []
    best: tuple[float, int] | None = None
    best_x: np.ndarray | None = None
    best_param: _StinespringParam | None = None

    def make_objective(param: _StinespringParam) -> Callable[[np.ndarray], float]:
        def signed(xv: np.ndarray) -> float:
            return sign * objective(param.kraus(xv))

        return signed

    for restart in range(cfg.restarts):
        gen = np.random.default_rng([cfg.seed, restart])
        if restart < len(packed_inits):
            param = full_param
            x = packed_inits[restart].copy()
        else:
            param = params[ladder[(restart - len(packed_inits)) % len(ladder)]]
            x = param.random(gen)
        x, val = _coordinate_search(
            x,
            make_objective(param),
            gen,
            cfg.max_iters,
            on_accept=lambda it, v, _r=restart: trace.append(TracePoint(_r, it, sign * v, 0.0)),
        )
        if best is None or val > best[0]:
            best = (val, restart)
            best_x, best_param = x, param

    assert best is not None and best_x is not None and best_param is not None
    gen = np.random.default_rng([cfg.seed, cfg.restarts])
    best_x, val = _coordinate_search(
        best_x,
        make_objective(best_param),
        gen,
        cfg.max_iters,
        on_accept=lambda it, v: trace.append(TracePoint(cfg.restarts, it, sign * v, 0.0)),
    )
    best_ch = best_param.unpack(best_x)
    value = sign * val
    return OptResult(best_value=value, best_channel=best_ch, trace=tuple(trace))


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------


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

    # Every grid member is (pure signal) x (resource marginal), so the
    # pushforward and the marginals are computed once per pool state; each
    # member set then costs one batched eigensolve per Holevo term, over all
    # probability vectors at once.
    kernel = _CqKernel(channel, res)
    pool = np.stack([np.kron(np.outer(v, v.conj()), kernel.marginal.matrix) for v in vectors])
    sides = (*kernel.marginals(kernel.pushforward(pool)), kernel.reference_marginals(pool))

    probs = np.array(
        [c for c in product(range(spec.prob_points + 1), repeat=k) if sum(c) == spec.prob_points],
        dtype=float,
    ) / spec.prob_points

    best = -np.inf
    for combo in combinations_with_replacement(range(n_states), k):
        i_bb, i_ee, i_ap = (_holevo(x[list(combo)], probs) for x in sides)
        best = max(best, float(np.max(i_bb - np.maximum(i_ee, i_ap))))
    return float(best)
