"""Derivative-free search over signal ensembles and channels.

Every search runs one driver, ``_restarts``, which maximizes a score of an
(env, d_out, d_in) Kraus stack.  Candidates are Stinespring coordinates:
the polar projection of a complex (d_out * env, d_in) matrix is an
isometry, so every point is a CPTP map.  Each restart is a coordinate
random search with shrinking steps on its own RNG stream (seed, restart
index), so results are reproducible and adding restarts can only improve
the best value.  The first restarts begin at structured Kraus stacks on
the largest environment, so a search never reports worse than these
known-good witnesses; the rest begin at random points and cycle through a
ladder of environment sizes (Kraus-rank caps).  Restarts run in lockstep,
one objective call per iteration for a stack of them on the largest rung in
use, a lower rung's restarts padded with zero Kraus operators (``_restarts``).

Channel searches stop at env = d_in, which holds every extreme channel,
start from the identity and constant channels, polish the incumbent and
build one ``QuantumChannel``, the witness, at the end.  Ensemble searches
score instruments from Alice's share to (U, signal) applied to the
purification phi0 of her marginal: q_u eta_u = (N_u x id) phi0, one product
K psi per Kraus operator K with phi0's amplitude matrix psi
(``rates._instrument``), starting from a discrete-Weyl modulation of phi0
and a computational-basis ensemble.  By channel-state duality these are
exactly the ensembles whose average A' marginal is the resource's, so the
ensemble searches need neither a penalty nor a repair step.  The unassisted
search is the same search on the empty resource, ``trivial_resource()``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations, combinations_with_replacement
from typing import Callable, Sequence

import numpy as np

from .channels import AUX_LABEL, CqEnsemble, QuantumChannel, ResourceState, trivial_resource
from .qcore import (
    MAX_WORKING_BYTES,
    TOL_EQ,
    DensityOperator,
    LabeledSpace,
    ResourceLimitError,
    ValidationError,
    check_working_bytes,
)
from .rates import (
    FEASIBILITY_THRESHOLD,
    RateReport,
    _CqKernel,
    _holevo,
    _instrument,
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


class OptimizationError(RuntimeError):
    """Optimization could not deliver a feasible witness; carries diagnostics."""


@dataclass(frozen=True)
class OptimizerConfig:
    """Search sizes and seed of the coordinate random search.

    All four are integers.  ``num_labels_max=None`` resolves to the
    heuristic 2 * dim(signal) * dim(reference copy) at the call site; it
    caps the number of instrument outcomes (ensemble members) searched
    over, not any provable sufficiency.  The step schedule is a module
    constant.
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


@dataclass(frozen=True)
class OptResult:
    best_value: float
    best_ensemble: CqEnsemble | None = None
    best_channel: QuantumChannel | None = None
    report: RateReport | None = None
    trace: tuple[TracePoint, ...] = field(default_factory=tuple)


def _coordinate_search(
    x0: np.ndarray,
    objective: Callable[[np.ndarray], np.ndarray],
    gens: Sequence[np.random.Generator],
    max_iters: int,
    on_accept: Callable[[int, int, float], None],
    coords: Sequence[Sequence[int]] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Greedy single-coordinate random search, maximizing ``objective`` from
    each row of the (g, n) stack ``x0``; the rows run in lockstep.

    ``objective`` scores an (..., n) stack of points as values of shape
    (...).  Each iteration, every live row r draws a coordinate i of
    ``coords[r]`` (default: all n), then a step delta, from ``gens[r]``, and
    one call scores x_r +- delta e_i of all live rows as a (g_live, 2, n)
    stack.  Each row takes its + step if it improves, else its - step if
    that improves, and leaves the stack once its step falls below STEP_MIN:
    it runs exactly as it would alone.  ``on_accept(r, iteration, value)``
    sees every accepted step.  Returns the final points and their values.
    """
    x = x0.copy()
    best = objective(x).tolist()
    step, stall, live = [STEP_INITIAL] * len(x), [0] * len(x), list(range(len(x)))
    coords = coords or [range(x.shape[1])] * len(x)
    for it in range(max_iters):
        pairs = x.take(live, axis=0)[:, None].repeat(2, axis=1)
        for j, r in enumerate(live):
            idx = int(coords[r][gens[r].integers(len(coords[r]))])
            delta = step[r] * float(gens[r].standard_normal())
            pairs[j, 0, idx] += delta
            pairs[j, 1, idx] += -delta
        vals = objective(pairs).tolist()
        for j, (r, (plus, minus)) in enumerate(zip(live, vals)):
            if plus > best[r] or minus > best[r]:
                sign = 0 if plus > best[r] else 1
                x[r], best[r], stall[r] = pairs[j, sign], vals[j][sign], 0
                on_accept(r, it, best[r])
            else:
                stall[r] += 1
                if stall[r] >= STEP_PATIENCE:
                    step[r], stall[r] = step[r] * STEP_SHRINK, 0
        live = [r for r in live if step[r] >= STEP_MIN]
        if not live:
            break
    return x, np.array(best)


# ---------------------------------------------------------------------------
# Stinespring coordinates and the restart driver
# ---------------------------------------------------------------------------


class _StinespringParam:
    """Channels as polar projections of complex (d_out * env, d_in) matrices."""

    def __init__(self, d_in: int, d_out: int, env: int):
        self.d_in, self.d_out, self.env = d_in, d_out, env
        self.rows = d_out * env
        self.size = 2 * self.rows * d_in

    def kraus(self, x: np.ndarray) -> np.ndarray:
        """The polar isometry of each (..., size) point, as (..., env, d_out, d_in) Kraus stacks."""
        half, lead = self.rows * self.d_in, x.shape[:-1]
        v = (x[..., :half] + 1j * x[..., half:]).reshape(*lead, self.rows, self.d_in)
        u, _, vh = np.linalg.svd(v, full_matrices=False)
        return (u @ vh).reshape(*lead, self.env, self.d_out, self.d_in)

    def pack(self, kraus: np.ndarray) -> np.ndarray:
        """Coordinates of an (n, d_out, d_in) Kraus stack, zero-padded to env."""
        if len(kraus) > self.env or kraus.shape[1:] != (self.d_out, self.d_in):
            want = (self.env, self.d_out, self.d_in)
            raise ValidationError(f"Kraus stack of shape {kraus.shape} does not fit {want}")
        v = np.zeros((self.env, self.d_out, self.d_in), dtype=np.complex128)
        v[: len(kraus)] = kraus
        return np.concatenate([v.real.reshape(-1), v.imag.reshape(-1)])

    def random(self, gen: np.random.Generator) -> np.ndarray:
        return gen.standard_normal(self.size)

    def within(self, host: _StinespringParam) -> np.ndarray:
        """These coordinates' indices among those of ``host``, a larger rung."""
        return np.r_[: self.size // 2, host.size // 2 : (host.size + self.size) // 2]


def _env_ladder(d_in: int, d_out: int) -> list[int]:
    """Environments 1, 2, 4, ... below d_in, then d_in (the largest Kraus rank of
    an extreme channel), keeping those with room for an isometry (env * d_out >= d_in)."""
    ladder = [2**i for i in range(d_in.bit_length()) if 2**i < d_in] + [d_in]
    return [e for e in ladder if e * d_out >= d_in]


def _rungs(cfg: OptimizerConfig, n_starts: int, n_rungs: int) -> list[int]:
    """Ladder index of each restart: the top rung while starts remain, then
    cycling from the bottom."""
    return [n_rungs - 1 if i < n_starts else (i - n_starts) % n_rungs for i in range(cfg.restarts)]


def _lockstep_width(pair_bytes: int, cfg: OptimizerConfig, what: str) -> int:
    """Most restarts scored per objective call: all, capped at the pairs of
    ``pair_bytes`` each that fit MAX_WORKING_BYTES, and at least one.  A
    search whose single pair exceeds the limit is refused as ``what``."""
    width = max(1, min(cfg.restarts, MAX_WORKING_BYTES // pair_bytes))
    check_working_bytes(width * pair_bytes, what)
    return width


def _restarts(
    score: Callable[[np.ndarray], np.ndarray],
    starts: Sequence[np.ndarray],
    ladder: Sequence[_StinespringParam],
    cfg: OptimizerConfig,
    trace: list[TracePoint],
    width: int,
) -> tuple[_StinespringParam, np.ndarray]:
    """Maximize ``score`` of a Kraus stack; return the best (param, x).

    ``score`` maps an (..., env, d_out, d_in) array of Kraus stacks to
    values of shape (...).  Restart i draws on the RNG stream (seed, i).
    It begins at the Kraus stack ``starts[i]`` on ``ladder[-1]`` while
    starts remain, and otherwise at a random point, cycling through
    ``ladder``.  Restarts run in lockstep, ``width`` at a time in restart
    order.  A chunk is built as it begins and scored on the largest rung
    any restart is on, a smaller rung's row stepping only in its own
    coordinates (``within``).  Ties go to the lowest restart; x comes back
    on the winner's rung.  ``trace`` gets every accepted step, by restart.
    """
    rungs, rows, best = _rungs(cfg, len(starts), len(ladder)), [], None
    host = ladder[max(rungs)]
    for chunk in (range(cfg.restarts)[c : c + width] for c in range(0, cfg.restarts, width)):
        gens = [np.random.default_rng([cfg.seed, i]) for i in chunk]
        coords = [ladder[rungs[i]].within(host) for i in chunk]
        x0 = np.zeros((len(chunk), host.size))
        for r, i in enumerate(chunk):
            own = ladder[rungs[i]]
            x0[r, coords[r]] = own.pack(starts[i]) if i < len(starts) else own.random(gens[r])
        x, vals = _coordinate_search(
            x0,
            lambda xv: score(host.kraus(xv)),
            gens,
            cfg.max_iters,
            on_accept=lambda r, it, v: rows.append(TracePoint(chunk[r], it, v)),
            coords=coords,
        )
        for r, i in enumerate(chunk):
            if best is None or vals[r] > best[0]:
                best = (vals[r], ladder[rungs[i]], x[r, coords[r]])
    trace.extend(sorted(rows, key=lambda p: p.restart))
    return best[1], best[2]


# ---------------------------------------------------------------------------
# Channel-space optimizer
# ---------------------------------------------------------------------------


def optimize_channel_functional(
    objective: Callable[[np.ndarray], np.ndarray],
    input_space: LabeledSpace,
    output_space: LabeledSpace,
    cfg: OptimizerConfig,
    inits: Sequence[np.ndarray] = (),
    width: int | None = None,
) -> OptResult:
    """Minimize a real functional over CPTP maps of a fixed signature.

    ``objective`` scores channels in batches: it maps an (..., env, d_out,
    d_in) array, each (env, d_out, d_in) slice the Kraus operators of one
    channel, to an array of values of shape (...).  Stinespring coordinates
    guarantee feasibility: every parameter vector maps to a valid Kraus
    stack, and the returned witness is built as a ``QuantumChannel`` (trace
    preservation checked) once, at the end.  It searches Kraus rank <= d_in,
    which holds every extreme channel (Choi), hence the minimum of any
    concave objective (Bauer).  ``inits``, stacks of at most d_in Kraus
    operators, seed the first restarts at env = d_in; the rest cycle through
    smaller environments (Kraus-rank caps).  The restarts run in lockstep:
    one call scores both signs of a coordinate step for up to ``width`` of
    them (default: all), with leading shape (width, 2), all on the largest
    environment in use, lower rungs zero-padded.  A final polish pass
    re-runs the search from the incumbent, as a stack of one on its rung.
    The driver maximizes, so it scores the negated objective; trace values
    and ``best_value`` are the objective's own, as Python floats.
    """
    d_in, d_out = input_space.dim, output_space.dim
    ladder = [_StinespringParam(d_in, d_out, e) for e in _env_ladder(d_in, d_out)]

    def score(kraus: np.ndarray) -> np.ndarray:
        return -objective(kraus)

    trace: list[TracePoint] = []
    param, x = _restarts(score, tuple(inits), ladder, cfg, trace, width or cfg.restarts)
    (x,), (val,) = _coordinate_search(
        x[None],
        lambda xv: score(param.kraus(xv)),
        [np.random.default_rng([cfg.seed, cfg.restarts])],
        cfg.max_iters,
        on_accept=lambda r, it, v: trace.append(TracePoint(cfg.restarts, it, v)),
    )
    witness = QuantumChannel(input_space, output_space, list(param.kraus(x)), tp_tol=TOL_EQ)
    return OptResult(
        best_value=-float(val),
        best_channel=witness,
        trace=tuple(TracePoint(p.restart, p.iteration, -p.value) for p in trace),
    )


# ---------------------------------------------------------------------------
# Ensemble optimizers
# ---------------------------------------------------------------------------


def _discrete_weyl(dim: int) -> list[np.ndarray]:
    """The dim^2 shift/phase unitaries X^a Z^b."""
    shift = np.roll(np.eye(dim, dtype=np.complex128), 1, axis=0)
    phase = np.diag(np.exp(2j * np.pi / dim) ** np.arange(dim))
    power = np.linalg.matrix_power
    return [power(shift, a) @ power(phase, b) for a in range(dim) for b in range(dim)]


def _weyl_start(k: int, d_sig: int, r: int) -> np.ndarray | None:
    """The isometry sum_u |u> x W_u / sqrt(n) over the first n = min(k, r^2)
    discrete-Weyl unitaries W_u: phi0 modulated uniformly (needs d_sig = r)."""
    if d_sig != r:
        return None
    unitaries = _discrete_weyl(r)[: min(k, r * r)]
    iso = np.zeros((k, d_sig, r), dtype=np.complex128)
    iso[: len(unitaries)] = np.array(unitaries) / np.sqrt(len(unitaries))
    return iso.reshape(1, k * d_sig, r)


def _basis_start(k: int, d_sig: int, r: int) -> np.ndarray:
    """Kraus operators K_a = sum_i |i>|i><a| / sqrt(n), a < r, i < n = min(k, d_sig):
    computational-basis signals tensored with the A' marginal, uniform."""
    n = min(k, d_sig)
    kraus = np.zeros((r, k, d_sig, r), dtype=np.complex128)
    for i in range(n):
        kraus[:, i, i, :] = np.eye(r) / np.sqrt(n)
    return kraus.reshape(r, k * d_sig, r)


def _search_instruments(
    channel: QuantumChannel,
    res: ResourceState,
    rescore: Callable[[CqEnsemble], RateReport],
    cfg: OptimizerConfig,
) -> OptResult:
    """Maximize I(U:BB') - max(I(U:EE'), I(U:A')) over instruments {N_u} from
    Alice's share to the signal, q_u eta_u = (N_u x id) phi0: every such
    ensemble meets the average A' constraint, and every feasible one is
    such an ensemble.  The first restarts begin at the structured starts
    (Weyl, then basis), the rest at random coordinates.  The best point
    becomes an ensemble on (signal, A') once, with its q_u = 0 outcomes
    dropped, and is re-scored by ``rescore``.  The byte check counts the
    scored pairs of one lockstep call; a search whose single pair of
    candidates would exceed MAX_WORKING_BYTES is refused before any start
    is built.
    """
    r = len(res.psi)
    d_sig = channel.input_space.dim
    member_space = channel.input_space.tensor(LabeledSpace.of((AUX_LABEL, r)))
    kernel = _CqKernel(channel, res)
    k = cfg.num_labels_max or 2 * d_sig * r
    # Per candidate: four complex arrays of k * d^2 entries in the
    # Stinespring step (rows * r = k * d^2), five in the instrument (v, its
    # transposed and conjugated copies, the weighted and the normalized
    # members), and three (k, side, side) arrays per side through the
    # Holevo terms (Bob's, Eve's and the A' marginals).
    sides = kernel.d_bob**2 + kernel.d_eve**2 + r * r
    pair = 2 * 16 * k * (9 * member_space.dim**2 + 3 * sides)
    width = _lockstep_width(pair, cfg, f"an instrument search with {k} outcomes")

    def score(kraus: np.ndarray) -> np.ndarray:
        members, probs = _instrument(kraus, res.psi, k)
        i_bb, i_ee = kernel.bob_eve(members, probs)
        i_ap = _holevo(kernel.reference_marginals(members), probs)
        return i_bb - np.maximum(i_ee, i_ap)

    # The environment d_sig * r gives every outcome enough Kraus operators
    # for any map from the share to the signal.
    param = _StinespringParam(r, k * d_sig, d_sig * r)
    starts = [s for s in (_weyl_start(k, d_sig, r), _basis_start(k, d_sig, r)) if s is not None]
    trace: list[TracePoint] = []
    _, best_x = _restarts(score, starts, [param], cfg, trace, width)
    members, probs = _instrument(param.kraus(best_x), res.psi, k)
    keep = np.flatnonzero(probs > 0)
    ens = CqEnsemble(
        [int(u) for u in keep],
        probs[keep],
        [DensityOperator(member_space, members[u], validate=False) for u in keep],
    )
    rep = rescore(ens)
    if not rep.constraint_residual <= FEASIBILITY_THRESHOLD:
        raise OptimizationError(
            f"witness residual {rep.constraint_residual:.3e} > {FEASIBILITY_THRESHOLD}"
        )
    return OptResult(best_value=rep.rate, best_ensemble=ens, report=rep, trace=tuple(trace))


def optimize_theorem1(
    channel: QuantumChannel, res: ResourceState, cfg: OptimizerConfig
) -> OptResult:
    """Maximize the average-constrained side-information rate over ensembles.

    The returned value is the rate of the returned witness, re-scored by
    ``theorem1_rate``.
    """
    return _search_instruments(channel, res, lambda ens: theorem1_rate(ens, channel, res), cfg)


def optimize_unassisted(channel: QuantumChannel, cfg: OptimizerConfig) -> OptResult:
    """Maximize the plain single-letter wiretap rate over input ensembles:
    the theorem1 search on the empty resource, where I(U:A') is zero.  The
    witness members carry its one-dimensional reference copy, and the
    returned value is re-scored by ``unassisted_rate``.
    """
    return _search_instruments(
        channel, trivial_resource(), lambda ens: unassisted_rate(ens, channel), cfg
    )


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
