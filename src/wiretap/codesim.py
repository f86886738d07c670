"""Finite-blocklength Monte Carlo simulation of random binned wiretap codes.

The experiment follows the random-coding recipe behind the achievable-rate
functional: draw M*S codewords i.i.d. from the ensemble distribution, group
them into M bins of size S, modulate a whole bin as the uniform mixture of
its codeword states, decode Bob's bin-averaged outputs with the pretty-good
measurement, and measure

* lambda_hat -- one minus the PGM success probability (decoding error),
* mu_hat     -- the average trace norm between Eve's per-message state and
  the message-independent reference (the one-letter Eve marginal tensored
  to block length),
* the average deviation of the reference-side marginal from its target and
  the trace-norm cost of the Uhlmann repair that removes it.

Each one-letter output side (Bob's, Eve's) is held as real diagonals when
all its matrices are exactly diagonal, else as dense matrices.  A bin
average is sum_s P_s x Q_s / S over its S codewords, with P_s and Q_s the
products of a codeword's first floor(n/2) and last ceil(n/2) letters,
summed by a matrix product over S (``_bin_average``).  It agrees with a
per-codeword ``np.kron`` chain elementwise to 2(n+S) 2^-53 times the chain
on the entries' moduli (the bound the tests check).  A dense Bob side
whose M*S codewords span fewer product vectors than its block dimension
(M*S*r^n < d^n, with r the largest one-letter rank) is instead decoded
from the Gram matrix of those vectors (``_gram_pgm_error``); other dense
Bob sides are decoded from the support eigenpairs of the average
(``_pgm_error``), building no POVM.  The dense signal-side averages are
built and repaired (``marginal_residual_and_fixup``) only when some
member's A' marginal differs from the resource's; otherwise every bin's
marginal is the target and the residual and repair cost are exactly 0.

The decoder choice is a design decision: the PGM stands in for the abstract
decoder of the coding theorem.  Reported leakage uses the fixed reference
state, so it upper-bounds the best-reference leakage.  Codeword sampling is
not restricted to typical sequences.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .channels import AUX_LABEL, CqEnsemble, QuantumChannel, ResourceState
from .qcore import (
    MAX_WORKING_BYTES,
    DensityOperator,
    LabeledSpace,
    ResourceLimitError,
    ValidationError,
    check_working_bytes,
    hermitian_trace_norm,
    partial_trace,
    support_eigh,
    uhlmann_fixup,
)
from .rates import RateReport, _CqKernel, _signal_labels, _stack, theorem1_rate
from .scenario import Scenario

__all__ = [
    "MAX_DIM",
    "MAX_WORKING_BYTES",
    "CodeParams",
    "LeakageStats",
    "SimReport",
    "code_parameters",
    "sample_codebook",
    "pgm_decoder",
    "pgm_success",
    "leakage",
    "marginal_residual_and_fixup",
    "run_experiment",
]

# Per-side dimension cap on a block space; read at call time.
MAX_DIM = 4096
WORD_CAP = 50_000_000
# Bin-sized arrays that read the M bin averages, solver buffers included (measured).
PGM_ARRAYS = 5
REPAIR_ARRAYS = 6
TRACE_NORM_ARRAYS = 2


@dataclass(frozen=True)
class CodeParams:
    """Message and bin counts; ``rate`` is the realized log2(M)/n."""

    M: int
    S: int
    rate: float


@dataclass(frozen=True)
class LeakageStats:
    average: float
    per_message_max: float


@dataclass(frozen=True)
class SimReport:
    """Per-blocklength summary of the Monte Carlo runs."""

    n: int
    M: int
    S: int
    rate: float
    lambda_hat: float
    mu_hat: float
    marginal_residual: float
    fixup_cost: float
    trials: int
    ci_halfwidth: float
    lambda_trials: tuple[float, ...] = field(default_factory=tuple)
    mu_trials: tuple[float, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not 0.0 <= self.lambda_hat <= 1.0:
            raise ValidationError(f"lambda_hat {self.lambda_hat} outside [0, 1]")
        if not 0.0 <= self.mu_hat <= 2.0:
            raise ValidationError(f"mu_hat {self.mu_hat} outside [0, 2]")
        if not 0.0 <= self.fixup_cost <= 2.0:
            raise ValidationError(f"fixup_cost {self.fixup_cost} outside [0, 2]")
        if self.marginal_residual < 0 or self.trials < 1 or self.ci_halfwidth < 0:
            raise ValidationError("negative residual, trial count or CI halfwidth")


def code_parameters(
    ens: CqEnsemble, channel: QuantumChannel, res: ResourceState, n: int, epsilon: float,
    rate: float | None = None,
) -> CodeParams:
    """Message and bin counts for block length ``n`` at slack ``epsilon``.

    By default M = round(2^(n rate - 2 n eps)) with the rate taken from the
    one-letter functional; an explicit ``rate`` overrides the exponent to
    M = round(2^(n rate)) (used to hold a code above or below the
    functional).  S = round(2^(n max(I(U:EE'), I(U:A')) + n eps)) always.
    An exponent of 1024 or more, where 2^x overflows a float, is refused;
    an exponent log2 M <= 0 gives a degenerate single-message code and a
    warning.
    """
    return _code_size(theorem1_rate(ens, channel, res), n, epsilon, rate)


def _code_size(rep: RateReport, n: int, epsilon: float, rate: float | None) -> CodeParams:
    """``code_parameters`` at block length n from the one-letter rate report ``rep``."""
    if n < 1:
        raise ValidationError(f"block length n must be >= 1, got {n}")
    if not math.isfinite(epsilon) or not (rate is None or math.isfinite(rate)):
        raise ValidationError(f"epsilon and rate must be finite, got {epsilon!r}, {rate!r}")
    if epsilon <= 0:
        raise ValidationError("epsilon must be positive")
    log_s = n * (max(rep.i_u_ee, rep.i_u_aprime) + epsilon)
    log_m = n * (rep.rate - 2 * epsilon) if rate is None else n * rate
    top = max(log_m, log_s)
    if top >= 1024:
        raise ResourceLimitError(f"block length {n}: code size 2^{top:.6g} overflows a float")
    m, s = (max(1, math.floor(2.0**x + 0.5)) for x in (log_m, log_s))  # round half up
    if m == 1 and log_m <= 0.0:
        warnings.warn(
            f"degenerate single-message code at n={n}: log2 M = {log_m:.6g} <= 0, so M = 1",
            stacklevel=3,
        )
    return CodeParams(M=m, S=s, rate=math.log2(m) / n)


def sample_codebook(ens: CqEnsemble, n: int, M: int, S: int, seed: int) -> np.ndarray:
    """Draw M bins of S codewords of length n i.i.d. from the ensemble law, as
    an (M, S, n) array of indices into the ensemble's labels."""
    total = M * S * n
    if total > WORD_CAP:
        raise ResourceLimitError(f"codebook would hold {total} symbols (> cap {WORD_CAP})")
    gen = np.random.default_rng(seed)
    p = np.asarray(ens.probs, dtype=float)
    p = p / p.sum()
    return gen.choice(len(ens), size=(M, S, n), p=p)


def pgm_decoder(states: Sequence[DensityOperator]) -> list[np.ndarray]:
    """Pretty-good-measurement POVM for equiprobable output states.

    Elements are avg^{-1/2} (rho_m / M) avg^{-1/2} with the inverse square
    root taken on the support of the average state (``support_eigh``);
    they sum to the support projector (<= identity); the reference for code-sim's PGM.
    """
    if not states:
        raise ValidationError("pgm_decoder needs at least one state")
    p = 1.0 / len(states)
    avg = sum(p * s.matrix for s in states)
    w, v = support_eigh(avg)
    inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
    return [inv_sqrt @ (p * s.matrix) @ inv_sqrt for s in states]


def pgm_success(states: Sequence[DensityOperator], povm: Sequence[np.ndarray]) -> float:
    """Success probability (1/M) sum_m Tr(rho_m D_m); the reference for code-sim's PGM."""
    p = 1.0 / len(states)
    total = sum(float(np.real(np.trace(s.matrix @ d))) * p for s, d in zip(states, povm))
    return min(max(total, 0.0), 1.0)


# ---------------------------------------------------------------------------
# Block-length helpers
# ---------------------------------------------------------------------------


def _power_space(space: LabeledSpace, n: int) -> LabeledSpace:
    factors = []
    for i in range(n):
        for lab, d in space.factors:
            factors.append((f"{lab}@{i}", d))
    return LabeledSpace(tuple(factors))


def _products(stack: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Tensor products stack[w[0]] x ... x stack[w[n-1]] for each row w of ``words``.

    ``stack`` holds one-letter diagonals (k, d) or matrices (k, d, d); the
    N rows of ``words`` (N, n) give N products of shape (d^n,) or
    (d^n, d^n).  Factors are folded in left to right, so every entry is
    the product ``reduce(np.kron, ...)`` forms, bit for bit.  A diagonal
    step writes one letter value c at a time, so that numpy's inner loop
    runs along the long axis of the partial product, not over d letters.
    The one fold behind the half-words of ``_bin_average``, ``_power`` and
    the Gram matrix of ``_gram_pgm_error``.
    """
    prod = stack[words[:, 0]]
    for j in range(1, words.shape[1]):
        nxt = stack[words[:, j]]
        count, d = prod.shape[:2]
        if prod.ndim == 2:
            out = np.empty((count, d, nxt.shape[1]), prod.dtype)
            for c in range(nxt.shape[1]):
                np.multiply(prod, nxt[:, c, None], out=out[:, :, c])
            prod = out.reshape(count, -1)
        else:
            dd = d * nxt.shape[1]
            prod = (prod[:, :, None, :, None] * nxt[:, None, :, None, :]).reshape(count, dd, dd)
    return prod


def _power(mat: np.ndarray, n: int) -> np.ndarray:
    """n-fold tensor power of one diagonal or matrix."""
    return _products(mat[None], np.zeros((1, n), dtype=int))[0]


def _member_outputs(
    ens: CqEnsemble, channel: QuantumChannel, res: ResourceState
) -> tuple[np.ndarray, np.ndarray]:
    """One-letter Bob-side and Eve-side output states per ensemble symbol, as (k, d, d) arrays."""
    members = _stack(ens.states, _signal_labels(ens, res, channel) + [AUX_LABEL])
    return _CqKernel(channel, res).sides(members)


def _bin_average(matrices: list[np.ndarray], words: np.ndarray) -> np.ndarray:
    """Bin averages (M, ...) of the (M, S, n) codewords ``words``: sum_s P_s x Q_s / S.

    P_s and Q_s are the products (``_products``) of codeword s's first a =
    floor(n/2) and last n - a letters, summed by one matmul over S.  On
    diagonals (M, d^a, S) @ (M, S, d^(n-a)) is in Kronecker order; on
    matrices a bin's P[i1, j1] Q[i2, j2] sits at ((i1, j1), (i2, j2)) and is
    permuted to ((i1, i2), (j1, j2)), one bin at a time.  At n = 1 the
    letters are summed in codeword order, as the chain sums them.
    """
    stack = np.stack(matrices)
    m_count, s_count, n = words.shape
    if n == 1:
        letters = stack[words[:, :, 0]]
        return np.cumsum(letters, axis=1, out=letters)[:, -1] / s_count
    half = n // 2
    left, right = (
        _products(stack, part.reshape(-1, part.shape[2])).reshape(m_count, s_count, -1)
        for part in (words[:, :, :half], words[:, :, half:])
    )
    left = left.transpose(0, 2, 1)
    if stack.ndim == 2:
        out = np.matmul(left, right).reshape(m_count, -1)
    else:
        da, db = len(stack[0]) ** half, len(stack[0]) ** (n - half)
        out = np.empty((m_count, da * db, da * db), stack.dtype)
        block = np.empty((da * da, db * db), stack.dtype)
        for m in range(m_count):
            np.matmul(left[m], right[m], out=block)
            out[m].reshape(da, db, da, db)[...] = block.reshape(da, da, db, db).transpose(0, 2, 1, 3)
    out /= s_count
    return out


def _bin_bytes(side: list[np.ndarray], n: int) -> int:
    d = len(side[0]) ** n
    return d * 8 if side[0].ndim == 1 else d * d * 16


def _gram_bytes(count: int, size: int, n: int) -> int:
    """Peak of ``_gram_pgm_error`` on ``count`` codewords and a size x size G.

    The count^2 pair words (n integers each) live while G is folded; the
    eigensolve then holds five arrays of G's size: G, the solver's copy, its
    two workspaces and the eigenvectors.
    """
    return count * count * n * 8 + 5 * size * size * 16


def _check_bytes(n: int, M: int, S: int, sides: list[tuple], other: int = 0, held: int = 0) -> None:
    """Refuse block length n if its peak, in bytes, exceeds MAX_WORKING_BYTES.

    A side (k, side) holds M + k bin-sized arrays; ``_bin_average`` also
    builds its M*S half-word products of floor(n/2) and ceil(n/2) letters,
    and on a dense side one bin to permute.  ``other`` is a peak outside
    the sides; ``held`` stays.
    """
    need = [other]
    for k, side in sides:
        size = _bin_bytes(side, n)
        halves = M * S * (_bin_bytes(side, n // 2) + _bin_bytes(side, n - n // 2))
        need.append((M + k + (side[0].ndim == 2)) * size + halves)
    check_working_bytes(held + max(need), f"block length {n} (M = {M})")


def _eve_outputs(
    ens: CqEnsemble, channel: QuantumChannel, res: ResourceState, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """One-letter Eve outputs and the n-fold power of their average (the reference)."""
    eve_mats = _member_outputs(ens, channel, res)[1]
    d_eve = len(eve_mats[0])
    if d_eve**n > MAX_DIM:
        raise ResourceLimitError(
            f"Eve-side dimension {d_eve}^{n} = {d_eve**n} exceeds cap {MAX_DIM}"
        )
    return eve_mats, _power(sum(q * e for q, e in zip(ens.probs, eve_mats)), n)


def leakage(
    words: np.ndarray,
    ens: CqEnsemble,
    channel: QuantumChannel,
    res: ResourceState,
) -> LeakageStats:
    """Average and worst-case trace norm between Eve's per-message states
    and the block-length power of the one-letter Eve marginal, for the
    (M, S, n) codewords ``words``.

    The reference for code-sim's leakage.  Refused, before any bin average
    is built, over the dimension cap or MAX_WORKING_BYTES.
    """
    m_count, s_count, n = words.shape
    eve_mats, reference = _eve_outputs(ens, channel, res, n)
    _check_bytes(n, m_count, s_count, [(TRACE_NORM_ARRAYS, eve_mats)], held=_bin_bytes(eve_mats, n))
    dists = [hermitian_trace_norm(b - reference) for b in _bin_average(eve_mats, words)]
    return LeakageStats(average=float(np.mean(dists)), per_message_max=float(np.max(dists)))


def marginal_residual_and_fixup(
    words: np.ndarray,
    ens: CqEnsemble,
    res: ResourceState,
) -> tuple[float, float]:
    """Reference-marginal deviation of the bin-averaged signal states of the
    (M, S, n) codewords ``words`` and the trace-norm cost of repairing it
    exactly.

    Builds each message's bin-averaged joint state, measures how far its
    reference-side marginal sits from the block power of the resource
    marginal, applies the Uhlmann repair, and checks that the average cost
    satisfies the 4*sqrt(residual) budget.  Refused up front over the
    dimension cap or MAX_WORKING_BYTES.
    """
    m_count, s_count, n = words.shape
    _signal_labels(ens, res)  # the reference copy matches the resource's
    d_mem = ens.space.dim
    if d_mem**n > MAX_DIM:
        raise ResourceLimitError(
            f"signal-side dimension {d_mem}^{n} = {d_mem**n} exceeds cap {MAX_DIM}"
        )
    member_mats = [s.matrix for s in ens.states]
    _check_bytes(n, m_count, s_count, [(REPAIR_ARRAYS, member_mats)])
    member_space_n = _power_space(ens.space, n)
    aux = [f"{AUX_LABEL}@{i}" for i in range(n)]
    target = DensityOperator(
        member_space_n.subspace(aux), _power(res.zeta_marginal.matrix, n), validate=False
    )
    residuals, costs = [], []
    for avg_mat in _bin_average(member_mats, words):
        eta_tilde = DensityOperator(member_space_n, avg_mat, validate=False)
        marg = partial_trace(eta_tilde, set(aux))
        residuals.append(hermitian_trace_norm(marg.matrix - target.matrix))
        costs.append(hermitian_trace_norm(uhlmann_fixup(eta_tilde, target, aux).matrix - avg_mat))
    residual = float(np.mean(residuals))
    cost = float(np.mean(costs))
    if not cost <= 4.0 * math.sqrt(residual) + 1e-9:
        raise ValidationError(
            f"repair cost {cost:.3e} exceeds the 4*sqrt(residual) budget "
            f"({4.0 * math.sqrt(residual):.3e})"
        )
    return residual, cost


def _trial_seed(seed: int, n: int, trial: int) -> int:
    return int(np.random.SeedSequence([seed, n, trial]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# Trial helpers: each reads a side held as real diagonals or as matrices
# ---------------------------------------------------------------------------


def _diagonals(mats: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Real diagonals when every matrix is exactly diagonal, else the matrices."""
    vecs = []
    for m in mats:
        d = np.diagonal(m)
        if np.any(m != np.diag(d)) or np.any(d.imag != 0.0):
            return list(mats)
        vecs.append(np.ascontiguousarray(d.real))
    return vecs


def _mean_distance(side: list[np.ndarray], words: np.ndarray, reference: np.ndarray) -> float:
    """Mean trace norm between the bin averages of ``side`` and ``reference``."""
    bins = _bin_average(side, words)
    if reference.ndim == 2:
        return float(np.mean([hermitian_trace_norm(b - reference) for b in bins]))
    return float(np.mean(np.abs(np.subtract(bins, reference, out=bins), out=bins).sum(axis=1)))


def _pgm_error(bins: np.ndarray) -> float:
    """Decoding error of the PGM on equiprobable bin states.

    With R = V diag(w^-1/4) from the average's support eigenpairs (R R^dagger
    its inverse root), ``pgm_success`` of ``pgm_decoder`` is (1/M^2) sum_m
    ||R^dagger rho_m R||_F^2.  For diagonals (commuting states) the PGM elements
    are the likelihood ratios p v_m / avg on the support of the average.
    """
    prior = 1.0 / len(bins)
    if bins.ndim == 3:
        w, r = support_eigh(sum(bins) * prior)
        r *= w**-0.25
        succ = sum(np.linalg.norm(r.conj().T @ b @ r) ** 2 for b in bins) * prior**2
        return 1.0 - min(max(float(succ), 0.0), 1.0)
    avg = sum(bins) * prior
    mask = avg > 0.0
    ratio = prior * bins
    np.divide(ratio, avg, out=ratio, where=mask)
    ratio[:, ~mask] = 0.0
    # One dot product per message; np.cumsum adds them in message order, np.sum would pair them.
    succ = np.cumsum(prior * (bins[:, None, :] @ ratio[:, :, None]).ravel())[-1]
    return 1.0 - min(max(float(succ), 0.0), 1.0)


def _low_rank_factors(mats: Sequence[np.ndarray]) -> np.ndarray:
    """Stack (k, d, r) of factors V_x with V_x V_x^dagger = mats[x].

    V_x holds the support eigenvectors of mats[x] (``support_eigh``, largest
    eigenvalue first), scaled by the square roots of their eigenvalues and
    zero-padded to the largest such rank r.
    """
    eigs = [support_eigh(m) for m in mats]
    out = np.zeros((len(mats), len(mats[0]), max(len(w) for w, _ in eigs)), dtype=complex)
    for x, (w, v) in enumerate(eigs):
        out[x, :, : len(w)] = v * np.sqrt(w)
    return out


def _gram_pgm_error(factors: np.ndarray, words: np.ndarray) -> float:
    """Decoding error of the PGM on equiprobable bin states, from a Gram matrix.

    The columns of V_{w_1} x ... x V_{w_n} over all M*S codewords w, scaled
    by 1/sqrt(M*S), form Psi with Psi Psi^dagger the average state, and a
    message's columns give its prior-weighted bin state.  The PGM success
    probability is then the summed squared moduli of the message-diagonal
    blocks of sqrt(G), G = Psi^dagger Psi (Hausladen et al., PRA 54, 1869,
    1996).  G is built from one-letter overlaps by the left fold of
    ``_products``, on pair words.  G and the average state share their
    nonzero spectrum, so taking sqrt(G) on its support (``support_eigh``)
    is the support rule of ``pgm_decoder``.
    """
    m_count, s_count, n = words.shape
    k, _, r = factors.shape
    overlaps = np.einsum("xai,yaj->xyij", factors.conj(), factors).reshape(k * k, r, r)
    flat = words.reshape(-1, n)
    count, rank = len(flat), r**n
    pairs = (flat[:, None, :] * k + flat[None, :, :]).reshape(-1, n)
    blocks = _products(overlaps, pairs).reshape(count, count, rank, rank)
    del pairs
    gram = blocks.transpose(0, 2, 1, 3).reshape(count * rank, count * rank)
    del blocks
    gram /= count
    w, v = support_eigh(gram)
    del gram
    v = v.reshape(m_count, s_count * rank, -1)
    diag_blocks = (v * np.sqrt(w)) @ v.conj().transpose(0, 2, 1)
    succ = float(np.sum(diag_blocks.real**2 + diag_blocks.imag**2))
    return 1.0 - min(max(succ, 0.0), 1.0)


def _is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)


def run_experiment(
    scenario: Scenario, n_list: Sequence[int], epsilon: float, trials: int, seed: int,
    rate: float | None = None,
) -> list[SimReport]:
    """Run the random-code experiment for each block length in ``n_list``.

    Deterministic in ``seed``: each (block length, trial) pair owns a
    derived seed.  The arguments' types are checked first, then all
    requested block lengths against the dimension caps and, in bytes,
    against MAX_WORKING_BYTES, all before the first trial.
    """
    listed = isinstance(n_list, (Sequence, np.ndarray)) and len(n_list) > 0
    if not (listed and all(_is_int(n) and n >= 1 for n in n_list)):
        raise ValidationError(f"n must be a non-empty list of integers >= 1, got {n_list!r}")
    if not (_is_int(trials) and trials >= 1):
        raise ValidationError(f"trials must be an integer >= 1, got {trials!r}")
    if not (_is_int(seed) and seed >= 0):
        raise ValidationError(f"seed must be a nonnegative integer, got {seed!r}")
    if not _is_number(epsilon) or not (rate is None or _is_number(rate)):
        raise ValidationError(f"epsilon and rate must be finite numbers, got {epsilon!r}, {rate!r}")
    if scenario.ensemble is None:
        raise ValidationError("code simulation needs a scenario with an ensemble")
    ens = scenario.ensemble
    channel = scenario.channel
    res = scenario.resource_state()

    bobs, eves = _member_outputs(ens, channel, res)
    bob = _diagonals(bobs)
    eve = _diagonals(eves)
    eve_avg = sum(q * e for q, e in zip(ens.probs, eve))
    # A repair can run only when some member's A' marginal is not the resource's.
    target = res.zeta_marginal.matrix
    repairs = any(np.any(partial_trace(s, {AUX_LABEL}).matrix != target) for s in ens.states)
    factors = _low_rank_factors(bob) if bob[0].ndim == 2 else None

    rep = theorem1_rate(ens, channel, res)
    all_params = [_code_size(rep, n, epsilon, rate) for n in n_list]
    grams = []  # Gram-matrix size M*S*r^n per block length when Bob is decoded that way
    for n, params in zip(n_list, all_params):
        sizes = {"bob": len(bob[0]) ** n, "eve": len(eve[0]) ** n}
        if repairs:
            sizes["signal"] = ens.space.dim**n
        over = {k: v for k, v in sizes.items() if v > MAX_DIM}
        if over:
            raise ResourceLimitError(
                f"block length {n} exceeds the dimension cap {MAX_DIM}: "
                + ", ".join(f"{k} side {v}" for k, v in over.items())
            )
        gram = None
        if factors is not None and params.M * params.S * factors.shape[2] ** n < sizes["bob"]:
            gram = params.M * params.S * factors.shape[2] ** n
        grams.append(gram)
        # Peak: one side's M bin averages and what reads them (a diagonal PGM
        # holds M likelihood ratios), with Eve's reference held throughout
        # (_check_bytes).  A Gram Bob side builds no bin average (_gram_bytes).
        sides = [(TRACE_NORM_ARRAYS, eve)]
        if gram is None:
            sides.append((PGM_ARRAYS if bob[0].ndim == 2 else params.M + 2, bob))
        if repairs:
            sides.append((REPAIR_ARRAYS, [s.matrix for s in ens.states]))
        other = 0 if gram is None else _gram_bytes(params.M * params.S, gram, n)
        _check_bytes(n, params.M, params.S, sides, other, held=_bin_bytes(eve, n))

    reports = []
    for n, params, gram in zip(n_list, all_params, grams):
        eve_ref = _power(eve_avg, n)
        lams, mus, resids, costs = [], [], [], []
        for t in range(trials):
            words = sample_codebook(ens, n, params.M, params.S, _trial_seed(seed, n, t))
            if gram is None:
                lams.append(_pgm_error(_bin_average(bob, words)))
            else:
                lams.append(_gram_pgm_error(factors, words))
            mus.append(_mean_distance(eve, words, eve_ref))
            r, c = marginal_residual_and_fixup(words, ens, res) if repairs else (0.0, 0.0)
            resids.append(r)
            costs.append(c)
        lam_arr = np.asarray(lams)
        ci = 1.96 * float(lam_arr.std(ddof=1)) / math.sqrt(trials) if trials > 1 else 0.0
        reports.append(SimReport(
            n=n, M=params.M, S=params.S, rate=params.rate,
            lambda_hat=float(np.clip(lam_arr.mean(), 0.0, 1.0)), mu_hat=float(np.mean(mus)),
            marginal_residual=float(np.mean(resids)), fixup_cost=float(np.mean(costs)),
            trials=trials, ci_halfwidth=ci,
            lambda_trials=tuple(float(x) for x in lams), mu_trials=tuple(float(x) for x in mus),
        ))
    return reports
