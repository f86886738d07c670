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

Each one-letter side (Bob's outputs, Eve's outputs, the A' marginals of
the members and of the resource) runs on real diagonals when all its
matrices are exactly diagonal, else on matrices.  The marginal residual is
read off the bin-averaged A' marginals; only above 1e-12 are the dense
signal-side averages built and repaired (``marginal_residual_and_fixup``).

The decoder choice is a design decision: the PGM stands in for the abstract
decoder of the coding theorem.  Reported leakage uses the fixed reference
state, so it upper-bounds the best-reference leakage.  Codeword sampling is
not restricted to typical sequences.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, field
from functools import reduce
from itertools import product
from typing import Sequence

import numpy as np

from .channels import CqEnsemble, QuantumChannel, ResourceState
from .qcore import (
    RANK_CUTOFF,
    DensityOperator,
    LabeledSpace,
    ResourceLimitError,
    ValidationError,
    hermitian_trace_norm,
    partial_trace,
    uhlmann_fixup,
)
from .rates import _CqKernel, _signal_labels, _stack, theorem1_rate
from .scenario import Scenario

__all__ = [
    "DEFAULT_MAX_DIM",
    "MAX_WORKING_BYTES",
    "max_dim_cap",
    "Codebook",
    "CodeParams",
    "LeakageStats",
    "SimReport",
    "code_parameters",
    "sample_codebook",
    "symbol_frequencies",
    "codebook_chi_square",
    "pgm_decoder",
    "pgm_success",
    "leakage",
    "exact_mixture_leakage",
    "marginal_residual_and_fixup",
    "run_experiment",
]

DEFAULT_MAX_DIM = 4096
WORD_CAP = 50_000_000
# A block length whose estimated working set is larger is refused.
MAX_WORKING_BYTES = 2 * 2**30


def max_dim_cap() -> int:
    """Per-side dimension cap: WIRETAP_MAX_DIM if set (its only setting), else DEFAULT_MAX_DIM."""
    value = os.environ.get("WIRETAP_MAX_DIM")
    if value is None:
        return DEFAULT_MAX_DIM
    try:
        cap = int(value)
    except ValueError:
        raise ValidationError(f"WIRETAP_MAX_DIM={value!r} is not an integer") from None
    if cap < 1:
        raise ValidationError(f"WIRETAP_MAX_DIM={cap} must be positive")
    return cap


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class Codebook:
    """M x S codewords of length n, sampled i.i.d. from the ensemble law."""

    n: int
    M: int
    S: int
    words: np.ndarray  # (M, S, n) integer indices into the ensemble labels
    seed: int

    def __post_init__(self) -> None:
        if self.words.shape != (self.M, self.S, self.n):
            raise ValidationError(
                f"words shape {self.words.shape} != ({self.M}, {self.S}, {self.n})"
            )


@dataclass(frozen=True)
class CodeParams:
    """Message and bin counts plus the real-valued exponents behind them.

    The exponents are reported alongside the rounded integers so rounding
    is visible at small block lengths; ``rate`` is the realized log2(M)/n.
    """

    M: int
    S: int
    rate: float
    m_exponent: float
    s_exponent: float
    ms_exponent: float
    degenerate: bool


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
    ens: CqEnsemble,
    channel: QuantumChannel,
    res: ResourceState,
    n: int,
    epsilon: float,
    rate: float | None = None,
) -> CodeParams:
    """Message and bin counts for block length ``n`` at slack ``epsilon``.

    By default M = round(2^(n rate - 2 n eps)) with the rate taken from the
    one-letter functional; an explicit ``rate`` overrides the exponent to
    M = round(2^(n rate)) (used to hold a code above or below the
    functional).  S = round(2^(n max(I(U:EE'), I(U:A')) + n eps)) always.
    """
    if n < 1:
        raise ValidationError(f"block length n must be >= 1, got {n}")
    if epsilon <= 0:
        raise ValidationError("epsilon must be positive")
    rep = theorem1_rate(ens, channel, res)
    i_max = max(rep.i_u_ee, rep.i_u_aprime)
    s_exponent = n * (i_max + epsilon)
    if rate is None:
        m_exponent = n * (rep.rate - 2 * epsilon)
    else:
        m_exponent = n * rate
    m = max(1, _round_half_up(2.0**m_exponent))
    s = max(1, _round_half_up(2.0**s_exponent))
    degenerate = m == 1 and m_exponent <= 0.0
    if degenerate and rate is None:
        warnings.warn(
            f"rate - 2*epsilon <= 0 at n={n}: degenerate single-message code",
            stacklevel=2,
        )
    return CodeParams(
        M=m,
        S=s,
        rate=math.log2(m) / n,
        m_exponent=m_exponent,
        s_exponent=s_exponent,
        ms_exponent=n * (rep.i_u_bb - epsilon),
        degenerate=degenerate,
    )


def sample_codebook(ens: CqEnsemble, n: int, M: int, S: int, seed: int) -> Codebook:
    """Draw the (M, S, n) codeword array i.i.d. from the ensemble law."""
    total = M * S * n
    if total > WORD_CAP:
        raise ResourceLimitError(f"codebook would hold {total} symbols (> cap {WORD_CAP})")
    gen = np.random.default_rng(seed)
    p = np.asarray(ens.probs, dtype=float)
    p = p / p.sum()
    words = gen.choice(len(ens), size=(M, S, n), p=p)
    return Codebook(n=n, M=M, S=S, words=words, seed=seed)


def symbol_frequencies(codebook: Codebook, num_symbols: int) -> np.ndarray:
    counts = np.bincount(codebook.words.reshape(-1), minlength=num_symbols)
    return counts / codebook.words.size


def codebook_chi_square(codebook: Codebook, probs: Sequence[float]) -> tuple[float, float]:
    """Chi-square sanity check of empirical symbol counts against the law."""
    from scipy import stats  # imported here: it costs a second on every CLI start
    probs = np.asarray(probs, dtype=float)
    counts = np.bincount(codebook.words.reshape(-1), minlength=len(probs)).astype(float)
    keep = probs > 0
    expected = probs[keep] / probs[keep].sum() * counts.sum()
    stat, pvalue = stats.chisquare(counts[keep], expected)
    return float(stat), float(pvalue)


def pgm_decoder(
    states: Sequence[DensityOperator],
    priors: Sequence[float] | None = None,
) -> list[np.ndarray]:
    """Pretty-good-measurement POVM for the given output states.

    Elements are avg^{-1/2} (p_m rho_m) avg^{-1/2} with the inverse square
    root taken on the support (above RANK_CUTOFF) of the prior-weighted
    average state; they sum to the support projector (<= identity).
    """
    if not states:
        raise ValidationError("pgm_decoder needs at least one state")
    m_count = len(states)
    if priors is None:
        priors = np.full(m_count, 1.0 / m_count)
    else:
        priors = np.asarray(priors, dtype=float)
        if priors.shape != (m_count,) or np.any(priors < 0):
            raise ValidationError("priors must be nonnegative, one per state")
    avg = sum(p * s.matrix for p, s in zip(priors, states))
    if abs(np.trace(avg)) < RANK_CUTOFF:
        raise ValidationError("average state is zero; nothing to decode")
    w, v = np.linalg.eigh(avg)
    keep = w > RANK_CUTOFF
    inv_sqrt = (v[:, keep] / np.sqrt(w[keep])) @ v[:, keep].conj().T
    return [inv_sqrt @ (p * s.matrix) @ inv_sqrt for p, s in zip(priors, states)]


def pgm_success(
    states: Sequence[DensityOperator],
    povm: Sequence[np.ndarray],
    priors: Sequence[float] | None = None,
) -> float:
    """Success probability sum_m p_m Tr(rho_m D_m)."""
    m_count = len(states)
    if priors is None:
        priors = np.full(m_count, 1.0 / m_count)
    total = sum(
        float(np.real(np.trace(s.matrix @ d))) * p for p, s, d in zip(priors, states, povm)
    )
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


def _kron_chain(mats: Sequence[np.ndarray]) -> np.ndarray:
    return reduce(np.kron, mats)


def _member_outputs(
    ens: CqEnsemble, channel: QuantumChannel, res: ResourceState
) -> tuple[list[DensityOperator], list[DensityOperator]]:
    """One-letter Bob-side and Eve-side output states per ensemble symbol."""
    kernel = _CqKernel(channel, res)
    members = _stack(ens.states, _signal_labels(ens, res) + [res.aux_label])
    bobs, eves = kernel.marginals(kernel.pushforward(members))
    return (
        [DensityOperator(kernel.bob_space, m, validate=False) for m in bobs],
        [DensityOperator(kernel.eve_space, m, validate=False) for m in eves],
    )


def _bin_average(matrices: list[np.ndarray], words: np.ndarray) -> list[np.ndarray]:
    """Per-message uniform mixture of Kronecker products (or diagonals) along each bin row."""
    m_count, s_count, _ = words.shape
    out = []
    for m in range(m_count):
        acc = None
        for s in range(s_count):
            prod_mat = _kron_chain([matrices[u] for u in words[m, s]])
            acc = prod_mat if acc is None else acc + prod_mat
        out.append(acc / s_count)
    return out


def _bin_bytes(side: list[np.ndarray], n: int) -> int:
    d = len(side[0]) ** n
    return d * 8 if side[0].ndim == 1 else d * d * 16


def _check_bytes(n: int, M: int, need: int) -> None:
    if need > MAX_WORKING_BYTES:
        raise ResourceLimitError(
            f"block length {n} needs ~{need / 2**30:.1f} GiB (M = {M}), "
            f"over the {MAX_WORKING_BYTES / 2**30:.0f} GiB limit"
        )


def _eve_outputs(
    ens: CqEnsemble, channel: QuantumChannel, res: ResourceState, n: int
) -> tuple[list[np.ndarray], np.ndarray]:
    """One-letter Eve outputs and the n-fold power of their average (the reference)."""
    cap = max_dim_cap()
    eve_mats = [e.matrix for e in _member_outputs(ens, channel, res)[1]]
    d_eve = len(eve_mats[0])
    if d_eve**n > cap:
        raise ResourceLimitError(f"Eve-side dimension {d_eve}^{n} = {d_eve**n} exceeds cap {cap}")
    return eve_mats, _kron_chain([sum(q * e for q, e in zip(ens.probs, eve_mats))] * n)


def leakage(
    codebook: Codebook,
    ens: CqEnsemble,
    channel: QuantumChannel,
    res: ResourceState,
) -> LeakageStats:
    """Average and worst-case trace norm between Eve's per-message states
    and the block-length power of the one-letter Eve marginal.

    Refused, before any bin average is built, over the dimension cap or
    MAX_WORKING_BYTES.
    """
    eve_mats, reference = _eve_outputs(ens, channel, res, codebook.n)
    _check_bytes(codebook.n, codebook.M, codebook.M * _bin_bytes(eve_mats, codebook.n))
    dists = [hermitian_trace_norm(b - reference) for b in _bin_average(eve_mats, codebook.words)]
    return LeakageStats(average=float(np.mean(dists)), per_message_max=float(np.max(dists)))


def exact_mixture_leakage(
    ens: CqEnsemble,
    channel: QuantumChannel,
    res: ResourceState,
    n: int,
) -> float:
    """Distance of the exactly weighted all-words mixture from the reference.

    This is the S -> infinity sanity case: the full mixture over all length-n
    words with their product weights reproduces the reference state.
    """
    eve_mats, reference = _eve_outputs(ens, channel, res, n)
    mixture = np.zeros_like(reference)
    for word in product(range(len(ens)), repeat=n):
        weight = float(np.prod(ens.probs[list(word)]))
        if weight == 0.0:
            continue
        mixture += weight * _kron_chain([eve_mats[u] for u in word])
    return hermitian_trace_norm(mixture - reference)


def marginal_residual_and_fixup(
    codebook: Codebook,
    ens: CqEnsemble,
    res: ResourceState,
) -> tuple[float, float]:
    """Reference-marginal deviation of the bin-averaged signal states and
    the trace-norm cost of repairing it exactly.

    Builds each message's bin-averaged joint state, measures how far its
    reference-side marginal sits from the block power of the resource
    marginal, applies the Uhlmann repair, and checks that the average cost
    satisfies the 4*sqrt(residual) budget.  Refused up front over the
    dimension cap or MAX_WORKING_BYTES.
    """
    cap = max_dim_cap()
    n = codebook.n
    d_mem = ens.space.dim
    if d_mem**n > cap:
        raise ResourceLimitError(
            f"signal-side dimension {d_mem}^{n} = {d_mem**n} exceeds cap {cap}"
        )
    member_mats = [s.matrix for s in ens.states]
    _check_bytes(n, codebook.M, codebook.M * _bin_bytes(member_mats, n))
    member_space_n = _power_space(ens.space, n)
    aux_labels = [f"{res.aux_label}@{i}" for i in range(n)]
    target_space = _power_space(res.zeta_marginal.space, n).relabeled(
        {f"{res.alice_label}@{i}": aux_labels[i] for i in range(n)}
    )
    target = DensityOperator(
        target_space, _kron_chain([res.zeta_marginal.matrix] * n), validate=False
    )
    residuals, costs = [], []
    for avg_mat in _bin_average(member_mats, codebook.words):
        eta_tilde = DensityOperator(member_space_n, avg_mat, validate=False)
        marg = partial_trace(eta_tilde, set(aux_labels))
        residuals.append(hermitian_trace_norm(marg.matrix - target.matrix))
        eta = uhlmann_fixup(eta_tilde, target, aux_labels)
        costs.append(hermitian_trace_norm(eta.matrix - eta_tilde.matrix))
    residual = float(np.mean(residuals))
    cost = float(np.mean(costs))
    if cost > 4.0 * math.sqrt(residual) + 1e-9:
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
    norm = hermitian_trace_norm if reference.ndim == 2 else lambda x: np.abs(x).sum()
    return float(np.mean([norm(b - reference) for b in _bin_average(side, words)]))


def _pgm_error(bins: list[np.ndarray]) -> float:
    """Decoding error of the PGM on equiprobable bin states.

    For diagonals (commuting states) the PGM elements are the likelihood
    ratios p v_m / avg on the support of the average, and the success
    probability is the expression ``pgm_success`` evaluates on matrices.
    """
    if bins[0].ndim == 2:
        space = LabeledSpace.of(("B", len(bins[0])))
        states = [DensityOperator(space, m, validate=False) for m in bins]
        return 1.0 - pgm_success(states, pgm_decoder(states))
    prior = 1.0 / len(bins)
    avg = sum(bins) * prior
    mask = avg > 0.0
    succ = 0.0
    for v in bins:
        ratio = np.zeros_like(avg)
        ratio[mask] = prior * v[mask] / avg[mask]
        succ += prior * float(np.dot(v, ratio))
    return 1.0 - min(max(succ, 0.0), 1.0)


def run_experiment(
    scenario: Scenario,
    n_list: Sequence[int],
    epsilon: float,
    trials: int,
    seed: int,
    rate: float | None = None,
) -> list[SimReport]:
    """Run the random-code experiment for each block length in ``n_list``.

    Deterministic in ``seed``: each (block length, trial) pair owns a
    derived seed.  All requested block lengths are checked against the
    dimension caps and, in bytes, against MAX_WORKING_BYTES up front.
    """
    if scenario.ensemble is None:
        raise ValidationError("code simulation needs a scenario with an ensemble")
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    cap = max_dim_cap()
    ens = scenario.ensemble
    channel = scenario.channel
    res = scenario.resource_state()

    # The members' A' marginals and the resource marginal are compared with
    # each other, so they share one representation.
    bobs, eves = _member_outputs(ens, channel, res)
    bob = _diagonals([b.matrix for b in bobs])
    eve = _diagonals([e.matrix for e in eves])
    *margs, target = _diagonals(
        [partial_trace(s, {res.aux_label}).matrix for s in ens.states]
        + [res.zeta_marginal.matrix]
    )
    eve_avg = sum(q * e for q, e in zip(ens.probs, eve))
    repairs = any(np.any(m != target) for m in margs)

    all_params = [code_parameters(ens, channel, res, n, epsilon, rate) for n in n_list]
    for n, params in zip(n_list, all_params):
        sizes = {"bob": len(bob[0]) ** n, "eve": len(eve[0]) ** n, "signal": ens.space.dim**n}
        over = {k: v for k, v in sizes.items() if v > cap}
        if over:
            raise ResourceLimitError(
                f"block length {n} exceeds the dimension cap {cap}: "
                + ", ".join(f"{k} side {v}" for k, v in over.items())
            )
        # Peak: the M bin averages of one side, plus M PGM elements on a dense
        # Bob side; a repair holds M dense signal-side averages.
        pgm = 1 if bob[0].ndim == 1 else 2
        sides = (pgm * _bin_bytes(bob, n), _bin_bytes(eve, n), _bin_bytes(margs, n))
        need = params.M * max(*sides, sizes["signal"] ** 2 * 16 if repairs else 0)
        _check_bytes(n, params.M, need)

    reports = []
    for n, params in zip(n_list, all_params):
        if params.degenerate:
            warnings.warn(f"degenerate single-message code at n={n}", stacklevel=2)
        eve_ref = _kron_chain([eve_avg] * n)
        target_n = _kron_chain([target] * n)
        lams, mus, resids, costs = [], [], [], []
        for t in range(trials):
            cb = sample_codebook(ens, n, params.M, params.S, _trial_seed(seed, n, t))
            lams.append(_pgm_error(_bin_average(bob, cb.words)))
            mus.append(_mean_distance(eve, cb.words, eve_ref))
            r, c = _mean_distance(margs, cb.words, target_n), 0.0
            if r > 1e-12:
                r, c = marginal_residual_and_fixup(cb, ens, res)
            resids.append(r)
            costs.append(c)
        lam_arr = np.asarray(lams)
        ci = (
            1.96 * float(lam_arr.std(ddof=1)) / math.sqrt(trials) if trials > 1 else 0.0
        )
        reports.append(
            SimReport(
                n=n,
                M=params.M,
                S=params.S,
                rate=params.rate,
                lambda_hat=float(np.clip(lam_arr.mean(), 0.0, 1.0)),
                mu_hat=float(np.mean(mus)),
                marginal_residual=float(np.mean(resids)),
                fixup_cost=float(np.mean(costs)),
                trials=trials,
                ci_halfwidth=ci,
                lambda_trials=tuple(float(x) for x in lams),
                mu_trials=tuple(float(x) for x in mus),
            )
        )
    return reports
