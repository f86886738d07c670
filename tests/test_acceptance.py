"""Acceptance criteria, one test per criterion, at their stated tolerances.

Each test prints a single PASS/FAIL line (visible with pytest -s and in
failure output).  Criterion 7's leakage clause checks the measured leakage
against what random binning promises at block lengths 2, 4 and 6 (the
exact expectation and the chi-square covering bound), not a monotone trend
in n, which the method only promises asymptotically; the analysis is in
docs/decisions.md.
"""

import itertools
import math
import time
import warnings

import numpy as np

from conftest import (
    bell_resource_state,
    broadcast_copy_channel,
    identity_qubit_wiretap,
    lift_to_reference,
    phi0_of,
    random_density_matrix,
    random_full_rank_state,
    random_kraus,
    random_pure_state,
    random_state,
    rng,
    superdense_ensemble,
)
from wiretap.channels import (
    CqEnsemble,
    QuantumChannel,
    apply,
    channel_from_resource_state,
    constant_channel,
    trivial_resource,
)
from wiretap.codesim import pgm_decoder, run_experiment
from wiretap.entropic import mutual_information, von_neumann_entropy
from wiretap.measures import (
    dense_coding_advantage,
    duality_residual,
    entanglement_of_purification,
)
from wiretap.optimize import (
    OptimizerConfig,
    grid_oracle,
    optimize_theorem1,
    optimize_unassisted,
)
from wiretap.qcore import (
    DensityOperator,
    LabeledSpace,
    basis_state,
    fidelity,
    hermitian_trace_norm,
    permute_factors,
    tensor,
    trace_distance,
)
from wiretap.rates import theorem1_rate, trivial_rate, unassisted_rate
from wiretap.scenario import gallery_classical


def _report(num: int, ok: bool, detail: str, t0: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} {status}: {detail} ({time.monotonic() - t0:.1f}s)")


def test_acceptance_1_trivial_resource_collapse():
    t0 = time.monotonic()
    gen = rng(1001)
    res = trivial_resource()
    max_dev = 0.0
    for _ in range(20):
        d_in = int(gen.integers(2, 4))
        d_b = int(gen.integers(2, 4))
        d_e = int(gen.integers(2, 4))
        channel = QuantumChannel(
            LabeledSpace.of(("A", d_in)),
            LabeledSpace.of(("B", d_b), ("E", d_e)),
            random_kraus(gen, d_in, d_b * d_e, int(gen.integers(1, 4))),
        )
        k = int(gen.integers(2, 4))
        probs = gen.random(k)
        probs /= probs.sum()
        states = [random_state(gen, channel.input_space) for _ in range(k)]
        ens = CqEnsemble(list(range(k)), probs, states)
        r_un = unassisted_rate(ens, channel).rate
        r_thm = theorem1_rate(lift_to_reference(ens), channel, res).rate
        mods = [constant_channel(LabeledSpace.of(("Ap", 1)), s) for s in states]
        r_triv = trivial_rate(probs, mods, channel, res).rate
        max_dev = max(max_dev, abs(r_thm - r_un), abs(r_triv - r_un))
    elapsed = time.monotonic() - t0
    ok = max_dev <= 1e-10 and elapsed < 10.0
    _report(1, ok, f"trivial-resource collapse, max deviation {max_dev:.2e}", t0)
    assert max_dev <= 1e-10
    assert elapsed < 10.0


def test_acceptance_2_superdense_recovery():
    t0 = time.monotonic()
    channel = identity_qubit_wiretap()
    res = bell_resource_state()
    rep = theorem1_rate(superdense_ensemble(), channel, res)
    explicit_ok = abs(rep.rate - 2.0) <= 1e-9

    opt = optimize_theorem1(
        channel, res, OptimizerConfig(seed=2025, restarts=2, max_iters=200)
    )
    opt_ok = opt.best_value >= 2.0 - 1e-3

    un = optimize_unassisted(
        channel, OptimizerConfig(seed=2025, restarts=3, max_iters=300)
    )
    oracle = grid_oracle(channel, trivial_resource())
    un_ok = abs(un.best_value - 1.0) <= 1e-2 and abs(un.best_value - oracle) <= 1e-2

    elapsed = time.monotonic() - t0
    ok = explicit_ok and opt_ok and un_ok and elapsed < 120.0
    _report(
        2,
        ok,
        f"superdense: explicit rate {rep.rate:.9f}, optimizer {opt.best_value:.6f}, "
        f"unassisted {un.best_value:.6f} vs grid {oracle:.6f}",
        t0,
    )
    assert explicit_ok and opt_ok and un_ok
    assert elapsed < 120.0


def test_acceptance_3_broadcast_zero_rate():
    t0 = time.monotonic()
    channel = broadcast_copy_channel()
    res = trivial_resource()
    opt = optimize_unassisted(
        channel, OptimizerConfig(seed=303, restarts=10, max_iters=200)
    )
    oracle = grid_oracle(channel, res)
    elapsed = time.monotonic() - t0
    ok = opt.best_value <= 1e-6 and oracle <= 1e-6 and elapsed < 120.0
    _report(
        3,
        ok,
        f"broadcast: optimized {opt.best_value:.3e}, grid oracle {oracle:.3e}",
        t0,
    )
    assert opt.best_value <= 1e-6
    assert oracle <= 1e-6
    assert elapsed < 120.0


def test_acceptance_4_resource_channel_machinery():
    t0 = time.monotonic()
    gen = rng(4004)
    space = LabeledSpace.of(("Ap", 2), ("Bp", 2), ("Ep", 2))
    worst_roundtrip = 0.0
    worst_swap = 0.0
    for _ in range(100):
        zeta = random_full_rank_state(gen, space)
        res = channel_from_resource_state(zeta)
        rebuilt = apply(res.z_channel, phi0_of(res), on=["App"])
        worst_roundtrip = max(
            worst_roundtrip, hermitian_trace_norm(rebuilt.matrix - res.zeta.matrix)
        )
        mod = QuantumChannel(
            LabeledSpace.of(("Ap", 2)),
            LabeledSpace.of(("A", 2)),
            random_kraus(gen, 2, 2, int(gen.integers(1, 4))),
        )
        lhs = permute_factors(apply(mod, res.zeta, on=["Ap"]), ["A", "Bp", "Ep"])
        rhs = apply(res.z_channel, apply(mod, phi0_of(res), on=["Ap"]), on=["App"])
        worst_swap = max(worst_swap, hermitian_trace_norm(lhs.matrix - rhs.matrix))
    elapsed = time.monotonic() - t0
    ok = worst_roundtrip <= 1e-8 and worst_swap <= 1e-8 and elapsed < 60.0
    _report(
        4,
        ok,
        f"resource channel: worst roundtrip {worst_roundtrip:.2e}, "
        f"worst modulation swap {worst_swap:.2e}",
        t0,
    )
    assert worst_roundtrip <= 1e-8
    assert worst_swap <= 1e-8
    assert elapsed < 60.0


def test_acceptance_5_dominance_and_exact_zero_penalty():
    t0 = time.monotonic()
    gen = rng(5005)
    space = LabeledSpace.of(("Ap", 2), ("Bp", 2), ("Ep", 2))
    worst_gap = 0.0
    for _ in range(100):
        zeta = random_full_rank_state(gen, space)
        res = channel_from_resource_state(zeta)
        channel = QuantumChannel(
            LabeledSpace.of(("A", 2)),
            LabeledSpace.of(("B", 2), ("E", 2)),
            random_kraus(gen, 2, 4, 2),
        )
        k = int(gen.integers(2, 4))
        probs = gen.random(k)
        probs /= probs.sum()
        mods = [
            QuantumChannel(
                LabeledSpace.of(("Ap", 2)), LabeledSpace.of(("A", 2)), random_kraus(gen, 2, 2, 2)
            )
            for _ in range(k)
        ]
        members = [apply(m, phi0_of(res), on=["Ap"]) for m in mods]
        r_thm = theorem1_rate(CqEnsemble(list(range(k)), probs, members), channel, res).rate
        r_triv = trivial_rate(probs, mods, channel, res).rate
        worst_gap = max(worst_gap, r_triv - r_thm)

    # Bitwise-equal member marginals give an exactly zero penalty term.
    rep_sd = theorem1_rate(superdense_ensemble(), identity_qubit_wiretap(), bell_resource_state())
    res_b = bell_resource_state()
    marg = res_b.zeta_marginal.relabeled({"Ap": "App"})
    signal = LabeledSpace.of(("A", 2))
    prod_members = [tensor(basis_state(signal, [i % 2]), marg) for i in range(2)]
    rep_prod = theorem1_rate(
        CqEnsemble([0, 1], [0.5, 0.5], prod_members),
        identity_qubit_wiretap(),
        res_b,
    )
    exact_zero = rep_sd.i_u_aprime == 0.0 and rep_prod.i_u_aprime == 0.0

    elapsed = time.monotonic() - t0
    ok = worst_gap <= 1e-10 and exact_zero
    _report(
        5,
        ok,
        f"dominance: worst trivial-minus-theorem1 gap {worst_gap:.2e}, "
        f"exact zero penalty {exact_zero}",
        t0,
    )
    assert worst_gap <= 1e-10
    assert exact_zero


def test_acceptance_6_duality_and_products():
    t0 = time.monotonic()
    gen = rng(6006)
    cfg = OptimizerConfig(seed=606, restarts=5, max_iters=1500)
    space = LabeledSpace.of(("Ap", 2), ("Bp", 2), ("Cp", 2))
    worst_random = 0.0
    for _ in range(10):
        psi = random_pure_state(gen, space)
        worst_random = max(worst_random, duality_residual(psi, cfg=cfg))

    from wiretap.qcore import maximally_entangled

    bell_case = duality_residual(
        tensor(
            maximally_entangled("Ap", "Bp", 2),
            basis_state(LabeledSpace.of(("Cp", 2)), [0]),
        ),
        cfg=cfg,
    )

    prod_ab = tensor(
        DensityOperator(LabeledSpace.of(("Ap", 2)), random_density_matrix(gen, 2)),
        DensityOperator(LabeledSpace.of(("Bp", 2)), random_density_matrix(gen, 2)),
    )
    delta_prod = abs(dense_coding_advantage(prod_ab, cfg=cfg).best_value)
    ep_prod_state = tensor(
        DensityOperator(LabeledSpace.of(("C", 2)), random_density_matrix(gen, 2)),
        basis_state(LabeledSpace.of(("D", 2)), [1]),
    )
    ep_prod = abs(entanglement_of_purification(ep_prod_state, cfg=cfg).best_value)

    elapsed = time.monotonic() - t0
    ok = (
        worst_random <= 1e-2
        and bell_case <= 1e-3
        and delta_prod <= 1e-4
        and ep_prod <= 1e-4
        and elapsed < 600.0
    )
    _report(
        6,
        ok,
        f"duality: worst random residual {worst_random:.2e}, Bell case {bell_case:.2e}, "
        f"delta(product) {delta_prod:.2e}, E_P(product) {ep_prod:.2e}",
        t0,
    )
    assert worst_random <= 1e-2
    assert bell_case <= 1e-3
    assert delta_prod <= 1e-4
    assert ep_prod <= 1e-4
    assert elapsed < 600.0


# Criterion 7's instance: uniform input bit, Eve's one-letter channel is
# Bob's BSC(0.05) followed by a BSC(1/6), i.e. a BSC(0.2).
_EVE_CROSSOVER = 0.05 * (5.0 / 6.0) + 0.95 * (1.0 / 6.0)


def _expected_bin_leakage(n: int, s: int, crossover: float) -> float:
    """Exact E || (1/S) sum_s W^n(.|x_s) - Q^n ||_1 over S i.i.d. uniform
    codewords, by enumeration of all S-tuples of length-n words.

    W^n(e|x) = c^d (1-c)^(n-d) with d the Hamming distance; with a uniform
    input the reference Q^n is uniform.
    """
    words = np.array(list(itertools.product((0, 1), repeat=n)))
    dist = (words[:, None, :] != words[None, :, :]).sum(axis=2)
    cond = crossover**dist * (1.0 - crossover) ** (n - dist)
    tuples = np.array(list(itertools.product(range(2**n), repeat=s)))
    bin_avg = cond[tuples].mean(axis=1)
    return float(np.abs(bin_avg - 2.0**-n).sum(axis=1).mean())


def test_acceptance_7_codesim_trends():
    """Random-code simulation of the classical instance at n in {2, 4, 6}.

    Clauses: lambda_hat is nonincreasing in n; every fixup cost is within
    its 4*sqrt(residual) budget; the converse code (rate 1) fails to decode
    at n=6; the run finishes in time; and the leakage tracks random-binning
    theory at the bin sizes S(n) = round(2^(n (I(U:EE') + eps))):

    * S(n) is the size computed from the closed-form I(U:E) = 1 - h(0.2);
    * at n = 2 and 4, mu_hat lies within 4 standard errors of the exact
      expected leakage of a uniformly random bin, enumerated here;
    * at every n, mu_hat is at most the chi-square covering bound
      sqrt((2^(n I_2(U:E)) - 1) / S(n)), with I_2 the collision information.

    The clause used to demand that mu_hat be nonincreasing in n.  Random
    binning promises that only as n -> infinity; here I(U:EE') + eps = 0.378
    lies below I_2 = 0.444, and the exact expectations themselves rise from
    n=2 to n=6.  The measured trend is reported, not asserted.  See
    docs/decisions.md for the analysis and the epsilon scan.
    """
    t0 = time.monotonic()
    sc = gallery_classical()
    res = sc.resource_state()
    rep = theorem1_rate(sc.ensemble, sc.channel, res)
    epsilon = 0.1
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        reports = run_experiment(
            sc, [2, 4, 6], epsilon, trials=50, seed=20250810, rate=0.8 * rep.rate
        )
        converse = run_experiment(
            sc, [2, 4, 6], epsilon, trials=50, seed=20250810, rate=1.0
        )
    lams = [r.lambda_hat for r in reports]
    mus = [r.mu_hat for r in reports]
    lam_ok = all(lams[i + 1] <= lams[i] + 1e-12 for i in range(2))

    c = _EVE_CROSSOVER
    i_ue = 1.0 + c * math.log2(c) + (1.0 - c) * math.log2(1.0 - c)
    i2_ue = math.log2(2.0 * (c * c + (1.0 - c) ** 2))
    sizes = [math.floor(2.0 ** (r.n * (i_ue + epsilon)) + 0.5) for r in reports]
    ses = [float(np.std(r.mu_trials, ddof=1)) / math.sqrt(r.trials) for r in reports]
    expected = [_expected_bin_leakage(r.n, s, c) for r, s in zip(reports[:2], sizes)]
    bounds = [math.sqrt((2.0 ** (r.n * i2_ue) - 1.0) / s) for r, s in zip(reports, sizes)]
    sizes_ok = [r.S for r in reports] == sizes
    mean_ok = all(abs(m - e) <= 4.0 * se for m, e, se in zip(mus, expected, ses))
    bound_ok = all(m <= b for m, b in zip(mus, bounds))
    mu_ok = sizes_ok and mean_ok and bound_ok
    mu_trend = "nonincreasing" if all(mus[i + 1] <= mus[i] for i in range(2)) else "not monotone"

    budget_ok = all(
        r.fixup_cost <= 4.0 * np.sqrt(r.marginal_residual) + 1e-9 for r in reports + converse
    )
    converse_ok = converse[-1].lambda_hat >= 0.5
    elapsed = time.monotonic() - t0
    ok = lam_ok and mu_ok and budget_ok and converse_ok and elapsed < 900.0
    _report(
        7,
        ok,
        f"codesim trends: lambda {['%.4f' % x for x in lams]} (nonincreasing={lam_ok}), "
        f"mu {['%.4f' % x for x in mus]} ({mu_trend}, not asserted), "
        f"S {[r.S for r in reports]} (closed form {sizes_ok}), "
        f"E mu(n=2,4) {['%.4f' % x for x in expected]} within 4 se={mean_ok}, "
        f"chi2 bound {['%.4f' % x for x in bounds]} holds={bound_ok}, "
        f"fixup budget {budget_ok}, converse lambda {converse[-1].lambda_hat:.4f}",
        t0,
    )
    assert lam_ok, f"lambda_hat not nonincreasing: {lams}"
    assert budget_ok
    assert converse_ok
    assert elapsed < 900.0
    assert mu_ok, (
        f"mu_hat {mus} (se {ses}) does not track random binning: bin sizes "
        f"{[r.S for r in reports]} vs closed form {sizes}, exact expectations at "
        f"n=2,4 {expected}, chi-square bounds {bounds}; see docs/decisions.md"
    )


def test_acceptance_7_supplement_shared_pad_instance():
    """Supplementary (not a criterion): the same experiment on the
    shared-pad classical resource, where the pad makes Eve's states
    message-independent.  Demonstrates the leakage machinery behaving as
    the asymptotic picture predicts once the covering burden vanishes;
    the decoding-error clause is still rounding-limited there (see
    docs/decisions.md), so only the leakage and budget clauses are asserted.
    """
    t0 = time.monotonic()
    from wiretap.scenario import correlated_bits_pmf

    sc = gallery_classical(correlated_bits_pmf())
    res = sc.resource_state()
    rep = theorem1_rate(sc.ensemble, sc.channel, res)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        reports = run_experiment(
            sc, [2, 4, 6], 0.05, trials=50, seed=20250810, rate=0.8 * rep.rate
        )
    mus = [r.mu_hat for r in reports]
    mu_ok = all(m <= 1e-12 for m in mus)
    budget_ok = all(
        r.fixup_cost <= 4.0 * np.sqrt(r.marginal_residual) + 1e-9 for r in reports
    )
    _report(
        7,
        mu_ok and budget_ok,
        f"supplement (shared pad): mu {['%.1e' % m for m in mus]}, budget {budget_ok}",
        t0,
    )
    assert mu_ok
    assert budget_ok


def test_acceptance_8_substrate_properties():
    t0 = time.monotonic()
    gen = rng(8008)

    fvdg_ok = True
    for _ in range(1000):
        d = int(gen.integers(2, 5))
        space = LabeledSpace.of(("Q", d))
        rho, sigma = random_state(gen, space), random_state(gen, space)
        f = fidelity(rho, sigma)
        t = trace_distance(rho, sigma)
        if not (1 - f <= t + 1e-9 and t <= np.sqrt(max(0.0, 1 - f * f)) + 1e-9):
            fvdg_ok = False
            break

    additivity_dev = 0.0
    for _ in range(100):
        a = random_state(gen, LabeledSpace.of(("X", 2)))
        b = random_state(gen, LabeledSpace.of(("Y", 3)))
        additivity_dev = max(
            additivity_dev,
            abs(
                von_neumann_entropy(tensor(a, b))
                - von_neumann_entropy(a)
                - von_neumann_entropy(b)
            ),
        )

    classical_dev = 0.0
    for _ in range(20):
        pxy = gen.random((2, 3))
        pxy /= pxy.sum()
        rho = DensityOperator(
            LabeledSpace.of(("X", 2), ("Y", 3)), np.diag(pxy.reshape(-1)).astype(complex)
        )
        px, py = pxy.sum(axis=1), pxy.sum(axis=0)

        def h(p):
            p = p[p > 1e-14]
            return float(-np.sum(p * np.log2(p)))

        shannon_mi = h(px) + h(py) - h(pxy.reshape(-1))
        classical_dev = max(
            classical_dev, abs(mutual_information(rho, {"X"}, {"Y"}) - shannon_mi)
        )

    pgm_ok = True
    for _ in range(20):
        m = int(gen.integers(2, 5))
        space = LabeledSpace.of(("Q", int(gen.integers(2, 4))))
        states = [random_state(gen, space) for _ in range(m)]
        povm = pgm_decoder(states)
        total = sum(povm)
        if np.min(np.linalg.eigvalsh(total - np.eye(space.dim))) > 1e-9:
            pgm_ok = False
        for d in povm:
            if np.min(np.linalg.eigvalsh(d)) < -1e-9:
                pgm_ok = False

    elapsed = time.monotonic() - t0
    ok = (
        fvdg_ok
        and additivity_dev <= 1e-10
        and classical_dev <= 1e-10
        and pgm_ok
        and elapsed < 60.0
    )
    _report(
        8,
        ok,
        f"substrate: FvdG(1000 pairs) {fvdg_ok}, additivity dev {additivity_dev:.2e}, "
        f"classical agreement dev {classical_dev:.2e}, PGM validity {pgm_ok}",
        t0,
    )
    assert fvdg_ok
    assert additivity_dev <= 1e-10
    assert classical_dev <= 1e-10
    assert pgm_ok
    assert elapsed < 60.0
