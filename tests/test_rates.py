import numpy as np
import pytest

from conftest import (
    PAULI,
    bell_resource_state,
    broadcast_copy_channel,
    ensemble_pushforward,
    identity_qubit_wiretap,
    lift_to_reference,
    phi0_of,
    random_full_rank_state,
    random_kraus,
    random_state,
    rng,
    superdense_ensemble,
)
from wiretap.channels import (
    CqEnsemble,
    QuantumChannel,
    apply,
    channel_from_resource_state,
    classical_channel,
    constant_channel,
    cq_state,
    modulation_from_choi,
    trivial_resource,
)
from wiretap.qcore import (
    DensityOperator,
    LabeledSpace,
    ValidationError,
    basis_state,
    tensor,
)
from wiretap.rates import (
    RateReport,
    build_gamma,
    classical_embed,
    marginal_constraint_residual,
    theorem1_rate,
    trivial_rate,
    unassisted_rate,
)

A = LabeledSpace.of(("A", 2))


def random_wiretap_channel(gen, d_in=2, d_b=2, d_e=2, n_kraus=3) -> QuantumChannel:
    return QuantumChannel(
        LabeledSpace.of(("A", d_in)),
        LabeledSpace.of(("B", d_b), ("E", d_e)),
        random_kraus(gen, d_in, d_b * d_e, n_kraus),
    )


def random_signal_ensemble(gen, k=3, d=2) -> CqEnsemble:
    probs = gen.random(k)
    probs /= probs.sum()
    return CqEnsemble(
        list(range(k)), probs, [random_state(gen, LabeledSpace.of(("A", d))) for _ in range(k)]
    )


# ---------------------------------------------------------------------------
# Report type
# ---------------------------------------------------------------------------


def test_rate_report_invariants():
    RateReport(1.0, 0.3, 0.5, 0.5, 0.0, "theorem1")
    with pytest.raises(ValidationError, match="inconsistent"):
        RateReport(1.0, 0.3, 0.5, 0.7, 0.0, "theorem1")
    with pytest.raises(ValidationError, match="i_u_aprime"):
        RateReport(1.0, 0.3, 0.5, 0.7, 0.0, "trivial")
    with pytest.raises(ValidationError, match="mode"):
        RateReport(1.0, 0.3, 0.0, 0.7, 0.0, "bogus")
    rep = RateReport(1.0, 0.3, 0.0, 0.7, 1e-3, "trivial")
    assert not rep.feasible
    assert "operational" in rep.summary()


# ---------------------------------------------------------------------------
# gamma / residual
# ---------------------------------------------------------------------------


def test_build_gamma_matches_pushforward_composition():
    gen = rng(307)
    zeta = random_full_rank_state(gen, LabeledSpace.of(("Ap", 2), ("Bp", 2), ("Ep", 2)))
    res = channel_from_resource_state(zeta)
    n = random_wiretap_channel(gen)
    space = LabeledSpace.of(("A", 2), ("App", 2))
    ens = CqEnsemble([0, 1], [0.5, 0.5], [random_state(gen, space) for _ in range(2)])
    gamma = build_gamma(ens, n, res)
    pushed = ensemble_pushforward(ens, n, ["A"])
    pushed = ensemble_pushforward(pushed, res.z_channel, ["App"])
    want = cq_state(pushed)
    assert np.allclose(gamma.matrix, want.matrix, atol=1e-12)


def test_marginal_constraint_residual_cases():
    res = bell_resource_state()
    gen = rng(311)
    # Per-member exact marginal: rho_u x zeta^{A'}.
    marg = res.zeta_marginal.relabeled({"Ap": "App"})
    states = [tensor(random_state(gen, A), marg) for _ in range(2)]
    ens = CqEnsemble([0, 1], [0.5, 0.5], states)
    assert marginal_constraint_residual(ens, res) <= 1e-12
    # Average feasibility without per-member feasibility.
    app = LabeledSpace.of(("App", 2))
    s0 = tensor(random_state(gen, A), basis_state(app, [0]))
    s1 = tensor(random_state(gen, A), basis_state(app, [1]))
    ens2 = CqEnsemble([0, 1], [0.5, 0.5], [s0, s1])
    assert marginal_constraint_residual(ens2, res) <= 1e-12
    # Infeasible ensemble: residual equals an eigenvalue-oracle trace norm.
    ens3 = CqEnsemble([0], [1.0], [s0])
    got = marginal_constraint_residual(ens3, res)
    diff = basis_state(app, [0]).matrix - res.zeta_marginal.matrix
    want = np.sum(np.abs(np.linalg.eigvalsh(diff)))
    assert got == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------------------
# Trivial-resource collapse
# ---------------------------------------------------------------------------


def test_trivial_resource_collapse_exact():
    gen = rng(313)
    res = trivial_resource()
    for _ in range(5):
        n = random_wiretap_channel(gen)
        ens = random_signal_ensemble(gen)
        lifted = lift_to_reference(ens)
        r_thm = theorem1_rate(lifted, n, res)
        r_un = unassisted_rate(ens, n)
        assert abs(r_thm.rate - r_un.rate) <= 1e-12
        assert r_thm.i_u_aprime == 0.0
        mods = [constant_channel(LabeledSpace.of(("Ap", 1)), s) for s in ens.states]
        r_triv = trivial_rate(ens.probs, mods, n, res)
        assert abs(r_triv.rate - r_un.rate) <= 1e-10


# ---------------------------------------------------------------------------
# Superdense coding instance
# ---------------------------------------------------------------------------


def test_superdense_theorem1_rate_is_two():
    res = bell_resource_state()
    n = identity_qubit_wiretap()
    ens = superdense_ensemble()
    rep = theorem1_rate(ens, n, res)
    assert rep.i_u_aprime == 0.0  # bitwise-equal marginals: exact block structure
    assert rep.i_u_bb == pytest.approx(2.0, abs=1e-9)
    assert abs(rep.i_u_ee) <= 1e-9
    assert rep.rate == pytest.approx(2.0, abs=1e-9)
    assert rep.feasible


def test_superdense_matches_pauli_modulations():
    res = bell_resource_state()
    n = identity_qubit_wiretap()
    mods = [
        QuantumChannel(LabeledSpace.of(("Ap", 2)), A, [PAULI[s]]) for s in "IXYZ"
    ]
    rep = trivial_rate([0.25] * 4, mods, n, res)
    assert rep.rate == pytest.approx(2.0, abs=1e-9)
    assert rep.constraint_residual <= 1e-9


def test_trivial_rate_refuses_bad_probabilities():
    res = bell_resource_state()
    n = identity_qubit_wiretap()
    mods = [QuantumChannel(LabeledSpace.of(("Ap", 2)), A, [PAULI[s]]) for s in "IXYZ"]
    for probs, message in [([0.9, 0.9, -0.4, -0.4], "negative"), ([0.5] * 4, "sum")]:
        with pytest.raises(ValidationError, match=message):
            trivial_rate(probs, mods, n, res)


def test_exact_marginal_ensemble_equals_modulation_rate():
    # Members with per-u exact marginal correspond to modulations; rates agree.
    gen = rng(317)
    zeta = random_full_rank_state(gen, LabeledSpace.of(("Ap", 2), ("Bp", 2), ("Ep", 2)))
    res = channel_from_resource_state(zeta)
    n = random_wiretap_channel(gen)
    mods = [
        QuantumChannel(LabeledSpace.of(("Ap", 2)), A, random_kraus(gen, 2, 2, 2))
        for _ in range(3)
    ]
    probs = [0.5, 0.25, 0.25]
    # eta_u = (E_u x id) phi0, signal factor first relabeled to A.
    members = [apply(m, phi0_of(res), on=["Ap"]) for m in mods]  # (App, A)
    ens = CqEnsemble([0, 1, 2], probs, members)
    rep_thm = theorem1_rate(ens, n, res)
    rep_triv = trivial_rate(probs, mods, n, res)
    assert rep_thm.i_u_aprime <= 1e-10
    assert rep_thm.rate == pytest.approx(rep_triv.rate, abs=1e-8)
    # Round trip through modulation recovery gives the same rate again.
    recovered = [modulation_from_choi(m, res.zeta_marginal, ref_label="App") for m in members]
    rep_rec = trivial_rate(probs, recovered, n, res)
    assert rep_rec.rate == pytest.approx(rep_triv.rate, abs=1e-7)


# ---------------------------------------------------------------------------
# Dominance and invariances
# ---------------------------------------------------------------------------


def test_theorem1_dominates_trivial_on_matched_instances():
    gen = rng(331)
    for _ in range(25):
        zeta = random_full_rank_state(gen, LabeledSpace.of(("Ap", 2), ("Bp", 2), ("Ep", 2)))
        res = channel_from_resource_state(zeta)
        n = random_wiretap_channel(gen)
        k = int(gen.integers(2, 4))
        probs = gen.random(k)
        probs /= probs.sum()
        mods = [
            QuantumChannel(LabeledSpace.of(("Ap", 2)), A, random_kraus(gen, 2, 2, 2))
            for _ in range(k)
        ]
        members = [apply(m, phi0_of(res), on=["Ap"]) for m in mods]
        rep_thm = theorem1_rate(CqEnsemble(list(range(k)), probs, members), n, res)
        rep_triv = trivial_rate(probs, mods, n, res)
        assert rep_thm.rate >= rep_triv.rate - 1e-10


def test_rates_invariant_under_member_permutation_and_relabeling():
    gen = rng(337)
    n = random_wiretap_channel(gen)
    ens = random_signal_ensemble(gen)
    base = unassisted_rate(ens, n).rate
    perm = [2, 0, 1]
    shuffled = CqEnsemble(
        ["x", "y", "z"], ens.probs[perm], [ens.states[i] for i in perm]
    )
    assert unassisted_rate(shuffled, n).rate == pytest.approx(base, abs=1e-12)

    zeta = random_full_rank_state(gen, LabeledSpace.of(("Ap", 2), ("Bp", 2), ("Ep", 2)))
    res = channel_from_resource_state(zeta)
    space = LabeledSpace.of(("A", 2), ("App", 2))
    joint = CqEnsemble([0, 1, 2], ens.probs, [random_state(gen, space) for _ in range(3)])
    base_t = theorem1_rate(joint, n, res).rate
    shuffled_t = CqEnsemble(
        ["x", "y", "z"], joint.probs[perm], [joint.states[i] for i in perm]
    )
    assert theorem1_rate(shuffled_t, n, res).rate == pytest.approx(base_t, abs=1e-12)


# ---------------------------------------------------------------------------
# Trivial and unassisted functionals
# ---------------------------------------------------------------------------


def test_trivial_rate_identical_modulations_is_zero():
    gen = rng(347)
    zeta = random_full_rank_state(gen, LabeledSpace.of(("Ap", 2), ("Bp", 2), ("Ep", 2)))
    res = channel_from_resource_state(zeta)
    n = random_wiretap_channel(gen)
    mod = QuantumChannel(LabeledSpace.of(("Ap", 2)), A, random_kraus(gen, 2, 2, 2))
    rep = trivial_rate([0.5, 0.5], [mod, mod], n, res)
    assert abs(rep.rate) <= 1e-10


def test_trivial_rate_orthogonal_preparations():
    res = trivial_resource()
    n = identity_qubit_wiretap()
    mods = [
        constant_channel(LabeledSpace.of(("Ap", 1)), basis_state(A, [i])) for i in range(2)
    ]
    rep = trivial_rate([0.5, 0.5], mods, n, res)
    assert rep.rate == pytest.approx(1.0, abs=1e-10)


def test_unassisted_rate_symmetric_channel_is_zero():
    # Bob and Eve receive identical classical copies: I(U:B) = I(U:E) exactly.
    bc = broadcast_copy_channel()
    gen = rng(349)
    for _ in range(5):
        ens = random_signal_ensemble(gen)
        rep = unassisted_rate(ens, bc)
        assert rep.rate == 0.0


def test_unassisted_rate_identity_channel():
    n = identity_qubit_wiretap()
    ens = CqEnsemble([0, 1], [0.5, 0.5], [basis_state(A, [0]), basis_state(A, [1])])
    assert unassisted_rate(ens, n).rate == pytest.approx(1.0, abs=1e-10)


def test_unassisted_rate_ignores_a_trivial_reference_copy():
    gen = rng(353)
    n = random_wiretap_channel(gen)
    ens = random_signal_ensemble(gen)
    want = unassisted_rate(ens, n)
    copy = basis_state(LabeledSpace.of(("App", 1)), [0])
    for members in (
        [tensor(copy, s) for s in ens.states],
        [tensor(s, copy) for s in ens.states],
    ):
        lifted = CqEnsemble(ens.labels, ens.probs, members)
        assert unassisted_rate(lifted, n) == want  # every field, exactly
    wide = basis_state(LabeledSpace.of(("App", 2)), [0])
    lifted = CqEnsemble(ens.labels, ens.probs, [tensor(s, wide) for s in ens.states])
    with pytest.raises(ValidationError, match="one-dimensional factors aside"):
        unassisted_rate(lifted, n)


# ---------------------------------------------------------------------------
# Classical embedding and the Shannon-theoretic reduction
# ---------------------------------------------------------------------------


def test_classical_embed_basic():
    p = np.zeros((2, 2, 2))
    p[1, 0, 1] = 1.0
    zeta = classical_embed(p)
    want = basis_state(zeta.space, [1, 0, 1])
    assert np.allclose(zeta.matrix, want.matrix, atol=1e-14)

    # Perfectly correlated uniform bits X=Y, Z independent.
    p2 = np.zeros((2, 2, 2))
    p2[0, 0, 0] = p2[1, 1, 0] = 0.5
    zeta2 = classical_embed(p2)
    from wiretap.entropic import mutual_information

    assert mutual_information(zeta2, {"Ap"}, {"Bp"}) == pytest.approx(1.0, abs=1e-10)

    with pytest.raises(ValidationError, match="sums"):
        classical_embed(np.ones((2, 2, 2)))
    with pytest.raises(ValidationError, match="negative"):
        classical_embed(np.array([[[1.5, -0.5]], [[0.0, 0.0]]]))


def shannon_mi(joint: np.ndarray, axes_a: tuple, axes_b: tuple) -> float:
    """Shannon mutual information between two axis groups of a joint pmf."""

    def h(p):
        p = p.reshape(-1)
        p = p[p > 1e-14]
        return float(-np.sum(p * np.log2(p)))

    all_axes = set(range(joint.ndim))
    pa = joint.sum(axis=tuple(all_axes - set(axes_a)))
    pb = joint.sum(axis=tuple(all_axes - set(axes_b)))
    pab = joint.sum(axis=tuple(all_axes - set(axes_a) - set(axes_b)))
    return h(pa) + h(pb) - h(pab)


def test_classical_instance_matches_shannon_oracle():
    """Diagonal channel, ensemble and resource reduce to Shannon quantities."""
    gen = rng(353)
    # Classical wiretap channel P(y,e|x) on bits.
    p_ye_x = gen.random((2, 2, 2))
    p_ye_x /= p_ye_x.sum(axis=(0, 1), keepdims=True)
    n = QuantumChannel(
        LabeledSpace.of(("A", 2)),
        LabeledSpace.of(("B", 2), ("E", 2)),
        classical_channel(
            p_ye_x.reshape(4, 2), LabeledSpace.of(("A", 2)), LabeledSpace.of(("O", 4))
        ).kraus,
    )
    # Classical resource pmf P(x', y', z') with a non-degenerate x' marginal.
    pmf = gen.random((2, 2, 2))
    pmf /= pmf.sum()
    res = channel_from_resource_state(classical_embed(pmf))
    p_xp = pmf.sum(axis=(1, 2))

    # Two diagonal members; average x' marginal equals p_xp by construction.
    d = np.array([0.05, -0.05])
    margs = [p_xp + d, p_xp - d]
    sigs = [gen.random(2) for _ in range(2)]
    sigs = [s / s.sum() for s in sigs]
    r = [np.outer(sigs[u], margs[u]) for u in range(2)]  # joint pmf over (x, x')
    q = np.array([0.5, 0.5])
    space = LabeledSpace.of(("A", 2), ("App", 2))
    members = [
        DensityOperator(space, np.diag(r[u].reshape(-1)).astype(complex)) for u in range(2)
    ]
    ens = CqEnsemble([0, 1], q, members)
    rep = theorem1_rate(ens, n, res)

    # Shannon oracle: joint pmf over (u, y, e, y', z').
    z_cond = pmf / p_xp[:, None, None]  # P(y', z' | x')
    joint = np.einsum("u,uxw,yex,wvz->uyevz", q, np.stack(r), p_ye_x.transpose(0, 1, 2), z_cond)
    # axes: u=0, y=1, e=2, y'=3, z'=4
    i_bb = shannon_mi(joint, (0,), (1, 3))
    i_ee = shannon_mi(joint, (0,), (2, 4))
    joint_ux = np.einsum("u,uxw->uw", q, np.stack(r))
    i_ax = shannon_mi(joint_ux, (0,), (1,))
    assert rep.i_u_bb == pytest.approx(i_bb, abs=1e-10)
    assert rep.i_u_ee == pytest.approx(i_ee, abs=1e-10)
    assert rep.i_u_aprime == pytest.approx(i_ax, abs=1e-10)
    assert rep.rate == pytest.approx(i_bb - max(i_ee, i_ax), abs=1e-10)


def test_classical_trivial_and_unassisted_match_shannon_oracle():
    """Diagonal modulations of a diagonal resource reduce to Shannon MIs."""
    gen = rng(367)
    p_ye_x = gen.random((2, 2, 2))
    p_ye_x /= p_ye_x.sum(axis=(0, 1), keepdims=True)
    n = QuantumChannel(
        LabeledSpace.of(("A", 2)),
        LabeledSpace.of(("B", 2), ("E", 2)),
        classical_channel(
            p_ye_x.reshape(4, 2), LabeledSpace.of(("A", 2)), LabeledSpace.of(("O", 4))
        ).kraus,
    )
    pmf = gen.random((2, 2, 2))
    pmf /= pmf.sum()
    res = channel_from_resource_state(classical_embed(pmf))
    p_xp = pmf.sum(axis=(1, 2))
    z_cond = pmf / p_xp[:, None, None]  # P(y', z' | x')

    # Random classical modulation kernels P_u(x | x').
    kernels = []
    mods = []
    for _ in range(2):
        k = gen.random((2, 2))
        k /= k.sum(axis=0, keepdims=True)
        kernels.append(k)
        mods.append(classical_channel(k, LabeledSpace.of(("Ap", 2)), LabeledSpace.of(("A", 2))))
    q = np.array([0.4, 0.6])
    rep = trivial_rate(q, mods, n, res)

    # Oracle joint pmf over (u, y, e, y', z').
    # kernels[u][x, w] = P_u(x | x'=w), already (output, input) indexed.
    joint = np.einsum("u,w,uxw,yex,wvz->uyevz", q, p_xp, np.stack(kernels), p_ye_x, z_cond)
    i_bb = shannon_mi(joint, (0,), (1, 3))
    i_ee = shannon_mi(joint, (0,), (2, 4))
    assert rep.i_u_bb == pytest.approx(i_bb, abs=1e-10)
    assert rep.i_u_ee == pytest.approx(i_ee, abs=1e-10)
    assert rep.rate == pytest.approx(i_bb - i_ee, abs=1e-10)

    # Unassisted: diagonal input ensemble against the Shannon quantities.
    sig = [gen.random(2) for _ in range(2)]
    sig = [s / s.sum() for s in sig]
    ens = CqEnsemble(
        [0, 1],
        q,
        [
            DensityOperator(LabeledSpace.of(("A", 2)), np.diag(s).astype(complex))
            for s in sig
        ],
    )
    rep_u = unassisted_rate(ens, n)
    joint_u = np.einsum("u,ux,yex->uye", q, np.stack(sig), p_ye_x)
    assert rep_u.i_u_bb == pytest.approx(shannon_mi(joint_u, (0,), (1,)), abs=1e-10)
    assert rep_u.i_u_ee == pytest.approx(shannon_mi(joint_u, (0,), (2,)), abs=1e-10)


def test_space_mismatch_errors():
    gen = rng(359)
    n = random_wiretap_channel(gen)
    res = bell_resource_state()
    bad = CqEnsemble([0], [1.0], [random_state(gen, A)])  # no reference factor
    with pytest.raises(ValidationError, match="reference"):
        theorem1_rate(bad, n, res)
    with pytest.raises(ValidationError, match="dims"):
        unassisted_rate(
            CqEnsemble([0], [1.0], [random_state(gen, LabeledSpace.of(("A", 3)))]), n
        )
