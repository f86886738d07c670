import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    append_trivial_output,
    channels_equal_in_action,
    ensemble_pushforward,
    identity_channel,
    is_pure,
    maximally_mixed,
    phi0_of,
    random_full_rank_state,
    random_kraus,
    random_pure_state,
    random_state,
    random_unitary,
    rng,
)
from wiretap.channels import (
    CqEnsemble,
    QuantumChannel,
    apply,
    channel_action_matrix,
    channel_from_json,
    channel_from_resource_state,
    channel_to_json,
    classical_channel,
    constant_channel,
    cq_state,
    ensemble_from_json,
    ensemble_to_json,
    modulation_from_choi,
    trivial_resource,
)
from wiretap.qcore import (
    TOL_EQ,
    DensityOperator,
    LabeledSpace,
    ValidationError,
    basis_state,
    hermitian_trace_norm,
    maximally_entangled,
    partial_trace,
    permute_factors,
    tensor,
)

A = LabeledSpace.of(("A", 2))
B = LabeledSpace.of(("B", 2))

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def depolarizing_kraus(p: float) -> list[np.ndarray]:
    return [np.sqrt(1 - p) * PAULI["I"]] + [np.sqrt(p / 3) * PAULI[s] for s in "XYZ"]


def test_channel_construction_asserts_trace_preservation():
    with pytest.raises(ValidationError, match="trace preserving"):
        QuantumChannel(A, B, [0.5 * np.eye(2)])
    with pytest.raises(ValidationError, match="at least one"):
        QuantumChannel(A, B, [])
    with pytest.raises(ValidationError, match="shape"):
        QuantumChannel(A, B, [np.eye(3)])
    with pytest.raises(ValidationError, match="trace preserving"):
        QuantumChannel(A, B, [np.array([[1.0, np.nan], [0.0, 1.0]])])


def test_apply_identity_and_constant():
    gen = rng(101)
    rho = random_state(gen, A)
    assert np.allclose(apply(identity_channel(A), rho, ["A"]).matrix, rho.matrix, atol=1e-12)
    dep = QuantumChannel(A, B, depolarizing_kraus(0.75))  # p=3/4 is the full twirl
    out = apply(dep, basis_state(A, [0]), ["A"])
    assert np.allclose(out.matrix, np.eye(2) / 2, atol=1e-12)


def test_apply_matches_naive_kraus_sum():
    gen = rng(103)
    ks = random_kraus(gen, 2, 2, 2)
    ch = QuantumChannel(A, B, ks)
    rho = random_state(gen, A)
    want = sum(k @ rho.matrix @ k.conj().T for k in ks)
    got = apply(ch, rho, ["A"]).matrix
    assert np.allclose(got, want, atol=1e-12)


def test_apply_with_passthrough_factor():
    gen = rng(107)
    ks = random_kraus(gen, 2, 3, 2)
    ch = QuantumChannel(A, LabeledSpace.of(("Bout", 3)), ks)
    joint = random_state(gen, LabeledSpace.of(("R", 2), ("A", 2)))
    out = apply(ch, joint, ["A"])
    assert out.space.labels == ("R", "Bout")
    # Oracle: explicit (I x K) conjugation.
    want = sum(
        np.kron(np.eye(2), k) @ joint.matrix @ np.kron(np.eye(2), k).conj().T for k in ks
    )
    assert np.allclose(out.matrix, want, atol=1e-12)
    assert abs(np.trace(out.matrix) - 1) < 1e-12


def test_apply_label_and_dim_errors():
    ch = identity_channel(A)
    rho = maximally_mixed(LabeledSpace.of(("Q", 3)))
    with pytest.raises(ValidationError):
        apply(ch, rho, ["Q"])
    joint = maximally_mixed(LabeledSpace.of(("A", 2), ("B", 2)))
    ch_clash = QuantumChannel(A, B, [np.eye(2)])
    with pytest.raises(ValidationError, match="clash"):
        apply(ch_clash, joint, ["A"])


def test_ensemble_validation():
    gen = rng(113)
    states = [random_state(gen, A) for _ in range(2)]
    with pytest.raises(ValidationError, match="sum"):
        CqEnsemble([0, 1], [0.6, 0.6], states)
    with pytest.raises(ValidationError, match="negative"):
        CqEnsemble([0, 1], [1.5, -0.5], states)
    with pytest.raises(ValidationError, match="unique"):
        CqEnsemble([0, 0], [0.5, 0.5], states)
    with pytest.raises(ValidationError, match="same space"):
        CqEnsemble([0, 1], [0.5, 0.5], [states[0], random_state(gen, B)])
    # JSON true/false must not read as the probabilities 1 and 0.
    obj = ensemble_to_json(CqEnsemble([0, 1], [0.5, 0.5], states))
    for probs in ([True, False], [1.0, False]):
        obj["probs"] = probs
        with pytest.raises(ValidationError, match="booleans"):
            ensemble_from_json(obj)


def test_cq_state_single_member():
    rho = maximally_mixed(A)
    ens = CqEnsemble(["only"], [1.0], [rho])
    got = cq_state(ens)
    want = tensor(basis_state(LabeledSpace.of(("U", 1)), [0]), rho)
    assert np.allclose(got.matrix, want.matrix, atol=1e-14)


def test_cq_state_orthogonal_members():
    ens = CqEnsemble([0, 1], [0.5, 0.5], [basis_state(A, [0]), basis_state(A, [1])])
    w = np.sort(cq_state(ens).eigenvalues())[::-1]
    assert np.allclose(w[:2], [0.5, 0.5], atol=1e-12)
    assert np.allclose(w[2:], 0.0, atol=1e-12)


def test_cq_state_marginal_is_average():
    gen = rng(127)
    states = [random_state(gen, A) for _ in range(3)]
    ens = CqEnsemble(["a", "b", "c"], [0.2, 0.3, 0.5], states)
    gamma = cq_state(ens)
    assert abs(np.trace(gamma.matrix) - 1) < 1e-12
    marg = partial_trace(gamma, {"A"})
    want = sum(q * s.matrix for q, s in zip(ens.probs, states))
    assert np.allclose(marg.matrix, want, atol=1e-12)
    on_u = CqEnsemble([0], [1.0], [maximally_mixed(LabeledSpace.of(("U", 2)))])
    with pytest.raises(ValidationError, match="clash"):
        cq_state(on_u)


def test_ensemble_pushforward_memberwise():
    gen = rng(131)
    states = [random_state(gen, A) for _ in range(3)]
    ens = CqEnsemble([0, 1, 2], [0.5, 0.25, 0.25], states)
    ch = QuantumChannel(A, B, random_kraus(gen, 2, 2, 2))
    pushed = ensemble_pushforward(ens, ch, ["A"])
    assert np.array_equal(pushed.probs, ens.probs)
    for s, p in zip(ens.states, pushed.states):
        assert np.allclose(apply(ch, s, ["A"]).matrix, p.matrix, atol=1e-14)
    same = ensemble_pushforward(ens, identity_channel(A), ["A"])
    for s, p in zip(ens.states, same.states):
        assert np.allclose(s.matrix, p.matrix, atol=1e-12)


def bell_resource() -> DensityOperator:
    bell = maximally_entangled("Ap", "Bp", 2)
    return tensor(bell, basis_state(LabeledSpace.of(("Ep", 1)), [0]))


def test_resource_channel_bell():
    res = channel_from_resource_state(bell_resource())
    assert np.allclose(res.psi, np.eye(2) / np.sqrt(2), atol=1e-12)
    assert np.allclose(res.zeta_marginal.matrix, np.eye(2) / 2, atol=1e-12)
    # Z should act as an isometry moving the aux copy to Bob'.
    got = apply(res.z_channel, maximally_entangled("keep", "App", 2), ["App"])
    want = tensor(maximally_entangled("keep", "Bp", 2), basis_state(LabeledSpace.of(("Ep", 1)), [0]))
    assert hermitian_trace_norm(got.matrix - want.matrix) <= 1e-9


def test_resource_channel_product_resource_is_constant():
    gen = rng(137)
    sigma = random_state(gen, LabeledSpace.of(("Bp", 2), ("Ep", 2)))
    zeta = tensor(maximally_mixed(LabeledSpace.of(("Ap", 2))), sigma)
    res = channel_from_resource_state(zeta)
    for inp in (basis_state(A, [0]).relabeled({"A": "App"}), random_state(gen, LabeledSpace.of(("App", 2)))):
        out = apply(res.z_channel, inp, ["App"])
        assert hermitian_trace_norm(out.matrix - sigma.matrix) <= 1e-8


def test_resource_channel_roundtrip_random_full_rank():
    gen = rng(139)
    space = LabeledSpace.of(("Ap", 2), ("Bp", 2), ("Ep", 2))
    for _ in range(20):
        zeta = random_full_rank_state(gen, space)
        res = channel_from_resource_state(zeta)
        rebuilt = apply(res.z_channel, phi0_of(res), on=["App"])
        assert hermitian_trace_norm(rebuilt.matrix - res.zeta.matrix) <= 1e-8
        for lab in ("Ap", "App"):
            assert (
                hermitian_trace_norm(
                    partial_trace(phi0_of(res), {lab}).matrix - res.zeta_marginal.matrix
                )
                <= 1e-9
            )


def assert_restricted_decomposition(res, zeta):
    """``res`` decomposes ``zeta`` restricted to the support of Alice's
    marginal: psi psi^+ is the restricted marginal, (id x Z) phi0 is the
    restricted state, and restriction keeps zeta's spectrum and its
    (Bob', Eve') marginal."""
    psi = res.psi
    assert hermitian_trace_norm(psi @ psi.conj().T - res.zeta_marginal.matrix) <= 1e-10
    rebuilt = apply(res.z_channel, phi0_of(res), on=["App"])
    assert hermitian_trace_norm(rebuilt.matrix - res.zeta.matrix) <= 1e-8
    n = res.zeta.dim
    assert np.allclose(
        np.linalg.eigvalsh(res.zeta.matrix), np.linalg.eigvalsh(zeta.matrix)[-n:], atol=1e-10
    )
    rest = set(zeta.space.labels[1:])
    restricted, original = partial_trace(res.zeta, rest), partial_trace(zeta, rest)
    assert hermitian_trace_norm(restricted.matrix - original.matrix) <= 1e-10


def test_resource_channel_support_restriction():
    # Alice holds a pure |0>; her marginal has rank 1 inside a qubit.
    gen = rng(149)
    sigma = random_state(gen, LabeledSpace.of(("Bp", 2), ("Ep", 2)))
    zeta = tensor(basis_state(LabeledSpace.of(("Ap", 2)), [0]), sigma)
    res = channel_from_resource_state(zeta)
    assert res.zeta.space.dim_of("Ap") == 1 and res.psi.shape == (1, 1)
    assert_restricted_decomposition(res, zeta)


@pytest.mark.parametrize("eps", [1e-10, 1e-11, 3e-12])
def test_resource_channel_with_marginal_condition_number_near_1_over_eps(eps):
    # sqrt(1 - eps)|0, u0> + sqrt(eps)|1, u1> mixed with 1e-3 of |0><0| x 1/4:
    # Alice's lam_min is near eps, and zeta has an eigenvalue near 2.5e-4 eps,
    # below the rank cutoff, whose Kraus operator divided by sqrt(lam_min)
    # carries a weight near 2.5e-4 in sum K^+ K.
    bell = np.array([[1, 0, 0, 1], [0, 1, 1, 0]]) / np.sqrt(2)  # |u_0>, |u_1> on (Bp, Ep)
    v = np.sqrt(1 - eps) * np.kron([1, 0], bell[0]) + np.sqrt(eps) * np.kron([0, 1], bell[1])
    product = np.kron(np.diag([1.0, 0.0]), np.eye(4) / 4)
    zeta = DensityOperator(
        LabeledSpace.of(("Ap", 2), ("Bp", 2), ("Ep", 2)),
        (1 - 1e-3) * np.outer(v, v) + 1e-3 * product,
    )
    lam = np.linalg.eigvalsh(partial_trace(zeta, {"Ap"}).matrix)
    assert lam[-1] / lam[0] > 0.9 / eps
    res = channel_from_resource_state(zeta)
    kraus = np.stack(res.z_channel.kraus)
    assert np.abs(np.einsum("kab,kac->bc", kraus.conj(), kraus) - np.eye(2)).max() <= 1e-12
    rebuilt = apply(res.z_channel, phi0_of(res), on=["App"])
    assert hermitian_trace_norm(rebuilt.matrix - zeta.matrix) <= TOL_EQ


def test_resource_phi0_bell_marginals_maximally_mixed():
    phi0 = phi0_of(channel_from_resource_state(bell_resource()))
    assert is_pure(phi0)
    assert phi0.space.dim_of("App") == 2
    for label in ("Ap", "App"):
        assert np.allclose(partial_trace(phi0, {label}).matrix, np.eye(2) / 2, atol=1e-12)


def test_resource_phi0_random_marginal_both_marginals():
    # phi0 is the symmetric purification of Alice's marginal: the aux copy has
    # her dimension and both of its marginals equal that marginal.
    gen = rng(29)
    rho = random_state(gen, LabeledSpace.of(("Ap", 2)))
    sigma = random_state(gen, LabeledSpace.of(("Bp", 2), ("Ep", 2)))
    phi0 = phi0_of(channel_from_resource_state(tensor(rho, sigma)))
    assert is_pure(phi0)
    assert phi0.space.dim_of("App") == 2
    for label in ("Ap", "App"):
        assert hermitian_trace_norm(partial_trace(phi0, {label}).matrix - rho.matrix) <= 1e-10


def test_state_from_channel_then_channel_from_state():
    # Build zeta' = (id x Z') phi0 from a random channel; extraction recovers its
    # action.  On a rank-deficient marginal it decomposes the state restricted
    # to the marginal's support.
    gen = rng(151)
    out_space = LabeledSpace.of(("Bp", 2), ("Ep", 2))
    for d, rank in [(2, 2)] * 10 + [(3, 3)] * 5 + [(3, 2)] * 5:
        share = LabeledSpace.of(("Ap", d))
        if rank == d:
            marg_m = random_full_rank_state(gen, share).matrix
        else:
            marg_m = random_state(gen, share, rank=rank).matrix
        w, v = np.linalg.eigh(marg_m)
        psi = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T
        vec = psi.reshape(-1)
        phi0 = DensityOperator(
            LabeledSpace.of(("Ap", d), ("App", d)), np.outer(vec, vec.conj())
        )
        zprime = QuantumChannel(LabeledSpace.of(("App", d)), out_space, random_kraus(gen, d, 4, 3))
        zeta = apply(zprime, phi0, on=["App"])  # on (Ap, Bp, Ep)
        res = channel_from_resource_state(zeta)
        assert res.psi.shape == (rank, rank)
        if rank == d:
            assert res.zeta is zeta
            assert channels_equal_in_action(res.z_channel, zprime, tol=1e-8)
        else:
            assert_restricted_decomposition(res, zeta)


def test_modulation_from_choi_identity_and_constant():
    res = channel_from_resource_state(bell_resource())
    phi0 = phi0_of(res)
    # eta = phi0 itself, with the Alice factor renamed to the signal system A.
    eta = phi0.relabeled({"Ap": "A"})
    e = modulation_from_choi(eta, res.zeta_marginal)
    assert channels_equal_in_action(e, identity_channel(LabeledSpace.of(("Ap", 2))), tol=1e-8)
    # eta = rho_A x zeta marginal -> constant (discard and prepare).
    gen = rng(157)
    rho_a = random_state(gen, A)
    eta2 = tensor(rho_a, res.zeta_marginal.relabeled({"Ap": "App"}))
    e2 = modulation_from_choi(eta2, res.zeta_marginal)
    assert channels_equal_in_action(
        e2, constant_channel(LabeledSpace.of(("Ap", 2)), rho_a), tol=1e-8
    )


def test_modulation_from_choi_pauli_twirl():
    res = channel_from_resource_state(bell_resource())
    phi0 = phi0_of(res).relabeled({"Ap": "A"})
    x = PAULI["X"]
    rotated = DensityOperator(
        phi0.space, np.kron(x, np.eye(2)) @ phi0.matrix @ np.kron(x, np.eye(2)).conj().T
    )
    e = modulation_from_choi(rotated, res.zeta_marginal)
    want = QuantumChannel(LabeledSpace.of(("Ap", 2)), A, [x])
    assert channels_equal_in_action(e, want, tol=1e-8)


def test_modulation_from_choi_roundtrip_random_marginals():
    # E -> (E x id) phi0 -> E on non-uniform full-rank marginals, with a signal
    # dimension different from the share's and the reference in either position.
    gen = rng(173)
    for d_share, d_sig in [(2, 3)] * 5 + [(3, 2)] * 5:
        space = LabeledSpace.of(("Ap", d_share), ("Bp", 2), ("Ep", 1))
        res = channel_from_resource_state(random_full_rank_state(gen, space))
        mod = QuantumChannel(
            LabeledSpace.of(("Ap", d_share)),
            LabeledSpace.of(("A", d_sig)),
            random_kraus(gen, d_share, d_sig, int(gen.integers(1, 4))),
        )
        eta = apply(mod, phi0_of(res), on=["Ap"])  # on (App, A)
        for eta_p, ref in ((eta, "App"), (permute_factors(eta, ["A", "App"]), None)):
            back = modulation_from_choi(eta_p, res.zeta_marginal, ref_label=ref)
            assert channels_equal_in_action(back, mod, tol=1e-8)


def test_modulation_from_choi_marginal_mismatch():
    gen = rng(163)
    res = channel_from_resource_state(bell_resource())
    eta_bad = random_state(gen, LabeledSpace.of(("A", 2), ("App", 2)))
    with pytest.raises(ValidationError, match="marginal"):
        modulation_from_choi(eta_bad, res.zeta_marginal)


def test_modulation_from_choi_refuses_non_tp_inversion_with_condition_number():
    # A marginal off by 2e-9 in trace norm passes the marginal check, but
    # divided by lambda_min = 1e-10 it breaks trace preservation.
    lam = np.diag([1.0 - 1e-10, 1e-10]).astype(complex)
    marginal = DensityOperator(LabeledSpace.of(("Ap", 2)), lam)
    off = DensityOperator(LabeledSpace.of(("App", 2)), lam + np.diag([-1e-9, 1e-9]))
    eta = tensor(random_state(rng(179), A), off)
    with pytest.raises(ValidationError, match="condition number 1.000e\\+10.*trace preserving"):
        modulation_from_choi(eta, marginal)


def test_eta_z_swap_identity():
    # (E x id on Bob'/Eve') zeta == (id on A x Z) (E x id) phi0 for random modulations.
    gen = rng(167)
    space = LabeledSpace.of(("Ap", 2), ("Bp", 2), ("Ep", 2))
    for _ in range(10):
        zeta = random_full_rank_state(gen, space)
        res = channel_from_resource_state(zeta)
        mod = QuantumChannel(
            LabeledSpace.of(("Ap", 2)), A, random_kraus(gen, 2, 2, int(gen.integers(1, 4)))
        )
        lhs = apply(mod, res.zeta, on=["Ap"])  # (Bp, Ep, A)
        eta = apply(mod, phi0_of(res), on=["Ap"])  # (App, A)
        rhs = apply(res.z_channel, eta, on=["App"])  # (A, Bp, Ep)
        lhs_p = permute_factors(lhs, ["A", "Bp", "Ep"])
        assert hermitian_trace_norm(lhs_p.matrix - rhs.matrix) <= 1e-8


def test_trivial_resource():
    res = trivial_resource()
    assert res.zeta.space.dims == (1, 1, 1)
    assert np.allclose(res.psi, [[1.0]])
    assert np.allclose(res.zeta.matrix, [[1.0]])
    assert trivial_resource() is res  # built once


def test_stock_channels():
    gen = rng(173)
    sigma = random_state(gen, B)
    const = constant_channel(A, sigma)
    rho = random_state(gen, A)
    assert np.allclose(apply(const, rho, ["A"]).matrix, sigma.matrix, atol=1e-12)

    # Broadcast isometry |x> -> |x>|x>.
    v = np.zeros((4, 2), dtype=complex)
    v[0, 0] = v[3, 1] = 1.0
    bc = QuantumChannel(A, LabeledSpace.of(("B", 2), ("E", 2)), [v])
    out = apply(bc, basis_state(A, [1]), ["A"])
    assert np.allclose(out.matrix, basis_state(out.space, [1, 1]).matrix, atol=1e-14)

    bsc = classical_channel(np.array([[0.9, 0.2], [0.1, 0.8]]), A, B)
    out = apply(bsc, basis_state(A, [0]), ["A"])
    assert np.allclose(out.matrix, np.diag([0.9, 0.1]), atol=1e-14)
    with pytest.raises(ValidationError, match="stochastic"):
        classical_channel(np.array([[0.5, 0.2], [0.1, 0.8]]), A, B)

    ext = append_trivial_output(bsc, "E")
    assert ext.output_space.labels == ("B", "E")
    assert ext.output_space.dim == 2


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_kraus=st.integers(1, 4))
def test_apply_preserves_trace_and_psd(seed, n_kraus):
    gen = rng(seed)
    ks = random_kraus(gen, 2, 3, n_kraus)
    ch = QuantumChannel(A, LabeledSpace.of(("Out", 3)), ks)
    rho = random_state(gen, A)
    out = apply(ch, rho, ["A"])
    assert abs(np.trace(out.matrix) - 1) <= 1e-12
    assert np.min(out.eigenvalues()) >= -1e-12
    DensityOperator(out.space, out.matrix)  # full validation


def test_channel_json_roundtrip():
    gen = rng(179)
    ch = QuantumChannel(A, LabeledSpace.of(("B", 2), ("E", 2)), random_kraus(gen, 2, 4, 2))
    text = json.dumps(channel_to_json(ch))
    back = channel_from_json(json.loads(text))
    assert back.input_space == ch.input_space
    assert back.output_space == ch.output_space
    for k1, k2 in zip(ch.kraus, back.kraus):
        assert np.array_equal(k1, k2)


def test_ensemble_json_roundtrip():
    gen = rng(181)
    ens = CqEnsemble(
        ["u0", "u1"], [0.25, 0.75], [random_state(gen, A) for _ in range(2)]
    )
    back = ensemble_from_json(json.loads(json.dumps(ensemble_to_json(ens))))
    assert back.labels == ens.labels
    assert np.array_equal(back.probs, ens.probs)
    for s1, s2 in zip(ens.states, back.states):
        assert np.array_equal(s1.matrix, s2.matrix)


def test_channel_action_matrix_unitary_case():
    gen = rng(191)
    u = random_unitary(gen, 2)
    ch = QuantumChannel(A, A.relabeled({"A": "A2"}), [u])
    rho = random_pure_state(gen, A)
    vec_out = channel_action_matrix(ch) @ rho.matrix.reshape(-1, order="F")
    want = u @ rho.matrix @ u.conj().T
    assert np.allclose(vec_out.reshape(2, 2, order="F"), want, atol=1e-12)
