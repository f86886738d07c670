import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    random_full_rank_state,
    random_pure_state,
    random_state,
    rng,
)
from wiretap.qcore import (
    DensityOperator,
    LabeledSpace,
    ValidationError,
    basis_state,
    fidelity,
    hermitian_trace_norm,
    maximally_entangled,
    maximally_mixed,
    partial_trace,
    permute_factors,
    pure_state,
    purify,
    state_from_json,
    state_to_json,
    tensor,
    trace_distance,
    uhlmann_fixup,
)

A = LabeledSpace.of(("A", 2))
B = LabeledSpace.of(("B", 2))


def test_labeled_space_invariants():
    s = LabeledSpace.of(("A", 2), ("B", 3))
    assert s.dim == 6
    assert s.labels == ("A", "B")
    assert s.dim_of("B") == 3
    with pytest.raises(ValidationError):
        LabeledSpace.of(("A", 2), ("A", 3))
    with pytest.raises(ValidationError):
        LabeledSpace.of(("A", 0))


def test_density_operator_validation():
    with pytest.raises(ValidationError, match="Hermitian"):
        DensityOperator(A, np.array([[0.5, 1.0], [0.0, 0.5]]))
    with pytest.raises(ValidationError, match="trace"):
        DensityOperator(A, np.eye(2))
    with pytest.raises(ValidationError, match="negative eigenvalue"):
        DensityOperator(A, np.diag([1.5, -0.5]))


def test_density_operator_clamps_small_negatives():
    m = np.diag([1.0 + 5e-10, -5e-10])
    rho = DensityOperator(A, m).clamped()
    assert np.all(rho.eigenvalues() >= 0)
    assert abs(np.trace(rho.matrix) - 1) < 1e-12


def test_tensor_basis_states():
    # |0><0| x |1><1| = |01><01|
    out = tensor(basis_state(A, [0]), basis_state(B, [1]))
    expected = basis_state(LabeledSpace.of(("A", 2), ("B", 2)), [0, 1])
    assert np.array_equal(out.matrix, expected.matrix)


def test_tensor_identities():
    out = tensor(maximally_mixed(A), maximally_mixed(B))
    assert np.allclose(out.matrix, np.eye(4) / 4)


def test_tensor_eigenvalues_are_pairwise_products():
    # Oracle: eigendecompose both factors separately and form all products.
    gen = rng(7)
    a = random_state(gen, A)
    b = random_state(gen, B)
    products = np.sort(np.outer(a.eigenvalues(), b.eigenvalues()).reshape(-1))
    assert np.allclose(np.sort(tensor(a, b).eigenvalues()), products, atol=1e-12)


def test_tensor_rejects_duplicate_label():
    with pytest.raises(ValidationError, match="A"):
        tensor(basis_state(A, [0]), basis_state(A, [1]))


def test_partial_trace_bell():
    bell = maximally_entangled("Ap", "App", 2)
    red = partial_trace(bell, {"Ap"})
    assert np.allclose(red.matrix, np.eye(2) / 2, atol=1e-14)


def test_partial_trace_product_marginal():
    gen = rng(11)
    a = random_state(gen, A)
    b = random_state(gen, B)
    red = partial_trace(tensor(a, b), {"A"})
    assert np.max(np.abs(red.matrix - a.matrix)) <= 1e-12


def naive_partial_trace_one_qubit(matrix: np.ndarray, keep: int) -> np.ndarray:
    """Index-sum oracle for a 3-qubit state, keeping a single qubit."""
    out = np.zeros((2, 2), dtype=complex)
    t = matrix.reshape(2, 2, 2, 2, 2, 2)
    others = [i for i in range(3) if i != keep]
    for a in range(2):
        for b in range(2):
            for i in range(2):
                for j in range(2):
                    idx = [0, 0, 0, 0, 0, 0]
                    idx[keep], idx[keep + 3] = a, b
                    idx[others[0]], idx[others[0] + 3] = i, i
                    idx[others[1]], idx[others[1] + 3] = j, j
                    out[a, b] += t[tuple(idx)]
    return out


def test_partial_trace_matches_naive_index_sum():
    gen = rng(13)
    space = LabeledSpace.of(("X", 2), ("Y", 2), ("Z", 2))
    psi = random_pure_state(gen, space)
    for pos, label in enumerate(["X", "Y", "Z"]):
        got = partial_trace(psi, {label}).matrix
        want = naive_partial_trace_one_qubit(psi.matrix, pos)
        assert np.allclose(got, want, atol=1e-13)


def test_partial_trace_errors():
    bell = maximally_entangled("Ap", "App", 2)
    with pytest.raises(ValidationError):
        partial_trace(bell, {"nope"})
    with pytest.raises(ValidationError):
        partial_trace(bell, set())


def test_permute_factors_roundtrip():
    gen = rng(17)
    space = LabeledSpace.of(("X", 2), ("Y", 3), ("Z", 2))
    rho = random_state(gen, space)
    perm = permute_factors(rho, ["Z", "X", "Y"])
    assert perm.space.labels == ("Z", "X", "Y")
    back = permute_factors(perm, ["X", "Y", "Z"])
    assert np.array_equal(back.matrix, rho.matrix)
    # Permuting a product state permutes its factors.
    a, b = random_state(gen, A), random_state(gen, B)
    swapped = permute_factors(tensor(a, b), ["B", "A"])
    assert np.allclose(swapped.matrix, np.kron(b.matrix, a.matrix), atol=1e-14)


def test_purify_maximally_mixed_symmetric():
    phi = purify(maximally_mixed(A), "Aux", symmetric=True)
    assert phi.is_pure()
    for label in ("A", "Aux"):
        assert np.allclose(partial_trace(phi, {label}).matrix, np.eye(2) / 2, atol=1e-12)


def test_purify_pure_input_is_trivial():
    gen = rng(19)
    psi = random_pure_state(gen, A)
    out = purify(psi, "Aux")
    assert out.space.dim_of("Aux") == 1
    assert np.allclose(partial_trace(out, {"A"}).matrix, psi.matrix, atol=1e-12)


def test_purify_roundtrip_rank3():
    gen = rng(23)
    q = LabeledSpace.of(("Q", 3))
    rho = random_full_rank_state(gen, q)
    back = partial_trace(purify(rho, "Aux"), {"Q"})
    assert hermitian_trace_norm(back.matrix - rho.matrix) <= 1e-10


def test_purify_symmetric_both_marginals():
    gen = rng(29)
    rho = random_state(gen, A)
    phi = purify(rho, "Aux", symmetric=True)
    assert phi.space.dim_of("Aux") == 2
    for label in ("A", "Aux"):
        assert hermitian_trace_norm(partial_trace(phi, {label}).matrix - rho.matrix) <= 1e-10


def test_purify_rejects_used_label():
    with pytest.raises(ValidationError):
        purify(maximally_mixed(A), "A")


def test_fidelity_cases():
    gen = rng(31)
    rho = random_state(gen, A)
    assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)
    assert fidelity(basis_state(A, [0]), basis_state(A, [1])) == pytest.approx(0.0, abs=1e-12)
    # F(I/2, |0><0|) = sqrt(<0| I/2 |0>) = 1/sqrt(2)
    assert fidelity(maximally_mixed(A), basis_state(A, [0])) == pytest.approx(
        1 / np.sqrt(2), abs=1e-12
    )
    with pytest.raises(ValidationError):
        fidelity(rho, random_state(gen, LabeledSpace.of(("Q", 3))))


def test_trace_distance_cases():
    gen = rng(37)
    rho, sigma = random_state(gen, A), random_state(gen, A)
    assert trace_distance(rho, rho) == 0.0
    assert trace_distance(basis_state(A, [0]), basis_state(A, [1])) == pytest.approx(1.0)
    # Eigenvalue oracle.
    want = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(rho.matrix - sigma.matrix)))
    assert trace_distance(rho, sigma) == pytest.approx(want, abs=1e-14)


def test_fuchs_van_de_graaf_sampled():
    gen = rng(41)
    for _ in range(200):
        d = int(gen.integers(2, 5))
        space = LabeledSpace.of(("Q", d))
        rho, sigma = random_state(gen, space), random_state(gen, space)
        f = fidelity(rho, sigma)
        t = trace_distance(rho, sigma)
        assert 1 - f <= t + 1e-9
        assert t <= np.sqrt(max(0.0, 1 - f * f)) + 1e-9


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), da=st.integers(2, 3), db=st.integers(2, 3))
def test_tensor_then_partial_trace_recovers_factor(seed, da, db):
    gen = rng(seed)
    a = random_state(gen, LabeledSpace.of(("A", da)))
    b = random_state(gen, LabeledSpace.of(("B", db)))
    back = partial_trace(tensor(a, b), {"A"})
    assert np.max(np.abs(back.matrix - a.matrix)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 4))
def test_purify_partial_trace_roundtrip(seed, d):
    gen = rng(seed)
    rho = random_state(gen, LabeledSpace.of(("Q", d)))
    back = partial_trace(purify(rho, "Aux"), {"Q"})
    assert hermitian_trace_norm(back.matrix - rho.matrix) <= 1e-10


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_partial_trace_output_is_valid_state(seed):
    gen = rng(seed)
    space = LabeledSpace.of(("X", 2), ("Y", 3))
    rho = random_state(gen, space)
    red = partial_trace(rho, {"Y"})
    DensityOperator(red.space, red.matrix)  # re-validate
    assert abs(np.trace(red.matrix) - 1) <= 1e-12


def test_uhlmann_fixup_noop_when_marginal_matches():
    gen = rng(43)
    a = random_state(gen, A)
    b = random_state(gen, B)
    eta = tensor(a, b)
    target = partial_trace(eta, {"B"})
    assert uhlmann_fixup(eta, target, {"B"}) is eta


def test_uhlmann_fixup_product_case():
    gen = rng(47)
    rho_a = random_state(gen, A)
    wrong = random_state(gen, B)
    target = random_state(gen, B)
    eta_tilde = tensor(rho_a, wrong)
    eta = uhlmann_fixup(eta_tilde, target, {"B"})
    assert eta.space == eta_tilde.space
    assert hermitian_trace_norm(partial_trace(eta, {"B"}).matrix - target.matrix) <= 1e-8
    delta = trace_distance(wrong, target)
    budget = 2 * np.sqrt(max(0.0, 2 * delta - delta * delta))
    assert hermitian_trace_norm(eta.matrix - eta_tilde.matrix) <= budget + 1e-9


def test_uhlmann_fixup_perturbed_bell_marginal():
    bell = maximally_entangled("Ap", "App", 2)
    p = 0.01
    target_m = 0.99 * np.eye(2) / 2 + p * np.diag([1.0, 0.0])
    target = DensityOperator(LabeledSpace.of(("App", 2)), target_m)
    delta = trace_distance(partial_trace(bell, {"App"}), target)
    assert delta <= p
    eta = uhlmann_fixup(bell, target, {"App"})
    assert hermitian_trace_norm(partial_trace(eta, {"App"}).matrix - target.matrix) <= 1e-8
    assert hermitian_trace_norm(eta.matrix - bell.matrix) <= 2 * np.sqrt(2 * delta) + 1e-9


def test_uhlmann_fixup_middle_factor_and_rank_deficient():
    gen = rng(53)
    space = LabeledSpace.of(("X", 2), ("Y", 2), ("Z", 2))
    eta_tilde = random_pure_state(gen, space)  # rank-one joint state
    target = random_state(gen, LabeledSpace.of(("Y", 2)))
    eta = uhlmann_fixup(eta_tilde, target, {"Y"})
    assert eta.space.labels == ("X", "Y", "Z")
    assert hermitian_trace_norm(partial_trace(eta, {"Y"}).matrix - target.matrix) <= 1e-8
    delta = trace_distance(partial_trace(eta_tilde, {"Y"}), target)
    budget = 2 * np.sqrt(max(0.0, 2 * delta - delta * delta))
    assert hermitian_trace_norm(eta.matrix - eta_tilde.matrix) <= budget + 1e-9


def test_state_vector_view():
    gen = rng(59)
    psi = random_pure_state(gen, A)
    v = psi.state_vector()
    assert np.allclose(np.outer(v, v.conj()), psi.matrix, atol=1e-10)
    with pytest.raises(ValidationError):
        maximally_mixed(A).state_vector()


def test_json_roundtrip_bit_identical():
    gen = rng(61)
    rho = random_state(gen, LabeledSpace.of(("X", 2), ("Y", 3)))
    text = json.dumps(state_to_json(rho))
    first = state_from_json(json.loads(text))
    assert np.array_equal(first.matrix, rho.matrix)
    assert first.space == rho.space
    second = state_from_json(json.loads(json.dumps(state_to_json(first))))
    assert np.array_equal(second.matrix, first.matrix)


def test_json_errors():
    with pytest.raises(ValidationError, match="factors"):
        state_from_json({"matrix": []})
    with pytest.raises(ValidationError, match="shape"):
        state_from_json({"factors": [["A", 2]], "matrix": [[[1.0, 0.0]]]})
    bad = state_to_json(maximally_mixed(A))
    bad["matrix"][0][1] = [0.5, 0.0]  # breaks Hermiticity
    with pytest.raises(ValidationError, match="Hermitian"):
        state_from_json(bad)


def test_pure_state_normalizes():
    psi = pure_state(A, [1.0, 1.0])
    assert np.allclose(psi.matrix, np.full((2, 2), 0.5), atol=1e-14)
    with pytest.raises(ValidationError):
        pure_state(A, [0.0, 0.0])


def test_maximally_entangled_marginals():
    for d in (2, 3):
        phi = maximally_entangled("L", "R", d)
        assert phi.is_pure()
        assert np.allclose(partial_trace(phi, {"L"}).matrix, np.eye(d) / d, atol=1e-14)
