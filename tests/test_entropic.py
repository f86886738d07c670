import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    maximally_mixed,
    pure_state,
    random_pure_state,
    random_state,
    random_unitary,
    rng,
)
from wiretap.channels import CqEnsemble, cq_state
from wiretap.entropic import (
    coherent_information,
    holevo_information,
    mutual_information,
    von_neumann_entropy,
)
from wiretap.qcore import (
    DensityOperator,
    LabeledSpace,
    ValidationError,
    basis_state,
    maximally_entangled,
    partial_trace,
    tensor,
)

A = LabeledSpace.of(("A", 2))
B = LabeledSpace.of(("B", 2))


def shannon_entropy(p: np.ndarray) -> float:
    p = np.asarray(p, dtype=float).reshape(-1)
    p = p[p > 1e-14]
    return float(-np.sum(p * np.log2(p)))


def shannon_mutual_information(pxy: np.ndarray) -> float:
    px = pxy.sum(axis=1)
    py = pxy.sum(axis=0)
    return shannon_entropy(px) + shannon_entropy(py) - shannon_entropy(pxy)


def test_entropy_basic_values():
    gen = rng(211)
    assert von_neumann_entropy(random_pure_state(gen, A)) == pytest.approx(0.0, abs=1e-10)
    assert von_neumann_entropy(maximally_mixed(A)) == pytest.approx(1.0, abs=1e-12)
    # Hand check: -(0.5 log 0.5 + 2 * 0.25 log 0.25) = 1.5
    rho = DensityOperator(LabeledSpace.of(("Q", 3)), np.diag([0.5, 0.25, 0.25]).astype(complex))
    assert von_neumann_entropy(rho) == pytest.approx(1.5, abs=1e-12)


def test_entropy_bounds():
    gen = rng(223)
    for d in (2, 3, 4):
        rho = random_state(gen, LabeledSpace.of(("Q", d)))
        s = von_neumann_entropy(rho)
        assert 0.0 <= s <= np.log2(d) + 1e-12


def test_mutual_information_product_and_bell():
    gen = rng(227)
    prod = tensor(random_state(gen, A), random_state(gen, B))
    assert mutual_information(prod, {"A"}, {"B"}) == pytest.approx(0.0, abs=1e-10)
    bell = maximally_entangled("A", "B", 2)
    assert mutual_information(bell, {"A"}, {"B"}) == pytest.approx(2.0, abs=1e-10)
    assert von_neumann_entropy(partial_trace(bell, {"A"})) == pytest.approx(1.0, abs=1e-10)
    assert von_neumann_entropy(bell) == pytest.approx(0.0, abs=1e-10)


def test_mutual_information_value_reproducible_from_components():
    gen = rng(229)
    rho = random_state(gen, LabeledSpace.of(("A", 2), ("B", 3)))
    s_a = von_neumann_entropy(partial_trace(rho, {"A"}))
    s_b = von_neumann_entropy(partial_trace(rho, {"B"}))
    want = s_a + s_b - von_neumann_entropy(rho)
    assert mutual_information(rho, {"A"}, {"B"}) == pytest.approx(want, abs=1e-12)


def test_mutual_information_classical_embedding():
    gen = rng(233)
    pxy = gen.random((3, 4))
    pxy /= pxy.sum()
    space = LabeledSpace.of(("X", 3), ("Y", 4))
    rho = DensityOperator(space, np.diag(pxy.reshape(-1)).astype(complex))
    got = mutual_information(rho, {"X"}, {"Y"})
    assert got == pytest.approx(shannon_mutual_information(pxy), abs=1e-10)


def test_mutual_information_rejects_overlap():
    bell = maximally_entangled("A", "B", 2)
    with pytest.raises(ValidationError, match="overlap"):
        mutual_information(bell, {"A"}, {"A", "B"})


def test_mutual_information_traces_out_rest():
    gen = rng(239)
    space = LabeledSpace.of(("A", 2), ("B", 2), ("C", 2))
    rho = random_state(gen, space)
    from wiretap.qcore import partial_trace

    direct = mutual_information(partial_trace(rho, {"A", "B"}), {"A"}, {"B"})
    via = mutual_information(rho, {"A"}, {"B"})
    assert via == pytest.approx(direct, abs=1e-12)


def test_coherent_information_cases():
    gen = rng(241)
    assert coherent_information(maximally_entangled("A", "B", 2)) == pytest.approx(1.0, abs=1e-10)
    rho_a, rho_b = random_state(gen, A), random_state(gen, B)
    got = coherent_information(tensor(rho_a, rho_b))
    assert got == pytest.approx(-von_neumann_entropy(rho_a), abs=1e-10)
    with pytest.raises(ValidationError):
        coherent_information(maximally_mixed(A))


def test_coherent_information_isotropic():
    # rho = v |Phi><Phi| + (1-v) I/4 at visibility v: eigenvalues
    # v + (1-v)/4 once and (1-v)/4 three times; marginal is I/2.
    v = 0.9
    bell = maximally_entangled("A", "B", 2)
    m = v * bell.matrix + (1 - v) * np.eye(4) / 4
    rho = DensityOperator(bell.space, m)
    lam = np.array([v + (1 - v) / 4] + [(1 - v) / 4] * 3)
    want = 1.0 - shannon_entropy(lam)
    assert coherent_information(rho) == pytest.approx(want, abs=1e-10)


def test_holevo_identical_members_is_zero():
    gen = rng(251)
    rho = random_state(gen, A)
    ens = CqEnsemble([0, 1], [0.3, 0.7], [rho, rho])
    assert holevo_information(ens) == pytest.approx(0.0, abs=1e-12)


def test_holevo_orthogonal_pure_members():
    ens = CqEnsemble([0, 1], [0.5, 0.5], [basis_state(A, [0]), basis_state(A, [1])])
    assert holevo_information(ens) == pytest.approx(1.0, abs=1e-10)


def test_holevo_two_nonorthogonal_pure_states():
    # Overlap cos(theta): average state eigenvalues (1 +- cos theta)/2.
    theta = 0.7
    psi0 = pure_state(A, [1.0, 0.0])
    psi1 = pure_state(A, [np.cos(theta), np.sin(theta)])
    ens = CqEnsemble([0, 1], [0.5, 0.5], [psi0, psi1])
    lam = np.array([(1 + np.cos(theta)) / 2, (1 - np.cos(theta)) / 2])
    assert holevo_information(ens) == pytest.approx(shannon_entropy(lam), abs=1e-10)


def test_holevo_matches_cq_mutual_information():
    gen = rng(257)
    for _ in range(10):
        k = int(gen.integers(2, 5))
        probs = gen.random(k)
        probs /= probs.sum()
        states = [random_state(gen, A) for _ in range(k)]
        ens = CqEnsemble(list(range(k)), probs, states)
        chi = holevo_information(ens)
        mi = mutual_information(cq_state(ens), {"U"}, {"A"})
        assert chi == pytest.approx(mi, abs=1e-10)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_entropy_additivity(seed):
    gen = rng(seed)
    a = random_state(gen, A)
    b = random_state(gen, LabeledSpace.of(("B", 3)))
    s = von_neumann_entropy(tensor(a, b))
    assert abs(s - von_neumann_entropy(a) - von_neumann_entropy(b)) <= 1e-10


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_mutual_information_nonneg_and_local_unitary_invariant(seed):
    gen = rng(seed)
    space = LabeledSpace.of(("A", 2), ("B", 2))
    rho = random_state(gen, space)
    mi = mutual_information(rho, {"A"}, {"B"})
    assert mi >= -1e-9
    assert mi <= 2.0 + 1e-9
    u = np.kron(random_unitary(gen, 2), random_unitary(gen, 2))
    rotated = DensityOperator(space, u @ rho.matrix @ u.conj().T)
    assert abs(mutual_information(rotated, {"A"}, {"B"}) - mi) <= 1e-9


def test_diagonal_states_match_shannon_functionals():
    gen = rng(263)
    # Joint pmf on X x Y, embedded diagonally; entropy and MI must agree.
    pxy = gen.random((2, 3))
    pxy /= pxy.sum()
    space = LabeledSpace.of(("X", 2), ("Y", 3))
    rho = DensityOperator(space, np.diag(pxy.reshape(-1)).astype(complex))
    assert von_neumann_entropy(rho) == pytest.approx(shannon_entropy(pxy), abs=1e-10)
    assert mutual_information(rho, {"X"}, {"Y"}) == pytest.approx(
        shannon_mutual_information(pxy), abs=1e-10
    )
    # Classical ensemble: diagonal members.
    members = [
        DensityOperator(LabeledSpace.of(("Y", 3)), np.diag(pxy[x] / pxy[x].sum()).astype(complex))
        for x in range(2)
    ]
    ens = CqEnsemble([0, 1], pxy.sum(axis=1), members)
    assert holevo_information(ens) == pytest.approx(shannon_mutual_information(pxy), abs=1e-10)
