import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    ginibre,
    is_pure,
    maximally_mixed,
    pure_state,
    random_full_rank_state,
    random_pure_state,
    random_state,
    rng,
)
from reference import fidelity
from wiretap.qcore import (
    RANK_CUTOFF,
    DensityOperator,
    LabeledSpace,
    ValidationError,
    basis_state,
    factors_from_json,
    hermitian_trace_norm,
    maximally_entangled,
    partial_trace,
    permute_factors,
    purify,
    state_from_json,
    state_to_json,
    support_eigh,
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
    # NaN compares false with everything; each check must still refuse it.
    for i, j in ((0, 0), (0, 1), (1, 0)):
        m = np.eye(2) / 2
        m[i, j] = np.nan
        with pytest.raises(ValidationError):
            DensityOperator(A, m)


def test_trusted_state_wraps_its_array_and_a_validated_one_copies():
    m = np.eye(2, dtype=complex) / 2
    trusted = DensityOperator(A, m, validate=False)
    assert np.shares_memory(trusted.matrix, m)
    assert not trusted.matrix.flags.writeable
    with pytest.raises(ValueError):
        trusted.matrix[0, 0] = 1.0
    m = np.eye(2, dtype=complex) / 2
    validated = DensityOperator(A, m)
    assert not np.shares_memory(validated.matrix, m)
    assert not validated.matrix.flags.writeable
    assert m.flags.writeable


def _nan_state(space, *entries):
    """The maximally mixed state on ``space`` with NaN at the given entries,
    wrapped unvalidated as an internal step would."""
    m = np.eye(space.dim, dtype=complex) / space.dim
    for i, j in entries:
        m[i, j] = np.nan
    return DensityOperator(space, m, validate=False)


def _nan_classical_channel():
    from wiretap.channels import classical_channel

    classical_channel(np.array([[np.nan, 0.0], [np.nan, 1.0]]), A, B)


def _nan_modulation_marginal(*entries):
    from wiretap.channels import modulation_from_choi

    # By default NaN off the diagonal of the signal block reaches eta's
    # reference marginal.
    eta = _nan_state(A.tensor(LabeledSpace.of(("R", 2))), *(entries or [(0, 1), (1, 0)]))
    modulation_from_choi(eta, maximally_mixed(LabeledSpace.of(("R", 2))))


def _nan_modulation_diagonal():
    # A NaN on the marginal difference's diagonal, which an eigensolver
    # reads as 0, must still make its trace norm NaN.
    _nan_modulation_marginal((0, 0))


def _nan_resource_state():
    from wiretap.channels import channel_from_resource_state

    # Refused before any eigensolver sees it.
    channel_from_resource_state(_nan_state(LabeledSpace.of(("A", 2), ("B", 2), ("E", 2)), (0, 0)))


def _nan_duality_purity():
    from wiretap.measures import duality_residual

    duality_residual(_nan_state(LabeledSpace.of(("A", 2), ("B", 2), ("C", 2)), (0, 0)))


def _nan_repair_budget(monkeypatch):
    import wiretap.codesim as codesim
    from wiretap.channels import CqEnsemble
    from wiretap.scenario import correlated_bits_pmf, gallery_classical

    # A repaired state of NaNs makes the repair cost NaN.
    monkeypatch.setattr(
        codesim,
        "uhlmann_fixup",
        lambda eta, target, labels: _nan_state(eta.space, (0, 1), (1, 0)),
    )
    sc = gallery_classical(correlated_bits_pmf())
    members = [
        DensityOperator(A.tensor(LabeledSpace.of(("App", 2))), np.diag(p).astype(complex))
        for p in ([0.6, 0.4, 0.0, 0.0], [0.0, 0.0, 0.4, 0.6])
    ]
    ens = CqEnsemble([0, 1], [0.5, 0.5], members)
    words = codesim.sample_codebook(ens, 1, 2, 1, seed=1)
    codesim.marginal_residual_and_fixup(words, ens, sc.resource_state())


def _nan_witness_residual():
    import dataclasses

    from wiretap.optimize import OptimizerConfig, _search_instruments
    from wiretap.rates import theorem1_rate
    from wiretap.scenario import gallery_superdense

    sc = gallery_superdense()
    res = sc.resource_state()
    # NaN between the two values of Alice's share makes the resource marginal,
    # and so the witness's residual, NaN.
    d_rest = res.zeta.dim // len(res.psi)
    bad = dataclasses.replace(res, zeta=_nan_state(res.zeta.space, (0, d_rest), (d_rest, 0)))
    cfg = OptimizerConfig(seed=1, restarts=1, max_iters=5)
    _search_instruments(sc.channel, res, lambda ens: theorem1_rate(ens, sc.channel, bad), cfg)


@pytest.mark.parametrize(
    "case, match",
    [
        pytest.param(_nan_classical_channel, "column stochastic", id="classical_channel"),
        pytest.param(
            _nan_modulation_marginal, "deviates from the resource marginal by nan", id="modulation"
        ),
        pytest.param(
            _nan_modulation_diagonal,
            "deviates from the resource marginal by nan",
            id="modulation_diagonal",
        ),
        pytest.param(_nan_resource_state, "non-finite entries", id="resource_state"),
        pytest.param(_nan_duality_purity, "purity deficit nan", id="duality_purity"),
        pytest.param(_nan_repair_budget, "repair cost nan", id="repair_budget"),
        pytest.param(_nan_witness_residual, "witness residual nan", id="witness_residual"),
    ],
)
def test_tolerance_checks_refuse_nan(case, match, monkeypatch):
    # Each check is written "not x <= tol", which a NaN x fails.
    from wiretap.optimize import OptimizationError

    args = (monkeypatch,) if case is _nan_repair_budget else ()
    with pytest.raises((ValidationError, OptimizationError), match=match):
        case(*args)


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


@pytest.mark.parametrize(
    "d_l, d_r, mixed",
    [
        pytest.param(4, 2, False, id="4-2"),
        pytest.param(6, 2, False, id="6-2"),
        pytest.param(4, 2, True, id="4-2-mixed"),
    ],
)
def test_uhlmann_fixup_pads_the_aux_factor(d_l, d_r, mixed):
    # A pure eta_tilde and a full-rank target of rank d_l > d_r * rank(eta_tilde)
    # need an aux factor larger than eta_tilde's rank: the repaired state is
    # mixed, and its fidelity with eta_tilde is the marginals' fidelity
    # (Uhlmann), not only within the trace-norm budget.  A full-rank mixed
    # eta_tilde needs no padding and meets the same contract.
    gen = rng(67)
    space = LabeledSpace.of(("L", d_l), ("R", d_r))
    for _ in range(5):
        eta_tilde = random_full_rank_state(gen, space) if mixed else random_pure_state(gen, space)
        target = random_full_rank_state(gen, LabeledSpace.of(("L", d_l)))
        current = partial_trace(eta_tilde, {"L"})
        eta = uhlmann_fixup(eta_tilde, target, {"L"})
        assert eta.space == space
        assert np.max(np.abs(partial_trace(eta, {"L"}).matrix - target.matrix)) <= 1e-12
        assert fidelity(eta_tilde, eta) == pytest.approx(fidelity(current, target), abs=1e-7)
        delta = trace_distance(current, target)
        budget = 2 * np.sqrt(max(0.0, 2 * delta - delta * delta))
        assert hermitian_trace_norm(eta.matrix - eta_tilde.matrix) <= budget + 1e-9


@pytest.mark.parametrize("small", [1e-6, 1e-10, 5e-12])
def test_uhlmann_fixup_meets_the_target_near_a_singular_marginal(small):
    # eta_tilde's L marginal has one eigenvalue at ``small``.  Aligning with
    # the SVD of sqrt(sigma) M still meets the target to rounding; the
    # operator form (T x 1) eta_tilde (T x 1)^dagger with
    # T = sqrt(sigma) (sqrt(sigma) rho_L sqrt(sigma))^(-1/2) sqrt(sigma)
    # misses it on these inputs by 1.7e-11 at 1e-6, 3.6e-7 at 1e-10 and
    # 6.4e-6 at 5e-12.
    gen = rng(73)
    d_l, d_r, d_aux = 3, 2, 3
    for _ in range(5):
        spectrum = np.array([0.6, 0.4 - small, small])
        u = np.linalg.qr(ginibre(gen, d_l, d_l))[0]
        w = np.linalg.qr(ginibre(gen, d_r * d_aux, d_l))[0]
        coeff = (u * np.sqrt(spectrum)) @ w.conj().T  # (L, R aux) amplitudes
        phi = coeff.reshape(d_l * d_r, d_aux)
        space = LabeledSpace.of(("L", d_l), ("R", d_r))
        eta_tilde = DensityOperator(space, phi @ phi.conj().T)
        assert np.min(np.linalg.eigvalsh(partial_trace(eta_tilde, {"L"}).matrix)) == (
            pytest.approx(spectrum[2], rel=1e-3)
        )
        target = random_full_rank_state(gen, LabeledSpace.of(("L", d_l)))
        eta = uhlmann_fixup(eta_tilde, target, {"L"})
        assert np.max(np.abs(partial_trace(eta, {"L"}).matrix - target.matrix)) <= 1e-12


def test_uhlmann_fixup_working_set_is_a_few_states():
    # A full-rank eta_tilde on (L 8, R 8) is 64 KiB; aligning on the L side
    # builds arrays no larger than it, so one call peaks well under 2 MiB.
    import tracemalloc

    gen = rng(79)
    space = LabeledSpace.of(("L", 8), ("R", 8))
    eta_tilde = random_full_rank_state(gen, space)
    target = random_full_rank_state(gen, LabeledSpace.of(("L", 8)))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        eta = uhlmann_fixup(eta_tilde, target, {"L"})
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert np.max(np.abs(partial_trace(eta, {"L"}).matrix - target.matrix)) <= 1e-12
    assert peak < 2 * 2**20


def test_uhlmann_fixup_holds_three_states():
    # Repairing the R marginal of a full-rank state on (L 16, R 16) moves R
    # first and back: the permuted input, the eigensolve's vectors and their
    # support copy, then the scaled amplitudes and their padded copy, then
    # phi, its conjugate and the repaired state, about 3 states at a time.
    import tracemalloc

    gen = rng(83)
    space = LabeledSpace.of(("L", 16), ("R", 16))
    eta_tilde = random_full_rank_state(gen, space)
    target = random_full_rank_state(gen, LabeledSpace.of(("R", 16)))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        eta = uhlmann_fixup(eta_tilde, target, {"R"})
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert np.max(np.abs(partial_trace(eta, {"R"}).matrix - target.matrix)) <= 1e-12
    assert peak <= 4 * eta_tilde.matrix.nbytes, peak / eta_tilde.matrix.nbytes


def test_support_eigh_descending_and_complete():
    gen = rng(71)
    for d in (1, 2, 5):
        m = random_full_rank_state(gen, LabeledSpace.of(("X", d))).matrix
        w, v = support_eigh(m)
        assert len(w) == d and v.shape == (d, d)
        assert np.all(np.diff(w) <= 0)
        assert np.max(np.abs((v * w) @ v.conj().T - m)) <= 1e-12
        assert np.max(np.abs(v.conj().T @ v - np.eye(d))) <= 1e-12


def test_support_eigh_cutoff_is_strict():
    # A permuted diagonal: eigh returns its entries exactly.
    above = np.nextafter(RANK_CUTOFF, 1.0)
    m = np.diag([0.25, RANK_CUTOFF, 0.5, above, 0.0, -1e-15]).astype(complex)
    w, v = support_eigh(m)
    assert w.tolist() == [0.5, 0.25, above]
    assert np.array_equal(np.abs(v), np.eye(6)[:, [2, 0, 3]])


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
    for value in (float("nan"), float("inf")):
        bad = state_to_json(maximally_mixed(A))
        bad["matrix"] = [[[value, value]] * 2] * 2
        with pytest.raises(ValidationError, match="finite"):
            state_from_json(bad)
    # JSON true is a bool, an int subclass: not a one-dimensional factor.
    for dim in (True, False):
        with pytest.raises(ValidationError, match="must be \\[string, integer\\]"):
            factors_from_json([["A", dim]])
    # Nor is an entry [true, false] the number 1 + 0i.
    bad = state_to_json(basis_state(A, [0]))
    for entry in ([True, False], [1.0, False]):
        bad["matrix"][0][0] = entry
        with pytest.raises(ValidationError, match="not booleans"):
            state_from_json(bad)


def test_pure_state_normalizes():
    psi = pure_state(A, [1.0, 1.0])
    assert np.allclose(psi.matrix, np.full((2, 2), 0.5), atol=1e-14)
    with pytest.raises(ValidationError):
        pure_state(A, [0.0, 0.0])


def test_maximally_entangled_marginals():
    for d in (2, 3):
        phi = maximally_entangled("L", "R", d)
        assert is_pure(phi)
        assert np.allclose(partial_trace(phi, {"L"}).matrix, np.eye(d) / d, atol=1e-14)
