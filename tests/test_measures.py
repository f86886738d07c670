import tracemalloc

import numpy as np
import pytest

from conftest import (
    maximally_mixed,
    pure_state,
    random_density_matrix,
    random_pure_state,
    random_unitary,
    rng,
)
from wiretap import measures, optimize
from wiretap.channels import apply
from wiretap.entropic import coherent_information, von_neumann_entropy
from wiretap.measures import (
    dense_coding_advantage,
    duality_residual,
    entanglement_of_purification,
)
from wiretap.optimize import OptimizerConfig
from wiretap.qcore import (
    DensityOperator,
    LabeledSpace,
    ResourceLimitError,
    ValidationError,
    basis_state,
    maximally_entangled,
    partial_trace,
    permute_factors,
    purify,
    tensor,
)

CD = LabeledSpace.of(("C", 2), ("D", 2))


def cfg(seed=3, **kw):
    defaults = dict(seed=seed, restarts=5, max_iters=1200)
    defaults.update(kw)
    return OptimizerConfig(**defaults)


def mixed_qubit(seed, label):
    gen = rng(seed)
    return DensityOperator(LabeledSpace.of((label, 2)), random_density_matrix(gen, 2))


def test_delta_product_state_is_zero():
    prod = tensor(mixed_qubit(501, "Ap"), mixed_qubit(502, "Bp"))
    out = dense_coding_advantage(prod, cfg=cfg())
    assert abs(out.best_value) <= 1e-4


def test_delta_bell_state_is_one():
    out = dense_coding_advantage(maximally_entangled("Ap", "Bp", 2), cfg=cfg())
    assert out.best_value == pytest.approx(1.0, abs=1e-3)
    assert out.best_channel is not None


def test_delta_classically_correlated_is_zero():
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[3, 3] = 0.5
    cc = DensityOperator(LabeledSpace.of(("Ap", 2), ("Bp", 2)), m)
    out = dense_coding_advantage(cc, cfg=cfg())
    assert abs(out.best_value) <= 1e-3


def test_delta_never_below_identity_witness():
    gen = rng(509)
    for _ in range(3):
        rho = DensityOperator(
            LabeledSpace.of(("Ap", 2), ("Bp", 2)), random_density_matrix(gen, 4)
        )
        baseline = coherent_information(rho)
        out = dense_coding_advantage(rho, cfg=cfg(restarts=3, max_iters=400))
        assert out.best_value >= baseline - 1e-9


def test_delta_witness_reproduces_value():
    rho = maximally_entangled("Ap", "Bp", 2)
    out = dense_coding_advantage(rho, cfg=cfg(restarts=2, max_iters=300))
    om = out.best_channel
    omega = apply(om, rho, on=["Ap"])
    redo = von_neumann_entropy(partial_trace(omega, {"Bp"})) - von_neumann_entropy(omega)
    assert abs(redo - out.best_value) <= 1e-6


def test_ep_witness_reproduces_value_on_canonical_purification():
    # A full-rank product state: beating S(C) takes a witness on the
    # four-dimensional purifier that is neither unitary nor constant, so
    # the value at the witness depends on the purifier's basis, and it
    # must be the one `purify` gives.
    rho = tensor(mixed_qubit(513, "C"), mixed_qubit(517, "D"))
    out = entanglement_of_purification(rho, cfg=cfg(seed=1, restarts=4, max_iters=300))
    (e_label,) = out.best_channel.input_space.labels
    psi_ce = partial_trace(purify(rho, e_label), {"C", e_label})
    redo = von_neumann_entropy(apply(out.best_channel, psi_ce, on=[e_label]))
    assert abs(redo - out.best_value) <= 1e-10
    assert out.best_value < von_neumann_entropy(partial_trace(rho, {"C"})) - 1e-3


def test_ep_product_mixed_times_pure():
    prod = tensor(mixed_qubit(511, "C"), basis_state(LabeledSpace.of(("D", 2)), [0]))
    out = entanglement_of_purification(prod, cfg=cfg(restarts=3, max_iters=400))
    assert abs(out.best_value) <= 1e-6


def test_ep_product_mixed_times_mixed():
    # Full-rank product: the four-dimensional purifier makes this the hard
    # corner for the search; the known value is 0 and the engine's
    # demonstrated resolution here is ~1e-2.
    prod = tensor(mixed_qubit(521, "C"), mixed_qubit(523, "D"))
    out = entanglement_of_purification(prod, cfg=cfg(seed=1, restarts=10, max_iters=3000))
    assert abs(out.best_value) <= 1e-2


def test_ep_pure_state_gives_entropy_of_first_party():
    gen = rng(541)
    psi = random_pure_state(gen, CD)
    want = von_neumann_entropy(partial_trace(psi, {"C"}))
    out = entanglement_of_purification(psi, cfg=cfg(restarts=3, max_iters=300))
    assert out.best_value == pytest.approx(want, abs=1e-4)


def test_zero_dimension_caps_are_refused():
    # 0 is a cap, not "unset": it must not fall back to the default dimension.
    bell = maximally_entangled("C", "D", 2)
    with pytest.raises(ValidationError, match="dim_a_cap"):
        dense_coding_advantage(bell, dim_a_cap=0, cfg=cfg(restarts=1, max_iters=1))
    with pytest.raises(ValidationError, match="dim_f_cap"):
        entanglement_of_purification(bell, dim_f_cap=0, cfg=cfg(restarts=1, max_iters=1))


def test_ep_classical_correlated_and_cap_monotonicity():
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[3, 3] = 0.5
    cc = DensityOperator(CD, m)
    values = []
    for cap in (1, 2, 4):
        values.append(entanglement_of_purification(cc, dim_f_cap=cap, cfg=cfg()).best_value)
    assert values[0] >= values[1] - 1e-6
    assert values[1] >= values[2] - 1e-6
    assert values[1] == pytest.approx(1.0, abs=1e-2)


def test_measures_invariant_under_local_unitaries():
    gen = rng(547)
    rho = DensityOperator(LabeledSpace.of(("Ap", 2), ("Bp", 2)), random_density_matrix(gen, 4))
    u = np.kron(random_unitary(gen, 2), random_unitary(gen, 2))
    rotated = DensityOperator(rho.space, u @ rho.matrix @ u.conj().T)
    c = cfg(restarts=4, max_iters=1500)
    v1 = dense_coding_advantage(rho, cfg=c).best_value
    v2 = dense_coding_advantage(rotated, cfg=c).best_value
    assert abs(v1 - v2) <= 1e-6


def test_duality_bell_times_zero():
    zeta = tensor(maximally_entangled("Ap", "Bp", 2), basis_state(LabeledSpace.of(("Cp", 2)), [0]))
    assert duality_residual(zeta, cfg=cfg()) <= 1e-3


def test_duality_product_pure():
    gen = rng(557)
    zeta = tensor(
        tensor(random_pure_state(gen, LabeledSpace.of(("Ap", 2))),
               random_pure_state(gen, LabeledSpace.of(("Bp", 2)))),
        random_pure_state(gen, LabeledSpace.of(("Cp", 2))),
    )
    assert duality_residual(zeta, cfg=cfg(restarts=3, max_iters=300)) <= 1e-4


def test_duality_ghz():
    vec = np.zeros(8)
    vec[0] = vec[7] = 1 / np.sqrt(2)
    ghz = pure_state(LabeledSpace.of(("Ap", 2), ("Bp", 2), ("Cp", 2)), vec)
    assert duality_residual(ghz, cfg=cfg()) <= 1e-2


def test_duality_random_pure_states():
    gen = rng(563)
    space = LabeledSpace.of(("Ap", 2), ("Bp", 2), ("Cp", 2))
    for _ in range(2):
        psi = random_pure_state(gen, space)
        assert duality_residual(psi, cfg=cfg()) <= 1e-2


def test_duality_rejects_mixed_input():
    mixed = maximally_mixed(LabeledSpace.of(("Ap", 2), ("Bp", 2), ("Cp", 2)))
    with pytest.raises(ValidationError, match="pure"):
        duality_residual(mixed, cfg=cfg())


def three_qubit_marginals(seed):
    """The (A, B) and (C, B) marginals of a random pure 3-qubit state."""
    psi = random_pure_state(rng(seed), LabeledSpace.of(("A", 2), ("B", 2), ("C", 2)))
    rho_cb = permute_factors(partial_trace(psi, {"C", "B"}), ["C", "B"])
    return partial_trace(psi, {"A", "B"}), rho_cb


def test_measures_share_the_output_entropy_search():
    # Both measures minimize S(pass, out) through one search: each witness
    # re-scores to its value exactly, and no searched entropy in either
    # trace beats its result.
    zeta_ab, rho_cb = three_qubit_marginals(243)
    c = cfg(restarts=3, max_iters=200)
    s_b = von_neumann_entropy(partial_trace(zeta_ab, {"B"}))
    delta = dense_coding_advantage(zeta_ab, cfg=c)
    kraus = np.stack(delta.best_channel.kraus)
    assert s_b - measures._ChannelKernel(zeta_ab, "A").entropy(kraus) == delta.best_value
    ep = entanglement_of_purification(rho_cb, cfg=c)
    (e_label,) = ep.best_channel.input_space.labels
    psi_ce = partial_trace(purify(rho_cb, e_label), {"C", e_label})
    kraus = np.stack(ep.best_channel.kraus)
    assert measures._ChannelKernel(psi_ce, e_label).entropy(kraus) == ep.best_value
    assert all(s_b - p.value <= delta.best_value for p in delta.trace)
    assert all(p.value >= ep.best_value for p in ep.trace)


def test_measure_values_are_python_floats():
    zeta_ab, rho_cb = three_qubit_marginals(240)
    small = cfg(restarts=2, max_iters=20)
    for result in (
        dense_coding_advantage(zeta_ab, cfg=small),
        entanglement_of_purification(rho_cb, cfg=small),
    ):
        assert type(result.best_value) is float


@pytest.mark.parametrize("measure", [dense_coding_advantage, entanglement_of_purification])
def test_channel_searches_refuse_oversized_caps_before_allocating(measure):
    # At cap 2^24 the estimate alone is tens of GiB; the refusal must come
    # before any start, coordinate or Kraus stack is built.
    state = three_qubit_marginals(241)[measure is entanglement_of_purification]
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="search at dim_._cap 16777216 needs"):
            measure(state, 2**24, cfg(restarts=1, max_iters=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("measure", [dense_coding_advantage, entanglement_of_purification])
def test_channel_search_byte_estimate_covers_the_measured_peak(measure, monkeypatch):
    state = three_qubit_marginals(242)[measure is entanglement_of_purification]
    needs = []
    monkeypatch.setattr(optimize, "check_working_bytes", lambda need, what: needs.append(need))
    for cap in (32, 64, 256):
        tracemalloc.start()
        try:
            measure(state, cap, cfg(restarts=2, max_iters=2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= needs[-1] <= 3 * peak


@pytest.mark.parametrize("measure", [dense_coding_advantage, entanglement_of_purification])
def test_channel_searches_at_large_caps_stay_within_kraus_rank_d_in(measure, monkeypatch):
    # Every scored Kraus stack has at most d_in operators, and every
    # eigensolve is on the smaller of Z Z^dagger and Z^dagger Z, whatever
    # the cap: at cap 256 the output state on (pass, out) is 512 x 512.
    state = three_qubit_marginals(243)[measure is entanglement_of_purification]
    scored, solved = [], []
    real_entropy, real_entropies = measures._ChannelKernel.entropy, measures._entropies

    def entropy(kernel, kraus):
        scored.append((kernel, kraus.shape[-3:]))
        return real_entropy(kernel, kraus)

    def entropies(matrices):
        solved.append(matrices.shape[-2:])
        return real_entropies(matrices)

    monkeypatch.setattr(measures._ChannelKernel, "entropy", entropy)
    monkeypatch.setattr(measures, "_entropies", entropies)
    measure(state, 256, cfg(restarts=2, max_iters=5))
    assert scored and len(scored) == len(solved)
    for (kernel, (env, d_out, d_in)), (rows, cols) in zip(scored, solved):
        assert d_out == 256 and d_in == kernel.d_in and env <= d_in
        assert rows == cols <= min(kernel.d_pass * d_out, env * kernel.rank)
