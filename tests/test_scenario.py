import numpy as np
import pytest

from wiretap.channels import QuantumChannel
from wiretap.qcore import (
    LabeledSpace,
    ValidationError,
    basis_state,
    hermitian_trace_norm,
    partial_trace,
    tensor,
)
from wiretap.rates import marginal_constraint_residual, theorem1_rate
from wiretap.scenario import (
    Scenario,
    build_gallery,
    correlated_bits_pmf,
    gallery_classical,
    scenario_from_json,
    scenario_to_json,
)


def binary_entropy(p):
    return -p * np.log2(p) - (1 - p) * np.log2(1 - p)


def test_scenario_validation():
    sc = build_gallery("trivial")
    with pytest.raises(ValidationError, match="two factors"):
        Scenario("x", "", QuantumChannel(
            LabeledSpace.of(("A", 2)), LabeledSpace.of(("B", 2)), [np.eye(2)]
        ), sc.resource)
    with pytest.raises(ValidationError, match="three factors"):
        Scenario("x", "", sc.channel, basis_state(LabeledSpace.of(("Ap", 2)), [0]))
    with pytest.raises(ValidationError, match="clash"):
        bad_res = tensor(
            tensor(
                basis_state(LabeledSpace.of(("B", 1)), [0]),
                basis_state(LabeledSpace.of(("Bp", 1)), [0]),
            ),
            basis_state(LabeledSpace.of(("Ep", 1)), [0]),
        )
        Scenario("x", "", sc.channel, bad_res)
    with pytest.raises(ValidationError, match="modulation_probs"):
        Scenario(
            "x",
            "",
            sc.channel,
            sc.resource,
            modulations=sc.modulations,
            modulation_probs=(1.0,),
        )


def test_scenario_json_section_errors():
    sc_obj = scenario_to_json(build_gallery("trivial"))
    del sc_obj["channel"]
    with pytest.raises(ValidationError, match="channel"):
        scenario_from_json(sc_obj)
    sc_obj2 = scenario_to_json(build_gallery("trivial"))
    sc_obj2["resource"]["matrix"] = "nope"
    with pytest.raises(ValidationError, match="resource"):
        scenario_from_json(sc_obj2)


def test_xor_pad_ensemble_is_feasible_and_private():
    sc = gallery_classical(correlated_bits_pmf())
    res = sc.resource_state()
    assert marginal_constraint_residual(sc.ensemble, res) <= 1e-12
    rep = theorem1_rate(sc.ensemble, sc.channel, res)
    # The pad hides the signal from Eve entirely; Bob pays only his BSC noise.
    assert rep.i_u_ee <= 1e-12
    assert rep.i_u_aprime == 0.0
    assert rep.rate == pytest.approx(1.0 - binary_entropy(0.05), abs=1e-10)


def test_correlated_bits_pmf_with_eve_copy():
    pmf = correlated_bits_pmf(eve_copy_noise=0.25)
    assert pmf.shape == (2, 2, 2)
    assert pmf.sum() == pytest.approx(1.0, abs=1e-15)
    sc = gallery_classical(pmf)
    res = sc.resource_state()
    rep = theorem1_rate(sc.ensemble, sc.channel, res)
    # Eve's noisy copy of the pad leaks a little, so the rate drops below
    # the clean-pad value but stays above the unassisted one.
    assert 0 < rep.i_u_ee < 0.2
    clean = 1.0 - binary_entropy(0.05)
    assert rep.rate < clean
    assert rep.rate > clean - binary_entropy(0.2)


def test_gallery_trivial_resource_is_empty():
    sc = build_gallery("trivial")
    assert sc.resource.space.dims == (1, 1, 1)
    assert np.allclose(sc.resource.matrix, [[1.0]])


def test_gallery_broadcast_kraus_is_copy_isometry():
    sc = build_gallery("broadcast")
    (v,) = sc.channel.kraus
    assert np.max(np.abs(v.conj().T @ v - np.eye(2))) <= 1e-12
    out = np.zeros((4, 2))
    out[0, 0] = out[3, 1] = 1.0
    assert np.array_equal(v, out.astype(complex))


def test_gallery_superdense_marginals():
    sc = build_gallery("superdense")
    res = sc.resource_state()
    for s in sc.ensemble.states:
        marg = partial_trace(s, {"App"})
        assert hermitian_trace_norm(marg.matrix - res.zeta_marginal.matrix) <= 1e-12


def test_gallery_classical_pmf_marginal_check():
    pmf = np.array([[[0.25], [0.25]], [[0.25], [0.25]]])
    sc = gallery_classical(pmf)
    diag = np.real(np.diag(sc.resource.matrix)).reshape(2, 2, 1)
    assert np.allclose(diag, pmf, atol=1e-15)
    # Independent uniform bits: Alice-Bob marginal is I/4.
    ab = partial_trace(sc.resource, {"Ap", "Bp"})
    assert np.allclose(ab.matrix, np.eye(4) / 4, atol=1e-14)


def test_modulation_probs_checked_without_modulations():
    obj = scenario_to_json(build_gallery("broadcast"))
    assert obj["modulations"] is None
    obj["modulation_probs"] = ["a"]
    with pytest.raises(ValidationError, match="modulation_probs"):
        scenario_from_json(obj)
