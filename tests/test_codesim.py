import warnings

import numpy as np
import pytest

from wiretap.channels import (
    CqEnsemble,
    QuantumChannel,
    classical_channel,
    trivial_resource,
)
from wiretap.codesim import (
    SimReport,
    code_parameters,
    codebook_chi_square,
    exact_mixture_leakage,
    leakage,
    marginal_residual_and_fixup,
    max_dim_cap,
    pgm_decoder,
    pgm_success,
    run_experiment,
    sample_codebook,
    symbol_frequencies,
)
from wiretap.qcore import (
    DensityOperator,
    LabeledSpace,
    ResourceLimitError,
    ValidationError,
    basis_state,
    pure_state,
    tensor,
)
from wiretap.rates import classical_embed, theorem1_rate
from wiretap.scenario import (
    correlated_bits_pmf,
    gallery_classical,
    gallery_superdense,
)

A = LabeledSpace.of(("A", 2))


def bec_copy_wiretap() -> QuantumChannel:
    """Bob sees the bit perfectly; Eve sees it through a 50% erasure."""
    trans = np.zeros((6, 2))  # (y, e) with e in {0, 1, erased}
    for x in range(2):
        trans[x * 3 + x, x] = 0.5
        trans[x * 3 + 2, x] = 0.5
    return classical_channel(trans, A, LabeledSpace.of(("B", 2), ("E", 3)))


def lifted_bits_ensemble() -> CqEnsemble:
    aux = LabeledSpace.of(("App", 1))
    return CqEnsemble(
        [0, 1],
        [0.5, 0.5],
        [tensor(basis_state(A, [i]), basis_state(aux, [0])) for i in range(2)],
    )


def test_code_parameters_superdense_example():
    sc = gallery_superdense()
    res = sc.resource_state()
    params = code_parameters(sc.ensemble, sc.channel, res, n=2, epsilon=0.1)
    assert (params.M, params.S) == (12, 1)
    assert not params.degenerate


def test_code_parameters_classical_arithmetic():
    # I(U:B) = 1 (perfect copy), I(U:E) = 1/2 (50% erasure), I(U:A') = 0.
    ens = lifted_bits_ensemble()
    res = trivial_resource()
    ch = bec_copy_wiretap()
    rep = theorem1_rate(ens, ch, res)
    assert rep.i_u_bb == pytest.approx(1.0, abs=1e-12)
    assert rep.i_u_ee == pytest.approx(0.5, abs=1e-12)
    params = code_parameters(ens, ch, res, n=4, epsilon=0.05)
    assert params.S == 5  # round(2^2.2)
    assert round(2.0**params.ms_exponent) == 14  # round(2^3.8)
    assert params.M == 3  # round(2^1.6)


def test_code_parameters_degenerate():
    ens = lifted_bits_ensemble()
    res = trivial_resource()
    ch = bec_copy_wiretap()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        params = code_parameters(ens, ch, res, n=2, epsilon=0.3)  # eps >= rate/2
    assert params.M == 1
    assert params.degenerate
    assert any("degenerate" in str(w.message) for w in caught)
    with pytest.raises(ValidationError):
        code_parameters(ens, ch, res, n=2, epsilon=0.0)


def test_sample_codebook_determinism_and_frequencies():
    ens = lifted_bits_ensemble()
    cb1 = sample_codebook(ens, n=8, M=100, S=10, seed=99)
    cb2 = sample_codebook(ens, n=8, M=100, S=10, seed=99)
    assert np.array_equal(cb1.words, cb2.words)
    freqs = symbol_frequencies(cb1, 2)
    assert abs(freqs[0] - 0.5) < 0.02  # binomial CI at 8000 draws
    stat, pvalue = codebook_chi_square(cb1, ens.probs)
    assert pvalue > 1e-4


def test_sample_codebook_point_mass_and_cap():
    aux = LabeledSpace.of(("App", 1))
    ens = CqEnsemble(
        [0, 1],
        [1.0, 0.0],
        [tensor(basis_state(A, [i]), basis_state(aux, [0])) for i in range(2)],
    )
    cb = sample_codebook(ens, n=4, M=3, S=2, seed=5)
    assert np.all(cb.words == 0)
    with pytest.raises(ResourceLimitError):
        sample_codebook(ens, n=100, M=10**4, S=10**3, seed=1)


def test_pgm_orthogonal_states_decode_perfectly():
    states = [basis_state(A, [i]) for i in range(2)]
    povm = pgm_decoder(states)
    assert pgm_success(states, povm) >= 1.0 - 1e-9
    total = sum(povm)
    assert np.max(np.abs(total - np.eye(2))) <= 1e-9
    for d in povm:
        assert np.min(np.linalg.eigvalsh(d)) >= -1e-9


def test_pgm_identical_states_guess_at_random():
    rho = basis_state(A, [0])
    for m in (2, 4):
        states = [rho] * m
        assert pgm_success(states, pgm_decoder(states)) == pytest.approx(1 / m, abs=1e-10)


def test_pgm_two_pure_states_closed_form():
    theta = np.pi / 8
    psi0 = pure_state(A, [1.0, 0.0])
    psi1 = pure_state(A, [np.cos(theta), np.sin(theta)])
    states = [psi0, psi1]
    got = pgm_success(states, pgm_decoder(states))
    want = 0.5 * (1.0 + np.sqrt(1.0 - np.cos(theta) ** 2))
    assert got == pytest.approx(want, abs=1e-10)


def test_pgm_rejects_empty_and_zero():
    with pytest.raises(ValidationError):
        pgm_decoder([])
    with pytest.raises(ValidationError, match="zero"):
        pgm_decoder([basis_state(A, [0])], priors=[0.0])


def test_exact_mixture_leakage_is_zero():
    sc = gallery_classical()
    res = sc.resource_state()
    assert exact_mixture_leakage(sc.ensemble, sc.channel, res, n=3) <= 1e-10


def test_leakage_constant_eve_channel():
    # Eve's output is u-independent for the XOR-pad instance: zero leakage
    # for any codebook.
    sc = gallery_classical(correlated_bits_pmf())
    res = sc.resource_state()
    cb = sample_codebook(sc.ensemble, n=3, M=4, S=2, seed=3)
    stats = leakage(cb, sc.ensemble, sc.channel, res)
    assert stats.average <= 1e-12
    assert stats.per_message_max <= 1e-12


def test_leakage_decreases_with_bin_size_paired_seeds():
    sc = gallery_classical()
    res = sc.resource_state()
    n = 4
    worse, better = [], []
    for seed in range(50):
        cb1 = sample_codebook(sc.ensemble, n, M=3, S=1, seed=seed)
        cb5 = sample_codebook(sc.ensemble, n, M=3, S=5, seed=seed)
        worse.append(leakage(cb1, sc.ensemble, sc.channel, res).average)
        better.append(leakage(cb5, sc.ensemble, sc.channel, res).average)
    assert np.mean(better) < np.mean(worse)


def test_leakage_dimension_cap(monkeypatch):
    sc = gallery_classical()
    res = sc.resource_state()
    cb = sample_codebook(sc.ensemble, n=9, M=2, S=1, seed=1)
    monkeypatch.setenv("WIRETAP_MAX_DIM", "256")
    with pytest.raises(ResourceLimitError, match="cap"):
        leakage(cb, sc.ensemble, sc.channel, res)


def avg_constrained_ensemble() -> tuple[CqEnsemble, object]:
    """Binary classical ensemble feasible on average but not per member."""
    pmf = np.zeros((2, 2, 1))
    pmf[0, 0, 0] = 0.5
    pmf[1, 1, 0] = 0.5
    from wiretap.channels import channel_from_resource_state

    res = channel_from_resource_state(classical_embed(pmf))
    space = LabeledSpace.of(("A", 2), ("App", 2))
    margs = [np.array([0.7, 0.3]), np.array([0.3, 0.7])]
    members = []
    for u in range(2):
        diag = np.kron(np.array([1.0, 0.0]) if u == 0 else np.array([0.0, 1.0]), margs[u])
        members.append(DensityOperator(space, np.diag(diag).astype(complex), validate=False))
    return CqEnsemble([0, 1], [0.5, 0.5], members), res


def test_marginal_residual_per_u_exact_is_zero():
    sc = gallery_classical(correlated_bits_pmf())
    res = sc.resource_state()
    cb = sample_codebook(sc.ensemble, n=2, M=3, S=2, seed=7)
    residual, cost = marginal_residual_and_fixup(cb, sc.ensemble, res)
    assert residual <= 1e-12
    assert cost <= 1e-12


def test_marginal_residual_single_word_case():
    ens, res = avg_constrained_ensemble()
    cb = sample_codebook(ens, n=1, M=1, S=1, seed=13)
    residual, cost = marginal_residual_and_fixup(cb, ens, res)
    u = int(cb.words[0, 0, 0])
    marg = np.array([0.7, 0.3]) if u == 0 else np.array([0.3, 0.7])
    want = np.abs(marg - np.array([0.5, 0.5])).sum()
    assert residual == pytest.approx(want, abs=1e-12)
    assert cost <= 4 * np.sqrt(residual) + 1e-9


def test_marginal_residual_decreases_with_bin_size():
    ens, res = avg_constrained_ensemble()
    means = []
    for s_size in (1, 4, 16):
        vals = []
        for seed in range(50):
            cb = sample_codebook(ens, n=2, M=2, S=s_size, seed=seed)
            residual, cost = marginal_residual_and_fixup(cb, ens, res)
            vals.append(residual)
            assert cost <= 4 * np.sqrt(residual) + 1e-9
        means.append(np.mean(vals))
    assert means[0] > means[1] > means[2]


def test_run_experiment_determinism_and_report_shape():
    sc = gallery_classical()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        a = run_experiment(sc, [2, 4], 0.1, trials=5, seed=21, rate=0.3)
        b = run_experiment(sc, [2, 4], 0.1, trials=5, seed=21, rate=0.3)
    assert a == b
    for rep in a:
        assert rep.trials == 5
        assert len(rep.lambda_trials) == 5
        assert 0 <= rep.lambda_hat <= 1
        assert rep.ci_halfwidth >= 0


def test_run_experiment_diagonal_matches_dense_path():
    # Recompute each trial on dense matrices and compare: the classical
    # gallery runs every side on diagonals, the superdense one runs Bob on
    # matrices and Eve and the marginals on diagonals.
    from wiretap.codesim import _bin_average, _member_outputs, _trial_seed

    for sc, rate in ((gallery_classical(), 0.3), (gallery_superdense(), 1.5)):
        res = sc.resource_state()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fast = run_experiment(sc, [2, 3], 0.1, trials=4, seed=33, rate=rate)
        bobs, eves = _member_outputs(sc.ensemble, sc.channel, res)
        for rep in fast:
            n = rep.n
            lam_dense, mu_dense = [], []
            for t in range(4):
                cb = sample_codebook(sc.ensemble, n, rep.M, rep.S, _trial_seed(33, n, t))
                space = LabeledSpace(tuple((f"b{i}", bobs[0].dim) for i in range(n)))
                bins = [
                    DensityOperator(space, m, validate=False)
                    for m in _bin_average([b.matrix for b in bobs], cb.words)
                ]
                lam_dense.append(1.0 - pgm_success(bins, pgm_decoder(bins)))
                mu_dense.append(leakage(cb, sc.ensemble, sc.channel, res).average)
            assert rep.lambda_hat == pytest.approx(np.mean(lam_dense), abs=1e-9)
            assert rep.mu_hat == pytest.approx(np.mean(mu_dense), abs=1e-9)
            assert rep.marginal_residual <= 1e-12 and rep.fixup_cost == 0.0


def nondiagonal_avg_feasible_scenario():
    """Bell-pair resource with members whose A' marginals are off-diagonal
    and differ from I/2; only their average matches the resource marginal."""
    from wiretap.scenario import Scenario

    sc = gallery_superdense()
    space = LabeledSpace.of(("A", 2), ("App", 2))
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    members = [
        DensityOperator(space, np.kron(np.diag(np.eye(2)[u]), np.eye(2) / 2 + sign * 0.2 * x))
        for u, sign in ((0, 1), (1, -1))
    ]
    ens = CqEnsemble([0, 1], [0.5, 0.5], members)
    return Scenario("avg-feasible", "test instance", sc.channel, sc.resource, ens)


def test_run_experiment_repairs_nondiagonal_marginals():
    from wiretap.codesim import _trial_seed

    sc = nondiagonal_avg_feasible_scenario()
    res = sc.resource_state()
    reports = run_experiment(sc, [1, 2, 3], 0.1, trials=3, seed=5, rate=1.0)
    for rep in reports:
        got = [
            marginal_residual_and_fixup(
                sample_codebook(sc.ensemble, rep.n, rep.M, rep.S, _trial_seed(5, rep.n, t)),
                sc.ensemble,
                res,
            )
            for t in range(3)
        ]
        assert rep.marginal_residual == pytest.approx(np.mean([r for r, _ in got]), abs=1e-12)
        assert rep.fixup_cost == pytest.approx(np.mean([c for _, c in got]), abs=1e-12)
        assert rep.marginal_residual > 1e-3
        assert 0.0 < rep.fixup_cost <= 4 * np.sqrt(rep.marginal_residual) + 1e-9


def test_run_experiment_superdense_trend():
    sc = gallery_superdense()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        reports = run_experiment(sc, [1, 2], 0.1, trials=100, seed=11, rate=1.5)
    assert reports[1].lambda_hat <= reports[0].lambda_hat
    assert reports[1].mu_hat <= 1e-10  # Eve is trivial
    assert reports[0].M == 3 and reports[1].M == 8


def test_run_experiment_above_capacity_has_high_error():
    sc = gallery_classical(correlated_bits_pmf())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        reports = run_experiment(sc, [2, 4, 6], 0.05, trials=20, seed=77, rate=1.0)
    assert reports[-1].lambda_hat >= 0.5


def test_run_experiment_caps_and_validation():
    sc = gallery_classical()
    with pytest.raises(ResourceLimitError, match="cap"):
        run_experiment(sc, [20], 0.1, trials=1, seed=1, rate=0.3)
    from wiretap.scenario import gallery_broadcast_bell

    with pytest.raises(ValidationError, match="ensemble"):
        run_experiment(gallery_broadcast_bell(), [1], 0.1, trials=1, seed=1)


def test_orthogonal_message_states_decode_exactly():
    # When the sampled codebook happens to give the messages orthogonal
    # output states, the simulator's error is numerically zero at any n.
    from wiretap.codesim import _bin_average, _member_outputs, _trial_seed
    from wiretap.scenario import gallery_trivial

    sc = gallery_trivial()
    res = sc.resource_state()
    bobs, _ = _member_outputs(sc.ensemble, sc.channel, res)
    for seed in range(50):
        cb = sample_codebook(sc.ensemble, n=3, M=2, S=1, seed=seed)
        if np.array_equal(cb.words[0, 0], cb.words[1, 0]):
            continue  # collision: states not orthogonal
        space = LabeledSpace.of(*((f"b{i}", 2) for i in range(3)))
        bins = [
            DensityOperator(space, m, validate=False)
            for m in _bin_average([b.matrix for b in bobs], cb.words)
        ]
        lam = 1.0 - pgm_success(bins, pgm_decoder(bins))
        assert lam <= 1e-9
        break
    else:  # pragma: no cover
        pytest.fail("no collision-free codebook found in 50 seeds")


def test_max_dim_cap_env_override(monkeypatch):
    monkeypatch.setenv("WIRETAP_MAX_DIM", "128")
    assert max_dim_cap() == 128
    monkeypatch.setenv("WIRETAP_MAX_DIM", "no")
    with pytest.raises(ValidationError):
        max_dim_cap()
    monkeypatch.delenv("WIRETAP_MAX_DIM")
    assert max_dim_cap() == 4096


def test_sim_report_validation():
    with pytest.raises(ValidationError):
        SimReport(1, 1, 1, 0.5, 1.5, 0.0, 0.0, 0.0, 1, 0.0)
    with pytest.raises(ValidationError):
        SimReport(1, 1, 1, 0.5, 0.5, 2.5, 0.0, 0.0, 1, 0.0)


def test_run_experiment_refuses_by_bytes_before_allocating(monkeypatch):
    import wiretap.codesim as codesim

    def no_alloc(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("bin averages allocated before the byte check")

    monkeypatch.setattr(codesim, "_bin_average", no_alloc)
    sc = gallery_superdense()
    assert code_parameters(sc.ensemble, sc.channel, sc.resource_state(), 5, 0.1).M == 512
    with pytest.raises(ResourceLimitError, match="GiB"):
        run_experiment(sc, [5], 0.1, trials=1, seed=1)
    # The same block length also stops a list that starts with a small one.
    with pytest.raises(ResourceLimitError, match="block length 5"):
        run_experiment(sc, [1, 5], 0.1, trials=1, seed=1)


def test_run_experiment_counts_repair_bytes_on_diagonal_instance(monkeypatch):
    # Diagonal sides need 2 MiB at n = 6, but the members' A' marginals differ
    # from the resource's, so a repair would build 64 dense 4096^2 averages.
    import wiretap.codesim as codesim
    from wiretap.scenario import Scenario

    def no_alloc(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("allocated before the byte check")

    monkeypatch.setattr(codesim, "_bin_average", no_alloc)
    monkeypatch.setattr(codesim, "marginal_residual_and_fixup", no_alloc)
    ens, res = avg_constrained_ensemble()
    sc = Scenario("avg", "test instance", gallery_classical().channel, res.zeta, ens)
    assert code_parameters(ens, sc.channel, sc.resource_state(), 6, 0.1, rate=1.0).M == 64
    with pytest.raises(ResourceLimitError, match="16.0 GiB"):
        run_experiment(sc, [6], 0.1, trials=1, seed=1, rate=1.0)


def test_code_parameters_refuses_empty_block():
    sc = gallery_classical()
    with pytest.raises(ValidationError, match="block length"):
        code_parameters(sc.ensemble, sc.channel, sc.resource_state(), 0, 0.1)


def _forbid_bin_averages(monkeypatch):
    import wiretap.codesim as codesim

    def no_alloc(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("allocated before the byte check")

    monkeypatch.setattr(codesim, "_bin_average", no_alloc)


def test_marginal_residual_refuses_by_bytes(monkeypatch):
    # Signal side 4^6 = 4096 passes the dimension cap; 64 dense averages need 16 GiB.
    _forbid_bin_averages(monkeypatch)
    ens, res = avg_constrained_ensemble()
    cb = sample_codebook(ens, n=6, M=64, S=1, seed=1)
    with pytest.raises(ResourceLimitError, match="16.0 GiB"):
        marginal_residual_and_fixup(cb, ens, res)


def test_leakage_refuses_by_bytes(monkeypatch):
    # Eve side 2^12 = 4096 passes the dimension cap; 16 dense averages need 4 GiB.
    _forbid_bin_averages(monkeypatch)
    sc = gallery_classical()
    cb = sample_codebook(sc.ensemble, n=12, M=16, S=1, seed=1)
    with pytest.raises(ResourceLimitError, match="4.0 GiB"):
        leakage(cb, sc.ensemble, sc.channel, sc.resource_state())
