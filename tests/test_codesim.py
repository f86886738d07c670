import itertools
import math
import warnings

import numpy as np
import pytest

from conftest import noisy_superdense, pure_state, random_density_matrix
from wiretap.channels import (
    CqEnsemble,
    QuantumChannel,
    classical_channel,
    trivial_resource,
)
from wiretap.codesim import (
    SimReport,
    code_parameters,
    leakage,
    marginal_residual_and_fixup,
    pgm_decoder,
    pgm_success,
    run_experiment,
    sample_codebook,
)
from wiretap.qcore import (
    DensityOperator,
    LabeledSpace,
    ResourceLimitError,
    ValidationError,
    basis_state,
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
    assert params.M == 3  # round(2^1.6)


def test_code_parameters_degenerate():
    ens = lifted_bits_ensemble()
    res = trivial_resource()
    ch = bec_copy_wiretap()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        params = code_parameters(ens, ch, res, n=2, epsilon=0.3)  # eps >= rate/2
    assert params.M == 1
    assert any("degenerate single-message code at n=2" in str(w.message) for w in caught)
    with pytest.raises(ValidationError):
        code_parameters(ens, ch, res, n=2, epsilon=0.0)


def test_code_parameters_refuses_overflow_and_non_finite_inputs():
    # I(U:E) = 1/2, so S = round(2^(n (1/2 + eps))); 2^x overflows a float at x = 1024.
    ens, res, ch = lifted_bits_ensemble(), trivial_resource(), bec_copy_wiretap()
    for n, eps, rate in [(1, 2000.0, None), (2, 0.1, 1100.0), (1, 1e308, None), (2, 0.1, 512.0)]:
        with pytest.raises(ResourceLimitError, match=f"block length {n}"):
            code_parameters(ens, ch, res, n, eps, rate)
    params = code_parameters(ens, ch, res, 1, 0.1, rate=1023.5)
    assert params.M == round(2.0**1023.5) and params.S == 2
    for eps, rate in [(math.nan, None), (math.inf, None), (0.1, math.nan), (0.1, -math.inf)]:
        with pytest.raises(ValidationError, match="finite"):
            code_parameters(ens, ch, res, 1, eps, rate)


def test_sample_codebook_determinism_and_frequencies():
    ens = lifted_bits_ensemble()
    cb1 = sample_codebook(ens, n=8, M=100, S=10, seed=99)
    cb2 = sample_codebook(ens, n=8, M=100, S=10, seed=99)
    assert cb1.shape == (100, 10, 8) and np.array_equal(cb1, cb2)
    counts = np.bincount(cb1.reshape(-1), minlength=2)
    freqs = counts / cb1.size
    assert abs(freqs[0] - 0.5) < 0.02  # binomial CI at 8000 draws
    # Chi-square goodness of fit, one degree of freedom: p = erfc(sqrt(stat / 2)).
    expected = ens.probs * cb1.size
    stat = float(np.sum((counts - expected) ** 2 / expected))
    assert math.erfc(math.sqrt(stat / 2)) > 1e-3


def test_sample_codebook_point_mass_and_cap():
    aux = LabeledSpace.of(("App", 1))
    ens = CqEnsemble(
        [0, 1],
        [1.0, 0.0],
        [tensor(basis_state(A, [i]), basis_state(aux, [0])) for i in range(2)],
    )
    cb = sample_codebook(ens, n=4, M=3, S=2, seed=5)
    assert np.all(cb == 0)
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


def test_exact_mixture_leakage_is_zero():
    # The S -> infinity sanity case: the mixture over all length-n words with
    # their product weights reproduces the reference state.
    from functools import reduce
    from itertools import product

    from wiretap.codesim import _eve_outputs
    from wiretap.qcore import hermitian_trace_norm

    sc = gallery_classical()
    n = 3
    eve_mats, reference = _eve_outputs(sc.ensemble, sc.channel, sc.resource_state(), n)
    mixture = sum(
        float(np.prod(sc.ensemble.probs[list(word)])) * reduce(np.kron, [eve_mats[u] for u in word])
        for word in product(range(len(sc.ensemble)), repeat=n)
    )
    assert hermitian_trace_norm(mixture - reference) <= 1e-10


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
    import wiretap.codesim as codesim

    sc = gallery_classical()
    res = sc.resource_state()
    cb = sample_codebook(sc.ensemble, n=9, M=2, S=1, seed=1)
    monkeypatch.setattr(codesim, "MAX_DIM", 256)
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
    u = int(cb[0, 0, 0])
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
    # gallery runs every side on diagonals, the superdense one decodes Bob
    # from a Gram matrix and runs Eve and the marginals on diagonals, and the
    # noisy superdense ones decode Bob's full-rank bin averages densely: with
    # white noise his outputs are Bell-diagonal and commute, with an X x Z
    # term in the noise they do not (its marginals stay I/2, so no repair).
    from wiretap.codesim import _bin_average, _member_outputs, _trial_seed

    x_z = np.kron([[0, 1], [1, 0]], [[1, 0], [0, -1]])
    scenarios = (
        (gallery_classical(), 0.3),
        (gallery_superdense(), 1.5),
        (noisy_superdense(), 1.5),
        (noisy_superdense(noise=(np.eye(4) + 0.5 * x_z) / 4), 1.5),
    )
    for sc, rate in scenarios:
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
                space = LabeledSpace(tuple((f"b{i}", len(bobs[0])) for i in range(n)))
                bins = [
                    DensityOperator(space, m, validate=False)
                    for m in _bin_average(bobs, cb)
                ]
                lam_dense.append(1.0 - pgm_success(bins, pgm_decoder(bins)))
                mu_dense.append(leakage(cb, sc.ensemble, sc.channel, res).average)
            assert rep.lambda_trials == pytest.approx(lam_dense, abs=1e-13)
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


def test_run_experiment_caps_signal_side_only_when_a_repair_can_run(monkeypatch):
    # A' holds a key bit k, shared with Bob', and a private bit j: p[2k + j, k, 0] = 1/4.
    # The XOR-pad members on k have the resource's A' marginal, so no repair
    # runs, and the 8^5 = 32768-dimensional signal side is never built; Bob's
    # side is 4^5 = 1024 and Eve's 2^5 = 32.
    import wiretap.codesim as codesim
    from wiretap.scenario import Scenario

    def no_repair(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("repair ran without a differing marginal")

    monkeypatch.setattr(codesim, "marginal_residual_and_fixup", no_repair)
    pmf = np.zeros((4, 2, 1))
    for k, j in itertools.product(range(2), range(2)):
        pmf[2 * k + j, k, 0] = 0.25
    space = LabeledSpace.of(("A", 2), ("App", 4))
    members = []
    for x in range(2):
        diag = np.zeros(8)
        for k, j in itertools.product(range(2), range(2)):
            diag[((x + k) % 2) * 4 + 2 * k + j] = 0.25
        members.append(DensityOperator(space, np.diag(diag).astype(complex)))
    ens = CqEnsemble([0, 1], [0.5, 0.5], members)
    sc = Scenario("key", "test instance", gallery_classical().channel, classical_embed(pmf), ens)
    (rep,) = run_experiment(sc, [5], 0.1, trials=2, seed=1)
    assert (rep.M, rep.S) == (6, 1)
    assert rep.marginal_residual == 0.0 and rep.fixup_cost == 0.0
    assert rep.mu_hat <= 1e-12  # Eve sees x + k with k uniform


def test_run_experiment_caps_and_validation():
    sc = gallery_classical()
    with pytest.raises(ResourceLimitError, match="cap"):
        run_experiment(sc, [20], 0.1, trials=1, seed=1, rate=0.3)
    from wiretap.scenario import gallery_broadcast_bell

    with pytest.raises(ValidationError, match="ensemble"):
        run_experiment(gallery_broadcast_bell(), [1], 0.1, trials=1, seed=1)


@pytest.mark.parametrize(
    "bad, message",
    [
        ({"n_list": [1.5]}, "n must be"),
        ({"n_list": [True]}, "n must be"),
        ({"n_list": []}, "n must be"),
        ({"n_list": 2}, "n must be"),
        ({"trials": 2.5}, "trials must be"),
        ({"seed": -1}, "seed must be"),
        ({"seed": 1.5}, "seed must be"),
        ({"epsilon": "x"}, "finite numbers"),
        ({"rate": float("nan")}, "finite numbers"),
    ],
)
def test_run_experiment_refuses_ill_typed_arguments(bad, message):
    # The library checks its own arguments: scripts get a ValidationError,
    # not a TypeError from deep inside, and no empty report list.
    args = {"n_list": [1], "epsilon": 0.1, "trials": 1, "seed": 1, "rate": None} | bad
    with pytest.raises(ValidationError, match=message):
        run_experiment(gallery_classical(), **args)


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
        if np.array_equal(cb[0, 0], cb[1, 0]):
            continue  # collision: states not orthogonal
        space = LabeledSpace.of(*((f"b{i}", 2) for i in range(3)))
        bins = [
            DensityOperator(space, m, validate=False)
            for m in _bin_average(bobs, cb)
        ]
        lam = 1.0 - pgm_success(bins, pgm_decoder(bins))
        assert lam <= 1e-9
        break
    else:  # pragma: no cover
        pytest.fail("no collision-free codebook found in 50 seeds")


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
    monkeypatch.setattr(codesim, "_gram_pgm_error", no_alloc)
    # Bob's outputs are full rank, so the Gram matrix (M * S * 4^6 vectors) is
    # no smaller than his 4096-dimensional block space: M = 220 dense Bob
    # averages, 5 PGM arrays and one bin to permute, 0.25 GiB each, and
    # 2 * M * S = 880 half-word products of 3 letters (64 KiB each) need
    # 226 * 0.25 GiB + 55 MiB = 56.55 GiB (and a few bytes of Eve's reference).
    sc = noisy_superdense()
    params = code_parameters(sc.ensemble, sc.channel, sc.resource_state(), 6, 0.1)
    assert (params.M, params.S) == (220, 2)
    with pytest.raises(ResourceLimitError, match="56.6 GiB"):
        run_experiment(sc, [6], 0.1, trials=1, seed=1)
    # The same block length also stops a list that starts with a small one.
    with pytest.raises(ResourceLimitError, match="block length 6"):
        run_experiment(sc, [1, 6], 0.1, trials=1, seed=1)


def test_run_experiment_counts_repair_bytes_on_diagonal_instance(monkeypatch):
    # Diagonal sides need 2 MiB at n = 6, but the members' A' marginals differ
    # from the resource's, so a repair would build 64 dense 4096^2 averages,
    # 6 repair arrays and one bin to permute, 0.25 GiB each, and
    # 2 * M * S = 640 half-word products of 3 letters (64 KiB each):
    # 71 * 0.25 GiB + 40 MiB = 17.79 GiB.
    import wiretap.codesim as codesim
    from wiretap.scenario import Scenario

    def no_alloc(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("allocated before the byte check")

    monkeypatch.setattr(codesim, "_bin_average", no_alloc)
    monkeypatch.setattr(codesim, "marginal_residual_and_fixup", no_alloc)
    ens, res = avg_constrained_ensemble()
    sc = Scenario("avg", "test instance", gallery_classical().channel, res.zeta, ens)
    assert code_parameters(ens, sc.channel, sc.resource_state(), 6, 0.1, rate=1.0).M == 64
    with pytest.raises(ResourceLimitError, match="17.8 GiB"):
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
    # Signal side 4^6 = 4096 passes the dimension cap; 64 dense averages, 6
    # repair arrays and one bin to permute, 0.25 GiB each, and 2 * M * S = 128
    # half-word products of 3 letters (64 KiB each) need
    # 71 * 0.25 GiB + 8 MiB = 17.76 GiB.
    _forbid_bin_averages(monkeypatch)
    ens, res = avg_constrained_ensemble()
    cb = sample_codebook(ens, n=6, M=64, S=1, seed=1)
    with pytest.raises(ResourceLimitError, match="17.8 GiB"):
        marginal_residual_and_fixup(cb, ens, res)


def test_marginal_residual_refuses_a_reference_copy_unlike_the_resource(monkeypatch):
    # A 3-dimensional App factor against the resource's 2-dimensional copy is
    # refused by name before any bin average is built.
    _forbid_bin_averages(monkeypatch)
    _, res = avg_constrained_ensemble()
    space = LabeledSpace.of(("A", 2), ("App", 3))
    ens = CqEnsemble([0], [1.0], [DensityOperator(space, np.eye(6) / 6)])
    cb = sample_codebook(ens, n=1, M=1, S=1, seed=1)
    with pytest.raises(ValidationError, match="reference factor dimension 3"):
        marginal_residual_and_fixup(cb, ens, res)


def test_leakage_refuses_by_bytes(monkeypatch):
    # Eve side 2^12 = 4096 passes the dimension cap; the reference, 16 dense
    # averages, 2 trace-norm arrays and one bin to permute, 0.25 GiB each, and
    # 2 * M * S = 32 half-word products of 6 letters (64 KiB each) need
    # 20 * 0.25 GiB + 2 MiB = 5.0 GiB.
    _forbid_bin_averages(monkeypatch)
    sc = gallery_classical()
    cb = sample_codebook(sc.ensemble, n=12, M=16, S=1, seed=1)
    with pytest.raises(ResourceLimitError, match="5.0 GiB"):
        leakage(cb, sc.ensemble, sc.channel, sc.resource_state())


def full_rank_repair_scenario():
    """Full-rank members diag(sigma_u x tau_u) on (A 2, App 2), sigma_0 =
    (0.9, 0.1) and tau_0 = (0.7, 0.3), swapped for u = 1, on the classical
    channel with the correlated-bits resource.  Their A' marginals are not
    the resource's, so every bin is repaired, on a full-rank state."""
    from wiretap.scenario import Scenario

    sc = gallery_classical(correlated_bits_pmf())
    space = LabeledSpace.of(("A", 2), ("App", 2))
    sigma, tau = np.array([0.9, 0.1]), np.array([0.7, 0.3])
    members = [
        DensityOperator(space, np.diag(np.kron(s, t)).astype(complex))
        for s, t in ((sigma, tau), (sigma[::-1], tau[::-1]))
    ]
    ens = CqEnsemble([0, 1], [0.5, 0.5], members)
    return Scenario("full-rank-repair", "test instance", sc.channel, sc.resource, ens)


def _estimate_cases():
    """Per code-sim branch: a call at block length n, and the n it is audited at."""
    classical, repair = gallery_classical(), full_rank_repair_scenario()

    def experiment(sc, rate):
        return lambda n: run_experiment(sc, [n], 0.1, trials=1, seed=1, rate=rate)

    def leakage_at(n):
        cb = sample_codebook(classical.ensemble, n, 8, 2, seed=1)
        return leakage(cb, classical.ensemble, classical.channel, classical.resource_state())

    def marginal_at(n):
        cb = sample_codebook(repair.ensemble, n, 8, 2, seed=1)
        return marginal_residual_and_fixup(cb, repair.ensemble, repair.resource_state())

    return {
        "diagonal": (experiment(classical, 0.3), 8),
        "gram": (experiment(gallery_superdense(), 1.5), 4),
        "dense-bob": (experiment(noisy_superdense(), None), 4),
        "repair": (experiment(repair, 1.0), 3),
        "leakage": (leakage_at, 8),
        "marginal": (marginal_at, 4),
    }


@pytest.mark.parametrize("case", list(_estimate_cases()))
def test_byte_estimate_covers_the_traced_peak(case, monkeypatch):
    # Each estimate passed to check_working_bytes must cover what its call
    # allocates: the tracemalloc peak may exceed it only by 1 MiB of one-letter
    # objects and interpreter state.  A warm-up at n = 1 keeps first-call
    # allocations out of the measured one.
    import tracemalloc

    import wiretap.codesim as codesim

    needs, check = [], codesim.check_working_bytes

    def recording(need, what):
        needs.append(need)
        check(need, what)

    monkeypatch.setattr(codesim, "check_working_bytes", recording)
    call, n = _estimate_cases()[case]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        call(1)
        needs.clear()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            call(n)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    assert needs
    assert peak <= max(needs) + 2**20, (peak / 2**20, max(needs) / 2**20)


def _kron_chain_bin_average(matrices, words):
    """Reference: one Kronecker chain per codeword, summed over the bin in order."""
    from functools import reduce

    out = []
    for row in words:
        acc = reduce(np.kron, [matrices[u] for u in row[0]])
        for word in row[1:]:
            acc = acc + reduce(np.kron, [matrices[u] for u in word])
        out.append(acc / len(row))
    return out


@pytest.mark.parametrize("dense", [False, True])
def test_bin_average_matches_the_kronecker_chain_within_the_bound(dense):
    # A bin average is sum_s P_s x Q_s over half-words, one matmul over S, so
    # each entry groups its product as (a_1 ... a_h)(a_h+1 ... a_n) and BLAS
    # orders the sum: it is within 2 (n + S) 2^-53 times the chain on the
    # entries' moduli.  n = 1..5 covers even and odd splits; at n = 1 nothing
    # is multiplied and the average is bitwise the chain's.
    from wiretap.codesim import _bin_average, _power

    gen = np.random.default_rng(17)
    for d in (1, 2, 3):
        if dense:
            mats = [gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d)) for _ in range(3)]
        else:
            mats = [gen.normal(size=d) for _ in range(3)]
        moduli = [np.abs(m) for m in mats]
        for n in range(1, 6):
            (power_ref,) = _kron_chain_bin_average(mats, np.zeros((1, 1, n), dtype=int))
            assert np.array_equal(_power(mats[0], n), power_ref)
            for s_count, m_count in itertools.product(range(1, 6), (1, 2, 3, 7)):
                words = gen.integers(0, 3, size=(m_count, s_count, n))
                fast = _bin_average(mats, words)
                ref = np.array(_kron_chain_bin_average(mats, words))
                assert fast.shape == ref.shape
                if n == 1:
                    assert np.array_equal(fast, ref)
                scale = np.array(_kron_chain_bin_average(moduli, words))
                assert np.all(np.abs(fast - ref) <= 2 * (n + s_count) * 2.0**-53 * scale)
    # n = 1 and S = 1 (no sum): the bin average is the letter itself.
    words = np.array([[[2]], [[0]]])
    assert all(np.array_equal(a, mats[u]) for a, u in zip(_bin_average(mats, words), (2, 0)))
    # S = 1, n = 3: one codeword, split 1 + 2, is its Kronecker product within the bound.
    (single,) = _bin_average(mats, np.array([[[1, 0, 2]]]))
    chain = np.kron(np.kron(mats[1], mats[0]), mats[2])
    scale = np.kron(np.kron(moduli[1], moduli[0]), moduli[2])
    assert np.all(np.abs(single - chain) <= 2 * 4 * 2.0**-53 * scale)


@pytest.mark.parametrize("dense", [False, True])
def test_bin_average_builds_half_words_only(dense, monkeypatch):
    # _bin_average asks _products for words of at most ceil(n/2) letters, so
    # the M * S codeword products are never built, and one call's traced peak
    # stays within its M bins, one bin (the dense permutation's) and the two
    # half-word stacks, with 64 KiB for the index arrays and the letter stack.
    import tracemalloc

    import wiretap.codesim as codesim

    products, lengths = codesim._products, []

    def recording_products(stack, words):
        lengths.append(words.shape[1])
        return products(stack, words)

    monkeypatch.setattr(codesim, "_products", recording_products)
    gen = np.random.default_rng(29)
    if dense:
        mats = [gen.normal(size=(2, 2)) + 1j * gen.normal(size=(2, 2)) for _ in range(3)]
        n, m_count, s_count = 8, 3, 4  # a bin is 4^8 * 16 bytes = 1 MiB
    else:
        mats = [gen.normal(size=2) for _ in range(3)]
        n, m_count, s_count = 17, 3, 4  # a bin is 2^17 * 8 bytes = 1 MiB
    for length in range(1, n + 1):
        lengths.clear()
        codesim._bin_average(mats, gen.integers(0, 3, size=(2, 3, length)))
        assert max(lengths, default=0) <= math.ceil(length / 2)
    words = gen.integers(0, 3, size=(m_count, s_count, n))
    size = codesim._bin_bytes(mats, n)
    halves = m_count * s_count * sum(codesim._bin_bytes(mats, k) for k in (n // 2, n - n // 2))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = codesim._bin_average(mats, words)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert out.nbytes == m_count * size
    assert peak <= (m_count + dense) * size + halves + 2**16, (peak, size, halves)


def test_run_experiment_evaluates_the_rate_report_once(monkeypatch):
    # Every block length's (M, S, rate) comes from one theorem1_rate report,
    # and is bitwise what code_parameters gives at that n.
    import wiretap.codesim as codesim

    calls, rate = [], codesim.theorem1_rate

    def counting_rate(*args):
        calls.append(args)
        return rate(*args)

    sc = gallery_classical()
    n_list = [2, 4, 6, 8, 10]
    res = sc.resource_state()
    expected = [code_parameters(sc.ensemble, sc.channel, res, n, 0.1) for n in n_list]
    monkeypatch.setattr(codesim, "theorem1_rate", counting_rate)
    reps = run_experiment(sc, n_list, 0.1, trials=1, seed=3)
    assert len(calls) == 1
    assert [(r.M, r.S, r.rate) for r in reps] == [(p.M, p.S, p.rate) for p in expected]


def test_run_experiment_kron_calls_do_not_scale_with_codebook(monkeypatch):
    # Bin averages are built from half-word products, each a left fold of
    # elementwise multiplies, not by one np.kron chain per codeword
    # (2 sides * 2 trials * M * S * (n - 1) = 896 calls here), so the count
    # stays at most n whatever M * S is.
    import wiretap.codesim as codesim

    class KronCounter:
        calls = 0

        def __getattr__(self, name):
            return getattr(np, name)

        def kron(self, a, b):
            self.calls += 1
            return np.kron(a, b)

    counter = KronCounter()
    monkeypatch.setattr(codesim, "np", counter)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        (rep,) = run_experiment(gallery_classical(), [8], 0.1, trials=2, seed=3)
    assert (rep.M, rep.S) == (4, 8)
    assert counter.calls <= 8


# ---------------------------------------------------------------------------
# Gram-matrix PGM (Bob's outputs of low rank) against the dense reference
# ---------------------------------------------------------------------------


def _dense_pgm_error(mats, words):
    """Reference: ``pgm_decoder`` and ``pgm_success`` on the dense bin averages."""
    from wiretap.codesim import _bin_average

    space = LabeledSpace.of(("B", len(mats[0]) ** words.shape[2]))
    bins = [DensityOperator(space, m, validate=False) for m in _bin_average(mats, words)]
    return 1.0 - pgm_success(bins, pgm_decoder(bins))


def _superdense_bob_outputs():
    from wiretap.codesim import _member_outputs

    sc = gallery_superdense()
    return list(_member_outputs(sc.ensemble, sc.channel, sc.resource_state())[0])


def _forbid_dense_pgm(monkeypatch):
    import wiretap.codesim as codesim

    def no_dense(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("Bob decoded on dense bin averages")

    monkeypatch.setattr(codesim, "_pgm_error", no_dense)


def test_gram_pgm_matches_dense_reference():
    from wiretap.codesim import _gram_pgm_error, _low_rank_factors

    gen = np.random.default_rng(23)
    superdense = _superdense_bob_outputs()  # pure: rank 1
    mixed = [random_density_matrix(gen, 4, 2) for _ in range(3)]
    # (outputs, rank, n, M, S), each with M * S * rank^n < 4^n as run_experiment requires.
    cases = [
        (superdense, 1, 3, 12, 1),
        (superdense, 1, 3, 6, 2),
        (superdense, 1, 4, 20, 2),
        (mixed, 2, 3, 7, 1),
        (mixed, 2, 3, 3, 2),
    ]
    for mats, rank, n, m_count, s_count in cases:
        factors = _low_rank_factors(mats)
        assert factors.shape == (len(mats), 4, rank)
        for _ in range(3):
            words = gen.integers(0, len(mats), size=(m_count, s_count, n))
            assert _gram_pgm_error(factors, words) == pytest.approx(
                _dense_pgm_error(mats, words), abs=1e-12
            )


def _pgm_closed_form(words):
    """M (1 - lambda) for codeword states that are orthonormal or equal.

    With c_w copies of codeword w in the codebook and n_mw of them in bin m,
    the PGM succeeds with probability sum_m sum_w n_mw^2 / (c_w M S).  At
    S = 1 that is the number of distinct codewords over M.
    """
    from collections import Counter

    total = Counter(map(tuple, words.reshape(-1, words.shape[2])))
    decoded = sum(
        k * k / total[w] for row in words for w, k in Counter(map(tuple, row)).items()
    )
    return decoded / words.shape[1]


def test_gram_pgm_with_repeated_codewords():
    # Codeword (0, 1, 2) thrice and (3, 3, 0) twice: G has repeated columns,
    # so it is rank-deficient, and its zero eigenvalues must be dropped.
    from wiretap.codesim import _gram_pgm_error, _low_rank_factors

    words = np.array([[[0, 1, 2], [0, 1, 2]], [[0, 1, 2], [3, 3, 0]], [[1, 1, 1], [3, 3, 0]]])
    superdense = _superdense_bob_outputs()
    mixed = [random_density_matrix(np.random.default_rng(5), 4, 2) for _ in range(4)]
    for mats in (mixed, superdense):
        lam = _gram_pgm_error(_low_rank_factors(mats), words)
        assert lam == pytest.approx(_dense_pgm_error(mats, words), abs=1e-12)
    # The last lam is superdense's, whose codeword states are orthonormal or equal.
    assert _pgm_closed_form(words) == pytest.approx(11 / 6, abs=1e-15)
    assert 3 * (1.0 - lam) == pytest.approx(11 / 6, abs=1e-12)


def test_run_experiment_gram_path_is_deterministic(monkeypatch):
    _forbid_dense_pgm(monkeypatch)
    sc = gallery_superdense()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        a = run_experiment(sc, [3, 4], 0.1, trials=3, seed=8, rate=1.25)
        b = run_experiment(sc, [3, 4], 0.1, trials=3, seed=8, rate=1.25)
    assert a == b


def test_run_experiment_superdense_closed_form_at_large_n(monkeypatch):
    # Bell-product outputs are orthonormal or equal, so M (1 - lambda) is
    # the closed form above: the distinct-codeword count at n = 5 (S = 1)
    # and its multiplicity-weighted version at n = 6 (S = 2).  Densely these
    # block lengths would hold M matrices of dimension 1024 and 4096.  The
    # tolerance is far below the benchmark's 1e-9 * M: taking sqrt(G) on all
    # eigenvalues clipped at 0, not above RANK_CUTOFF, moves M (1 - lambda)
    # by up to ~5e-10 * M on these codebooks, against ~3e-15 * M here.
    from wiretap.codesim import _trial_seed

    _forbid_dense_pgm(monkeypatch)
    sc = gallery_superdense()
    reports = run_experiment(sc, [5, 6], 0.1, trials=3, seed=4, rate=1.25)
    assert [(rep.M, rep.S) for rep in reports] == [(76, 1), (181, 2)]
    for rep in reports:
        for t, lam in enumerate(rep.lambda_trials):
            cb = sample_codebook(sc.ensemble, rep.n, rep.M, rep.S, _trial_seed(4, rep.n, t))
            want = _pgm_closed_form(cb)
            if rep.S == 1:
                assert want == len({tuple(w) for w in cb.reshape(-1, rep.n)})
            assert abs(rep.M * (1.0 - lam) - want) <= 1e-12 * rep.M
