import numpy as np
import pytest

from conftest import (
    bell_resource_state,
    broadcast_copy_channel,
    identity_qubit_wiretap,
    random_state,
    rng,
    superdense_ensemble,
)
from wiretap.channels import (
    CqEnsemble,
    QuantumChannel,
    apply,
    trivial_resource,
)
from wiretap.entropic import von_neumann_entropy
from wiretap.optimize import (
    GridOracleSpec,
    OptimizerConfig,
    _EnsembleParam,
    _StinespringParam,
    _project_to_feasible,
    grid_oracle,
    optimize_channel_functional,
    optimize_theorem1,
    optimize_unassisted,
)
from wiretap.qcore import (
    DensityOperator,
    LabeledSpace,
    ResourceLimitError,
    ValidationError,
    basis_state,
    tensor,
)
from wiretap.rates import marginal_constraint_residual, theorem1_rate

A = LabeledSpace.of(("A", 2))


def small_cfg(seed=7, **kw):
    defaults = dict(seed=seed, restarts=3, max_iters=300)
    defaults.update(kw)
    return OptimizerConfig(**defaults)


def stinespring_wiretap(kraus, bob_dim, label_b="B", label_e="E") -> QuantumChannel:
    """Dilate a Kraus family on Bob into a single isometry to Bob x Eve."""
    n_env = len(kraus)
    d_in = kraus[0].shape[1]
    v = np.zeros((bob_dim * n_env, d_in), dtype=complex)
    for i, k in enumerate(kraus):
        for e in range(bob_dim):
            v[e * n_env + i, :] = k[e, :]
    return QuantumChannel(
        LabeledSpace.of(("A", d_in)),
        LabeledSpace.of((label_b, bob_dim), (label_e, n_env)),
        [v],
    )


def test_config_validation():
    with pytest.raises(ValidationError):
        OptimizerConfig(seed=1, restarts=0)
    with pytest.raises(ValidationError):
        OptimizerConfig(seed=-1)
    OptimizerConfig(seed=1)  # defaults parse


def test_ensemble_param_roundtrip():
    gen = rng(401)
    param = _EnsembleParam(LabeledSpace.of(("A", 2), ("App", 2)), 3)
    x = param.random(gen)
    ens = param.unpack(x)
    assert len(ens) == 3
    assert abs(ens.probs.sum() - 1) < 1e-12
    back = param.unpack(param.pack(ens))
    for s1, s2 in zip(ens.states, back.states):
        assert np.allclose(s1.matrix, s2.matrix, atol=1e-10)
    assert np.allclose(ens.probs, back.probs, atol=1e-10)


def test_stinespring_param_always_cptp():
    gen = rng(409)
    param = _StinespringParam(A, LabeledSpace.of(("F", 3)), env_dim=4)
    for _ in range(20):
        ch = param.unpack(param.random(gen))  # constructor asserts CPTP at 1e-8
        total = sum(k.conj().T @ k for k in ch.kraus)
        assert np.max(np.abs(total - np.eye(2))) <= 1e-10


def test_projection_repairs_average_marginal():
    gen = rng(419)
    res = bell_resource_state()
    space = LabeledSpace.of(("A", 2), ("App", 2))
    ens = CqEnsemble([0, 1], [0.5, 0.5], [random_state(gen, space) for _ in range(2)])
    before = marginal_constraint_residual(ens, res)
    assert before > 1e-6  # random ensembles are infeasible
    fixed = _project_to_feasible(ens, res, A)
    after = marginal_constraint_residual(fixed, res)
    assert after <= 1e-10
    assert after <= before


def test_optimize_unassisted_identity_channel():
    res = optimize_unassisted(identity_qubit_wiretap(), small_cfg(seed=11))
    assert res.best_value >= 1.0 - 1e-9
    assert res.best_value <= 1.0 + 1e-9
    # Witness re-evaluation reproduces the reported value.
    from wiretap.rates import unassisted_rate

    assert abs(unassisted_rate(res.best_ensemble, identity_qubit_wiretap()).rate - res.best_value) <= 1e-9


def test_optimize_unassisted_broadcast_is_zero():
    res = optimize_unassisted(broadcast_copy_channel(), small_cfg(seed=13, restarts=4))
    assert res.best_value <= 1e-6
    assert res.best_value >= -1e-6


def test_optimize_theorem1_trivial_resource():
    res = optimize_theorem1(identity_qubit_wiretap(), trivial_resource(), small_cfg(seed=17))
    assert res.best_value >= 1.0 - 1e-6
    assert res.report.constraint_residual <= 1e-6


def test_optimize_theorem1_broadcast_symmetric_is_nonpositive():
    out = optimize_theorem1(
        broadcast_copy_channel(), trivial_resource(), small_cfg(seed=53, restarts=2, max_iters=150)
    )
    assert out.best_value <= 1e-6


def test_optimize_theorem1_superdense():
    out = optimize_theorem1(
        identity_qubit_wiretap(), bell_resource_state(), small_cfg(seed=19, restarts=2)
    )
    assert out.best_value >= 2.0 - 1e-3
    assert out.report.constraint_residual <= 1e-6
    # Re-evaluating the witness reproduces the value.
    rep = theorem1_rate(out.best_ensemble, identity_qubit_wiretap(), bell_resource_state())
    assert abs(rep.rate - out.best_value) <= 1e-9


def test_optimizer_determinism():
    cfg = small_cfg(seed=23, restarts=2, max_iters=120)
    a = optimize_unassisted(identity_qubit_wiretap(), cfg)
    b = optimize_unassisted(identity_qubit_wiretap(), cfg)
    assert a.best_value == b.best_value
    assert a.trace == b.trace


def test_optimizer_monotone_in_restarts():
    ch = stinespring_wiretap(
        [np.sqrt(0.7) * np.eye(2), np.sqrt(0.3) * np.array([[0, 1], [1, 0]], dtype=complex)],
        bob_dim=2,
    )
    v2 = optimize_unassisted(ch, small_cfg(seed=29, restarts=2, max_iters=150)).best_value
    v4 = optimize_unassisted(ch, small_cfg(seed=29, restarts=4, max_iters=150)).best_value
    assert v4 >= v2 - 1e-12


def test_penalty_weight_change_keeps_feasible_objective():
    # At a feasible point the penalized objective is weight-independent up
    # to tolerance, so continuation stages cannot degrade it.
    res = bell_resource_state()
    ens = superdense_ensemble()
    rep = theorem1_rate(ens, identity_qubit_wiretap(), res)
    w0 = 32.0
    obj_lo = rep.rate - w0 * rep.constraint_residual**2
    obj_hi = rep.rate - 4 * w0 * rep.constraint_residual**2
    assert abs(obj_lo - obj_hi) <= 1e-9


def test_optimize_channel_functional_constant_objective():
    out = optimize_channel_functional(
        lambda ch: 0.75, A, LabeledSpace.of(("F", 2)), "max", small_cfg(seed=31, max_iters=30)
    )
    assert out.best_value == 0.75
    assert out.best_channel is not None


def test_optimize_channel_functional_max_output_entropy():
    # max over channels of S(T(|0><0|)) = 1, at any channel with mixed output.
    ket0 = basis_state(A, [0])

    def objective(ch: QuantumChannel) -> float:
        return von_neumann_entropy(apply(ch, ket0, ["A"]))

    out = optimize_channel_functional(
        objective,
        A,
        LabeledSpace.of(("F", 2)),
        "max",
        small_cfg(seed=37, restarts=4, max_iters=1500),
    )
    assert out.best_value >= 1.0 - 1e-3
    assert out.best_value <= 1.0 + 1e-12


def test_grid_oracle_identity_channel():
    value = grid_oracle(identity_qubit_wiretap(), trivial_resource())
    assert value == pytest.approx(1.0, abs=1e-2)


def test_grid_oracle_broadcast_nonpositive():
    value = grid_oracle(broadcast_copy_channel(), trivial_resource())
    assert value <= 1e-9


def test_grid_oracle_sandwich_against_optimizer():
    # Bob sees a depolarized qubit, Eve holds the dilation environment.
    p = 0.3
    kraus = [np.sqrt(1 - p) * np.eye(2, dtype=complex)] + [
        np.sqrt(p / 3) * m
        for m in (
            np.array([[0, 1], [1, 0]], dtype=complex),
            np.array([[0, -1j], [1j, 0]], dtype=complex),
            np.array([[1, 0], [0, -1]], dtype=complex),
        )
    ]
    ch = stinespring_wiretap(kraus, bob_dim=2)
    oracle = grid_oracle(ch, trivial_resource(), GridOracleSpec(theta_points=7, phi_points=4))
    opt = optimize_unassisted(ch, small_cfg(seed=41, restarts=3, max_iters=500)).best_value
    resolution = 0.05
    assert oracle <= opt + resolution


def test_grid_oracle_refuses_oversized_grids():
    with pytest.raises(ResourceLimitError, match="cap"):
        grid_oracle(
            identity_qubit_wiretap(),
            trivial_resource(),
            GridOracleSpec(num_members=4, theta_points=20, phi_points=20, prob_points=20, cap=1000),
        )


def test_grid_oracle_matches_direct_functional_evaluation():
    # The cached-pushforward evaluation must agree with theorem1_rate
    # evaluated member by member over the same tiny grid.
    from itertools import combinations_with_replacement, product as iproduct

    ch = broadcast_copy_channel()
    res = bell_resource_state()
    spec = GridOracleSpec(num_members=2, theta_points=3, phi_points=2, prob_points=2)
    got = grid_oracle(ch, res, spec)

    vectors = [np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)]
    for th in np.linspace(0, np.pi, 3)[1:-1]:
        for phv in np.linspace(0, 2 * np.pi, 2, endpoint=False):
            vectors.append(np.array([np.cos(th / 2), np.exp(1j * phv) * np.sin(th / 2)]))
    marg = res.zeta_marginal
    space = LabeledSpace.of(("A", 2), ("App", 2))
    pool = [
        tensor(
            basis_state(A, [0]).__class__(A, np.outer(v, v.conj())), marg.relabeled({"Ap": "App"})
        )
        for v in vectors
    ]
    pool = [s.__class__(space, s.matrix) for s in pool]
    best = -np.inf
    for combo in combinations_with_replacement(range(len(pool)), 2):
        for comp in iproduct(range(3), repeat=2):
            if sum(comp) != 2:
                continue
            q = np.array(comp) / 2
            keep = q > 0
            ens = CqEnsemble(
                [i for i, f in enumerate(keep) if f],
                q[keep],
                [pool[combo[i]] for i, f in enumerate(keep) if f],
            )
            best = max(best, theorem1_rate(ens, ch, res).rate)
    assert got == pytest.approx(best, abs=1e-9)


def test_uncorrelated_resource_grid_matches_unassisted_grid():
    # A resource with independent Alice/Bob shares offers nothing: the
    # oracle's best value matches the empty-resource one point by point.
    import numpy as np

    from wiretap.channels import channel_from_resource_state
    from wiretap.rates import classical_embed
    from wiretap.scenario import gallery_classical

    ch = gallery_classical().channel
    res_iu = channel_from_resource_state(classical_embed(np.full((2, 2, 1), 0.25)))
    spec = GridOracleSpec(theta_points=5, phi_points=4, prob_points=4)
    v_assisted = grid_oracle(ch, res_iu, spec)
    v_plain = grid_oracle(ch, trivial_resource(), spec)
    assert abs(v_assisted - v_plain) <= 1e-9


def test_optimize_unassisted_constant_channel_is_zero():
    from wiretap.channels import constant_channel
    from wiretap.qcore import maximally_mixed

    bob = constant_channel(A, maximally_mixed(LabeledSpace.of(("B", 2))))
    ch = QuantumChannel(
        A, LabeledSpace.of(("B", 2), ("E", 1)), bob.kraus
    )
    out = optimize_unassisted(ch, small_cfg(seed=47, restarts=2, max_iters=100))
    assert abs(out.best_value) <= 1e-9


def test_grid_oracle_rejects_non_qubit_signal():
    ch = QuantumChannel(
        LabeledSpace.of(("A", 3)),
        LabeledSpace.of(("B", 3), ("E", 1)),
        [np.eye(3, dtype=complex)],
    )
    with pytest.raises(ValidationError, match="two-dimensional"):
        grid_oracle(ch, trivial_resource())


def test_projection_repair_member_has_unit_trace_at_tiny_weight():
    # Four Bell states plus a weight-1e-8 member with a skewed reference
    # marginal: the repair weight t is ~2e-9, so (avg + diff / t) magnifies
    # the trace's rounding error by 1/t unless it is renormalized.
    from wiretap.channels import ensemble_from_json, ensemble_to_json

    res = bell_resource_state()
    bell = superdense_ensemble()
    skew = DensityOperator(bell.space, np.kron(np.eye(2) / 2, np.diag([0.6, 0.4])))
    q = 1e-8
    ens = CqEnsemble(
        list(range(5)), [(1 - q) / 4] * 4 + [q], list(bell.states) + [skew]
    )
    fixed = _project_to_feasible(ens, res, A)
    assert len(fixed) == 6 and fixed.probs[-1] < 1e-8
    assert abs(np.trace(fixed.states[-1].matrix).real - 1.0) <= 1e-12
    reloaded = ensemble_from_json(ensemble_to_json(fixed))
    assert marginal_constraint_residual(reloaded, res) <= 1e-12
