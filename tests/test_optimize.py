import math
import tracemalloc
from itertools import product

import numpy as np
import pytest

from conftest import (
    amplitude_damping_wiretap,
    bell_resource_state,
    broadcast_copy_channel,
    identity_qubit_wiretap,
    maximally_mixed,
    phi0_of,
    random_pure_state,
    random_state,
    rng,
)
from reference import GridOracleSpec, _compositions, grid_oracle, marginal_constraint_residual
from wiretap import measures, optimize, qcore
from wiretap.channels import (
    AUX_LABEL,
    CqEnsemble,
    QuantumChannel,
    channel_from_resource_state,
    trivial_resource,
)
from wiretap.entropic import von_neumann_entropy
from wiretap.measures import dense_coding_advantage, entanglement_of_purification
from wiretap.optimize import (
    STEP_INITIAL,
    STEP_MIN,
    STEP_PATIENCE,
    STEP_SHRINK,
    OptimizerConfig,
    TracePoint,
    _coordinate_search,
    _StinespringParam,
    _basis_start,
    _discrete_weyl,
    _weyl_start,
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
    partial_trace,
    permute_factors,
    tensor,
)
from wiretap.rates import (
    _instrument,
    theorem1_rate,
    trivial_rate,
    unassisted_rate,
)
from wiretap.scenario import correlated_bits_pmf, gallery_classical, gallery_superdense

A = LabeledSpace.of(("A", 2))
F = LabeledSpace.of(("F", 2))


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


def test_stinespring_param_always_cptp():
    gen = rng(409)
    param = _StinespringParam(2, 3, env=4)
    for _ in range(20):
        kraus = param.kraus(param.random(gen))
        assert kraus.shape == (4, 3, 2)
        total = np.einsum("eoi,eoj->ij", kraus.conj(), kraus)
        assert np.max(np.abs(total - np.eye(2))) <= 1e-10


def sequential_search(x0, objective, gen, max_iters, own=None):
    """The coordinate search with one objective call per candidate: x + delta
    e_i first, then x - delta e_i, with i drawn from the coordinates ``own``
    (default: all).  Returns the final x, the accepted (iteration, value)
    rows, the iterations run, and how many iterations had both signs
    improving (where the order of the two tries decides)."""
    x = x0.copy()
    best = objective(x[None])[0]
    step, stall, rows, both = STEP_INITIAL, 0, [], 0
    own = range(len(x)) if own is None else own
    for it in range(max_iters):
        idx = int(own[gen.integers(len(own))])
        delta = step * float(gen.standard_normal())
        improved = False
        for sign in (1.0, -1.0):
            y = x.copy()
            y[idx] += sign * delta
            val = objective(y[None])[0]
            if val > best:
                minus = x.copy()
                minus[idx] -= delta
                both += sign > 0 and objective(minus[None])[0] > best
                x, best = y, val
                improved = True
                rows.append((it, best))
                break
        if improved:
            stall = 0
        else:
            stall += 1
            if stall >= STEP_PATIENCE:
                step *= STEP_SHRINK
                stall = 0
                if step < STEP_MIN:
                    break
    return x, rows, it + 1, both


def bumpy(xs: np.ndarray) -> np.ndarray:
    """A fixed smooth function of each row of ``xs``, with local minima where
    both signs of a step improve."""
    return np.sum(np.cos(3.0 * xs) - 0.05 * xs**2, axis=-1)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_coordinate_search_pairs_keep_the_sequential_rule(seed):
    # Scoring both signs in one call takes + when it improves and - only
    # otherwise, exactly as one call per sign did.  Near pi/3 every
    # coordinate starts close to a minimum of cos(3x), where both improve.
    x0 = np.pi / 3 + 0.05 * rng(seed).standard_normal(6)
    want_x, want_rows, iterations, both = sequential_search(x0, bumpy, rng(100 + seed), 2000)
    assert both > 0  # the order of the two tries matters in this run

    batches, rows = [], []

    def counted(xs):
        batches.append(xs.size // xs.shape[-1])
        return bumpy(xs)

    x, best = _coordinate_search(
        x0[None],
        counted,
        [rng(100 + seed)],
        2000,
        on_accept=lambda r, it, v: rows.append((it, v)),
    )
    assert rows == want_rows
    assert x[0].tobytes() == want_x.tobytes()
    assert best[0] == want_rows[-1][1]
    assert len(batches) == 1 + iterations
    assert batches[0] == 1 and set(batches[1:]) == {2}


def test_coordinate_search_rows_in_lockstep_each_run_as_alone():
    # Three rows share each objective call; each must take exactly the
    # steps of its own sequential run.  Row 1 starts at the maximum of
    # bumpy, rejects every step and stops at STEP_MIN long before the
    # others, which go on with a stack of two.
    x0 = np.stack([np.pi / 3 + 0.05 * rng(seed).standard_normal(6) for seed in (1, 2, 3)])
    x0[1] = 0.0
    want = [sequential_search(x0[r], bumpy, rng(200 + r), 2000) for r in range(3)]
    iterations = [w[2] for w in want]
    assert iterations[1] < min(iterations[0], iterations[2]) < 2000

    batches, rows = [], {0: [], 1: [], 2: []}

    def counted(xs):
        batches.append(xs.shape[:-1])
        return bumpy(xs)

    x, best = _coordinate_search(
        x0,
        counted,
        [rng(200 + r) for r in range(3)],
        2000,
        on_accept=lambda r, it, v: rows[r].append((it, v)),
    )
    for r, (want_x, want_rows, _, _) in enumerate(want):
        assert rows[r] == want_rows
        assert x[r].tobytes() == want_x.tobytes()
        assert best[r] == (want_rows[-1][1] if want_rows else bumpy(x0[r]))
    assert len(batches) == 1 + max(iterations)
    assert batches[0] == (3,)
    assert batches[1 : 1 + iterations[1]] == [(3, 2)] * iterations[1]
    assert (2, 2) in batches and (3, 2) not in batches[1 + iterations[1] :]


def sequential_restarts(score, starts, ladder, cfg):
    """The restart driver with one restart at a time and one objective call
    per candidate: restart i alone on the stream (seed, i), ties to the
    lowest restart.  Every restart runs in the coordinates of the largest
    rung any restart is on, drawing only its own rung's set and holding
    the rest at 0.  Returns the best (param, x), x on the winner's own
    rung, and the trace."""
    params = [ladder[-1]] * len(starts) + [
        ladder[(i - len(starts)) % len(ladder)] for i in range(len(starts), cfg.restarts)
    ]
    largest = max(params[: cfg.restarts], key=lambda p: p.size)
    best, trace = None, []
    for i, param in enumerate(params[: cfg.restarts]):
        gen = np.random.default_rng([cfg.seed, i])
        point = param.pack(starts[i]) if i < len(starts) else param.random(gen)
        own = param.within(largest)
        x = np.zeros(largest.size)
        x[own] = point
        x, rows, _, _ = sequential_search(
            x, lambda xv: score(largest.kraus(xv)), gen, cfg.max_iters, own
        )
        val = rows[-1][1] if rows else score(largest.kraus(x[None]))[0]
        trace += [TracePoint(i, it, float(v)) for it, v in rows]
        if best is None or val > best[0]:
            best = (val, param, x[own])
    return best[1], best[2], trace


def recorded_restarts(monkeypatch):
    """Each ``_restarts`` call's arguments, result and trace rows, in order."""
    calls, real = [], optimize._restarts

    def spy(score, starts, ladder, cfg, trace, width):
        param, x = real(score, starts, ladder, cfg, trace, width)
        calls.append(((score, starts, ladder, cfg), (param, x), list(trace)))
        return param, x

    monkeypatch.setattr(optimize, "_restarts", spy)
    return calls


def lockstep_matches_sequential(calls):
    for args, (param, x), trace in calls:
        want_param, want_x, want_trace = sequential_restarts(*args)
        assert param is want_param
        assert x.tobytes() == want_x.tobytes()
        assert trace == want_trace


@pytest.mark.parametrize("make", [gallery_superdense, gallery_classical])
def test_lockstep_instrument_restarts_equal_sequential_ones(make, monkeypatch):
    sc = make()
    calls = recorded_restarts(monkeypatch)
    optimize_theorem1(sc.channel, sc.resource_state(), small_cfg(seed=5, restarts=4, max_iters=80))
    assert len(calls) == 1
    lockstep_matches_sequential(calls)


def test_lockstep_channel_restarts_equal_sequential_ones(monkeypatch):
    # Five restarts put each search on two rungs (env 1 and 2): delta and
    # E_P have three restarts on the top rung, the constant objective two.
    # Every restart runs in the top rung's coordinates, so "alone" means
    # alone in those.  A constant objective ties every restart, and the
    # first must win.
    psi = random_pure_state(rng(17), LabeledSpace.of(("A", 2), ("B", 2), ("C", 2)))
    zeta_ab = partial_trace(psi, {"A", "B"})
    rho_cb = permute_factors(partial_trace(psi, {"C", "B"}), ["C", "B"])
    cfg = small_cfg(seed=9, restarts=5, max_iters=80)
    calls = recorded_restarts(monkeypatch)
    dense_coding_advantage(zeta_ab, cfg=cfg)
    entanglement_of_purification(rho_cb, cfg=cfg)
    optimize_channel_functional(lambda kraus: np.full(kraus.shape[:-3], 0.75), A, F, cfg)
    assert [len(args[2]) for args, _, _ in calls] == [2, 2, 2]
    assert [optimize._rungs(args[3], len(args[1]), 2) for args, _, _ in calls] == [
        [1, 1, 0, 1, 0],
        [1, 1, 0, 1, 0],
        [0, 1, 0, 1, 0],
    ]
    lockstep_matches_sequential(calls)


@pytest.mark.parametrize("cap", [4, 16, 256])
def test_channel_search_pads_lower_rungs_only_while_that_is_small(cap, monkeypatch):
    # The name dates from a size limit on padding; every search now pads,
    # since a lower rung pads at most half the top rung's coordinates.
    # A channel on an 8-dimensional share, three restarts: at cap 4 on rungs
    # 2, 0, 1 of env 2, 4, 8 (no embedding start), at caps 16 and 256 on
    # rungs 3, 3, 0 of env 1, 2, 4, 8.  Whatever the padding, the restarts
    # score one stack of three on env 8; only the polish pass, a stack of
    # one, runs on the winner's own rung.
    zeta_ab = random_state(rng(23), LabeledSpace.of(("A", 8), ("B", 2)))
    kernel = measures._ChannelKernel(zeta_ab, "A")
    real, shapes, inside = optimize._restarts, set(), []

    def restarts(*args):
        inside.append(True)
        try:
            return real(*args)
        finally:
            inside.clear()

    def objective(kraus):
        if inside:
            shapes.add(kraus.shape)
        return kernel.entropy(kraus)

    monkeypatch.setattr(optimize, "_restarts", restarts)
    cfg = small_cfg(seed=2, restarts=3, max_iters=40)
    in_space = zeta_ab.space.subspace(["A"])
    out_space = LabeledSpace.of(("F", cap))
    inits = measures._channel_inits(8, cap)
    optimize_channel_functional(objective, in_space, out_space, cfg, inits=inits)
    assert shapes == {(3, 8, cap, 8), (3, 2, 8, cap, 8)}


# ---------------------------------------------------------------------------
# Ensembles as instruments on phi0
# ---------------------------------------------------------------------------


def rank_deficient_resource():
    """Random resource whose three-dimensional Alice share has a rank-2 marginal."""
    small = random_state(rng(431), LabeledSpace.of(("Ap", 2), ("Bp", 2), ("Ep", 2)))
    embed = np.kron(np.eye(3)[:, :2], np.eye(4))
    space = LabeledSpace.of(("Ap", 3), ("Bp", 2), ("Ep", 2))
    return channel_from_resource_state(DensityOperator(space, embed @ small.matrix @ embed.T))


# resource builder and signal dimension; the Weyl start needs d_sig = r
INSTRUMENT_CASES = {
    "bell": (bell_resource_state, 2),
    "rank_deficient": (rank_deficient_resource, 3),
    "r1": (trivial_resource, 2),
}


def instrument_setup(case):
    make, d_sig = INSTRUMENT_CASES[case]
    res = make()
    r = len(res.psi)
    k = 2 * d_sig * r
    space = LabeledSpace.of(("A", d_sig), (AUX_LABEL, r))
    return res, d_sig, r, k, space, res.psi


@pytest.mark.parametrize("case", sorted(INSTRUMENT_CASES))
def test_instrument_ensembles_are_feasible_by_construction(case):
    res, d_sig, r, k, space, psi = instrument_setup(case)
    param = _StinespringParam(r, k * d_sig, d_sig * r)
    gen = rng(433)
    for _ in range(5):
        members, probs = _instrument(param.kraus(param.random(gen)), psi, k)
        assert abs(probs.sum() - 1.0) <= 1e-12
        for m in members:
            assert abs(np.trace(m).real - 1.0) <= 1e-12
            assert np.linalg.eigvalsh(m)[0] >= -1e-12
        states = [DensityOperator(space, m, validate=False) for m in members]
        ens = CqEnsemble(list(range(k)), probs, states)
        assert marginal_constraint_residual(ens, res) <= 1e-12


@pytest.mark.parametrize("case", sorted(INSTRUMENT_CASES))
def test_structured_starts_round_trip_through_pack(case):
    res, d_sig, r, k, space, psi = instrument_setup(case)
    param = _StinespringParam(r, k * d_sig, d_sig * r)
    marg = res.zeta_marginal.matrix
    n = min(k, d_sig)
    wanted = [(_basis_start(k, d_sig, r), [np.kron(np.diag(e), marg) for e in np.eye(d_sig)[:n]])]
    weyl = _weyl_start(k, d_sig, r)
    if d_sig == r:
        bigs = [np.kron(w, np.eye(r)) for w in _discrete_weyl(r)[: min(k, r * r)]]
        wanted.append((weyl, [b @ phi0_of(res).matrix @ b.conj().T for b in bigs]))
    else:
        assert weyl is None
    for stack, members_want in wanted:
        x = param.pack(stack)
        members, probs = _instrument(param.kraus(x), psi, k)
        n = len(members_want)
        probs_want = np.array([1.0 / n] * n + [0.0] * (k - n))
        assert np.abs(probs - probs_want).max() <= 1e-12
        assert np.abs(members[:n] - np.array(members_want)).max() <= 1e-12


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


@pytest.mark.parametrize(
    "make",
    [identity_qubit_wiretap, broadcast_copy_channel, lambda: amplitude_damping_wiretap(0.3)],
    ids=["identity", "broadcast", "amplitude-damping"],
)
def test_optimize_unassisted_is_theorem1_on_the_empty_resource(make):
    cfg = small_cfg(seed=37, restarts=2, max_iters=150)
    plain = optimize_unassisted(make(), cfg)
    empty = optimize_theorem1(make(), trivial_resource(), cfg)
    assert plain.trace == empty.trace
    a, b = plain.best_ensemble, empty.best_ensemble
    assert a.space == b.space == LabeledSpace.of(("A", 2), ("App", 1))
    assert np.array_equal(a.probs, b.probs)
    assert all(np.array_equal(x.matrix, y.matrix) for x, y in zip(a.states, b.states))


@pytest.mark.parametrize("outputs", [("Bp", "Ep"), ("App", "Bp")])
def test_unassisted_takes_outputs_named_like_the_empty_resource(outputs):
    # The empty resource's labels are not reserved: only dimensions meet.
    ch = QuantumChannel(
        A, LabeledSpace.of((outputs[0], 2), (outputs[1], 1)), [np.eye(2, dtype=complex)]
    )
    ens = CqEnsemble([0, 1], [0.5, 0.5], [basis_state(A, [0]), basis_state(A, [1])])
    assert unassisted_rate(ens, ch).rate == pytest.approx(1.0, abs=1e-12)
    assert optimize_unassisted(ch, small_cfg(seed=11)).best_value == pytest.approx(1.0, abs=1e-9)


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


def test_optimize_channel_functional_constant_objective():
    out = optimize_channel_functional(
        lambda kraus: np.full(kraus.shape[:-3], 0.75),
        A,
        F,
        small_cfg(seed=31, max_iters=30),
    )
    assert out.best_value == 0.75
    assert out.best_channel is not None


@pytest.mark.parametrize("shape", [(5, 2, 2), (1, 3, 2)])
def test_optimize_channel_functional_refuses_ill_fitting_inits(shape):
    # Inits are Kraus stacks of at most d_in operators of shape (d_out, d_in).
    with pytest.raises(ValidationError, match="does not fit"):
        optimize_channel_functional(
            lambda kraus: 0.0, A, F, small_cfg(max_iters=5), inits=[np.zeros(shape)]
        )


def test_optimize_channel_functional_refuses_inits_of_kraus_rank_above_d_in():
    # The completely depolarizing qubit channel has Kraus rank 4 = d_in * d_out.
    paulis = [np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]]
    depolarizing = np.array(paulis, dtype=np.complex128) / 2
    with pytest.raises(ValidationError, match="does not fit"):
        optimize_channel_functional(
            lambda kraus: 0.0, A, F, small_cfg(max_iters=5), inits=[depolarizing]
        )


def test_optimize_channel_functional_max_output_entropy():
    # max over channels of S(T(|0><0|)) = 1, at any channel with mixed
    # output, found by minimizing -S.
    def objective(kraus: np.ndarray) -> np.ndarray:
        col = kraus[..., 0]  # K_e |0>, one row per Kraus operator
        outs = (col.swapaxes(-1, -2) @ col.conj()).reshape(-1, F.dim, F.dim)
        values = [-von_neumann_entropy(DensityOperator(F, m, validate=False)) for m in outs]
        return np.reshape(values, kraus.shape[:-3])

    out = optimize_channel_functional(
        objective,
        A,
        F,
        small_cfg(seed=37, restarts=4, max_iters=1500),
    )
    assert -out.best_value >= 1.0 - 1e-3
    assert -out.best_value <= 1.0 + 1e-12


def population_of_zero(kraus: np.ndarray) -> np.ndarray:
    """<0|T(rho)|0> for rho = diag(0.7, 0.3) and T each channel of an
    (..., env, d_out, d_in) stack of Kraus stacks.

    It lies in [0, 1] and, unlike an entropy, moves under unitaries too, so
    every rung of the environment ladder can lower it.
    """
    row = kraus[..., 0, :]  # <0|K_e, one row per Kraus operator
    return np.sum(np.abs(row) ** 2 * np.array([0.7, 0.3]), axis=(-2, -1))


@pytest.mark.parametrize("goal", ["max", "min"])
def test_optimize_channel_functional_trace_semantics(goal):
    # The search minimizes; a maximum is the minimum of the negated objective.
    sign = -1.0 if goal == "max" else 1.0

    def objective(kraus: np.ndarray) -> np.ndarray:
        return sign * population_of_zero(kraus)

    cfg = small_cfg(seed=41, restarts=3, max_iters=80)
    out = optimize_channel_functional(objective, A, F, cfg)
    # The witness scores the best value itself, in the objective's own sign.
    assert objective(np.stack(out.best_channel.kraus)) == out.best_value
    by_restart: dict[int, list[float]] = {}
    for p in out.trace:
        assert 0.0 <= sign * p.value <= 1.0 + 1e-12  # the objective's values, not their negation
        assert p.value >= out.best_value
        by_restart.setdefault(p.restart, []).append(p.value)
    # Restarts 0..restarts-1, then the polish pass from the incumbent.
    assert list(by_restart) == list(range(cfg.restarts + 1))
    for values in by_restart.values():
        assert all(b < a for a, b in zip(values, values[1:]))
    assert by_restart[cfg.restarts][-1] == out.best_value


def test_public_results_are_python_floats():
    # The searches score candidates in numpy batches; what they report must
    # still be plain floats, or the CLI's JSON writer refuses it.
    sc = gallery_superdense()
    res = sc.resource_state()
    cfg = small_cfg(seed=43, restarts=2, max_iters=20)
    outs = [optimize_theorem1(sc.channel, res, cfg), optimize_unassisted(sc.channel, cfg)]
    reports = [out.report for out in outs] + [
        theorem1_rate(sc.ensemble, sc.channel, res),
        trivial_rate(sc.modulation_distribution(), sc.modulations, sc.channel, res),
        unassisted_rate(outs[1].best_ensemble, sc.channel),
    ]
    for rep in reports:
        fields = (rep.i_u_bb, rep.i_u_ee, rep.i_u_aprime, rep.rate, rep.constraint_residual)
        assert all(type(v) is float for v in fields), (rep.mode, fields)
    outs.append(optimize_channel_functional(population_of_zero, A, F, cfg))
    for out in outs:
        assert type(out.best_value) is float
        assert all(type(p.value) is float for p in out.trace)


@pytest.mark.parametrize("mode", ["theorem1", "unassisted"])
def test_instrument_searches_refuse_oversized_outcome_counts_before_allocating(mode):
    sc = gallery_superdense()
    res = sc.resource_state()
    cfg = small_cfg(num_labels_max=10**7, restarts=1, max_iters=1)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="instrument search with 10000000 outcomes"):
            if mode == "theorem1":
                optimize_theorem1(sc.channel, res, cfg)
            else:
                optimize_unassisted(sc.channel, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_instrument_search_byte_estimate_covers_the_measured_peak(monkeypatch):
    sc = gallery_superdense()
    res = sc.resource_state()
    needs = []
    monkeypatch.setattr(optimize, "check_working_bytes", lambda need, what: needs.append(need))
    for k in (512, 1024):
        tracemalloc.start()
        try:
            optimize_theorem1(sc.channel, res, small_cfg(num_labels_max=k, restarts=2, max_iters=2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= needs[-1] <= 3 * peak


def result_bytes(out):
    """A search result's value, trace and witness, as comparable bytes."""
    if out.best_channel is not None:
        witness = [k.tobytes() for k in out.best_channel.kraus]
    else:
        ens = out.best_ensemble
        witness = [ens.labels, ens.probs.tobytes(), [m.matrix.tobytes() for m in ens.states]]
    return out.best_value, out.trace, out.report, witness


def test_searches_split_lockstep_calls_that_would_exceed_the_byte_limit(monkeypatch):
    # With room for one scored pair but not two, every restart runs alone,
    # and every result is bitwise the unsplit one.  A channel restart alone
    # still runs in the top rung's coordinates, also at cap 256, where five
    # restarts pad two env = 1 restarts of 1024 coordinates each.
    sc = gallery_superdense()
    zeta_ab = random_state(rng(19), LabeledSpace.of(("A", 2), ("B", 2)))
    cfg = small_cfg(seed=13, restarts=4, max_iters=60)
    wide = small_cfg(seed=13, restarts=5, max_iters=60)
    searches = [
        lambda: optimize_theorem1(sc.channel, sc.resource_state(), cfg),
        lambda: dense_coding_advantage(zeta_ab, cfg=cfg),
        lambda: dense_coding_advantage(zeta_ab, 256, cfg=wide),
    ]
    for search in searches:
        widths, needs = [], []
        real_search, real_check = optimize._coordinate_search, optimize.check_working_bytes

        def search_spy(x0, *args, **kwargs):
            widths.append(len(x0))
            return real_search(x0, *args, **kwargs)

        def check_spy(need, what):
            needs.append(need)
            real_check(need, what)

        monkeypatch.setattr(optimize, "_coordinate_search", search_spy)
        monkeypatch.setattr(optimize, "check_working_bytes", check_spy)
        want = search()
        assert max(widths) > 1
        pair = needs[-1] // max(widths)
        monkeypatch.setattr(optimize, "MAX_WORKING_BYTES", pair * 3 // 2)
        monkeypatch.setattr(qcore, "MAX_WORKING_BYTES", pair * 3 // 2)
        widths.clear()
        got = search()
        assert set(widths) == {1} and needs[-1] == pair
        assert result_bytes(got) == result_bytes(want)
        monkeypatch.undo()


def test_search_memory_scales_with_the_lockstep_width_not_the_restarts(monkeypatch):
    # With room for four pairs, a search of many restarts builds each
    # chunk's generators and starts only when the chunk begins: what is
    # held when the first chunk starts does not grow with the restarts, and
    # the peak grows only by the trace rows (one 1-iteration step each, at
    # most).  The outputs are bitwise the unsplit search's.
    zeta_ab = random_state(rng(19), LabeledSpace.of(("A", 2), ("B", 2)))
    cfg = small_cfg(seed=3, restarts=250, max_iters=1)
    want = dense_coding_advantage(zeta_ab, cfg=cfg)
    pair = measures._ChannelKernel(zeta_ab, "A").search_bytes(4)
    monkeypatch.setattr(optimize, "MAX_WORKING_BYTES", 4 * pair)
    monkeypatch.setattr(qcore, "MAX_WORKING_BYTES", 4 * pair)
    real, held = optimize._coordinate_search, []

    def spy(x0, *args, **kwargs):
        if not held:
            held.append(tracemalloc.get_traced_memory()[0])
        return real(x0, *args, **kwargs)

    monkeypatch.setattr(optimize, "_coordinate_search", spy)
    peaks = {}
    for restarts in (250, 2000):
        held.clear()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            cfg = small_cfg(seed=3, restarts=restarts, max_iters=1)
            got = dense_coding_advantage(zeta_ab, cfg=cfg)
            peaks[restarts] = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert held[0] - base < 2**17
        if restarts == 250:
            assert result_bytes(got) == result_bytes(want)
    assert peaks[2000] - peaks[250] < 1750 * 2**10


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
    # The cached side-marginal evaluation must agree with theorem1_rate
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

    bob = constant_channel(A, maximally_mixed(LabeledSpace.of(("B", 2))))
    ch = QuantumChannel(
        A, LabeledSpace.of(("B", 2), ("E", 1)), bob.kraus
    )
    out = optimize_unassisted(ch, small_cfg(seed=47, restarts=2, max_iters=100))
    assert abs(out.best_value) <= 1e-9


def test_compositions_match_the_filtered_product():
    for k in range(1, 5):
        for total in range(9):
            old = np.array([c for c in product(range(total + 1), repeat=k) if sum(c) == total])
            assert np.array_equal(_compositions(total, k), old)
    assert _compositions(8, 10).shape == (math.comb(17, 9), 10)


def test_grid_oracle_rejects_non_qubit_signal():
    ch = QuantumChannel(
        LabeledSpace.of(("A", 3)),
        LabeledSpace.of(("B", 3), ("E", 1)),
        [np.eye(3, dtype=complex)],
    )
    with pytest.raises(ValidationError, match="two-dimensional"):
        grid_oracle(ch, trivial_resource())


# ---------------------------------------------------------------------------
# Known answers at interior optima (reduced search: 2 restarts x 300 iterations)
# ---------------------------------------------------------------------------


def binary_entropy(x: float) -> float:
    return float(-sum(t * np.log2(t) for t in (x, 1.0 - x) if t > 0))


def amplitude_damping_private_capacity(gamma: float) -> float:
    """max_p h((1 - gamma) p) - h(gamma p): the private capacity of the
    degradable amplitude-damping channel, gamma <= 1/2 (Smith, PRA 78,
    022306, 2008), by a grid scan refined with a ternary search."""

    def f(p: float) -> float:
        return binary_entropy((1.0 - gamma) * p) - binary_entropy(gamma * p)

    grid = np.linspace(0.0, 1.0, 1001)
    i = int(np.argmax([f(p) for p in grid]))
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
    for _ in range(100):
        m1, m2 = lo + (hi - lo) / 3, hi - (hi - lo) / 3
        lo, hi = (m1, hi) if f(m1) < f(m2) else (lo, m2)
    return f(0.5 * (lo + hi))


@pytest.mark.parametrize("gamma", [0.1, 0.3, 0.45])
def test_optimize_unassisted_amplitude_damping_anchor(gamma):
    closed = amplitude_damping_private_capacity(gamma)
    cfg = OptimizerConfig(seed=1, restarts=2, max_iters=300)
    got = optimize_unassisted(amplitude_damping_wiretap(gamma), cfg).best_value
    assert closed - 5e-6 <= got <= closed + 1e-9


def test_optimize_theorem1_perfect_key_anchor():
    # A uniform key shared with Bob alone: the XOR pad reaches the capacity
    # of Bob's BSC(0.05), which also bounds I(U:BB') = I(U:B|B') from above.
    sc = gallery_classical(correlated_bits_pmf())
    cfg = OptimizerConfig(seed=1, restarts=2, max_iters=300)
    got = optimize_theorem1(sc.channel, sc.resource_state(), cfg).best_value
    assert got == pytest.approx(1.0 - binary_entropy(0.05), abs=1e-9)
    assert got == pytest.approx(0.713603043, abs=1e-9)


@pytest.mark.parametrize("q", [0.1, 0.3])
def test_optimize_theorem1_noisy_key_anchor(q):
    # Eve holds the key through a BSC(q): the XOR pad reaches
    # h(0.2 * q) - h(0.05), with a * b = a(1 - b) + b(1 - a) the binary
    # convolution.  Whether the pad is the one-letter optimum is open, so
    # the only upper bound asserted is the perfect-key value 1 - h(0.05).
    a = 0.2
    closed = binary_entropy(a * (1.0 - q) + q * (1.0 - a)) - binary_entropy(0.05)
    sc = gallery_classical(correlated_bits_pmf(q))
    cfg = OptimizerConfig(seed=1, restarts=2, max_iters=300)
    got = optimize_theorem1(sc.channel, sc.resource_state(), cfg).best_value
    assert closed - 1e-8 <= got <= 1.0 - binary_entropy(0.05) + 1e-9


@pytest.mark.parametrize("q, floor", [(0.1, 0.71), (0.3, 1.0 - binary_entropy(0.05) - 1e-6)])
def test_optimize_theorem1_noisy_key_reaches_the_perfect_key_value(q, floor):
    # Separation -- privacy-amplify the shared bits into h(q) key bits,
    # then one-time-pad a wiretap code -- reaches min(1 - h(0.05),
    # 0.4355 + h(q)) = 1 - h(0.05) at both q, which also bounds
    # I(U:BB') = I(U:B|B') from above.  The one-letter search beats the XOR
    # pad's h(0.2 * q) - h(0.05) by 0.173 (q = 0.1) and 0.042 (q = 0.3).
    sc = gallery_classical(correlated_bits_pmf(q))
    res = sc.resource_state()
    cfg = OptimizerConfig(seed=1, restarts=2, max_iters=300)
    out = optimize_theorem1(sc.channel, res, cfg)
    assert floor <= out.best_value <= 1.0 - binary_entropy(0.05) + 1e-9
    assert out.report.constraint_residual <= 1e-12
    assert out.best_value == theorem1_rate(out.best_ensemble, sc.channel, res).rate
