"""The batched kernels against the reference paths they replaced.

Every fast path in `rates` (the three rate functionals), `optimize`
(the grid oracle) and `codesim` (the one-letter member outputs) runs on
`rates._CqKernel`.  The reference here is the construction the kernel
replaced: push each member through `apply`, assemble the cq-state with
`cq_state`, and read each I(U:X) off `mutual_information`.

The dense-coding and E_P channel searches run on `measures._ChannelKernel`;
its reference is `apply` of the witness `QuantumChannel` followed by
`von_neumann_entropy`.
"""

from itertools import combinations_with_replacement, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    bell_resource_state,
    broadcast_copy_channel,
    identity_qubit_wiretap,
    phi0_of,
    random_kraus,
    random_state,
    random_unitary,
    rng,
)
from wiretap import measures, optimize
from wiretap.channels import (
    AUX_LABEL,
    CqEnsemble,
    QuantumChannel,
    apply,
    channel_from_resource_state,
    constant_channel,
    cq_state,
    trivial_resource,
)
from wiretap.codesim import _member_outputs
from wiretap.entropic import holevo_information, mutual_information, von_neumann_entropy
from wiretap.measures import _channel_inits, _ChannelKernel
from wiretap.optimize import (
    GridOracleSpec,
    OptimizerConfig,
    _discrete_weyl,
    _env_ladder,
    _StinespringParam,
    grid_oracle,
    optimize_theorem1,
)
from wiretap.qcore import (
    TOL_EQ,
    DensityOperator,
    LabeledSpace,
    basis_state,
    partial_trace,
    purify,
)
from wiretap.rates import (
    _instrument,
    build_gamma,
    classical_embed,
    marginal_constraint_residual,
    theorem1_rate,
    trivial_rate,
    unassisted_rate,
)
from wiretap.scenario import build_gallery, correlated_bits_pmf, gallery_classical

TOL = 1e-12


def report_fields(rep):
    return np.array(
        [rep.i_u_bb, rep.i_u_ee, rep.i_u_aprime, rep.rate, rep.constraint_residual]
    )


def bob_eve(ch, res):
    if res is None:
        return {ch.output_space.labels[0]}, {ch.output_space.labels[1]}
    return (
        {ch.output_space.labels[0], res.zeta.space.labels[1]},
        {ch.output_space.labels[1], res.zeta.space.labels[2]},
    )


def reference_theorem1(ens, ch, res):
    margs = [partial_trace(s, {AUX_LABEL}).matrix for s in ens.states]
    if all(np.array_equal(margs[0], m) for m in margs[1:]):
        i_ap = 0.0
    else:
        i_ap = mutual_information(cq_state(ens), {"U"}, {AUX_LABEL})
    gamma = build_gamma(ens, ch, res)
    bob, eve = bob_eve(ch, res)
    i_bb = mutual_information(gamma, {"U"}, bob)
    i_ee = mutual_information(gamma, {"U"}, eve)
    residual = marginal_constraint_residual(ens, res)
    return np.array([i_bb, i_ee, i_ap, i_bb - max(i_ee, i_ap), residual])


def reference_unassisted(ens, ch):
    pushed = [apply(ch, s, on=list(ens.space.labels)) for s in ens.states]
    gamma = cq_state(CqEnsemble(ens.labels, ens.probs, pushed))
    bob, eve = bob_eve(ch, None)
    i_bb = mutual_information(gamma, {"U"}, bob)
    i_ee = mutual_information(gamma, {"U"}, eve)
    return np.array([i_bb, i_ee, 0.0, i_bb - i_ee, 0.0])


def reference_trivial(probs, mods, ch, res):
    members, avg = [], 0
    for q, mod in zip(probs, mods):
        w = apply(mod, res.zeta, on=[res.zeta.space.labels[0]])
        members.append(apply(ch, w, on=list(mod.output_space.labels)))
        eta = apply(mod, phi0_of(res), on=[res.zeta.space.labels[0]])
        avg = avg + q * partial_trace(eta, {AUX_LABEL}).matrix
    residual = float(np.sum(np.abs(np.linalg.eigvalsh(avg - res.zeta_marginal.matrix))))
    gamma = cq_state(CqEnsemble(list(range(len(members))), probs, members))
    bob, eve = bob_eve(ch, res)
    i_bb = mutual_information(gamma, {"U"}, bob)
    i_ee = mutual_information(gamma, {"U"}, eve)
    return np.array([i_bb, i_ee, 0.0, i_bb - i_ee, residual])


def reference_member_outputs(ens, ch, res):
    signal = [lab for lab in ens.space.labels if lab != AUX_LABEL]
    bob, eve = bob_eve(ch, res)
    bobs, eves = [], []
    for s in ens.states:
        g = apply(res.z_channel, apply(ch, s, on=signal), on=[AUX_LABEL])
        bobs.append(partial_trace(g, bob))
        eves.append(partial_trace(g, eve))
    return bobs, eves


def reference_grid_oracle(ch, res, spec):
    vectors = [np.array([1.0, 0.0], dtype=complex), np.array([0.0, 1.0], dtype=complex)]
    for th in np.linspace(0.0, np.pi, spec.theta_points)[1:-1]:
        for ph in np.linspace(0.0, 2 * np.pi, spec.phi_points, endpoint=False):
            vectors.append(np.array([np.cos(th / 2), np.exp(1j * ph) * np.sin(th / 2)]))
    aux_dim = len(res.psi)
    space = ch.input_space.tensor(LabeledSpace.of((AUX_LABEL, aux_dim)))
    marg = res.zeta_marginal.matrix
    pool = [
        DensityOperator(space, np.kron(np.outer(v, v.conj()), marg), validate=False)
        for v in vectors
    ]
    signal = list(ch.input_space.labels)
    pushed = [apply(res.z_channel, apply(ch, m, signal), [AUX_LABEL]) for m in pool]
    margs = [partial_trace(m, {AUX_LABEL}) for m in pool]
    bob, eve = bob_eve(ch, res)
    k = spec.num_members
    best = -np.inf
    for combo in combinations_with_replacement(range(len(pool)), k):
        for comp in product(range(spec.prob_points + 1), repeat=k):
            if sum(comp) != spec.prob_points:
                continue
            q = np.array(comp, dtype=float) / spec.prob_points
            labels = [i for i in range(k) if q[i] > 0]
            gamma = cq_state(CqEnsemble(labels, q[labels], [pushed[combo[i]] for i in labels]))
            i_bb = mutual_information(gamma, {"U"}, bob)
            i_ee = mutual_information(gamma, {"U"}, eve)
            i_ap = holevo_information(
                CqEnsemble(labels, q[labels], [margs[combo[i]] for i in labels])
            )
            best = max(best, i_bb - max(i_ee, i_ap))
    return best


# ---------------------------------------------------------------------------
# Random instances
# ---------------------------------------------------------------------------


def random_wiretap(gen, d_b, d_e, n_kraus, rest=False):
    """Random channel A -> (B, E) with a non-trivial Eve; with ``rest``, a
    channel (A1, A2) -> (B, E, R) whose R every marginal traces out."""
    if rest:
        ins = LabeledSpace.of(("A1", 2), ("A2", 2))
        outs = LabeledSpace.of(("B", d_b), ("E", d_e), ("R", 2))
    else:
        ins, outs = LabeledSpace.of(("A", 2)), LabeledSpace.of(("B", d_b), ("E", d_e))
    return QuantumChannel(ins, outs, random_kraus(gen, ins.dim, outs.dim, n_kraus))


def member_space(ch, res, aux_first):
    """The channel input's factors with the reference copy first or last."""
    signal = list(ch.input_space.factors)
    aux = (AUX_LABEL, len(res.psi))
    return LabeledSpace(tuple([aux] + signal if aux_first else signal + [aux]))


def random_resource(gen, rank):
    """Random (Ap, Bp, Ep) resource; rank 1 makes Alice's marginal rank deficient."""
    space = LabeledSpace.of(("Ap", 2), ("Bp", 2), ("Ep", 2))
    if rank == 1:
        # Alice's share is |0> with probability one: her marginal has rank 1.
        rest = random_state(gen, LabeledSpace.of(("Bp", 2), ("Ep", 2)))
        zeta = DensityOperator(space, np.kron(np.diag([1.0, 0.0]), rest.matrix))
    else:
        zeta = random_state(gen, space, rank=rank)
    return channel_from_resource_state(zeta)


def random_ensemble(gen, space, k):
    probs = gen.dirichlet(np.ones(k))
    states = [random_state(gen, space, rank=int(gen.integers(1, space.dim + 1))) for _ in range(k)]
    return CqEnsemble(list(range(k)), probs, states)


instances = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**31 - 1),
        "k": st.integers(1, 8),
        "d_b": st.sampled_from([2, 3]),
        "d_e": st.sampled_from([2, 3]),
        "n_kraus": st.integers(1, 3),
        "rank": st.sampled_from([1, 2, 8]),
        "aux_first": st.booleans(),
        "rest": st.booleans(),
    }
)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(instances)
def test_theorem1_rate_matches_reference(inst):
    gen = rng(inst["seed"])
    ch = random_wiretap(gen, inst["d_b"], inst["d_e"], inst["n_kraus"], inst["rest"])
    res = random_resource(gen, inst["rank"])
    ens = random_ensemble(gen, member_space(ch, res, inst["aux_first"]), inst["k"])
    got = report_fields(theorem1_rate(ens, ch, res))
    np.testing.assert_allclose(got, reference_theorem1(ens, ch, res), rtol=0, atol=TOL)


def test_theorem1_rate_matches_reference_on_interleaved_signal_factors():
    # Two signal factors with A' between them: the signal factors keep their
    # order and are matched positionally to the channel input.
    gen = rng(5)
    ch = QuantumChannel(
        LabeledSpace.of(("A1", 2), ("A2", 2)),
        LabeledSpace.of(("B", 2), ("E", 2)),
        random_kraus(gen, 4, 4, 3),
    )
    res = random_resource(gen, 8)
    space = LabeledSpace.of(("A1", 2), (AUX_LABEL, 2), ("A2", 2))
    for k in (1, 3, 8):
        ens = random_ensemble(gen, space, k)
        got = report_fields(theorem1_rate(ens, ch, res))
        np.testing.assert_allclose(got, reference_theorem1(ens, ch, res), rtol=0, atol=TOL)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(instances)
def test_unassisted_rate_matches_reference(inst):
    gen = rng(inst["seed"])
    ch = random_wiretap(gen, inst["d_b"], inst["d_e"], inst["n_kraus"], inst["rest"])
    ens = random_ensemble(gen, ch.input_space, inst["k"])
    got = report_fields(unassisted_rate(ens, ch))
    np.testing.assert_allclose(got, reference_unassisted(ens, ch), rtol=0, atol=TOL)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(instances)
def test_trivial_rate_matches_reference(inst):
    gen = rng(inst["seed"])
    ch = random_wiretap(gen, inst["d_b"], inst["d_e"], inst["n_kraus"], inst["rest"])
    res = random_resource(gen, inst["rank"])
    alice = LabeledSpace.of((res.zeta.space.labels[0], len(res.psi)))
    mods = [
        QuantumChannel(alice, ch.input_space, random_kraus(gen, alice.dim, ch.input_space.dim, 2))
        for _ in range(inst["k"])
    ]
    probs = gen.dirichlet(np.ones(inst["k"]))
    got = report_fields(trivial_rate(probs, mods, ch, res))
    np.testing.assert_allclose(got, reference_trivial(probs, mods, ch, res), rtol=0, atol=TOL)


@pytest.mark.parametrize("rank", [1, 8])
def test_trivial_rate_with_one_and_four_kraus_operators(rank):
    # Modulations with different Kraus counts are one zero-padded instrument.
    gen = rng(281 + rank)
    ch = random_wiretap(gen, 2, 2, 2)
    res = random_resource(gen, rank)
    alice = LabeledSpace.of(("Ap", len(res.psi)))
    mods = [QuantumChannel(alice, ch.input_space, random_kraus(gen, alice.dim, 2, n)) for n in (1, 4)]
    assert [len(m.kraus) for m in mods] == [1, 4]
    probs = [0.3, 0.7]
    got = report_fields(trivial_rate(probs, mods, ch, res))
    np.testing.assert_allclose(got, reference_trivial(probs, mods, ch, res), rtol=0, atol=1e-12)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(instances)
def test_member_outputs_match_reference(inst):
    gen = rng(inst["seed"])
    ch = random_wiretap(gen, inst["d_b"], inst["d_e"], inst["n_kraus"], inst["rest"])
    res = random_resource(gen, inst["rank"])
    ens = random_ensemble(gen, member_space(ch, res, inst["aux_first"]), inst["k"])
    for got, want in zip(_member_outputs(ens, ch, res), reference_member_outputs(ens, ch, res)):
        np.testing.assert_allclose(got, [w.matrix for w in want], rtol=0, atol=TOL)


@pytest.mark.parametrize("name", ["trivial", "superdense", "broadcast", "classical"])
def test_member_outputs_match_reference_on_galleries(name):
    sc = build_gallery(name)
    res = sc.resource_state()
    got = _member_outputs(sc.ensemble, sc.channel, res)
    want = reference_member_outputs(sc.ensemble, sc.channel, res)
    for g_side, w_side in zip(got, want):
        np.testing.assert_allclose(g_side, [w.matrix for w in w_side], rtol=0, atol=TOL)


def test_member_outputs_stay_exactly_diagonal_on_classical_instances():
    # The code simulator's diagonal fast path needs exact zeros off the
    # diagonal, not rounding noise.
    for sc in (gallery_classical(), gallery_classical(correlated_bits_pmf())):
        bobs, eves = _member_outputs(sc.ensemble, sc.channel, sc.resource_state())
        for m in [*bobs, *eves]:
            assert np.array_equal(m, np.diag(np.diagonal(m).real))


def _depolarizing_wiretap(p=0.3):
    paulis = [
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]], dtype=complex),
        np.array([[1, 0], [0, -1]], dtype=complex),
    ]
    kraus = [np.sqrt(1 - p) * np.eye(2, dtype=complex)] + [np.sqrt(p / 3) * m for m in paulis]
    v = np.zeros((8, 2), dtype=complex)  # Stinespring isometry onto (B, E)
    for e, k in enumerate(kraus):
        for b in range(2):
            v[b * 4 + e, :] = k[b, :]
    return QuantumChannel(LabeledSpace.of(("A", 2)), LabeledSpace.of(("B", 2), ("E", 4)), [v])


SMALL = GridOracleSpec(theta_points=5, phi_points=4, prob_points=4)


@pytest.mark.parametrize(
    "make, spec",
    [
        (lambda: (identity_qubit_wiretap(), trivial_resource()), SMALL),
        (lambda: (broadcast_copy_channel(), trivial_resource()), SMALL),
        (
            lambda: (_depolarizing_wiretap(), trivial_resource()),
            GridOracleSpec(theta_points=7, phi_points=4, prob_points=4),
        ),
        (
            lambda: (broadcast_copy_channel(), bell_resource_state()),
            GridOracleSpec(num_members=2, theta_points=3, phi_points=2, prob_points=2),
        ),
        (
            lambda: (
                gallery_classical().channel,
                channel_from_resource_state(classical_embed(np.full((2, 2, 1), 0.25))),
            ),
            SMALL,
        ),
        (lambda: (gallery_classical().channel, trivial_resource()), SMALL),
    ],
)
def test_grid_oracle_matches_reference(make, spec):
    ch, res = make()
    assert abs(grid_oracle(ch, res, spec) - reference_grid_oracle(ch, res, spec)) <= TOL


@pytest.mark.parametrize(
    "make",
    [
        lambda: (identity_qubit_wiretap(), bell_resource_state()),
        lambda: (broadcast_copy_channel(), bell_resource_state()),
        lambda: (random_wiretap(rng(17), 2, 2, 2), random_resource(rng(18), 8)),
    ],
)
def test_optimize_theorem1_never_below_its_weyl_witness(make):
    ch, res = make()
    r = len(res.psi)
    space = ch.input_space.tensor(LabeledSpace.of((AUX_LABEL, r)))
    cfg = OptimizerConfig(seed=3, restarts=2, max_iters=90)
    k = 2 * ch.input_space.dim * r
    # phi0 modulated by the first min(k, r^2) discrete-Weyl unitaries, uniform
    bigs = [np.kron(w, np.eye(r)) for w in _discrete_weyl(r)[: min(k, r * r)]]
    members = [DensityOperator(space, b @ phi0_of(res).matrix @ b.conj().T) for b in bigs]
    weyl = CqEnsemble(list(range(len(bigs))), [1.0 / len(bigs)] * len(bigs), members)
    out = optimize_theorem1(ch, res, cfg)
    assert out.best_value >= theorem1_rate(weyl, ch, res).rate - TOL
    assert out.best_value == theorem1_rate(out.best_ensemble, ch, res).rate



# ---------------------------------------------------------------------------
# Channel kernel of the dense-coding and E_P searches
# ---------------------------------------------------------------------------


def delta_shape(gen, rank):
    """Dense coding: the channel acts on Ap of a state on (Ap, Bp), output
    dimension dim(Ap)^2; the passthrough is Bp."""
    zeta = random_state(gen, LabeledSpace.of(("Ap", 2), ("Bp", 2)), rank=rank)
    return zeta, "Ap", LabeledSpace.of(("A~", 4))


def ep_shape(gen, rank):
    """E_P: the channel acts on the purifier of rho on (C, D), output
    dimension = purifier dimension; the passthrough is C."""
    rho = random_state(gen, LabeledSpace.of(("C", 2), ("D", 2)), rank=rank)
    psi = purify(rho, "Epur")
    return partial_trace(psi, {"C", "Epur"}), "Epur", LabeledSpace.of(("F", psi.space.dim_of("Epur")))


def assert_kernel_matches_apply(kernel, state, on, ch, kraus):
    reference = apply(ch, state, on=[on])
    omega = kernel.omega(kraus)
    value = kernel.entropy(kraus)
    assert np.abs(omega - reference.matrix).max() <= TOL
    assert np.isfinite(value)
    assert abs(value - von_neumann_entropy(reference)) <= TOL


@pytest.mark.parametrize("rank", [1, 2, 4])
@pytest.mark.parametrize("shape", [delta_shape, ep_shape])
def test_channel_kernel_matches_apply_at_every_env_rung(shape, rank, monkeypatch):
    # The ladder tops out at env = d_in, but the kernel takes any env: every
    # env up to d_in * d_out, at the shape's output dimension and one more.
    # The entropy eigensolves the smaller of Z Z^dagger (pass * out) and
    # Z^dagger Z (env * rank); both are reached.
    gen = rng(1300 + rank)
    state, on, out_space = shape(gen, rank)
    in_space = state.space.subspace([on])
    d_in = in_space.dim
    kernel = _ChannelKernel(state, on)
    solved, real = [], measures._entropies
    monkeypatch.setattr(measures, "_entropies", lambda m: solved.append(m.shape) or real(m))
    branches = set()
    for d_out in (out_space.dim, out_space.dim + 1):
        out = LabeledSpace.of((out_space.labels[0], d_out))
        assert _env_ladder(d_in, d_out)[-1] == d_in
        for env in range(1, d_in * d_out + 1):
            param = _StinespringParam(d_in, d_out, env)
            outer, gram = kernel.d_pass * d_out, env * kernel.rank
            for _ in range(3):
                kraus = param.kraus(param.random(gen))
                ch = QuantumChannel(in_space, out, list(kraus), tp_tol=TOL_EQ)
                assert_kernel_matches_apply(kernel, state, on, ch, kraus)
                assert solved.pop() == (min(outer, gram),) * 2
            branches.add("Z Z^dagger" if outer <= gram else "Z^dagger Z")
    assert branches == {"Z Z^dagger", "Z^dagger Z"}


@pytest.mark.parametrize("rank", [1, 2, 4])
@pytest.mark.parametrize("shape", [delta_shape, ep_shape])
def test_channel_kernel_is_finite_at_structured_inits(shape, rank):
    # The identity embedding and the constant |0> channel give a
    # rank-deficient output, whose zero eigenvalues come back as +-1e-17
    # dust: the entropy must apply the cutoff, not take log2 of the dust.
    state, on, out_space = shape(rng(1310 + rank), rank)
    in_space = state.space.subspace([on])
    kernel = _ChannelKernel(state, on)
    param = _StinespringParam(in_space.dim, out_space.dim, in_space.dim * out_space.dim)
    inits = _channel_inits(in_space.dim, out_space.dim)
    assert len(inits) == 2
    for stack in inits:
        kraus = param.kraus(param.pack(stack))
        ch = QuantumChannel(in_space, out_space, list(kraus), tp_tol=TOL_EQ)
        assert_kernel_matches_apply(kernel, state, on, ch, kraus)


@pytest.mark.parametrize("d_in, d_out", [(2, 4), (4, 4), (4, 2), (1, 3)])
def test_channel_inits_equal_public_constructors(d_in, d_out):
    # The starts are built as plain stacks; the public constructors are the
    # reference, and the stacks must match them bit for bit.
    in_space, out_space = LabeledSpace.of(("A", d_in)), LabeledSpace.of(("F", d_out))
    want = [np.stack(constant_channel(in_space, basis_state(out_space, [0])).kraus)]
    if d_out >= d_in:
        embed = QuantumChannel(in_space, out_space, [np.eye(d_out, d_in)])
        want.insert(0, np.stack(embed.kraus))
    got = _channel_inits(d_in, d_out)
    assert [g.shape for g in got] == [w.shape for w in want]
    assert all(g.dtype == w.dtype and g.tobytes() == w.tobytes() for g, w in zip(got, want))


def dusty_delta_shape(gen):
    """Dense coding on a state whose third eigenvalue, 3e-15, lies below
    RANK_CUTOFF: the kernel's support factor drops it, so its rank is 2."""
    u = random_unitary(gen, 4)
    rho = (u * [0.7, 0.3 - 3e-15, 3e-15, 0.0]) @ u.conj().T
    zeta = DensityOperator(LabeledSpace.of(("Ap", 2), ("Bp", 2)), rho)
    return zeta, "Ap", LabeledSpace.of(("A~", 4))


STACK_SHAPES = [(shape, rank) for shape in (delta_shape, ep_shape) for rank in (1, 2, 4)]


@pytest.mark.parametrize(
    "make", [lambda gen, s=s, r=r: s(gen, r) for s, r in STACK_SHAPES] + [dusty_delta_shape]
)
def test_channel_kernel_scores_stacks_like_single_candidates(make):
    # A (3, env, d_out, d_in) stack of random candidates on every rung, and the
    # two structured inits as one stack on the top rung: each slice scores as
    # its own call does, and as apply + von_neumann_entropy of its channel.
    gen = rng(1320)
    state, on, out_space = make(gen)
    in_space = state.space.subspace([on])
    d_in, d_out = in_space.dim, out_space.dim
    kernel = _ChannelKernel(state, on)
    if make is dusty_delta_shape:
        assert kernel.rank == 2
    top = _StinespringParam(d_in, d_out, d_in * d_out)
    inits = np.stack([top.kraus(top.pack(s)) for s in _channel_inits(d_in, d_out)])
    for env in _env_ladder(d_in, d_out):
        param = _StinespringParam(d_in, d_out, env)
        stacks = [param.kraus(np.stack([param.random(gen) for _ in range(3)]))]
        if env == top.env:
            stacks.append(inits)
        for stack in stacks:
            values, omegas = kernel.entropy(stack), kernel.omega(stack)
            assert values.shape == stack.shape[:1]
            for kraus, value, omega in zip(stack, values, omegas):
                assert abs(value - kernel.entropy(kraus)) <= 1e-14
                assert np.abs(omega - kernel.omega(kraus)).max() <= 1e-14
                ch = QuantumChannel(in_space, out_space, list(kraus), tp_tol=TOL_EQ)
                reference = apply(ch, state, on=[on])
                assert np.abs(omega - reference.matrix).max() <= TOL
                assert abs(value - von_neumann_entropy(reference)) <= TOL


@pytest.mark.parametrize("rank", [1, 2, 4])
@pytest.mark.parametrize("shape", [delta_shape, ep_shape])
def test_lower_rungs_in_the_top_rung_coordinates_match_their_own(shape, rank, monkeypatch):
    # A small channel search scores every restart on the top rung's Kraus
    # stacks: a point of a lower rung sits in its own coordinate set there,
    # every other coordinate 0.  The reference is the point on its own rung.
    gen = rng(1340 + rank)
    state, on, out_space = shape(gen, rank)
    d_in, d_out = state.space.dim_of(on), out_space.dim
    kernel = _ChannelKernel(state, on)
    ladder = [_StinespringParam(d_in, d_out, e) for e in _env_ladder(d_in, d_out)]
    top = ladder[-1]
    for param in ladder:
        half = param.size // 2  # env * d_out * d_in real, as many imaginary
        own = param.within(top)
        assert own.tolist() == [*range(half), *range(top.size // 2, top.size // 2 + half)]
        points = np.stack([param.random(gen) for _ in range(3)])
        padded = np.zeros((3, top.size))
        padded[:, own] = points
        kraus = top.kraus(padded)
        assert np.abs(kraus[:, param.env :]).max(initial=0.0) <= 1e-15
        assert np.abs(kernel.entropy(kraus) - kernel.entropy(param.kraus(points))).max() <= 1e-14

    # A whole search with a restart on every rung, every one padded:
    # the padded coordinates of every scored point stay exactly 0, and the
    # winner's x comes back as its row's own coordinates, on its own rung.
    real, seen = optimize._coordinate_search, {}

    def spy(x0, objective, gens, max_iters, on_accept, coords):
        pads = [np.setdiff1d(np.arange(top.size), own) for own in coords]

        def checked(xv):
            assert len(xv) == len(pads)  # no row reaches STEP_MIN in max_iters
            assert not any(row[..., pad].any() for row, pad in zip(xv, pads))
            return objective(xv)

        seen["x"], seen["vals"] = real(x0, checked, gens, max_iters, on_accept, coords)
        seen["coords"] = coords
        return seen["x"], seen["vals"]

    monkeypatch.setattr(optimize, "_coordinate_search", spy)
    for starts in (_channel_inits(d_in, d_out), []):
        cfg = OptimizerConfig(seed=rank, restarts=len(starts) + len(ladder), max_iters=60)
        rungs = optimize._rungs(cfg, len(starts), len(ladder))
        assert sorted(set(rungs)) == list(range(len(ladder)))
        param, x = optimize._restarts(
            lambda k: -kernel.entropy(k), starts, ladder, cfg, [], cfg.restarts
        )
        winner = int(np.argmax(seen["vals"]))
        assert param is ladder[rungs[winner]]
        assert x.tobytes() == seen["x"][winner, seen["coords"][winner]].tobytes()


@pytest.mark.parametrize("mode", ["theorem1", "unassisted"])
def test_instrument_scores_on_a_stack_match_rate_rescores(mode, monkeypatch):
    # The score each ensemble search maximizes, taken on a stack of three
    # instruments, against the public rate of each instrument's ensemble.
    ch = random_wiretap(rng(1330), 2, 3, 2)
    res = random_resource(rng(1331), 8) if mode == "theorem1" else trivial_resource()
    seen = {}
    restarts = optimize._restarts

    def capture(score, starts, ladder, cfg, trace, width):
        seen.update(score=score, param=ladder[0])
        return restarts(score, starts, ladder, cfg, trace, width)

    monkeypatch.setattr(optimize, "_restarts", capture)
    cfg = OptimizerConfig(seed=1, restarts=1, max_iters=1)
    if mode == "theorem1":
        optimize_theorem1(ch, res, cfg)
    else:
        optimize.optimize_unassisted(ch, cfg)
    space = member_space(ch, res, aux_first=False)
    k = 2 * space.dim
    param = seen["param"]
    points = param.kraus(np.stack([param.random(rng(1332 + i)) for i in range(3)]))
    values = seen["score"](points)
    members, probs = _instrument(points, res.psi, k)
    assert values.shape == (3,)
    for value, stack, q in zip(values, members, probs):
        ens = CqEnsemble(list(range(k)), q, [DensityOperator(space, m) for m in stack])
        if mode == "theorem1":
            want = theorem1_rate(ens, ch, res).rate
        else:
            want = unassisted_rate(ens, ch).rate
        assert abs(value - want) <= TOL
