"""Scenario files: a wiretap channel, a shared resource, and optional
signal data (ensemble or modulations), plus the bundled worked examples.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .channels import (
    AUX_LABEL,
    CqEnsemble,
    QuantumChannel,
    ResourceState,
    _validated_probs,
    channel_from_json,
    channel_from_resource_state,
    channel_to_json,
    classical_channel,
    ensemble_from_json,
    ensemble_to_json,
    trivial_resource,
)
from .qcore import (
    DensityOperator,
    LabeledSpace,
    ValidationError,
    _load_json,
    basis_state,
    maximally_entangled,
    state_from_json,
    state_to_json,
    tensor,
)
from .rates import classical_embed

__all__ = [
    "Scenario",
    "scenario_to_json",
    "scenario_from_json",
    "load_scenario",
    "save_scenario",
    "gallery_names",
    "build_gallery",
]


@dataclass(frozen=True)
class Scenario:
    """A wiretap channel N: A -> B x E with a tripartite resource state.

    The channel output must have exactly two factors (Bob's, then Eve's);
    the resource exactly three (Alice', Bob', Eve').  The optional ensemble
    carries joint signal/reference states for the side-information rate;
    optional modulations (with probabilities) feed the direct-modulation
    rate.
    """

    name: str
    description: str
    channel: QuantumChannel
    resource: DensityOperator
    ensemble: CqEnsemble | None = None
    modulations: tuple[QuantumChannel, ...] | None = None
    modulation_probs: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if len(self.channel.output_space.factors) != 2:
            raise ValidationError("channel output must have exactly two factors (Bob, Eve)")
        if len(self.resource.space.factors) != 3:
            raise ValidationError("resource must have exactly three factors (A', B', E')")
        clash = set(self.channel.output_space.labels) & set(self.resource.space.labels)
        if clash:
            raise ValidationError(f"channel output labels {sorted(clash)} clash with resource")
        if self.modulation_probs is not None:
            try:
                probs = _validated_probs(self.modulation_probs)
            except ValidationError as exc:
                raise ValidationError(f"modulation_probs: {exc}") from exc
            if self.modulations is not None and len(probs) != len(self.modulations):
                raise ValidationError("modulation_probs length != number of modulations")

    def resource_state(self) -> ResourceState:
        return channel_from_resource_state(self.resource)

    def modulation_distribution(self) -> tuple[float, ...]:
        if self.modulations is None:
            raise ValidationError("scenario has no modulations")
        if self.modulation_probs is not None:
            return self.modulation_probs
        k = len(self.modulations)
        return tuple([1.0 / k] * k)


def scenario_to_json(sc: Scenario) -> dict:
    obj = {
        "name": sc.name,
        "description": sc.description,
        "channel": channel_to_json(sc.channel),
        "resource": state_to_json(sc.resource),
        "ensemble": ensemble_to_json(sc.ensemble) if sc.ensemble is not None else None,
        "modulations": (
            [channel_to_json(m) for m in sc.modulations] if sc.modulations is not None else None
        ),
        "modulation_probs": list(sc.modulation_probs) if sc.modulation_probs is not None else None,
    }
    return obj


def _section(obj: dict, key: str, parse, required: bool):
    if key not in obj or obj[key] is None:
        if required:
            raise ValidationError(f"{key}: missing required section")
        return None
    try:
        return parse(obj[key])
    except ValidationError as exc:
        raise ValidationError(f"{key}: {exc}") from exc


def _channels_from_json(obj) -> tuple[QuantumChannel, ...]:
    if not isinstance(obj, list):
        raise ValidationError("must be a list of channel objects")
    return tuple(channel_from_json(m) for m in obj)


def scenario_from_json(obj) -> Scenario:
    if not isinstance(obj, dict):
        raise ValidationError("scenario must be a JSON object")
    channel = _section(obj, "channel", channel_from_json, required=True)
    resource = _section(obj, "resource", state_from_json, required=True)
    ensemble = _section(obj, "ensemble", ensemble_from_json, required=False)
    modulations = _section(obj, "modulations", _channels_from_json, required=False)
    probs = obj.get("modulation_probs")
    return Scenario(
        name=str(obj.get("name", "")),
        description=str(obj.get("description", "")),
        channel=channel,
        resource=resource,
        ensemble=ensemble,
        modulations=modulations,
        modulation_probs=tuple(probs) if isinstance(probs, list) else probs,
    )


def load_scenario(path) -> Scenario:
    return _load_json(path, scenario_from_json)


def save_scenario(sc: Scenario, path) -> None:
    with open(path, "w") as fh:
        json.dump(scenario_to_json(sc), fh, indent=2)


# ---------------------------------------------------------------------------
# Gallery
# ---------------------------------------------------------------------------

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

_A = LabeledSpace.of(("A", 2))


def _identity_wiretap() -> QuantumChannel:
    return QuantumChannel(
        _A, LabeledSpace.of(("B", 2), ("E", 1)), [np.eye(2, dtype=complex)]
    )


def _copy_channel() -> QuantumChannel:
    v = np.zeros((4, 2), dtype=complex)
    v[0, 0] = 1.0
    v[3, 1] = 1.0
    return QuantumChannel(_A, LabeledSpace.of(("B", 2), ("E", 2)), [v])


def _lifted_basis_ensemble(aux_dim: int) -> CqEnsemble:
    aux = LabeledSpace.of((AUX_LABEL, aux_dim))
    members = [
        tensor(basis_state(_A, [i]), basis_state(aux, [0])) for i in range(2)
    ]
    return CqEnsemble([0, 1], [0.5, 0.5], members)


def gallery_trivial() -> Scenario:
    mods = tuple(
        QuantumChannel(
            LabeledSpace.of(("Ap", 1)),
            _A,
            [np.array([[1.0], [0.0]]) if i == 0 else np.array([[0.0], [1.0]])],
        )
        for i in range(2)
    )
    return Scenario(
        name="trivial",
        description="Identity qubit channel to Bob, trivial Eve, empty resource.",
        channel=_identity_wiretap(),
        resource=trivial_resource().zeta,
        ensemble=_lifted_basis_ensemble(1),
        modulations=mods,
    )


def gallery_superdense() -> Scenario:
    phi = maximally_entangled("A", AUX_LABEL, 2)
    members = []
    for name in "IXYZ":
        u = np.kron(_PAULI[name], np.eye(2))
        members.append(DensityOperator(phi.space, u @ phi.matrix @ u.conj().T, validate=False))
    ens = CqEnsemble(list("IXYZ"), [0.25] * 4, members)
    mods = tuple(
        QuantumChannel(LabeledSpace.of(("Ap", 2)), _A, [_PAULI[name]]) for name in "IXYZ"
    )
    resource = tensor(
        maximally_entangled("Ap", "Bp", 2), basis_state(LabeledSpace.of(("Ep", 1)), [0])
    )
    return Scenario(
        name="superdense",
        description="Identity qubit channel, Bell pair shared with Bob: "
        "Pauli modulations recover the two-bit dense coding rate.",
        channel=_identity_wiretap(),
        resource=resource,
        ensemble=ens,
        modulations=mods,
    )


def gallery_broadcast() -> Scenario:
    return Scenario(
        name="broadcast",
        description="Classical copy channel |x> -> |x>|x> to Bob and Eve; "
        "Bob and Eve see identical outputs, so the unassisted rate is zero.",
        channel=_copy_channel(),
        resource=trivial_resource().zeta,
        ensemble=_lifted_basis_ensemble(1),
    )


def gallery_broadcast_bell() -> Scenario:
    resource = tensor(
        maximally_entangled("Ap", "Bp", 2), basis_state(LabeledSpace.of(("Ep", 1)), [0])
    )
    return Scenario(
        name="broadcast_bell",
        description="Copy channel assisted by a Bell pair between Alice and Bob; "
        "reported one-letter values are best-found lower bounds.",
        channel=_copy_channel(),
        resource=resource,
    )


def _degraded_bsc_transition(p_bob: float, p_cascade: float) -> np.ndarray:
    """P[(y,e), x] for Bob = BSC(p_bob)(x), Eve = BSC(p_cascade)(y)."""
    bsc_b = np.array([[1 - p_bob, p_bob], [p_bob, 1 - p_bob]])  # [y, x]
    bsc_e = np.array([[1 - p_cascade, p_cascade], [p_cascade, 1 - p_cascade]])  # [e, y]
    trans = np.zeros((4, 2))
    for x in range(2):
        for y in range(2):
            for e in range(2):
                trans[y * 2 + e, x] = bsc_b[y, x] * bsc_e[e, y]
    return trans


def _xor_pad_ensemble(alice_marginal_diag: np.ndarray) -> CqEnsemble:
    """Message bit XOR'd with Alice's shared bit; reference copy rides along.

    Members are sum_k p(k) |x + k mod 2><...| x |k><k|, so every member's
    reference marginal equals the resource marginal exactly (feasible
    per-message) while the signal hides the message from anyone without k.
    """
    space = LabeledSpace.of(("A", 2), (AUX_LABEL, 2))
    members = []
    for x in range(2):
        diag = np.zeros(4)
        for k in range(2):
            diag[((x + k) % 2) * 2 + k] = alice_marginal_diag[k]
        members.append(DensityOperator(space, np.diag(diag).astype(complex), validate=False))
    return CqEnsemble([0, 1], [0.5, 0.5], members)


def gallery_classical(pmf: np.ndarray | None = None) -> Scenario:
    """Degraded binary wiretap: Bob BSC(0.05), Eve a further BSC(1/6) of
    Bob's bit (marginally BSC(0.2)).  The resource is the diagonal
    embedding of ``pmf`` (default: the point mass, i.e. an empty resource).

    For a one-dimensional Alice share the bundled ensemble is the plain
    basis ensemble; for a binary share it is the XOR-pad construction,
    which encrypts the signal with the shared bit.
    """
    if pmf is None:
        pmf = np.ones((1, 1, 1))
    resource = classical_embed(pmf)
    channel = classical_channel(
        _degraded_bsc_transition(0.05, 1.0 / 6.0), _A, LabeledSpace.of(("B", 2), ("E", 2))
    )
    aux_dim = resource.space.dims[0]
    if aux_dim == 1:
        ensemble = _lifted_basis_ensemble(aux_dim)
    elif aux_dim == 2:
        marg = np.real(np.diag(resource.matrix)).reshape(resource.space.dims).sum(axis=(1, 2))
        ensemble = _xor_pad_ensemble(marg)
    else:
        ensemble = None
    return Scenario(
        name="classical",
        description="Degraded classical wiretap channel (Bob BSC(0.05), Eve BSC(0.2)) "
        "with a diagonal classical resource.",
        channel=channel,
        resource=resource,
        ensemble=ensemble,
    )


def correlated_bits_pmf(eve_copy_noise: float | None = None) -> np.ndarray:
    """Uniform shared bit between Alice and Bob; Eve's share is trivial
    (or a noisy copy when ``eve_copy_noise`` is given)."""
    if eve_copy_noise is None:
        p = np.zeros((2, 2, 1))
        p[0, 0, 0] = p[1, 1, 0] = 0.5
        return p
    q = float(eve_copy_noise)
    p = np.zeros((2, 2, 2))
    for k in range(2):
        for z in range(2):
            p[k, k, z] = 0.5 * ((1 - q) if z == k else q)
    return p


_GALLERIES = {
    "trivial": gallery_trivial,
    "superdense": gallery_superdense,
    "broadcast": gallery_broadcast,
    "broadcast_bell": gallery_broadcast_bell,
    "classical": gallery_classical,
}


def gallery_names() -> list[str]:
    return sorted(_GALLERIES)


def build_gallery(name: str, pmf: np.ndarray | None = None) -> Scenario:
    if name not in _GALLERIES:
        raise ValidationError(
            f"unknown gallery {name!r}; available: {', '.join(gallery_names())}"
        )
    if name == "classical":
        return gallery_classical(pmf)
    if pmf is not None:
        raise ValidationError(f"gallery {name!r} does not take a pmf")
    return _GALLERIES[name]()
