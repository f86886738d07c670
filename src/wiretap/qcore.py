"""Labeled tensor spaces, density operators and distance measures.

Everything downstream (channels, rates, optimizers, code simulation) is
built on the two value types defined here: :class:`LabeledSpace`, an ordered
list of named subsystems, and :class:`DensityOperator`, a Hermitian PSD
unit-trace matrix over such a space.  Subsystems are always addressed by
label, never by position; reordering tensor factors is an explicit
operation (:func:`permute_factors`).

All operations are pure functions; values are immutable after construction.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "TOL_HERM",
    "TOL_PSD",
    "TOL_TRACE",
    "TOL_EQ",
    "ValidationError",
    "ResourceLimitError",
    "LabeledSpace",
    "DensityOperator",
    "tensor",
    "partial_trace",
    "permute_factors",
    "purify",
    "fidelity",
    "trace_distance",
    "hermitian_trace_norm",
    "uhlmann_fixup",
    "pure_state",
    "basis_state",
    "maximally_mixed",
    "maximally_entangled",
    "state_to_json",
    "state_from_json",
    "save_state",
    "load_state",
]


class ValidationError(ValueError):
    """An input violates a structural invariant (shape, labels, PSD, trace...)."""


class ResourceLimitError(RuntimeError):
    """A requested computation exceeds a configured dimension or memory cap."""


# Fixed numerical policy.  TOL_HERM / TOL_TRACE guard construction, TOL_PSD
# bounds how negative an eigenvalue may be before a matrix is rejected
# (smaller negatives are clamped to zero and the state renormalized), TOL_EQ
# is the tolerance of state and channel equality checks.
TOL_HERM = 1e-10
TOL_PSD = 1e-9
TOL_TRACE = 1e-10
TOL_EQ = 1e-8

# Negative eigenvalues above -CLAMP_FLOOR are eigensolver dust left as is.
CLAMP_FLOOR = 1e-14

# Eigenvalues below this are treated as exact zeros when ranks are needed.
RANK_CUTOFF = 1e-12


@dataclass(frozen=True)
class LabeledSpace:
    """Ordered list of (label, dimension) tensor factors."""

    factors: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        factors = tuple((str(lab), int(dim)) for lab, dim in self.factors)
        object.__setattr__(self, "factors", factors)
        labels = [lab for lab, _ in factors]
        if len(set(labels)) != len(labels):
            dups = sorted({lab for lab in labels if labels.count(lab) > 1})
            raise ValidationError(f"duplicate subsystem labels {dups}")
        for lab, dim in factors:
            if dim < 1:
                raise ValidationError(f"subsystem {lab!r} has dimension {dim} < 1")
        # Read on every state operation: computed once, outside the fields, so
        # equality, hashing and repr still see ``factors`` alone.
        object.__setattr__(self, "_dims", tuple(dim for _, dim in factors))
        object.__setattr__(self, "_dim", math.prod(self._dims))

    @classmethod
    def of(cls, *factors: tuple[str, int]) -> "LabeledSpace":
        return cls(tuple(factors))

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(lab for lab, _ in self.factors)

    @property
    def dims(self) -> tuple[int, ...]:
        return self._dims

    @property
    def dim(self) -> int:
        return self._dim

    def index(self, label: str) -> int:
        for i, (lab, _) in enumerate(self.factors):
            if lab == label:
                return i
        raise ValidationError(f"unknown subsystem label {label!r}; have {list(self.labels)}")

    def dim_of(self, label: str) -> int:
        return self.factors[self.index(label)][1]

    def axes(self, labels: Iterable[str]) -> tuple[int, ...]:
        """Positions of the given labels, in this space's factor order."""
        want = set(labels)
        for lab in want:
            self.index(lab)  # raises on unknown labels
        return tuple(i for i, (lab, _) in enumerate(self.factors) if lab in want)

    def subspace(self, labels: Iterable[str]) -> "LabeledSpace":
        """Sub-space of the named factors, original order preserved."""
        axes = self.axes(labels)
        if not axes:
            raise ValidationError("subspace requires at least one label")
        return LabeledSpace(tuple(self.factors[i] for i in axes))

    def tensor(self, other: "LabeledSpace") -> "LabeledSpace":
        clash = set(self.labels) & set(other.labels)
        if clash:
            raise ValidationError(f"duplicate subsystem labels {sorted(clash)} in tensor product")
        return LabeledSpace(self.factors + other.factors)

    def relabeled(self, mapping: dict[str, str]) -> "LabeledSpace":
        return LabeledSpace(tuple((mapping.get(lab, lab), dim) for lab, dim in self.factors))


class DensityOperator:
    """Hermitian PSD unit-trace matrix over a :class:`LabeledSpace`.

    The matrix is copied on construction and frozen.  Validation checks
    Hermiticity, trace and positivity against the module tolerances; pass
    ``validate=False`` only for matrices known valid by construction.
    """

    __slots__ = ("space", "matrix")

    def __init__(
        self,
        space: LabeledSpace,
        matrix: np.ndarray,
        validate: bool = True,
    ) -> None:
        m = np.array(matrix, dtype=np.complex128)
        if m.shape != (space.dim, space.dim):
            raise ValidationError(
                f"matrix shape {m.shape} does not match space dimension {space.dim}"
            )
        if validate:
            herm = np.max(np.abs(m - m.conj().T)) if m.size else 0.0
            if herm > TOL_HERM:
                raise ValidationError(f"matrix is not Hermitian (deviation {herm:.3e})")
            tr = m.trace()
            if abs(tr - 1.0) > TOL_TRACE:
                raise ValidationError(f"trace {tr:.12g} differs from 1 beyond tolerance")
            wmin = float(np.linalg.eigvalsh(m)[0])
            if wmin < -TOL_PSD:
                raise ValidationError(f"matrix has negative eigenvalue {wmin:.3e}")
        m.setflags(write=False)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "matrix", m)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("DensityOperator is immutable")

    def __repr__(self) -> str:
        return f"DensityOperator(space={list(self.space.factors)}, dim={self.space.dim})"

    @property
    def dim(self) -> int:
        return self.space.dim

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)

    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))

    def is_pure(self) -> bool:
        return abs(self.purity() - 1.0) <= TOL_TRACE

    def state_vector(self) -> np.ndarray:
        """Amplitude-vector view of a rank-one state (global phase arbitrary)."""
        w, v = np.linalg.eigh(self.matrix)
        if 1.0 - w[-1] > TOL_EQ:
            raise ValidationError(f"state is not pure (largest eigenvalue {w[-1]:.6g})")
        return v[:, -1] * np.sqrt(max(w[-1], 0.0))

    def clamped(self) -> "DensityOperator":
        """Zero small negative eigenvalues and renormalize.

        Negatives above ``-CLAMP_FLOOR`` are eigensolver dust that every
        consumer already tolerates; repairing them would inject reconstruction
        noise, so the state is returned unchanged.  Eigenvalues below
        ``-TOL_PSD`` are an error, not noise.
        """
        w, v = np.linalg.eigh(self.matrix)
        if w[0] >= -CLAMP_FLOOR:
            return self
        if w[0] < -TOL_PSD:
            raise ValidationError(f"eigenvalue {w[0]:.3e} below clamping tolerance")
        w = np.clip(w, 0.0, None)
        w = w / w.sum()
        m = (v * w) @ v.conj().T
        return DensityOperator(self.space, m, validate=False)

    def relabeled(self, mapping: dict[str, str]) -> "DensityOperator":
        return DensityOperator(self.space.relabeled(mapping), self.matrix, validate=False)


def _fresh_label(base: str, taken: Iterable) -> str:
    """The first of base, base1, base2, ... that is not in ``taken``."""
    names = {str(lab) for lab in taken}
    cand, i = base, 0
    while cand in names:
        i += 1
        cand = f"{base}{i}"
    return cand


def tensor(a: DensityOperator, b: DensityOperator) -> DensityOperator:
    """Kronecker product on the concatenated space; labels must not clash."""
    space = a.space.tensor(b.space)
    return DensityOperator(space, np.kron(a.matrix, b.matrix), validate=False)


def _as_tensor(rho: DensityOperator) -> np.ndarray:
    dims = rho.space.dims
    return rho.matrix.reshape(dims + dims)


def partial_trace(rho: DensityOperator, keep: Iterable[str]) -> DensityOperator:
    """Trace out all factors not named in ``keep`` (original order preserved)."""
    keep_set = set(keep)
    if not keep_set:
        raise ValidationError("partial_trace requires a non-empty set of labels to keep")
    space = rho.space
    keep_axes = list(space.axes(keep_set))
    drop_axes = [i for i in range(len(space.factors)) if i not in keep_axes]
    if not drop_axes:
        return rho
    n = len(space.factors)
    perm = keep_axes + drop_axes
    t = _as_tensor(rho).transpose(perm + [p + n for p in perm])
    dk = int(np.prod([space.dims[i] for i in keep_axes], dtype=np.int64))
    dd = int(np.prod([space.dims[i] for i in drop_axes], dtype=np.int64))
    t = t.reshape(dk, dd, dk, dd)
    out = np.einsum("ajbj->ab", t)
    return DensityOperator(space.subspace(keep_set), out, validate=False)


def permute_factors(rho: DensityOperator, order: Sequence[str]) -> DensityOperator:
    """Reorder tensor factors to the given label order (a full permutation)."""
    space = rho.space
    if sorted(order) != sorted(space.labels):
        raise ValidationError(
            f"factor order {list(order)} is not a permutation of {list(space.labels)}"
        )
    perm = [space.index(lab) for lab in order]
    if perm == list(range(len(perm))):
        return rho
    n = len(perm)
    t = _as_tensor(rho).transpose(perm + [p + n for p in perm])
    new_space = LabeledSpace(tuple(space.factors[p] for p in perm))
    return DensityOperator(new_space, t.reshape(space.dim, space.dim), validate=False)


def purify(
    rho: DensityOperator,
    aux_label: str,
    symmetric: bool = False,
) -> DensityOperator:
    """Rank-one extension of ``rho`` on an auxiliary factor.

    The default purification uses an auxiliary dimension equal to the rank
    of ``rho`` and the computational basis on the auxiliary factor, so a
    pure input returns (up to phase) itself tensored with |0>.  With
    ``symmetric=True`` the auxiliary dimension equals dim(rho) and the
    auxiliary basis is the eigenbasis of ``rho`` itself, which makes *both*
    marginals of the purification equal to ``rho``.
    """
    if aux_label in rho.space.labels:
        raise ValidationError(f"auxiliary label {aux_label!r} already in use")
    d = rho.dim
    w, v = np.linalg.eigh(rho.matrix)
    w = np.clip(w, 0.0, None)
    order = np.argsort(w)[::-1]
    w, v = w[order], v[:, order]
    if symmetric:
        r = d
        vec = np.zeros(d * r, dtype=np.complex128)
        for i in range(d):
            if w[i] <= 0.0:
                continue
            vec += np.sqrt(w[i]) * np.kron(v[:, i], v[:, i])
    else:
        r = max(1, int(np.count_nonzero(w > RANK_CUTOFF)))
        vec = np.zeros(d * r, dtype=np.complex128)
        for i in range(r):
            e = np.zeros(r, dtype=np.complex128)
            e[i] = 1.0
            vec += np.sqrt(w[i]) * np.kron(v[:, i], e)
    space = rho.space.tensor(LabeledSpace.of((aux_label, r)))
    return DensityOperator(space, np.outer(vec, vec.conj()), validate=False)


def _psd_sqrt(matrix: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(matrix)
    w = np.sqrt(np.clip(w, 0.0, None))
    return (v * w) @ v.conj().T


def fidelity(rho: DensityOperator, sigma: DensityOperator) -> float:
    """Fidelity F = trace-norm of sqrt(rho) sqrt(sigma), in [0, 1]."""
    if rho.space != sigma.space:
        raise ValidationError("fidelity requires states on the same space")
    s = _psd_sqrt(rho.matrix)
    w = np.linalg.eigvalsh(s @ sigma.matrix @ s)
    f = float(np.sum(np.sqrt(np.clip(w, 0.0, None))))
    return min(max(f, 0.0), 1.0)


def hermitian_trace_norm(x: np.ndarray) -> float:
    """Trace norm of a Hermitian matrix via its eigenvalues."""
    return float(np.sum(np.abs(np.linalg.eigvalsh(x))))


def trace_distance(rho: DensityOperator, sigma: DensityOperator) -> float:
    """Half the trace norm of rho - sigma, in [0, 1]."""
    if rho.space != sigma.space:
        raise ValidationError("trace_distance requires states on the same space")
    d = 0.5 * hermitian_trace_norm(rho.matrix - sigma.matrix)
    return min(max(d, 0.0), 1.0)


def uhlmann_fixup(
    eta_tilde: DensityOperator,
    target_marginal: DensityOperator,
    marginal_labels: Iterable[str],
) -> DensityOperator:
    """Smallest-disturbance repair of a marginal.

    Returns a state eta on the same space as ``eta_tilde`` whose marginal on
    ``marginal_labels`` equals ``target_marginal`` exactly (up to matmul
    noise), with trace-norm disturbance bounded by the fidelity budget

        || eta - eta_tilde ||_1  <=  2 sqrt(2 d - d^2),

    where d is the trace distance between the current and target marginals.
    Construction: purify ``eta_tilde``, pick the purification of the target
    marginal (on the non-marginal factors plus an auxiliary) that maximizes
    the overlap -- the maximizing unitary comes from the polar decomposition
    of the overlap matrix -- and trace the auxiliary back out.
    """
    labels = list(dict.fromkeys(marginal_labels))
    sub = eta_tilde.space.subspace(labels)
    if target_marginal.space != sub:
        raise ValidationError(
            f"target marginal space {list(target_marginal.space.factors)} does not match "
            f"subspace {list(sub.factors)}"
        )
    current = partial_trace(eta_tilde, labels)
    delta = trace_distance(current, target_marginal)
    if delta <= 1e-13:
        return eta_tilde

    l_labels = list(sub.labels)
    r_labels = [lab for lab in eta_tilde.space.labels if lab not in set(l_labels)]
    eta_p = permute_factors(eta_tilde, l_labels + r_labels)
    d_l = sub.dim
    d_r = eta_p.dim // d_l

    w, v = np.linalg.eigh(eta_p.matrix)
    w = np.clip(w, 0.0, None)
    order = np.argsort(w)[::-1]
    w, v = w[order], v[:, order]
    rank_eta = max(1, int(np.count_nonzero(w > RANK_CUTOFF)))

    mu, u = np.linalg.eigh(target_marginal.matrix)
    mu = np.clip(mu, 0.0, None)
    m_order = np.argsort(mu)[::-1]
    mu, u = mu[m_order], u[:, m_order]
    rank_m = max(1, int(np.count_nonzero(mu > RANK_CUTOFF)))

    d_aux = max(rank_eta, -(-rank_m // d_r))  # ceil(rank_m / d_r)

    # |psi~> as a (d_l, d_r * d_aux) coefficient matrix.
    psi = (v[:, :d_aux] * np.sqrt(w[:d_aux])).reshape(d_l, d_r, d_aux)
    m_coeff = psi.reshape(d_l, d_r * d_aux)

    # Canonical purification of the target on the same right-hand space.
    n0 = np.zeros((d_l, d_r * d_aux), dtype=np.complex128)
    n0[:, :rank_m] = u[:, :rank_m] * np.sqrt(mu[:rank_m])

    # Uhlmann alignment: maximize |Tr(A W)| over unitaries W.
    a = m_coeff.conj().T @ n0
    us, _, vs = np.linalg.svd(a)
    w_align = vs.conj().T @ us.conj().T
    n = n0 @ w_align

    phi = n.reshape(d_l * d_r, d_aux)
    eta_fixed = DensityOperator(eta_p.space, phi @ phi.conj().T, validate=False)
    return permute_factors(eta_fixed, eta_tilde.space.labels)


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def pure_state(space: LabeledSpace, amplitudes: Sequence[complex]) -> DensityOperator:
    vec = np.asarray(amplitudes, dtype=np.complex128).reshape(-1)
    if vec.shape != (space.dim,):
        raise ValidationError(f"amplitude vector length {vec.size} != dimension {space.dim}")
    norm = np.linalg.norm(vec)
    if norm == 0:
        raise ValidationError("amplitude vector is zero")
    vec = vec / norm
    return DensityOperator(space, np.outer(vec, vec.conj()), validate=False)


def basis_state(space: LabeledSpace, indices: Sequence[int]) -> DensityOperator:
    """Computational basis state |i1 i2 ...><i1 i2 ...| on the given space."""
    dims = space.dims
    if len(indices) != len(dims):
        raise ValidationError(f"need {len(dims)} indices, got {len(indices)}")
    flat = 0
    for i, d in zip(indices, dims):
        if not 0 <= i < d:
            raise ValidationError(f"basis index {i} out of range for dimension {d}")
        flat = flat * d + i
    vec = np.zeros(space.dim, dtype=np.complex128)
    vec[flat] = 1.0
    return DensityOperator(space, np.outer(vec, vec.conj()), validate=False)


def maximally_mixed(space: LabeledSpace) -> DensityOperator:
    d = space.dim
    return DensityOperator(space, np.eye(d, dtype=np.complex128) / d, validate=False)


def maximally_entangled(label_a: str, label_b: str, dim: int) -> DensityOperator:
    """(1/sqrt(d)) sum_i |ii> on a pair of d-dimensional factors."""
    space = LabeledSpace.of((label_a, dim), (label_b, dim))
    vec = np.zeros(dim * dim, dtype=np.complex128)
    for i in range(dim):
        vec[i * dim + i] = 1.0 / math.sqrt(dim)
    return DensityOperator(space, np.outer(vec, vec.conj()), validate=False)


# ---------------------------------------------------------------------------
# JSON state files
# ---------------------------------------------------------------------------


def factors_to_json(space: LabeledSpace) -> list:
    return [[lab, dim] for lab, dim in space.factors]


def factors_from_json(obj, what: str = "factors") -> LabeledSpace:
    if not isinstance(obj, list) or not obj:
        raise ValidationError(f"{what} must be a non-empty list of [label, dim] pairs")
    factors = []
    for i, pair in enumerate(obj):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ValidationError(f"{what}[{i}] must be a [label, dim] pair")
        lab, dim = pair
        if not isinstance(lab, str) or not isinstance(dim, int):
            raise ValidationError(f"{what}[{i}] must be [string, integer], got {pair!r}")
        factors.append((lab, dim))
    return LabeledSpace(tuple(factors))


def complex_matrix_to_json(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def complex_matrix_from_json(obj, rows: int, cols: int, what: str = "matrix") -> np.ndarray:
    arr = np.asarray(obj, dtype=object)
    try:
        arr = np.asarray(obj, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{what} entries must be [re, im] number pairs: {exc}") from None
    if arr.shape != (rows, cols, 2):
        raise ValidationError(
            f"{what} has shape {arr.shape}, expected ({rows}, {cols}, 2) of [re, im] pairs"
        )
    return arr[..., 0] + 1j * arr[..., 1]


def state_to_json(rho: DensityOperator) -> dict:
    return {"factors": factors_to_json(rho.space), "matrix": complex_matrix_to_json(rho.matrix)}


def state_from_json(obj) -> DensityOperator:
    if not isinstance(obj, dict):
        raise ValidationError("state object must be a JSON object")
    for key in ("factors", "matrix"):
        if key not in obj:
            raise ValidationError(f"state object is missing {key!r}")
    space = factors_from_json(obj["factors"])
    matrix = complex_matrix_from_json(obj["matrix"], space.dim, space.dim)
    return DensityOperator(space, matrix)


def save_state(rho: DensityOperator, path) -> None:
    with open(path, "w") as fh:
        json.dump(state_to_json(rho), fh)


def load_state(path) -> DensityOperator:
    with open(path) as fh:
        obj = json.load(fh)
    return state_from_json(obj)
