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
    "basis_state",
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

# Eigenvalues at or below this lie outside a PSD operator's support.
RANK_CUTOFF = 1e-12

# A computation whose estimated working set, in bytes, is larger is refused.
MAX_WORKING_BYTES = 2 * 2**30


def check_working_bytes(need: int, what: str) -> None:
    """Refuse ``what`` when its estimated working set ``need`` exceeds MAX_WORKING_BYTES."""
    if need > MAX_WORKING_BYTES:
        raise ResourceLimitError(
            f"{what} needs ~{need / 2**30:.1f} GiB, "
            f"over the {MAX_WORKING_BYTES / 2**30:.0f} GiB limit"
        )


def support_eigh(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of a Hermitian matrix with eigenvalue above RANK_CUTOFF, largest first."""
    w, v = np.linalg.eigh(matrix)
    keep = w > RANK_CUTOFF
    return w[keep][::-1], v[:, keep][:, ::-1]


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

    A validated matrix is copied and frozen; validation checks Hermiticity,
    trace and positivity against the module tolerances.  ``validate=False``
    is for matrices known valid by construction: the array is wrapped as
    is (complex128 input is not copied) and frozen, so pass a fresh array,
    or a view of a fresh or frozen one, that nothing writes afterwards.
    """

    __slots__ = ("space", "matrix")

    def __init__(
        self,
        space: LabeledSpace,
        matrix: np.ndarray,
        validate: bool = True,
    ) -> None:
        m = (np.array if validate else np.asarray)(matrix, dtype=np.complex128)
        if m.shape != (space.dim, space.dim):
            raise ValidationError(
                f"matrix shape {m.shape} does not match space dimension {space.dim}"
            )
        if validate:
            # Written as "not dev <= tol" so that a NaN deviation is refused.
            herm = np.max(np.abs(m - m.conj().T)) if m.size else 0.0
            if not herm <= TOL_HERM:
                raise ValidationError(f"matrix is not Hermitian (deviation {herm:.3e})")
            tr = m.trace()
            if not abs(tr - 1.0) <= TOL_TRACE:
                raise ValidationError(f"trace {tr:.12g} differs from 1 beyond tolerance")
            wmin = float(np.linalg.eigvalsh(m)[0])
            if not wmin >= -TOL_PSD:
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


def _permuted(m: np.ndarray, dims: Sequence[int], perm: Sequence[int]) -> np.ndarray:
    """The (..., d, d) stack ``m`` on factors of ``dims`` with its factors in the
    order ``perm`` (factor i of the result is factor perm[i] of ``m``)."""
    k, n = m.ndim - 2, len(dims)
    axes = list(range(k)) + [k + p for p in perm] + [k + n + p for p in perm]
    return m.reshape(m.shape[:k] + tuple(dims) * 2).transpose(axes).reshape(m.shape)


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
    sub = space.subspace(keep_set)
    t = _permuted(rho.matrix, space.dims, keep_axes + drop_axes)
    out = np.einsum("ajbj->ab", t.reshape(2 * (sub.dim, space.dim // sub.dim)))
    return DensityOperator(sub, out, validate=False)


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
    new_space = LabeledSpace(tuple(space.factors[p] for p in perm))
    return DensityOperator(new_space, _permuted(rho.matrix, space.dims, perm), validate=False)


def purify(rho: DensityOperator, aux_label: str) -> DensityOperator:
    """Rank-one extension of ``rho`` on an auxiliary factor.

    The auxiliary dimension equals the rank of ``rho`` and the auxiliary
    basis is the computational one, so a pure input returns (up to phase)
    itself tensored with |0>.
    """
    if aux_label in rho.space.labels:
        raise ValidationError(f"auxiliary label {aux_label!r} already in use")
    w, v = support_eigh(rho.matrix)
    vec = (v * np.sqrt(w)).reshape(-1)
    space = rho.space.tensor(LabeledSpace.of((aux_label, len(w))))
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
    """Trace norm of a Hermitian matrix via its eigenvalues; NaN when its
    diagonal holds a NaN, which the eigensolver would read as 0."""
    if np.isnan(np.trace(x)):
        return math.nan
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
    Construction: M, the (d_l, K = d_r d_aux) amplitudes of eta_tilde's
    purification, zero-padded to d_aux = max(rank, ceil(d_l / d_r)) so that
    K >= d_l; the thin SVD sqrt(sigma) M = P S Q^dagger gives the target's
    purification N = sqrt(sigma) P Q^dagger closest to it (Uhlmann), and
    tracing the auxiliary out of N gives eta.  The factors are moved to
    (marginal, rest) once, for the eigensolve, and back once, for eta; no
    step holds more than three arrays of eta_tilde's size.  O(d_l^2 K) time.
    """
    labels = list(dict.fromkeys(marginal_labels))
    space = eta_tilde.space
    sub = space.subspace(labels)
    if target_marginal.space != sub:
        raise ValidationError(
            f"target marginal space {list(target_marginal.space.factors)} does not match "
            f"subspace {list(sub.factors)}"
        )
    if trace_distance(partial_trace(eta_tilde, labels), target_marginal) <= 1e-13:
        return eta_tilde

    l_axes = space.axes(labels)
    perm = list(l_axes) + [i for i in range(len(space.dims)) if i not in l_axes]
    d_l, d_r = sub.dim, space.dim // sub.dim
    w, v = support_eigh(_permuted(eta_tilde.matrix, space.dims, perm))
    mu, u = support_eigh(target_marginal.matrix)
    d_aux = max(len(w), -(-d_l // d_r))  # ceil(d_l / d_r)
    m_coeff = np.pad(v * np.sqrt(w), ((0, 0), (0, d_aux - len(w)))).reshape(d_l, d_r * d_aux)
    del v
    sqrt_sigma = (u * np.sqrt(mu)) @ u.conj().T
    p, _, qh = np.linalg.svd(sqrt_sigma @ m_coeff, full_matrices=False)
    del m_coeff
    phi = (sqrt_sigma @ p @ qh).reshape(d_l * d_r, d_aux)
    del qh
    eta = _permuted(phi @ phi.conj().T, [space.dims[i] for i in perm], np.argsort(perm))
    return DensityOperator(space, eta, validate=False)


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


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
        if not isinstance(lab, str) or isinstance(dim, bool) or not isinstance(dim, int):
            raise ValidationError(f"{what}[{i}] must be [string, integer], got {pair!r}")
        factors.append((lab, dim))
    return LabeledSpace(tuple(factors))


def complex_matrix_to_json(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def complex_matrix_from_json(obj, rows: int, cols: int, what: str = "matrix") -> np.ndarray:
    try:
        arr = np.asarray(obj, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{what} entries must be [re, im] number pairs: {exc}") from None
    if arr.shape != (rows, cols, 2):
        raise ValidationError(
            f"{what} has shape {arr.shape}, expected ({rows}, {cols}, 2) of [re, im] pairs"
        )
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{what} entries must be finite")
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


def _read_json(path):
    """The JSON value in the UTF-8 file at ``path``.  A file that cannot be
    read, is not UTF-8 or holds invalid JSON is refused with a
    ValidationError that names the path, and the byte offset of bad input."""
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode()
        return json.loads(text)
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 at byte offset {exc.start}") from None
    except json.JSONDecodeError as exc:
        offset = len(text[: exc.pos].encode())
        raise ValidationError(
            f"{path}: invalid JSON at byte offset {offset}: {exc.msg}"
        ) from exc
    except OSError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def _load_json(path, parse):
    """``parse`` of the JSON value at ``path``; a refusal names the path."""
    obj = _read_json(path)
    try:
        return parse(obj)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def load_state(path) -> DensityOperator:
    return _load_json(path, state_from_json)
