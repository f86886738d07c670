"""Entropy and information functionals over states.

All quantities are plain floats in bits: every entropy takes ``np.log2``
of the eigenvalues above ``ENTROPY_EIGENVALUE_CUTOFF``.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .qcore import DensityOperator, ValidationError, partial_trace

__all__ = [
    "ENTROPY_EIGENVALUE_CUTOFF",
    "von_neumann_entropy",
    "mutual_information",
]

# Eigenvalues below this contribute zero entropy (0 log 0 = 0 convention,
# applied before the logarithm can blow up on numerical dust).
ENTROPY_EIGENVALUE_CUTOFF = 1e-14


def _entropies(matrices: np.ndarray) -> np.ndarray:
    """Entropies in bits of a stack (..., d, d) of Hermitian matrices.

    Eigenvalues at or below ``ENTROPY_EIGENVALUE_CUTOFF`` count as
    0 log 0 = 0; the result is floored at 0.
    """
    w = np.linalg.eigvalsh(matrices)
    w = np.where(w > ENTROPY_EIGENVALUE_CUTOFF, w, 1.0)
    return np.maximum(0.0, -(w * np.log2(w)).sum(axis=-1))


def von_neumann_entropy(rho: DensityOperator) -> float:
    """Entropy -Tr rho log2 rho, via eigendecomposition."""
    return float(_entropies(rho.matrix))


def mutual_information(
    rho: DensityOperator, part_a: Iterable[str], part_b: Iterable[str]
) -> float:
    """I(A:B) = S(A) + S(B) - S(AB) across the named partitions.

    Factors outside the two partitions are traced out first.
    """
    a = set(part_a)
    b = set(part_b)
    if a & b:
        raise ValidationError(f"overlapping partitions: {sorted(a & b)}")
    joint = partial_trace(rho, a | b)
    s_a = von_neumann_entropy(partial_trace(joint, a))
    s_b = von_neumann_entropy(partial_trace(joint, b))
    s_ab = von_neumann_entropy(joint)
    return s_a + s_b - s_ab
