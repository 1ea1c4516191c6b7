"""Explicit irreducible representations of the Clifford algebra with
negative-definite form in even dimension.

The generators satisfy c_j c_l + c_l c_j = -2 delta_{jl}, c_j* = -c_j,
and the grading gamma anticommutes with every generator.  The basis is
fixed by an iterated tensor-product construction so that all downstream
sign conventions are pinned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

SIGMA_1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_3 = np.array([[1, 0], [0, -1]], dtype=complex)


@dataclass(frozen=True, eq=False)
class CliffordRep:
    """Concrete gamma matrices for even dimension d.

    generators[j] is the skew-adjoint matrix c(v_{j+1}); grading is the
    self-adjoint involution gamma with trace zero.
    """

    d: int
    dim_s: int
    generators: tuple = field(repr=False)
    grading: np.ndarray = field(repr=False)


def clifford_rep(d: int) -> CliffordRep:
    """Build the canonical representation in even dimension d >= 2.

    Generators come in pairs: the p-th pair is
    i * sigma_3^{(x p)} (x) sigma_{1,2} (x) 1^{(x rest)},
    and gamma = sigma_3^{(x d/2)}.  Deterministic: same d, same matrices.
    """
    if d < 2 or d % 2 != 0:
        raise ValueError("even dimension required")
    half = d // 2
    eye = np.eye(2, dtype=complex)
    gens = []
    for p in range(half):
        prefix = [SIGMA_3] * p
        suffix = [eye] * (half - 1 - p)
        gens.append(1j * reduce(np.kron, prefix + [SIGMA_1] + suffix))
        gens.append(1j * reduce(np.kron, prefix + [SIGMA_2] + suffix))
    grading = reduce(np.kron, [SIGMA_3] * half)
    for g in gens:
        g.setflags(write=False)
    grading.setflags(write=False)
    return CliffordRep(d=d, dim_s=2 ** half, generators=tuple(gens), grading=grading)
