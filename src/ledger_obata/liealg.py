"""Structure-constant backend for a concrete compact simple Lie algebra.

Elements of the m-fold product algebra are stored as (m, dim) coefficient
arrays: row i holds the f-coordinates of the i-th copy.  Brackets act
row-wise, the diagonal subalgebra is the row-constant part, and its
orthogonal complement (w.r.t. minus the Killing form) is the zero-column-sum
part.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import StructureConstantError

ENV_TABLE = "LOT_STRUCTURE_CONSTANTS"

JACOBI_TOL = 1e-12


def killing_gram(c: np.ndarray) -> np.ndarray:
    """Minus-Killing-form Gram matrix -tr(ad E_i ad E_j) from the table c[i,j,k]."""
    c = np.asarray(c, dtype=float)
    # (ad E_i)_{kj} = c[i, j, k]
    ad = np.transpose(c, (0, 2, 1))
    return -np.einsum("ipq,jqp->ij", ad, ad)


@dataclass(frozen=True)
class StructureConstants:
    """Validated structure-constant table of a compact (semi)simple algebra.

    ``c[i, j, k]`` is the coefficient of E_k in [E_i, E_j].  The Gram
    matrix of minus the Killing form is computed on construction and must
    be symmetric positive definite; antisymmetry and the Jacobi identity
    are enforced at 1e-12.
    """

    dim: int
    c: np.ndarray
    name: str = "anonymous"
    gram: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        if c.shape != (self.dim, self.dim, self.dim):
            raise StructureConstantError(f"table shape {c.shape} != {(self.dim,) * 3}")
        if np.max(np.abs(c + np.transpose(c, (1, 0, 2)))) > JACOBI_TOL:
            raise StructureConstantError("structure constants are not antisymmetric")
        # Jacobi: sum over cyclic permutations of [[Ei,Ej],Ek] vanishes
        jac = (
            np.einsum("ijl,lkm->ijkm", c, c)
            + np.einsum("jkl,lim->ijkm", c, c)
            + np.einsum("kil,ljm->ijkm", c, c)
        )
        if np.max(np.abs(jac)) > JACOBI_TOL:
            raise StructureConstantError("Jacobi identity fails")
        gram = killing_gram(c)
        if self.gram is not None:
            if np.max(np.abs(gram - np.asarray(self.gram, dtype=float))) > JACOBI_TOL:
                raise StructureConstantError("stored Gram matrix does not match -tr(ad ad)")
        if np.max(np.abs(gram - gram.T)) > JACOBI_TOL:
            raise StructureConstantError("Killing Gram matrix is not symmetric")
        eigs = np.linalg.eigvalsh((gram + gram.T) / 2)
        if eigs[0] <= JACOBI_TOL:
            raise StructureConstantError(
                "minus Killing form is not positive definite (not compact semisimple)"
            )
        c = c.copy()
        c.setflags(write=False)
        gram = gram.copy()
        gram.setflags(write=False)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "gram", gram)

    def bracket(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Bracket of single f-elements given by coordinate vectors."""
        return np.einsum("i,j,ijk->k", x, y, self.c)

    def ad(self, x: np.ndarray) -> np.ndarray:
        """Matrix of ad(x) in the chosen basis."""
        return np.einsum("i,ijk->kj", x, self.c)


def so3() -> StructureConstants:
    """so(3) in the cyclic basis: [E1,E2]=E3, [E2,E3]=E1, [E3,E1]=E2."""
    c = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        c[i, j, k] = 1.0
        c[j, i, k] = -1.0
    return StructureConstants(dim=3, c=c, name="so3")


def from_entries(dim: int, entries, name: str = "anonymous") -> StructureConstants:
    """Build a table from sparse (i, j, k, value) entries; omitted entries are zero."""
    c = np.zeros((dim, dim, dim))
    for i, j, k, value in entries:
        i, j, k = int(i), int(j), int(k)
        if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
            raise StructureConstantError(f"index ({i},{j},{k}) out of range for dim {dim}")
        c[i, j, k] = float(value)
    return StructureConstants(dim=dim, c=c, name=name)


def load_structure_constants(path: str) -> StructureConstants:
    """Load {"dim": d, "c": [[i,j,k,value],...], "name": ...} from JSON."""
    with open(path) as fh:
        data = json.load(fh)
    try:
        dim = int(data["dim"])
        entries = data["c"]
    except (KeyError, TypeError) as exc:
        raise StructureConstantError(f"malformed structure-constant file {path}: {exc}")
    return from_entries(dim, entries, name=str(data.get("name", os.path.basename(path))))


def default_backend() -> StructureConstants:
    """so(3) unless the LOT_STRUCTURE_CONSTANTS env var points elsewhere."""
    path = os.environ.get(ENV_TABLE)
    if path:
        return load_structure_constants(path)
    return so3()


# -- product-algebra element helpers ----------------------------------------
#
# An element of the m-fold product is an (m, dim) array; these helpers are
# free functions so callers can stay in plain numpy.


def product_bracket(sc: StructureConstants, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise bracket of two (m, dim) coefficient arrays, or of two stacks of them."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise ValueError(f"shape mismatch {u.shape} vs {v.shape}")
    return np.einsum("...i,...j,ijk->...k", u, v, sc.c)


def split_diagonal(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split u into (diagonal part as a single f-vector, zero-column-sum rest).

    The diagonal subalgebra consists of row-constant elements; the returned
    first component W satisfies u = ones (x) W + rest with rest summing to
    zero down each column.
    """
    u = np.asarray(u, dtype=float)
    w = u.mean(axis=0)
    return w, u - w


def product_inner(sc: StructureConstants, u: np.ndarray, v: np.ndarray) -> float:
    """Minus-Killing inner product of two product-algebra elements."""
    return float(np.einsum("mi,ij,mj->", u, sc.gram, v))


def product_norm(sc: StructureConstants, u: np.ndarray) -> float:
    return float(np.sqrt(max(product_inner(sc, u, u), 0.0)))
