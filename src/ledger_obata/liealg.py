"""Structure-constant backend for a concrete compact simple Lie algebra.

A backend is its table: ``StructureConstants`` holds ``c[i, j, k]``, the
coefficient of E_k in [E_i, E_j], and a name; its dimension, the Gram
matrix of minus the Killing form and its twin at unit scale are derived
from the table, which is validated once, at that scale.  This module
is the one implementation of each operation on the table, and every other
module reads them from here:
- ``ad_rows``: the matrices ad(u_l) of a stack of elements;
- ``product_bracket``: the row-wise bracket of two product elements;
- ``killing_gram``: the Gram matrix -tr(ad E_i ad E_j);
- ``killing_norms``: the minus-Killing norm of each product element of a stack;
- ``jacobi_tensor``: the cyclic sum of double brackets of basis elements.
The adjoint, the bracket and the double brackets are each one matmul
against the table reshaped to (dim, dim*dim) or (dim*dim, dim).

Elements of the m-fold product algebra are stored as (m, dim) coefficient
arrays: row i holds the f-coordinates of the i-th copy.  Brackets act
row-wise, the diagonal subalgebra is the row-constant part, and its
orthogonal complement (w.r.t. minus the Killing form) is the zero-column-sum
part.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import StructureConstantError

ENV_TABLE = "LOT_STRUCTURE_CONSTANTS"

JACOBI_TOL = 1e-12


def ad_rows(sc: StructureConstants, u: np.ndarray) -> np.ndarray:
    """Stack of ad matrices, one per row of u: out[..., l, :, :] @ w = [u_l, w].

    One matmul against the table reshaped to (dim, dim*dim); the result is
    a view with the last two axes swapped.
    """
    d = sc.dim
    return (u @ sc.c.reshape(d, d * d)).reshape(*u.shape[:-1], d, d).swapaxes(-1, -2)


def product_bracket(sc: StructureConstants, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise bracket of two (m, dim) coefficient arrays, or of two stacks of them.

    One matmul: the products u_i v_j of each row, flattened to dim*dim
    entries, against the table reshaped to (dim*dim, dim).
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise ValueError(f"shape mismatch {u.shape} vs {v.shape}")
    d = sc.dim
    # unlike a broadcast multiply, einsum takes no temporary as large as the products
    outer = np.einsum("...i,...j->...ij", u, v).reshape(*u.shape[:-1], d * d)
    return outer @ sc.c.reshape(d * d, d)


def killing_gram(sc: StructureConstants) -> np.ndarray:
    """Minus-Killing-form Gram matrix -tr(ad E_i ad E_j) of the table."""
    ads = ad_rows(sc, np.eye(sc.dim))
    return -np.einsum("ipq,jqp->ij", ads, ads)


def killing_norms(sc: StructureConstants, x: np.ndarray) -> np.ndarray:
    """Minus-Killing norm of each (m, dim) element of a stack x (..., m, dim)."""
    quad = ((x @ sc.gram) * x).sum(axis=(-2, -1))
    return np.sqrt(np.maximum(quad, 0.0))


def jacobi_tensor(sc: StructureConstants) -> np.ndarray:
    """[[E_i, E_j], E_k] + [[E_j, E_k], E_i] + [[E_k, E_i], E_j] at [i, j, k, :].

    The double brackets [[E_i, E_j], E_k] are one matmul of the table
    reshaped to (dim*dim, dim) by the table reshaped to (dim, dim*dim); the
    other two terms are its cyclic permutations of i, j and k.
    """
    d = sc.dim
    nested = (sc.c.reshape(d * d, d) @ sc.c.reshape(d, d * d)).reshape(d, d, d, d)
    return nested + nested.transpose(2, 0, 1, 3) + nested.transpose(1, 2, 0, 3)


@dataclass(frozen=True)
class StructureConstants:
    """Validated structure-constant table of a compact simple algebra.

    ``c[i, j, k]`` is the coefficient of E_k in [E_i, E_j]; it must be a
    finite (d, d, d) array with d >= 1, and ``dim`` is d.  ``unit`` is the
    table divided by its ``unit_scale``, exactly: the table itself when
    that is 1, else a twin built once here.  The checks run once, on
    ``unit``, so they see the same digits at every scale and cannot
    overflow: antisymmetry at 1e-12 max|c|, the Jacobi identity and the
    symmetry and positive definiteness of the Gram matrix of minus the
    Killing form at 1e-12 max|c|^2, and simplicity on the commutant of
    {ad E_i}, which must be one-dimensional.  The oracles measure on
    ``unit`` too.  ``gram`` is ``unit.gram`` times unit_scale**2, so an
    entry past the largest double reads inf; ``unit.gram`` stays finite.
    """

    c: np.ndarray
    name: str = "anonymous"
    dim: int = field(init=False)
    gram: np.ndarray = field(init=False)
    # the table itself when it is at unit scale, so kept out of repr and ==
    unit: StructureConstants = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        c = np.array(self.c, dtype=float)
        d = c.shape[0] if c.ndim == 3 else 0
        if d == 0 or c.shape != (d, d, d):
            raise StructureConstantError(f"table shape {c.shape} is not (d, d, d) with d >= 1")
        if not np.all(np.isfinite(c)):
            raise StructureConstantError("structure constants must be finite")
        c.setflags(write=False)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "dim", d)
        scale = unit_scale(c)
        unit = self if scale == 1.0 else StructureConstants(c / scale, self.name)
        object.__setattr__(self, "unit", unit)
        if unit is not self:
            with np.errstate(over="ignore", under="ignore"):
                object.__setattr__(self, "gram", unit.gram * scale * scale)
            self.gram.setflags(write=False)
            return
        # an all-zero table passes the first three checks and fails the fourth
        linear = JACOBI_TOL * float(np.max(np.abs(c)))
        quadratic = linear * float(np.max(np.abs(c)))
        if np.max(np.abs(c + np.transpose(c, (1, 0, 2)))) > linear:
            raise StructureConstantError("structure constants are not antisymmetric")
        if np.max(np.abs(jacobi_tensor(self))) > quadratic:
            raise StructureConstantError("Jacobi identity fails")
        gram = killing_gram(self)
        if np.max(np.abs(gram - gram.T)) > quadratic:
            raise StructureConstantError("Killing Gram matrix is not symmetric")
        eigs = np.linalg.eigvalsh((gram + gram.T) / 2)
        if eigs[0] <= quadratic:
            raise StructureConstantError(
                "minus Killing form is not positive definite (not compact semisimple)"
            )
        # compact semisimple is simple exactly when only the scalars commute
        # with every ad E_i: (ad_i X - X ad_i)[a, c] at [i, a, c, (b, e) of X]
        eye = np.eye(d)
        ads = ad_rows(self, eye)
        commutator = np.einsum("iab,ce->iacbe", ads, eye) - np.einsum("ab,iec->iacbe", eye, ads)
        svals = np.linalg.svd(commutator.reshape(d**3, -1), compute_uv=False)
        commutant = int(np.sum(svals <= 1e-10 * svals[0]))
        if commutant != 1:
            raise StructureConstantError(
                f"algebra is not simple: {commutant} independent matrices "
                "commute with every ad E_i"
            )
        gram.setflags(write=False)
        object.__setattr__(self, "gram", gram)


def unit_scale(c: np.ndarray) -> float:
    """The power of four 4**e with max|c| / 4**e in [1, 4), or 1 for a zero table.

    Dividing a table by it is exact, and a residual measured on the divided
    table moves by at most a bounded factor when the basis is scaled:
    bracket terms grow like max|c| and Gram terms like max|c|^2.  so(3),
    every table of ±1 entries and the skewed so(3) of the tests (max|c| =
    2.75) have scale 1, so they are measured as they are, bit for bit.
    """
    # a zero table has no scale to remove, and is its own twin
    exponent = math.frexp(float(np.max(np.abs(c))) or 1.0)[1] - 1
    return math.ldexp(1.0, exponent - exponent % 2)


@functools.cache
def so3() -> StructureConstants:
    """so(3) in the cyclic basis: [E1,E2]=E3, [E2,E3]=E1, [E3,E1]=E2; built once."""
    c = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        c[i, j, k], c[j, i, k] = 1.0, -1.0
    return StructureConstants(c=c, name="so3")


def from_entries(dim: int, entries, name: str = "anonymous") -> StructureConstants:
    """Build a table from sparse (i, j, k, value) entries; omitted entries are zero.

    A dimension that gives no table, and entries that are not four numbers
    each, are a StructureConstantError.
    """
    try:
        c = np.zeros((dim, dim, dim))
        cells = [(int(i), int(j), int(k), float(value)) for i, j, k, value in entries]
    except (TypeError, ValueError, OverflowError, MemoryError) as exc:
        raise StructureConstantError(f"malformed table of dimension {dim}: {exc}") from None
    for i, j, k, value in cells:
        if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
            raise StructureConstantError(f"index ({i},{j},{k}) out of range for dim {dim}")
        c[i, j, k] = value
    return StructureConstants(c=c, name=name)


def load_structure_constants(path: str) -> StructureConstants:
    """Load {"dim": d, "c": [[i,j,k,value],...], "name": ...} from JSON.

    The file is read as UTF-8 whatever the locale.  A file that cannot be
    read, or is not UTF-8 JSON of that shape, is a StructureConstantError.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        dim, entries = int(data["dim"]), data["c"]
        name = str(data.get("name", os.path.basename(path)))
    except OSError as exc:
        raise StructureConstantError(f"cannot read structure-constant file {path}: {exc}") from None
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise StructureConstantError(f"malformed structure-constant file {path}: {exc}") from None
    except RecursionError:
        raise StructureConstantError(
            f"malformed structure-constant file {path}: JSON nested too deeply"
        ) from None
    return from_entries(dim, entries, name=name)


def default_backend() -> StructureConstants:
    """so(3) unless the LOT_STRUCTURE_CONSTANTS env var names a table file,
    which is read again on every call."""
    path = os.environ.get(ENV_TABLE)
    if path:
        return load_structure_constants(path)
    return so3()
