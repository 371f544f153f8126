"""Pluggable linear-solver backends for the MNA engine.

The solver core used to be welded to dense LAPACK (``scipy.linalg.lu_factor``
/ ``lu_solve``).  That is the right call for the paper's case studies (tens
of unknowns) but inverts the scaling story on generated 1k–10k-element
grids, where the MNA matrix is overwhelmingly sparse.  This module makes the
factorization engine a pluggable *backend*:

- ``dense`` — LAPACK LU (``getrf``/``getrs``), exactly the historical path;
- ``sparse`` — ``scipy.sparse`` CSC assembly + SuperLU (``splu``), with
  multi-RHS solves: one factorization, a matrix whose columns are the
  right-hand sides, solved in a single call.

Both factorizations expose the same two-method surface (:meth:`solve` for a
vector or a column block), so :class:`repro.circuit.mna.CompiledSystem`
(whose fault solves are Woodbury updates of either),
:func:`repro.circuit.mna.dc_operating_point` (one factorize-and-solve per
Newton iteration), :func:`repro.circuit.transient.transient` and
:func:`repro.circuit.ac.ac_analysis` can share one code path.  Both refuse
an exactly singular matrix with :class:`FactorizationError`.

Every analysis assembles its matrix from one ``(row, col, value)`` triplet
stream: :func:`triplets_to_matrix` materialises a constant part as the
backend's matrix, and :func:`add_triplets` adds a per-step part (diode
companions, reactive companions) to a copy of it.

The system's size alone picks the backend (:func:`resolve_backend`):
sparse at or above :data:`SPARSE_AUTO_MIN_SIZE` unknowns, dense below —
the measured crossover where SuperLU's setup cost is repaid by O(nnz)
solves.  The size picks only the factorization, never the algorithm on
top of it.  There is no option to override it; tests pin a backend by
patching the threshold.  A dense-only process never imports
``scipy.sparse``.

Observability: every factorization increments ``mna_dense_factorizations``
or ``mna_sparse_factorizations``; batched multi-RHS solves add their column
count to ``mna_batched_rhs_columns``; cache hits in a
:class:`FactorizationCache` (only the transient integrator keeps one)
increment ``mna_factorization_cache_hits``.
All counters are no-ops while ``repro.obs`` is disabled.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy.linalg import get_lapack_funcs as _get_lapack_funcs

from repro import obs
from repro.circuit.netlist import CircuitError

__all__ = [
    "BACKENDS",
    "SPARSE_AUTO_MIN_SIZE",
    "FactorizationError",
    "Factorization",
    "DenseFactorization",
    "SparseFactorization",
    "FactorizationCache",
    "factorize",
    "factorize_triplets",
    "getrs_solver",
    "triplets_to_dense",
    "triplets_to_csc",
    "triplets_to_matrix",
    "add_triplets",
    "resolve_backend",
]

#: The concrete backends :func:`resolve_backend` picks between.
BACKENDS = ("dense", "sparse")

#: Systems switch from dense LAPACK to sparse SuperLU at this many MNA
#: unknowns.  Calibration (see docs/performance.md): below ~200 unknowns a
#: dense ``getrf`` beats SuperLU's symbolic analysis + permutation setup;
#: above it the O(nnz) triangular solves win by a growing margin (≈19x
#: factorization / ≈8x campaign wall on a 2.4k-unknown generated grid).
SPARSE_AUTO_MIN_SIZE = 192


class FactorizationError(CircuitError):
    """The matrix could not be factorized (singular or non-finite)."""


def resolve_backend(size: int) -> str:
    """The backend (``dense``/``sparse``) for a system of ``size`` unknowns."""
    return "sparse" if size >= SPARSE_AUTO_MIN_SIZE else "dense"


# -- factorizations ----------------------------------------------------------


#: LAPACK ``getrf``/``getrs`` for real (DC, transient) and complex (AC)
#: systems, bound once: the lookup costs more than factorizing a 7-unknown
#: system.  Any other dtype looks them up per call.
_LU_ROUTINES = {
    np.dtype(dtype): _get_lapack_funcs(
        ("getrf", "getrs"), (np.zeros((1, 1), dtype),)
    )
    for dtype in (np.float64, np.complex128)
}


def _lu_routines(array: np.ndarray):
    """``(getrf, getrs)`` for ``array``'s dtype."""
    routines = _LU_ROUTINES.get(array.dtype)
    return routines or _get_lapack_funcs(("getrf", "getrs"), (array,))


class Factorization:
    """Interface: a factorized system matrix supporting repeated solves.

    ``solve`` accepts a 1-D right-hand side or a 2-D column block (the
    multi-RHS form: one factorization, many solutions in a single call).
    """

    backend: str = ""
    size: int = 0

    def solve(self, rhs: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError


def getrs_solver(lu: np.ndarray, piv: np.ndarray):
    """A low-overhead ``A⁻¹ b`` closure over a ``lu_factor`` result.

    ``scipy.linalg.lu_solve`` pays tens of microseconds of Python wrapper
    per call (dispatch, validation plumbing) — more than the O(n²)
    triangular solves themselves at MNA sizes.  This binds LAPACK
    ``getrs`` directly and converts the factors to Fortran order once, so
    no per-call copy of the factorization remains.  Raises
    :class:`FactorizationError` on a nonzero LAPACK ``info``.
    """
    lu = np.asfortranarray(lu)
    _, getrs = _lu_routines(lu)

    def solve(rhs: np.ndarray) -> np.ndarray:
        with np.errstate(all="ignore"):
            x, info = getrs(lu, piv, rhs)
        if info != 0:
            raise FactorizationError(f"getrs failed (info={info})")
        return x

    return solve


class DenseFactorization(Factorization):
    """LAPACK LU (``getrf``) — the historical dense path.

    An exactly singular matrix (a zero pivot) raises
    :class:`FactorizationError`, as SuperLU does on the sparse backend, so
    callers latch the same fallback on either backend.
    """

    __slots__ = ("_solve", "size")

    backend = "dense"

    def __init__(self, matrix: np.ndarray) -> None:
        self.size = int(matrix.shape[0])
        if self.size == 0:
            raise FactorizationError("cannot factorize an empty matrix")
        # ``getrf`` itself: ``lu_factor`` only warns on a zero pivot, and
        # silencing a warning is process-wide, not per thread.
        getrf, _ = _lu_routines(matrix)
        lu, piv, info = getrf(matrix, overwrite_a=False)
        if info > 0:
            raise FactorizationError(
                f"singular matrix: U[{info - 1},{info - 1}] is exactly zero"
            )
        self._solve = getrs_solver(lu, piv)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        if rhs.ndim == 1:
            return self._solve(rhs)
        # One ``getrs`` per column: OpenBLAS hands a multi-column ``getrs``
        # to its thread pool, whose wake-up costs milliseconds where a
        # column of a small system costs microseconds.
        return np.column_stack(
            [self._solve(rhs[:, col]) for col in range(rhs.shape[1])]
        )


class SparseFactorization(Factorization):
    """SuperLU over a CSC matrix — O(nnz) triangular solves, multi-RHS."""

    __slots__ = ("_splu", "size")

    backend = "sparse"

    def __init__(self, matrix) -> None:
        from scipy.sparse import csc_matrix, issparse
        from scipy.sparse.linalg import splu

        if not issparse(matrix):
            matrix = csc_matrix(np.asarray(matrix))
        self.size = int(matrix.shape[0])
        try:
            self._splu = splu(matrix.tocsc())
        except (RuntimeError, ValueError, ArithmeticError) as exc:
            # SuperLU raises RuntimeError on exact singularity; ValueError
            # on malformed/non-finite input.
            raise FactorizationError(str(exc)) from None

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        out = self._splu.solve(np.asarray(rhs))
        if not np.all(np.isfinite(out)):
            raise FactorizationError("sparse solve produced non-finite values")
        return out


# -- triplet assembly --------------------------------------------------------
# The MNA assembler emits (row, col, value) stamps; both matrix
# representations are materialised from the same triplet stream, so the two
# backends factorize the numerically identical matrix.

Triplets = Tuple[List[int], List[int], List[float]]


def triplets_to_dense(
    size: int, triplets: Triplets, dtype=float
) -> np.ndarray:
    rows, cols, vals = triplets
    matrix = np.zeros((size, size), dtype=dtype)
    np.add.at(matrix, (rows, cols), vals)
    return matrix


def triplets_to_csc(size: int, triplets: Triplets, dtype=float):
    from scipy.sparse import coo_matrix

    rows, cols, vals = triplets
    return coo_matrix(
        (np.asarray(vals, dtype=dtype), (rows, cols)), shape=(size, size)
    ).tocsc()


def triplets_to_matrix(
    size: int, triplets: Triplets, backend: str, dtype=float
):
    """The backend's matrix for ``triplets``: CSC on ``sparse``, dense
    otherwise (a dense caller never imports ``scipy.sparse``)."""
    if backend == "sparse":
        return triplets_to_csc(size, triplets, dtype)
    return triplets_to_dense(size, triplets, dtype)


def add_triplets(matrix, triplets: Triplets):
    """``matrix`` (dense or CSC) plus the stamps in ``triplets``, as a new
    matrix of the same kind; ``matrix`` itself is left alone, and returned
    as is when there are no stamps.

    The dense sum adds the stamps to a copy one by one, in their order:
    a per-step handful, where ``np.add.at``'s fixed cost would exceed the
    adds.
    """
    rows, cols, vals = triplets
    if not rows:
        return matrix
    if isinstance(matrix, np.ndarray):
        out = matrix.copy()
        for row, col, value in zip(rows, cols, vals):
            out[row, col] += value
        return out
    return matrix + triplets_to_csc(matrix.shape[0], triplets)


def factorize(matrix, backend: str) -> Factorization:
    """Factorize ``matrix`` (dense array or scipy sparse) with ``backend``.

    Publishes the ``mna_{dense,sparse}_factorizations`` counter (no-op when
    observability is disabled).  Raises :class:`FactorizationError` when the
    matrix is singular or non-finite.
    """
    if backend == "sparse":
        factorization: Factorization = SparseFactorization(matrix)
    elif backend == "dense":
        # A dense caller passes an ndarray: only anything else may need
        # scipy.sparse, which a dense-only process then never imports.
        if not isinstance(matrix, np.ndarray):
            from scipy.sparse import issparse

            if issparse(matrix):
                matrix = matrix.toarray()
        factorization = DenseFactorization(np.asarray(matrix))
    else:
        raise CircuitError(
            f"factorize needs a concrete backend, got {backend!r}"
        )
    if obs.enabled():
        obs.counter(f"mna_{backend}_factorizations").inc()
    return factorization


def factorize_triplets(
    size: int, triplets: Triplets, backend: str, dtype=float
) -> Factorization:
    """Materialise + factorize a triplet-assembled matrix with ``backend``."""
    return factorize(
        triplets_to_matrix(size, triplets, backend, dtype), backend
    )


# -- factorization cache -----------------------------------------------------


class FactorizationCache:
    """A small keyed LRU of factorizations.

    The transient integrator's step matrix depends only on the diode bias
    vector (the companion conductances of C/L are fixed for a fixed ``dt``),
    so once the circuit settles, every further step re-solves the *same*
    matrix — this cache turns those re-factorizations into lookups.  It is
    the cache's only user: a DC Newton iteration or an AC frequency never
    meets its matrix twice.
    """

    def __init__(self, maxsize: int = 8) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[object, Factorization]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: object) -> Optional[Factorization]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        if obs.enabled():
            obs.counter("mna_factorization_cache_hits").inc()
        return entry

    def put(self, key: object, factorization: Factorization) -> None:
        self._entries[key] = factorization
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)

    def solve(
        self, key: object, matrix_factory, rhs: np.ndarray, backend: str
    ) -> np.ndarray:
        """Solve against the cached factorization for ``key``, factorizing
        ``matrix_factory()`` on a miss."""
        factorization = self.get(key)
        if factorization is None:
            factorization = factorize(matrix_factory(), backend)
            self.put(key, factorization)
        return factorization.solve(rhs)
