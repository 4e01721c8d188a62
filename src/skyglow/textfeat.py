"""Free-text features: TF-IDF over a capped vocabulary, then truncated SVD
down to a small dense representation.

TF is the raw in-document count; IDF uses the smoothed form
ln((1+N)/(1+df)) + 1, so a term present in every document still scores
exactly 1. Rows are L2-normalized. The SVD is the randomized range-finder
scheme (oversampling 8, power iterations with re-orthonormalization),
seeded and deterministic; iterations continue past the fixed base count
until the top singular values stabilize, which brings them within 1e-6
relative of a dense decomposition.

That scheme runs only when the sketch is narrower than the matrix: with
rank + 8 >= min(shape), one dense `np.linalg.svd` of the matrix gives the
triplets instead. The sketch A Omega then has min(shape) columns (Omega
is n_cols x min(shape) and Gaussian). If n_cols <= n_rows, Omega is square
and almost surely invertible, so range(A Omega) = range(A); otherwise the
sketch's orthonormal basis has n_rows columns and spans all of R^n_rows,
which holds range(A). Either way Q Q^T A = A for the first basis Q: the power
iterations only rotate Q within that span, and the SVD of Q^T A has A's
singular values and right singular vectors. The dense decomposition gives
the same answer without the iterations (at least 11 QRs and 13 sparse
products); both answers pass the same sign rule and differ only in
rounding (on the comment matrices of the 2k-row tables, 24 and 10 tokens
wide, the singular values agree within 4.2e-15 relative). The randomized
path, taken when both dimensions exceed rank + 8, is unchanged.

Documents arrive as token lists (`tokenize`); an observation table
tokenizes its comments once, in its column view. The TF-IDF matrix is a
small compressed-sparse-row matrix (`CsrMatrix`) whose products add each
stored entry in stored order, the order of the classic CSR/CSC kernels.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from typing import Sequence

import numpy as np

from .errors import DimensionError, EmptyInputError, ParameterError
from .specs import DEFAULT_SVD_RANK, DEFAULT_VOCAB_CAP

_OVERSAMPLING = 8
_BASE_POWER_ITERATIONS = 4
_MAX_EXTRA_ITERATIONS = 40
_STABLE_RTOL = 1e-9


# Runs of two or more alphanumeric characters; [^\W_] is exactly the
# str.isalnum() class.
_TOKEN = re.compile(r"[^\W_]{2,}")


def tokenize(text: str | None) -> list[str]:
    """Lowercase, split on every non-alphanumeric run, drop 1-char tokens."""
    if text is None:
        return []
    return _TOKEN.findall(text.lower())


@dataclass(frozen=True)
class TfidfModel:
    vocabulary: tuple[str, ...]  # column order; token -> index is positional
    idf: np.ndarray
    document_count: int
    cap: int
    degenerate: bool = False

    def token_index(self) -> dict[str, int]:
        return {tok: i for i, tok in enumerate(self.vocabulary)}


def fit_tfidf(corpus: Sequence[list[str]], cap: int = DEFAULT_VOCAB_CAP) -> TfidfModel:
    """Build the vocabulary (top `cap` tokens by document frequency, ties
    lexicographic) and per-token IDF weights.

    A corpus whose documents are all empty yields a degenerate model with
    an empty vocabulary rather than an error.
    """
    if len(corpus) == 0:
        raise EmptyInputError("cannot fit TF-IDF on an empty corpus")
    if cap < 1:
        raise ParameterError(f"vocabulary cap must be >= 1, got {cap}")
    n_docs = len(corpus)
    df: dict[str, int] = {}
    for doc in corpus:
        for tok in set(doc):
            df[tok] = df.get(tok, 0) + 1
    if not df:
        return TfidfModel((), np.empty(0), n_docs, cap, degenerate=True)
    ranked = sorted(df.items(), key=lambda kv: (-kv[1], kv[0]))[:cap]
    vocabulary = tuple(tok for tok, _ in ranked)
    idf = np.array([math.log((1 + n_docs) / (1 + count)) + 1.0
                    for _, count in ranked])
    return TfidfModel(vocabulary, idf, n_docs, cap)


@dataclass(frozen=True)
class CsrMatrix:
    """A float matrix in compressed sparse row form: row i stores
    `data[indptr[i]:indptr[i + 1]]` at columns `indices[...]`.

    Every product is a sum over stored entries: the contribution of each
    entry to each output cell is added in stored order, starting from
    0.0, with one `np.bincount` over the flattened output cells. That is
    the order of the classic CSR (`A @ X`) and CSC (`A.T @ Y`) kernels, so
    products are reproducible bit for bit; a dense BLAS product is not.
    """

    indptr: np.ndarray   # (n_rows + 1,), nondecreasing, indptr[0] == 0
    indices: np.ndarray  # (nnz,) column of each stored entry
    data: np.ndarray     # (nnz,) value of each stored entry
    shape: tuple[int, int]

    # `ndarray @ CsrMatrix` defers to `__rmatmul__`
    __array_ufunc__ = None

    def _entry_rows(self) -> np.ndarray:
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape)
        np.add.at(out, (self._entry_rows(), self.indices), self.data)
        return out

    @cached_property
    def T(self) -> "CsrMatrix":
        """The transpose; a stable sort by column keeps each new row's
        entries in their old stored order. Built once per matrix: the SVD
        fit multiplies by it on every power iteration."""
        order = np.argsort(self.indices, kind="stable")
        counts = np.bincount(self.indices, minlength=self.shape[1])
        indptr = np.concatenate(([0], np.cumsum(counts)))
        return CsrMatrix(indptr, self._entry_rows()[order], self.data[order],
                         (self.shape[1], self.shape[0]))

    def __matmul__(self, other) -> np.ndarray:
        other = np.asarray(other)
        if other.ndim != 2 or other.shape[0] != self.shape[1]:
            raise DimensionError(
                f"cannot multiply a {self.shape[0]}x{self.shape[1]} matrix "
                f"by one of shape {other.shape}")
        width = other.shape[1]
        cells = self._entry_rows()[:, None] * width + np.arange(width)
        sums = np.bincount(cells.ravel(),
                           weights=(self.data[:, None] * other[self.indices]).ravel(),
                           minlength=self.shape[0] * width)
        return sums.reshape(self.shape[0], width)

    def __rmatmul__(self, other) -> np.ndarray:
        return (self.T @ np.asarray(other).T).T


def transform_tfidf(model: TfidfModel, corpus: Sequence[list[str]]) -> CsrMatrix:
    """Count x IDF per cell, each row L2-normalized (zero rows stay zero).

    Every row is weighed at once. Each row's squared norm is one numpy sum
    over its weights in column order, the order a per-row `.sum()` adds
    them in; rows of equal length share one `.sum(axis=1)`.
    """
    width = len(model.vocabulary)
    n_docs = len(corpus)
    index = model.token_index()
    terms = np.fromiter(map(index.get, chain.from_iterable(corpus), repeat(-1)),
                        dtype=np.int64)
    docs = np.repeat(np.arange(n_docs, dtype=np.int64),
                     np.fromiter(map(len, corpus), dtype=np.int64, count=n_docs))
    known = terms >= 0
    # sorted by document, then term
    keys, counts = np.unique(docs[known] * width + terms[known], return_counts=True)
    rows, indices = np.divmod(keys, width)
    weights = counts * model.idf[indices]

    lengths = np.bincount(rows, minlength=n_docs)
    indptr = np.concatenate(([0], np.cumsum(lengths)))
    squares = weights ** 2
    norms = np.zeros(n_docs)
    # the distinct positive lengths, without np.unique: its hash path
    # imports numpy.ma
    for length in np.flatnonzero(np.bincount(lengths)[1:]) + 1:
        group = np.flatnonzero(lengths == length)
        cells = indptr[group][:, None] + np.arange(length)
        norms[group] = np.sqrt(squares[cells].sum(axis=1))
    entry_norms = np.repeat(norms, lengths)
    data = weights / np.where(entry_norms > 0.0, entry_norms, 1.0)
    return CsrMatrix(indptr, indices, data, (n_docs, width))


@dataclass(frozen=True)
class SvdModel:
    rank: int
    components: np.ndarray      # (rank, n_columns), orthonormal rows
    singular_values: np.ndarray  # nonincreasing, >= 0
    seed: int


def _orthonormal_basis(block: np.ndarray) -> np.ndarray:
    q, _ = np.linalg.qr(block)
    return q


def _randomized_svd(matrix, rank: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Leading `rank` singular values and right vectors by the randomized
    range finder with oversampling 8; power iterations are
    re-orthonormalized with QR each step and continue after the fixed base
    count until the leading singular values stop moving (relative 1e-9)."""
    rng = np.random.default_rng(seed)
    omega = rng.standard_normal((matrix.shape[1], rank + _OVERSAMPLING))
    basis = _orthonormal_basis(matrix @ omega)

    def leading_values(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        u_small, values, vt = np.linalg.svd(q.T @ matrix, full_matrices=False)
        return values[:rank], vt[:rank]

    for _ in range(_BASE_POWER_ITERATIONS):
        basis = _orthonormal_basis(matrix.T @ basis)
        basis = _orthonormal_basis(matrix @ basis)

    values, components = leading_values(basis)
    for _ in range(_MAX_EXTRA_ITERATIONS):
        basis = _orthonormal_basis(matrix.T @ basis)
        basis = _orthonormal_basis(matrix @ basis)
        new_values, components = leading_values(basis)
        scale = max(float(new_values[0]), np.finfo(float).tiny)
        drift = float(np.abs(new_values - values).max()) / scale
        values = new_values
        if drift <= _STABLE_RTOL:
            break
    return values, components


def fit_truncated_svd(matrix, rank: int, seed: int) -> SvdModel:
    """Top-`rank` singular triplets of a `CsrMatrix` or an ndarray.

    When rank + 8 reaches the smaller dimension, the sketch would span the
    matrix, so one dense `np.linalg.svd` of it gives the triplets (the
    seed is then unused); otherwise the randomized range finder does
    (`_randomized_svd`). Component signs are fixed so each row's
    largest-magnitude entry is positive, making the decomposition unique
    across reruns.
    """
    n_rows, n_cols = matrix.shape
    limit = min(n_rows, n_cols)
    if not 1 <= rank <= limit:
        raise ParameterError(
            f"rank must be in [1, {limit}] for a {n_rows}x{n_cols} matrix, got {rank}")

    if rank + _OVERSAMPLING >= limit:
        dense = matrix.toarray() if isinstance(matrix, CsrMatrix) else matrix
        _, values, vt = np.linalg.svd(dense, full_matrices=False)
        values, components = values[:rank], vt[:rank]
    else:
        values, components = _randomized_svd(matrix, rank, seed)

    # sign convention: largest-|entry| coordinate of each component positive
    flip = np.sign(components[np.arange(len(components)),
                              np.abs(components).argmax(axis=1)])
    flip[flip == 0.0] = 1.0
    components = components * flip[:, None]
    return SvdModel(rank, components, values, seed)


def transform_svd(model: SvdModel, matrix) -> np.ndarray:
    """Project rows onto the fitted components: output[i, c] = row_i . comp_c."""
    if matrix.shape[1] != model.components.shape[1]:
        raise DimensionError(
            f"matrix has {matrix.shape[1]} columns, model expects "
            f"{model.components.shape[1]}")
    return matrix @ model.components.T


@dataclass(frozen=True)
class TextFeatureModel:
    """TF-IDF + SVD for one comment column; the SVD rank clamps to what the
    training corpus can support, and `svd` is None (no columns) when no
    tokens survive."""

    tfidf: TfidfModel
    svd: SvdModel | None


def fit_text_features(corpus: Sequence[list[str]],
                      cap: int = DEFAULT_VOCAB_CAP, rank: int = DEFAULT_SVD_RANK,
                      seed: int = 0) -> tuple[TextFeatureModel, np.ndarray]:
    """Fit on every document of `corpus`, one token list per document, and
    embed each of them.

    The vocabulary and IDF come from the documents; each is weighed once,
    and the SVD is fitted on that matrix. The rank clamps to the matrix,
    so the returned embedding is (len(corpus), min(rank, documents,
    vocabulary)); it is `transform_svd` of the weighed matrix, the bits
    `transform_text_features` gives for the same documents.
    """
    tfidf = fit_tfidf(corpus, cap)
    if tfidf.degenerate:
        return TextFeatureModel(tfidf, None), np.zeros((len(corpus), 0))
    weighted = transform_tfidf(tfidf, corpus)
    svd = fit_truncated_svd(weighted, min(rank, *weighted.shape), seed)
    return TextFeatureModel(tfidf, svd), transform_svd(svd, weighted)


def transform_text_features(model: TextFeatureModel,
                            corpus: Sequence[list[str]]) -> np.ndarray:
    """Embed one token list per document."""
    if model.svd is None:
        return np.zeros((len(corpus), 0))
    return transform_svd(model.svd, transform_tfidf(model.tfidf, corpus))
