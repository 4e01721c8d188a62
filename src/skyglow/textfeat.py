"""Free-text features: TF-IDF over a capped vocabulary, then randomized
truncated SVD down to a small dense representation.

TF is the raw in-document count; IDF uses the smoothed form
ln((1+N)/(1+df)) + 1, so a term present in every document still scores
exactly 1. Rows are L2-normalized. The SVD is the randomized range-finder
scheme (oversampling 8, power iterations with re-orthonormalization),
seeded and deterministic; iterations continue past the fixed base count
until the top singular values stabilize, which brings them within 1e-6
relative of a dense decomposition.

Documents arrive as token lists (`tokenize`); an observation table
tokenizes its comments once, in its column view. The TF-IDF matrix is a
small compressed-sparse-row matrix (`CsrMatrix`) whose products add each
stored entry in stored order, the order of the classic CSR/CSC kernels.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import chain, compress, repeat
from typing import Sequence

import numpy as np

from .errors import DimensionError, EmptyInputError, ParameterError
from .specs import DEFAULT_SVD_RANK, DEFAULT_VOCAB_CAP

_BASE_POWER_ITERATIONS = 4
_MAX_EXTRA_ITERATIONS = 40
_STABLE_RTOL = 1e-9


def tokenize(text: str | None) -> list[str]:
    """Lowercase, split on every non-alphanumeric run, drop 1-char tokens."""
    if text is None:
        return []
    # [^\W_] is exactly the str.isalnum() class
    return [t for t in re.findall(r"[^\W_]+", text.lower()) if len(t) >= 2]


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

    def __getitem__(self, rows) -> "CsrMatrix":
        """The given rows, in the given order (an integer index array)."""
        rows = np.asarray(rows, dtype=np.int64)
        starts = self.indptr[rows]
        lengths = self.indptr[rows + 1] - starts
        indptr = np.concatenate(([0], np.cumsum(lengths)))
        take = np.repeat(starts - indptr[:-1], lengths) + np.arange(indptr[-1])
        return CsrMatrix(indptr, self.indices[take], self.data[take],
                         (len(rows), self.shape[1]))

    @property
    def T(self) -> "CsrMatrix":
        """The transpose; a stable sort by column keeps each new row's
        entries in their old stored order."""
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
    for length in np.unique(lengths[lengths > 0]):
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


def fit_truncated_svd(matrix, rank: int, seed: int) -> SvdModel:
    """Top-`rank` singular triplets of a `CsrMatrix` or an ndarray.

    Randomized range finder with oversampling 8; power iterations are
    re-orthonormalized with QR each step and continue after the fixed base
    count until the leading singular values stop moving (relative 1e-9).
    Component signs are fixed so each row's largest-magnitude entry is
    positive, making the decomposition unique across reruns.
    """
    n_rows, n_cols = matrix.shape
    limit = min(n_rows, n_cols)
    if not 1 <= rank <= limit:
        raise ParameterError(
            f"rank must be in [1, {limit}] for a {n_rows}x{n_cols} matrix, got {rank}")

    sketch = min(rank + 8, limit)
    rng = np.random.default_rng(seed)
    omega = rng.standard_normal((n_cols, sketch))
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


def fit_text_features(corpus: Sequence[list[str]], train_mask: np.ndarray,
                      cap: int = DEFAULT_VOCAB_CAP, rank: int = DEFAULT_SVD_RANK,
                      seed: int = 0) -> tuple[TextFeatureModel, np.ndarray]:
    """Fit on the `train_mask` documents of `corpus`, one token list per
    document, and embed every document of it.

    The vocabulary and IDF come from the training documents; every
    document is weighed once, and the SVD is fitted on the training rows of
    that matrix. Returns the model and the (len(corpus), rank) embedding.
    """
    train_mask = np.asarray(train_mask, dtype=bool)
    if train_mask.shape != (len(corpus),):
        raise ParameterError(f"train mask must have shape ({len(corpus)},)")
    tfidf = fit_tfidf(list(compress(corpus, train_mask)), cap)
    if tfidf.degenerate:
        return TextFeatureModel(tfidf, None), np.zeros((len(corpus), 0))
    weighted = transform_tfidf(tfidf, corpus)
    train_rows = weighted[np.flatnonzero(train_mask)]
    effective = min(rank, train_rows.shape[0], train_rows.shape[1])
    if effective < 1:
        return TextFeatureModel(tfidf, None), np.zeros((len(corpus), 0))
    svd = fit_truncated_svd(train_rows, effective, seed)
    return TextFeatureModel(tfidf, svd), transform_svd(svd, weighted)


def transform_text_features(model: TextFeatureModel,
                            corpus: Sequence[list[str]]) -> np.ndarray:
    """Embed one token list per document."""
    if model.svd is None:
        return np.zeros((len(corpus), 0))
    return transform_svd(model.svd, transform_tfidf(model.tfidf, corpus))
