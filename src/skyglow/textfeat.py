"""Free-text features: TF-IDF over a capped vocabulary, then randomized
truncated SVD down to a small dense representation.

TF is the raw in-document count; IDF uses the smoothed form
ln((1+N)/(1+df)) + 1, so a term present in every document still scores
exactly 1. Rows are L2-normalized. The SVD is the randomized range-finder
scheme (oversampling 8, power iterations with re-orthonormalization),
seeded and deterministic; iterations continue past the fixed base count
until the top singular values stabilize, which brings them within 1e-6
relative of a dense decomposition.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DimensionError, EmptyInputError, ParameterError

DEFAULT_VOCAB_CAP = 20000
DEFAULT_SVD_RANK = 32

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


def fit_tfidf(corpus: list[list[str]], cap: int = DEFAULT_VOCAB_CAP) -> TfidfModel:
    """Build the vocabulary (top `cap` tokens by document frequency, ties
    lexicographic) and per-token IDF weights.

    A corpus whose documents are all empty yields a degenerate model with
    an empty vocabulary rather than an error.
    """
    if not corpus:
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


def transform_tfidf(model: TfidfModel, corpus: list[list[str]]) -> sp.csr_matrix:
    """Count x IDF per cell, each row L2-normalized (zero rows stay zero)."""
    index = model.token_index()
    data: list[float] = []
    indices: list[int] = []
    indptr = [0]
    for doc in corpus:
        counts: dict[int, int] = {}
        for tok in doc:
            j = index.get(tok)
            if j is not None:
                counts[j] = counts.get(j, 0) + 1
        row = sorted(counts.items())
        weights = np.array([c * model.idf[j] for j, c in row])
        norm = math.sqrt(float((weights ** 2).sum())) if len(row) else 0.0
        if norm > 0.0:
            weights = weights / norm
        data.extend(weights.tolist())
        indices.extend(j for j, _ in row)
        indptr.append(len(indices))
    return sp.csr_matrix(
        (np.array(data), np.array(indices, dtype=np.int32), np.array(indptr, dtype=np.int32)),
        shape=(len(corpus), len(model.vocabulary)))


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
    """Top-`rank` singular triplets of a (sparse or dense) matrix.

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
        small = q.T @ matrix
        if sp.issparse(small):
            small = small.toarray()
        u_small, values, vt = np.linalg.svd(np.asarray(small), full_matrices=False)
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
    projected = matrix @ model.components.T
    if sp.issparse(projected):
        projected = projected.toarray()
    return np.asarray(projected)


@dataclass(frozen=True)
class TextFeatureModel:
    """TF-IDF + SVD for one comment column; rank clamps to what the
    training corpus can support and drops to 0 when no tokens survive."""

    tfidf: TfidfModel
    svd: SvdModel | None

    @property
    def rank(self) -> int:
        return self.svd.rank if self.svd is not None else 0


def fit_text_features(texts: list[str | None], cap: int = DEFAULT_VOCAB_CAP,
                      rank: int = DEFAULT_SVD_RANK, seed: int = 0) -> TextFeatureModel:
    corpus = [tokenize(t) for t in texts]
    tfidf = fit_tfidf(corpus, cap)
    if tfidf.degenerate:
        return TextFeatureModel(tfidf, None)
    weighted = transform_tfidf(tfidf, corpus)
    effective = min(rank, weighted.shape[0], weighted.shape[1])
    if effective < 1:
        return TextFeatureModel(tfidf, None)
    return TextFeatureModel(tfidf, fit_truncated_svd(weighted, effective, seed))


def transform_text_features(model: TextFeatureModel,
                            texts: list[str | None]) -> np.ndarray:
    if model.svd is None:
        return np.zeros((len(texts), 0))
    corpus = [tokenize(t) for t in texts]
    return transform_svd(model.svd, transform_tfidf(model.tfidf, corpus))
