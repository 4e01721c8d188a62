from functools import cached_property

import numpy as np
import pytest

from skyglow.errors import DimensionError, ParameterError
from skyglow.textfeat import (
    CsrMatrix,
    fit_text_features,
    fit_tfidf,
    fit_truncated_svd,
    tokenize,
    transform_svd,
    transform_text_features,
    transform_tfidf,
)

from oracles import (
    csr_products_oracle,
    dense_svd,
    tfidf_oracle,
    tokenize_oracle,
    transform_tfidf_oracle,
)


def test_tokenize_basics():
    assert tokenize("No moon, very dark!") == ["no", "moon", "very", "dark"]
    assert tokenize("a I x2 3mm") == ["x2", "3mm"]  # single chars dropped
    assert tokenize("") == []
    assert tokenize(None) == []
    assert tokenize("comma,separated\twords") == ["comma", "separated", "words"]


# underscore, digits, a combining acute, Turkish dotted I (lowercases to two
# code points), German sharp s, Greek final sigma, fullwidth digit, CJK,
# superscript two (alphanumeric), non-breaking space and punctuation
TOKEN_ALPHABET = "aZ_09\u0301\u0130\u00df\u03a3\u03c2\uff11\u6771\u00b2\u00a0 .,-'"


def test_tokenize_matches_character_loop_oracle():
    rng = np.random.default_rng(7)
    text = "snake_case İstanbul Ａ1"
    assert tokenize(text) == tokenize_oracle(text) == ["snake", "case",
                                                        "stanbul", "ａ1"]
    for _ in range(2000):
        length = int(rng.integers(0, 24))
        picks = rng.integers(0, len(TOKEN_ALPHABET), size=length)
        text = "".join(TOKEN_ALPHABET[i] for i in picks)
        assert tokenize(text) == tokenize_oracle(text), repr(text)
    for _ in range(500):
        text = "".join(chr(int(c)) for c in rng.integers(0, 0x3000, size=16))
        assert tokenize(text) == tokenize_oracle(text), repr(text)


def test_tfidf_matches_hand_oracle():
    docs = ["dark sky tonight", "cloudy sky", "dark dark night", ""]
    corpus = [tokenize(d) for d in docs]
    model = fit_tfidf(corpus)
    ours = transform_tfidf(model, corpus).toarray()
    vocab, expected = tfidf_oracle(docs, tokenize)
    assert list(model.vocabulary) == sorted(vocab,
                                            key=lambda t: (-_df(corpus, t), t))
    # compare column-by-column through the vocab mapping
    for j, tok in enumerate(model.vocabulary):
        ref = expected[:, vocab.index(tok)]
        assert np.allclose(ours[:, j], ref, atol=1e-12), tok
    # empty document rows stay exactly zero
    assert (ours[3] == 0).all()


def _df(corpus, token):
    return sum(1 for toks in corpus if token in toks)


def test_tfidf_rows_are_unit_norm():
    corpus = [tokenize(t) for t in ["clear dark sky", "sky sky sky", "hazy"]]
    model = fit_tfidf(corpus)
    X = transform_tfidf(model, corpus).toarray()
    norms = np.sqrt((X ** 2).sum(axis=1))
    assert np.allclose(norms, 1.0)


def test_tfidf_vocab_cap_prefers_high_df_then_lexicographic():
    corpus = [["aa", "bb", "cc"], ["aa", "bb"], ["aa", "dd"]]
    model = fit_tfidf(corpus, cap=2)
    assert list(model.vocabulary) == ["aa", "bb"]
    capped = fit_tfidf([["zz", "aa"], ["zz", "aa"]], cap=1)
    # df tie between zz and aa -> lexicographically first
    assert list(capped.vocabulary) == ["aa"]


def test_tfidf_unseen_tokens_ignored_at_transform():
    model = fit_tfidf([["dark", "sky"]])
    X = transform_tfidf(model, [["dark", "meteor"]]).toarray()
    assert X.shape == (1, 2)
    assert X[0, list(model.vocabulary).index("dark")] > 0


def test_tfidf_degenerate_empty_corpus():
    model = fit_tfidf([[], []])
    assert model.degenerate
    assert transform_tfidf(model, [[], []]).shape == (2, 0)


def test_tfidf_weights_bit_equal_to_per_document_loop():
    """Rows with 1, 7, 8, 9 and 40+ distinct terms sit on both sides of the
    8-element blocks of numpy's pairwise summation, which a row's norm
    must follow; empty, repeated and out-of-vocabulary tokens ride along."""
    rng = np.random.default_rng(29)
    words = [f"t{i:03d}" for i in range(300)]

    def document(distinct):
        terms = rng.choice(len(words), size=distinct, replace=False)
        repeats = rng.integers(1, 4, size=distinct)
        doc = [words[j] for j, r in zip(terms, repeats) for _ in range(r)]
        doc += ["oov"] * int(rng.integers(0, 3))
        return [doc[k] for k in rng.permutation(len(doc))]

    sizes = [0, 1, 7, 8, 9, 15, 16, 17, 40, 41, 64, 127, 128, 129, 200, 300]
    corpus = [document(size) for size in sizes for _ in range(3)]
    corpus += [[], ["oov", "oov"], ["t000"] * 9]
    for cap in (len(words), 100, 7, 1):
        model = fit_tfidf(corpus[::2], cap=cap)
        assert len(model.vocabulary) == min(cap, len(words))
        for docs in (corpus, corpus[::-1], [], [[]], [["oov"]]):
            got = transform_tfidf(model, docs)
            indptr, indices, data = transform_tfidf_oracle(model, docs)
            assert got.shape == (len(docs), len(model.vocabulary))
            assert got.indptr.dtype == got.indices.dtype == np.int64
            assert np.array_equal(got.indptr, indptr)
            assert np.array_equal(got.indices, indices)
            assert got.data.tobytes() == data.tobytes()


def csr_cases():
    """TF-IDF matrices with empty rows, an all-empty one and an (n, 0) one."""
    rng = np.random.default_rng(17)
    words = [f"w{i}" for i in range(40)]
    corpus = [[words[j] for j in rng.integers(0, 40, size=int(rng.integers(0, 9)))]
              for _ in range(50)]
    model = fit_tfidf(corpus)
    yield transform_tfidf(model, corpus)
    yield transform_tfidf(model, [[], ["unseen"], []])
    yield transform_tfidf(fit_tfidf([[], []]), [[], [], []])


def test_csr_products_match_stored_order_loop():
    rng = np.random.default_rng(3)
    for matrix in csr_cases():
        n_rows, n_cols = matrix.shape
        x = rng.normal(size=(n_cols, 5))
        y = rng.normal(size=(n_rows, 4))
        dense, ax, aty = csr_products_oracle(matrix.indptr, matrix.indices,
                                             matrix.data, matrix.shape, x, y)
        assert np.array_equal(matrix.toarray(), dense)
        assert np.array_equal(matrix @ x, ax)
        assert np.array_equal(matrix.T @ y, aty)
        assert np.array_equal(y.T @ matrix, aty.T)


def test_csr_product_shape_check():
    matrix = CsrMatrix(np.array([0, 1]), np.array([1]), np.array([2.0]), (1, 3))
    with pytest.raises(DimensionError):
        matrix @ np.ones((2, 2))


def test_svd_singular_values_match_dense_oracle():
    rng = np.random.default_rng(5)
    A = rng.normal(size=(30, 12))
    model = fit_truncated_svd(A, rank=5, seed=0)
    s_ref, _ = dense_svd(A, 5)
    assert np.allclose(model.singular_values, s_ref, rtol=1e-9, atol=0)


def test_svd_reconstruction_error_nonincreasing_in_rank():
    rng = np.random.default_rng(7)
    A = rng.normal(size=(25, 10))
    errors = []
    for r in range(1, 9):
        model = fit_truncated_svd(A, rank=r, seed=0)
        emb = transform_svd(model, A)
        recon = emb @ model.components
        errors.append(float(((A - recon) ** 2).sum()))
    assert all(b <= a + 1e-9 for a, b in zip(errors, errors[1:]))


def test_svd_deterministic_and_sign_fixed():
    rng = np.random.default_rng(9)
    A = rng.normal(size=(20, 8))
    m1 = fit_truncated_svd(A, rank=3, seed=4)
    m2 = fit_truncated_svd(A, rank=3, seed=4)
    assert np.array_equal(m1.components, m2.components)
    # each component's largest-magnitude entry is positive
    for row in m1.components:
        assert row[np.argmax(np.abs(row))] > 0


def test_svd_fit_builds_one_transpose_with_the_same_bits(monkeypatch):
    # every power iteration and every projection multiplies by the
    # transpose; the fit builds it once, and the products keep their bits
    matrix = next(csr_cases())
    transpose = CsrMatrix.T.func
    built = []

    def counted(self):
        built.append(self.shape)
        return transpose(self)

    def fresh_fit():
        built.clear()
        return fit_truncated_svd(CsrMatrix(matrix.indptr, matrix.indices,
                                           matrix.data, matrix.shape),
                                 rank=3, seed=2)

    monkeypatch.setattr(CsrMatrix, "T", property(counted))
    rebuilt = fresh_fit()
    assert len(built) > 2
    cached = cached_property(counted)
    cached.__set_name__(CsrMatrix, "T")
    monkeypatch.setattr(CsrMatrix, "T", cached)
    once = fresh_fit()
    assert built == [matrix.shape]
    assert once.components.tobytes() == rebuilt.components.tobytes()
    assert once.singular_values.tobytes() == rebuilt.singular_values.tobytes()


def _sign_fixed(components):
    """Each row negated when its largest-magnitude entry is negative."""
    rows = [-row if row[np.argmax(np.abs(row))] < 0 else row for row in components]
    return np.array(rows).reshape(components.shape)


def test_spanned_svd_is_one_dense_decomposition(monkeypatch):
    """When rank + 8 reaches the smaller dimension the sketch would span
    the matrix: the fit is np.linalg.svd's leading triplets after the sign
    rule, bit for bit, and no transpose is built."""
    transpose = CsrMatrix.T.func
    built = []

    def counted(self):
        built.append(self.shape)
        return transpose(self)

    monkeypatch.setattr(CsrMatrix, "T", property(counted))
    rng = np.random.default_rng(11)
    words = [f"w{i}" for i in range(24)]
    corpus = [[words[j] for j in rng.integers(0, 24, size=int(rng.integers(0, 6)))]
              for _ in range(200)]
    tall = transform_tfidf(fit_tfidf(corpus), corpus)
    wide = transform_tfidf(fit_tfidf(corpus), corpus[:12])
    cases = [(tall, rank) for rank in (16, 23, 24)]
    cases += [(wide, rank) for rank in (4, 12)]
    cases += [(rng.normal(size=(30, 12)), 5), (rng.normal(size=(9, 40)), 9)]
    for matrix, rank in cases:
        assert rank + 8 >= min(matrix.shape)
        model = fit_truncated_svd(matrix, rank, seed=3)
        dense = matrix.toarray() if isinstance(matrix, CsrMatrix) else matrix
        _, values, vt = np.linalg.svd(dense, full_matrices=False)
        assert model.singular_values.tobytes() == values[:rank].tobytes()
        assert model.components.tobytes() == _sign_fixed(vt[:rank]).tobytes()
    assert built == []


def test_unspanned_svd_matches_dense_oracle():
    """Shapes whose smaller dimension exceeds rank + 8 take the randomized
    range finder; its top singular values stay within 1e-6 relative."""
    rng = np.random.default_rng(23)
    matrices = [next(csr_cases())]
    matrices += [rng.normal(size=(int(rng.integers(20, 90)), int(rng.integers(20, 60))))
                 for _ in range(24)]
    for i, matrix in enumerate(matrices):
        for rank in (1, 3, min(matrix.shape) - 9):
            model = fit_truncated_svd(matrix, rank, seed=i)
            dense = matrix.toarray() if isinstance(matrix, CsrMatrix) else matrix
            s_ref, _ = dense_svd(dense, rank)
            worst = np.max(np.abs(model.singular_values - s_ref) / s_ref)
            assert worst <= 1e-6, (i, matrix.shape, rank, worst)


def test_svd_rank_validation():
    A = np.eye(4)
    with pytest.raises(ParameterError):
        fit_truncated_svd(A, rank=0, seed=0)
    with pytest.raises(ParameterError):
        fit_truncated_svd(A, rank=5, seed=0)


def test_svd_transform_dimension_check():
    A = np.random.default_rng(0).normal(size=(10, 6))
    model = fit_truncated_svd(A, rank=2, seed=0)
    with pytest.raises(DimensionError):
        transform_svd(model, np.zeros((3, 7)))


def test_text_features_end_to_end_deterministic():
    texts = ["very dark sky", None, "clouds rolling in", "dark night",
             "sky watchers meeting", None]
    corpus = [tokenize(t) for t in texts]
    m1, block = fit_text_features(corpus, cap=50, rank=3, seed=2)
    m2, _ = fit_text_features(corpus, cap=50, rank=3, seed=2)
    a = transform_text_features(m1, corpus)
    b = transform_text_features(m2, corpus)
    assert np.array_equal(a, b)
    assert np.array_equal(block, a)
    assert a.shape == (6, 3)
    assert np.isfinite(a).all()


def test_text_features_rank_clipped_to_matrix():
    corpus = [tokenize(t) for t in ["dark sky", "dark"]]
    model, _ = fit_text_features(corpus, cap=50, rank=32, seed=0)
    emb = transform_text_features(model, corpus)
    assert emb.shape[1] == model.svd.rank <= 2


def test_text_features_all_missing_yields_no_columns():
    model, block = fit_text_features([tokenize(t) for t in [None, None, ""]],
                                     cap=10, rank=4, seed=0)
    assert block.shape == (3, 0)
    emb = transform_text_features(model, [tokenize(t) for t in
                                          [None, "new text", ""]])
    assert emb.shape == (3, 0)
