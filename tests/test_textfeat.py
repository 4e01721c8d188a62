import numpy as np
import pytest

from skyglow.errors import DimensionError, ParameterError
from skyglow.textfeat import (
    fit_text_features,
    fit_tfidf,
    fit_truncated_svd,
    tokenize,
    transform_svd,
    transform_text_features,
    transform_tfidf,
)

from oracles import dense_svd, tfidf_oracle, tokenize_oracle


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
    m1 = fit_text_features(texts, cap=50, rank=3, seed=2)
    m2 = fit_text_features(texts, cap=50, rank=3, seed=2)
    a = transform_text_features(m1, texts)
    b = transform_text_features(m2, texts)
    assert np.array_equal(a, b)
    assert a.shape == (6, 3)
    assert np.isfinite(a).all()


def test_text_features_rank_clipped_to_matrix():
    texts = ["dark sky", "dark"]
    model = fit_text_features(texts, cap=50, rank=32, seed=0)
    emb = transform_text_features(model, texts)
    assert emb.shape[1] == model.rank <= 2


def test_text_features_all_missing_yields_no_columns():
    model = fit_text_features([None, None, ""], cap=10, rank=4, seed=0)
    emb = transform_text_features(model, [None, "new text", ""])
    assert emb.shape == (3, 0)
