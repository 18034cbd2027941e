"""Unit tests for text analysis."""

from hypothesis import given
from hypothesis import strategies as st

from repro.search.tokenizer import STOPWORDS, tokenize


class TestTokenize:
    def test_lowercases(self):
        assert tokenize("CIFAR Model") == ["cifar", "model"]

    def test_drops_stopwords(self):
        assert tokenize("the model of science") == ["model", "science"]

    def test_keeps_hyphenated_and_splits(self):
        tokens = tokenize("cifar-10 classifier")
        assert "cifar-10" in tokens
        assert "cifar" in tokens and "10" in tokens

    def test_underscores(self):
        tokens = tokenize("matminer_model")
        assert "matminer_model" in tokens
        assert "matminer" in tokens and "model" in tokens

    def test_empty_and_punctuation(self):
        assert tokenize("") == []
        assert tokenize("!!! ???") == []

    def test_numbers_survive(self):
        assert "2019" in tokenize("published 2019")

    @given(st.text(max_size=100))
    def test_never_raises_property(self, text):
        tokens = tokenize(text)
        assert all(t == t.lower() for t in tokens)
        assert all(t not in STOPWORDS for t in tokens)
