"""Unit tests for :mod:`repro.text.similarity` — Eqn. (2) and friends."""

import pytest

from repro.text.similarity import JACCARD, JaccardSimilarity

A = frozenset({"a"})
AB = frozenset({"a", "b"})
ABC = frozenset({"a", "b", "c"})
XY = frozenset({"x", "y"})
EMPTY = frozenset()


class TestJaccard:
    def test_eqn2_values(self):
        model = JaccardSimilarity()
        assert model.similarity(AB, AB) == 1.0
        assert model.similarity(AB, ABC) == pytest.approx(2 / 3)
        assert model.similarity(A, ABC) == pytest.approx(1 / 3)
        assert model.similarity(AB, XY) == 0.0

    def test_empty_cases(self):
        model = JaccardSimilarity()
        assert model.similarity(EMPTY, EMPTY) == 0.0
        assert model.similarity(EMPTY, AB) == 0.0
        assert model.similarity(AB, EMPTY) == 0.0

    def test_symmetry(self):
        model = JaccardSimilarity()
        assert model.similarity(AB, ABC) == model.similarity(ABC, AB)

    def test_module_singleton(self):
        assert isinstance(JACCARD, JaccardSimilarity)

    def test_bounds_bracket_exact_value(self):
        model = JaccardSimilarity()
        # Node with intersection {a}, union {a,b,c}: any doc between them.
        docs = [A, AB, frozenset({"a", "c"}), ABC]
        for query in (A, AB, ABC, XY, frozenset({"b", "x"})):
            upper = model.upper_bound(A, ABC, query)
            lower = model.lower_bound(A, ABC, query)
            assert lower <= upper
            for doc in docs:
                value = model.similarity(doc, query)
                assert lower - 1e-12 <= value <= upper + 1e-12

    def test_bounds_exact_for_leaf_singleton(self):
        model = JaccardSimilarity()
        # intersection == union == the single doc: bounds collapse.
        assert model.upper_bound(AB, AB, ABC) == model.lower_bound(AB, AB, ABC)
        assert model.upper_bound(AB, AB, ABC) == model.similarity(AB, ABC)

    def test_length_limits_tighten_and_still_bracket(self):
        model = JaccardSimilarity()
        # Docs between {a} and {a,b,c} of exactly two keywords.
        docs = [AB, frozenset({"a", "c"})]
        for query in (A, AB, ABC, frozenset({"a", "x"}), frozenset({"c"})):
            loose = (
                model.lower_bound(A, ABC, query),
                model.upper_bound(A, ABC, query),
            )
            lower = model.lower_bound(A, ABC, query, max_doc_len=2)
            upper = model.upper_bound(A, ABC, query, min_doc_len=2)
            assert loose[0] <= lower <= upper <= loose[1]
            for doc in docs:
                assert lower <= model.similarity(doc, query) <= upper

    def test_jaccard_is_the_one_model(self):
        import repro.text.similarity as module

        assert sorted(module.__all__) == ["JACCARD", "JaccardSimilarity"]
        assert isinstance(JACCARD, JaccardSimilarity)
