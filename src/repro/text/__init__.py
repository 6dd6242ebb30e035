"""Text processing substrate: tokenisation and similarity models.

See :mod:`repro.text.similarity` for the ranking model (Jaccard, the
paper's Eqn. 2) and :mod:`repro.text.tokenize` for the keyword
extraction pipeline used by the dataset builders.
"""

from repro.text.similarity import JACCARD, JaccardSimilarity
from repro.text.tokenize import (
    DEFAULT_STOPWORDS,
    document_frequencies,
    keyword_set,
    normalize_keyword,
    tokenize,
    vocabulary,
)
from repro.text.vocabulary import Vocabulary

__all__ = [
    "JACCARD",
    "JaccardSimilarity",
    "DEFAULT_STOPWORDS",
    "document_frequencies",
    "keyword_set",
    "normalize_keyword",
    "tokenize",
    "vocabulary",
    "Vocabulary",
]
