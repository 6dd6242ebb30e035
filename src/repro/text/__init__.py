"""Text processing substrate: tokenisation and similarity models.

See :mod:`repro.text.similarity` for the ranking models (Jaccard, the
paper's Eqn. 2, is the one the serving engine scores; cosine TF-IDF
serves the IR-tree) and :mod:`repro.text.tokenize` for the keyword
extraction pipeline used by the dataset builders.
"""

from repro.text.similarity import (
    JACCARD,
    CosineTfIdfSimilarity,
    JaccardSimilarity,
    TextSimilarityModel,
)
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
    "CosineTfIdfSimilarity",
    "JaccardSimilarity",
    "TextSimilarityModel",
    "DEFAULT_STOPWORDS",
    "document_frequencies",
    "keyword_set",
    "normalize_keyword",
    "tokenize",
    "vocabulary",
    "Vocabulary",
]
