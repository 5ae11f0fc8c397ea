"""Affective profiling of Spanish sonnets from merged lexical norms.

The package merges word-level norm lexicons onto a common scale,
normalizes sonnet text (tokenization, stopword removal, stemming or
lemmatization), computes a 32-value affective feature vector per
sonnet, and validates the features against expert annotations with
agreement, correlation, regression, and ANOVA reports.

``__all__`` is every name imported below; the submodules those imports
bind are not in it.
"""

from types import ModuleType as _ModuleType

from .agreement import (
    AGREEMENT_THRESHOLD,
    AgreementError,
    AlphaResult,
    agreement_band,
    agreement_report,
    krippendorff_alpha,
)
from .corpus import (
    ANNOTATED_FEATURES,
    MEDIAN_ANNOTATOR_ID,
    ORDINAL_FEATURES,
    PSYCHOLOGICAL_TAGS,
    AnnotationFormatError,
    AnnotationSet,
    Corpus,
    CorpusFormatError,
    Sonnet,
    build_median_annotator,
    categories,
    corpus_statistics,
    fill_missing_psych,
    load_annotation_set,
    load_corpus,
    reverse_ordinal_scale,
)
from .features import FEATURE_INDEX, FEATURE_NAMES, FeatureMatrix, compute_corpus_matrix
from .lexicon import (
    CANONICAL_SCALES,
    LexiconFormatError,
    MergedLexicon,
    SourceLexicon,
    coverage_report,
    load_lexicon,
    merge_lexicons,
    missing_word_report,
    rescale_value,
    word_count_report,
)
from .pipeline import Session
from .stats import (
    AnovaResult,
    CorrelationResult,
    RegressionResult,
    correlation_band,
    min_sample_size,
    one_way_anova,
    regularized_incomplete_beta,
    spearman,
    t_tail,
    two_sample_power,
)
from .textnorm import (
    MODES,
    InputError,
    NormalizationConfig,
    TokenTable,
    default_stopwords,
    load_lemma_table,
    load_stopwords,
    normalize,
    tokenize,
)
from .validation import (
    FEATURE_PAIRINGS,
    SIGNIFICANCE_LEVEL,
    anova_report,
    bivariate_report,
    partial_dependence_report,
)

__version__ = "0.1.0"

__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
