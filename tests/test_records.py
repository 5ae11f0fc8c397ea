"""The package's record types: named tuples for results, slotted classes for array holders."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import versemood
from versemood.corpus import ANNOTATED_FEATURES, AnnotationSet, Corpus, Sonnet
from versemood.features import FEATURE_NAMES, FeatureMatrix
from versemood.lexicon import DIMENSIONS, SourceLexicon
from versemood.stats import AnovaResult, CorrelationResult, RegressionResult
from versemood.textnorm import NormalizationConfig, default_stopwords

# Each result type's fields, in the order its constructor takes them positionally.
RESULT_FIELDS = {
    CorrelationResult: ("rho", "n", "band", "undefined_reason"),
    RegressionResult: (
        "coefficients", "intercept", "std_errors", "intercept_std_error", "t_values",
        "intercept_t_value", "r_squared", "adjusted_r_squared", "n", "k",
    ),
    AnovaResult: (
        "f_statistic", "p_value", "df_between", "df_within", "group_means", "group_sizes",
        "degenerate",
    ),
}


@pytest.mark.parametrize("module", ["dataclasses", "logging", "numpy.polynomial"])
def test_importing_the_command_line_loads_no_dataclasses(module):
    src = str(Path(versemood.__file__).parent.parent)
    script = (
        "import sys; sys.path.insert(0, sys.argv[1]); import versemood.cli; "
        "print(sys.argv[2] in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-c", script, src, module], capture_output=True, text=True, timeout=60
    )
    assert done.stdout.split() == ["False"], done.stderr


@pytest.mark.parametrize("result_type", list(RESULT_FIELDS), ids=lambda t: t.__name__)
def test_result_types_are_named_tuples_with_the_same_fields(result_type):
    assert issubclass(result_type, tuple)
    assert result_type._fields == RESULT_FIELDS[result_type]


def test_result_types_build_from_keywords_with_the_same_defaults():
    corr = CorrelationResult(rho=0.5, n=12, band="Moderate")
    assert (corr.rho, corr.n, corr.band, corr.undefined_reason) == (0.5, 12, "Moderate", None)
    anova = AnovaResult(
        f_statistic=2.0, p_value=0.2, df_between=1, df_within=10,
        group_means=(1.0, 2.0), group_sizes=(5, 7),
    )
    assert anova.degenerate is None and anova.group_sizes == (5, 7)
    fit = RegressionResult(
        coefficients=(2.0, 0.0), intercept=1.0, std_errors=(0.5, 0.0), intercept_std_error=0.0,
        t_values=(4.0, 0.0), intercept_t_value=np.inf, r_squared=0.9, adjusted_r_squared=0.8,
        n=10, k=2,
    )
    assert fit.dof == 7
    assert fit.p_values == (fit.p_value(0), 1.0) and 0.0 < fit.p_value(0) < 0.01
    assert fit.intercept_p_value == 0.0
    assert fit._replace(k=1).dof == 8


def test_array_holders_build_from_keywords_and_compare_by_identity():
    ids, values = ("s1", "s2"), np.ones((2, len(ANNOTATED_FEATURES)))
    planes = np.zeros((1, len(DIMENSIONS)))
    keywords = {
        AnnotationSet: {"annotator_id": 1, "sonnet_ids": ids, "values": values},
        FeatureMatrix: {
            "sonnet_ids": ids, "values": np.zeros((2, len(FEATURE_NAMES))), "reasons": {}
        },
        SourceLexicon: {
            "source_id": "a", "scales": {"valence": (1.0, 9.0)}, "entries": ("amor",),
            "mean": planes, "sd": planes,
        },
    }
    for record_type, given in keywords.items():
        record = record_type(**given)
        for name, value in given.items():
            assert getattr(record, name) is value, (record_type.__name__, name)
        assert not hasattr(record, "__dict__")
        assert record == record and record != record_type(**given)
    assert len(SourceLexicon(**keywords[SourceLexicon])) == 1


def test_corpus_holds_its_sonnets_and_their_ids():
    sonnets = tuple(Sonnet(sid, "A", "1600", "T", None) for sid in ("s2", "s1"))
    corpus = Corpus(sonnets=sonnets)
    assert corpus.sonnets is sonnets and corpus.sonnet_ids == ("s2", "s1")
    assert len(corpus) == 2
    assert corpus != Corpus(sonnets=sonnets)


def test_normalization_config_defaults_and_keywords():
    config = NormalizationConfig()
    assert (config.mode, config.lemma_table) == ("stem", None)
    assert config.stopwords is default_stopwords()
    table = {"llamas": "llama"}
    lemma = NormalizationConfig(mode="lemma", stopwords=frozenset(), lemma_table=table)
    assert (lemma.mode, lemma.stopwords, lemma.lemma_table) == ("lemma", frozenset(), table)
    assert lemma.key("llamas") == "llama" and lemma.key("fuego") == "fuego"


def test_record_checks_keep_their_messages():
    ids = ("s1", "s2")
    shape = r"values must be 2 x 31 \(sonnets x features\), got \(2, 3\)"
    with pytest.raises(ValueError, match=shape):
        AnnotationSet(annotator_id=1, sonnet_ids=ids, values=np.ones((2, 3)))
    with pytest.raises(ValueError, match="unknown mode 'porter'; expected one of"):
        NormalizationConfig(mode="porter")
    with pytest.raises(ValueError, match="lemma mode requires a non-empty lemma table"):
        NormalizationConfig(mode="lemma", lemma_table={})
