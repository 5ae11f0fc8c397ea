"""Lexicon loading, rescaling, merging, and coverage accounting."""

import csv
import json
import statistics

import numpy as np
import pytest

from versemood.corpus import Corpus, Sonnet
from versemood.lexicon import (
    CANONICAL_SCALES,
    LexiconFormatError,
    SourceLexicon,
    coverage_report,
    load_lexicon,
    merge_lexicons,
    missing_word_report,
    rescale_value,
    word_count_report,
)
from versemood.textnorm import NormalizationConfig, normalize

RAW = NormalizationConfig(mode="raw", stopwords=frozenset())
STEMMED = NormalizationConfig(mode="stem", stopwords=frozenset())


def keys_of(corp, config):
    """Each sonnet's normalized keys, as a pipeline session holds them."""
    return {
        s.sonnet_id: tuple(normalize(s.text, config))
        for s in corp.sonnets
    }


def source(source_id, entries, scales=None):
    base = {dim: CANONICAL_SCALES[dim] for dim in CANONICAL_SCALES}
    if scales:
        base.update(scales)
    return SourceLexicon(source_id=source_id, scales=base, entries=entries)


# ---------------------------------------------------------------------------
# rescaling


def test_rescale_endpoints_and_midpoint():
    assert rescale_value(1.0, (1, 5), (1, 9)) == pytest.approx(1.0)
    assert rescale_value(5.0, (1, 5), (1, 9)) == pytest.approx(9.0)
    assert rescale_value(3.0, (1, 5), (1, 9)) == pytest.approx(5.0)


def test_rescale_identity_on_same_scale():
    assert rescale_value(4.2, (1, 7), (1, 7)) == 4.2


def test_rescale_preserves_order():
    rng = np.random.default_rng(70)
    for _ in range(100):
        a, b = sorted(rng.uniform(1, 7, size=2))
        assert rescale_value(a, (1, 7), (1, 9)) <= rescale_value(b, (1, 7), (1, 9))


def test_rescale_commutes_with_median():
    rng = np.random.default_rng(71)
    for _ in range(200):
        values = rng.uniform(1, 5, size=int(rng.integers(2, 8))).tolist()
        direct = rescale_value(statistics.median(values), (1, 5), (1, 9))
        swapped = statistics.median(rescale_value(v, (1, 5), (1, 9)) for v in values)
        assert direct == pytest.approx(swapped, abs=1e-12)


# ---------------------------------------------------------------------------
# canonical format loading


def write_canonical(path, rows):
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["word", "dimension", "mean", "sd", "scale_min", "scale_max"])
        writer.writerows(rows)


def test_load_canonical_lexicon(tmp_path):
    path = tmp_path / "norms.csv"
    write_canonical(path, [
        ["amor", "valence", "8.2", "1.1", "1", "9"],
        ["amor", "arousal", "6.0", "", "1", "9"],
        ["muerte", "valence", "1.8", "0.9", "1", "9"],
    ])
    lex = load_lexicon(path)
    assert lex.source_id == "norms"
    assert lex.entries["amor"]["valence"] == (8.2, 1.1)
    assert lex.entries["amor"]["arousal"] == (6.0, None)
    assert len(lex) == 2


def test_load_canonical_duplicates_average(tmp_path, caplog):
    path = tmp_path / "norms.csv"
    write_canonical(path, [
        ["amor", "valence", "8.0", "1.0", "1", "9"],
        ["amor", "valence", "6.0", "2.0", "1", "9"],
    ])
    with caplog.at_level("INFO"):
        lex = load_lexicon(path)
    assert lex.entries["amor"]["valence"] == (7.0, 1.5)
    assert any("duplicate" in r.message for r in caplog.records)


def test_load_canonical_scale_violation(tmp_path):
    path = tmp_path / "norms.csv"
    write_canonical(path, [["amor", "valence", "9.5", "", "1", "9"]])
    with pytest.raises(LexiconFormatError, match="line 2"):
        load_lexicon(path)


def test_load_canonical_unknown_dimension(tmp_path):
    path = tmp_path / "norms.csv"
    write_canonical(path, [["amor", "dominance", "5.0", "", "1", "9"]])
    with pytest.raises(LexiconFormatError, match="dominance"):
        load_lexicon(path)


def test_load_canonical_conflicting_scales(tmp_path):
    path = tmp_path / "norms.csv"
    write_canonical(path, [
        ["amor", "valence", "8.0", "", "1", "9"],
        ["odio", "valence", "2.0", "", "1", "7"],
    ])
    with pytest.raises(LexiconFormatError, match="conflicting scale"):
        load_lexicon(path)


def test_load_canonical_negative_sd(tmp_path):
    path = tmp_path / "norms.csv"
    write_canonical(path, [["amor", "valence", "8.0", "-0.5", "1", "9"]])
    with pytest.raises(LexiconFormatError, match="negative sd"):
        load_lexicon(path)


@pytest.mark.parametrize("text, message", [
    ("amor,valence,5,1,1,9\n\nodio,valence,x,1,1,9\n", "line 4: not a number"),
    ("amor,valence,5,1,1,9\nodio,valence,5,nan,1,9\n", "line 3: not a finite number"),
    ("amor,valence,5,1,1,9\nodio,valence,5\n", "line 3: 3 cells, but the header has 6"),
], ids=["after a blank line", "nan sd", "short row"])
def test_load_canonical_bad_row_names_its_physical_line(tmp_path, text, message):
    path = tmp_path / "norms.csv"
    path.write_text("word,dimension,mean,sd,scale_min,scale_max\n" + text, encoding="utf-8")
    with pytest.raises(LexiconFormatError, match=message):
        load_lexicon(path)


def test_load_canonical_missing_columns(tmp_path):
    path = tmp_path / "norms.csv"
    path.write_text("word,mean\namor,8.0\n", encoding="utf-8")
    with pytest.raises(LexiconFormatError, match="missing columns"):
        load_lexicon(path)


# ---------------------------------------------------------------------------
# descriptor-driven loading


def test_load_with_descriptor(tmp_path):
    data = tmp_path / "published.tsv"
    with data.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, delimiter="\t")
        writer.writerow(["Word", "Val_M", "Val_SD", "Aro_M"])
        writer.writerow(["amor", "6.5", "0.8", "4.0"])
        writer.writerow(["odio", "1.5", "1.2", ""])
    descriptor = {
        "source_id": "pub",
        "word_column": "Word",
        "delimiter": "\t",
        "dimensions": {
            "valence": {"mean": "Val_M", "sd": "Val_SD", "scale": [1, 7]},
            "arousal": {"mean": "Aro_M", "scale": [1, 7]},
        },
    }
    lex = load_lexicon(data, descriptor=descriptor)
    assert lex.source_id == "pub"
    assert lex.scales["valence"] == (1.0, 7.0)
    assert lex.entries["amor"]["valence"] == (6.5, 0.8)
    assert lex.entries["amor"]["arousal"] == (4.0, None)
    assert "arousal" not in lex.entries["odio"]  # empty mean cell skipped


def test_load_with_descriptor_file(tmp_path):
    data = tmp_path / "published.csv"
    data.write_text("w,v\namor,6.0\n", encoding="utf-8")
    desc_path = tmp_path / "desc.json"
    desc_path.write_text(json.dumps({
        "source_id": "pub2",
        "word_column": "w",
        "dimensions": {"valence": {"mean": "v", "scale": [1, 7]}},
    }), encoding="utf-8")
    lex = load_lexicon(data, descriptor=desc_path)
    assert lex.source_id == "pub2"
    assert lex.entries["amor"]["valence"] == (6.0, None)


def test_descriptor_names_absent_column(tmp_path):
    data = tmp_path / "published.csv"
    data.write_text("w,v\namor,6.0\n", encoding="utf-8")
    with pytest.raises(LexiconFormatError, match="absent"):
        load_lexicon(data, descriptor={
            "source_id": "bad",
            "word_column": "w",
            "dimensions": {"valence": {"mean": "nope", "scale": [1, 7]}},
        })


# ---------------------------------------------------------------------------
# merging


def test_merge_takes_median_across_sources():
    sources = [
        source("a", {"amor": {"valence": (8.0, 1.0)}}),
        source("b", {"amor": {"valence": (6.0, 0.5)}}),
        source("c", {"amor": {"valence": (7.5, None)}}),
    ]
    merged = merge_lexicons(sources, RAW)
    mean, sd = merged.lookup("amor")["valence"]
    assert mean == pytest.approx(7.5)
    assert sd == pytest.approx(0.75)  # median of the two published sds


def test_merge_even_count_averages_middle_pair():
    sources = [
        source("a", {"mar": {"arousal": (2.0, None)}}),
        source("b", {"mar": {"arousal": (4.0, None)}}),
    ]
    merged = merge_lexicons(sources, RAW)
    assert merged.lookup("mar")["arousal"][0] == pytest.approx(3.0)


def test_merge_rescales_before_fusing():
    sources = [
        source("narrow", {"amor": {"valence": (5.0, None)}}, scales={"valence": (1.0, 5.0)}),
    ]
    merged = merge_lexicons(sources, RAW)
    assert merged.lookup("amor")["valence"][0] == pytest.approx(9.0)


def test_merge_stem_collision_averages(caplog):
    sources = [
        source("a", {
            "ceniza": {"valence": (2.0, None)},
            "cenizas": {"valence": (4.0, None)},
        }),
    ]
    with caplog.at_level("INFO"):
        merged = merge_lexicons(sources, STEMMED)
    assert merged.lookup("ceniz")["valence"][0] == pytest.approx(3.0)
    assert any("collapsed" in r.message for r in caplog.records)


def test_merge_is_idempotent_on_canonical_entries():
    rng = np.random.default_rng(72)
    entries = {}
    for i in range(20):
        word = f"palabra{i}"
        entries[word] = {
            dim: (float(rng.uniform(*CANONICAL_SCALES[dim])), float(rng.uniform(0.1, 1)))
            for dim in list(CANONICAL_SCALES)[: int(rng.integers(1, 10))]
        }
    merged_once = merge_lexicons([source("x", entries)], RAW)
    again = merge_lexicons([source("x2", merged_once.entries)], RAW)
    for word, dims in merged_once.entries.items():
        for dim, (mean, sd) in dims.items():
            mean2, sd2 = again.entries[word][dim]
            assert mean2 == pytest.approx(mean, abs=1e-12)
            if sd is None:
                assert sd2 is None
            else:
                assert sd2 == pytest.approx(sd, abs=1e-12)


def test_merge_requires_unique_ids():
    with pytest.raises(ValueError, match="unique"):
        merge_lexicons([source("a", {}), source("a", {})], RAW)


# ---------------------------------------------------------------------------
# coverage and word counts


def tiny_corpus():
    sonnets = (
        Sonnet("s1", "A", "1600", "T1", "amor cenizas amor"),
        Sonnet("s2", "B", "1601", "T2", "ceniza muerte"),
    )
    return Corpus(sonnets=sonnets)


def test_word_count_report_modes():
    corp = tiny_corpus()
    rows = word_count_report(keys_of(corp, RAW), keys_of(corp, STEMMED))
    all_row = next(r for r in rows if r.category == "all")
    # raw forms: amor, cenizas, ceniza, muerte; stems: amor, ceniz, muert
    assert all_row.raw == 4
    assert all_row.stem == 3
    assert all_row.lemma is None


def test_coverage_union_dominates_sources():
    corp = tiny_corpus()
    sources = [
        source("a", {"amor": {"valence": (8.0, None)}}),
        source("b", {"muerte": {"valence": (2.0, None)}}),
    ]
    merged = merge_lexicons(sources, STEMMED)
    rows = coverage_report(keys_of(corp, STEMMED), sources, merged, STEMMED)
    all_row = next(r for r in rows if r.category == "all")
    assert all_row.merged >= max(all_row.per_source.values())
    assert 0.0 <= all_row.merged <= 1.0


def test_stem_coverage_at_least_raw_coverage():
    corp = tiny_corpus()
    sources = [source("a", {
        "amor": {"valence": (8.0, None)},
        "ceniza": {"valence": (3.0, None)},
        "muerte": {"valence": (2.0, None)},
    })]
    merged_raw = merge_lexicons(sources, RAW)
    merged_stem = merge_lexicons(sources, STEMMED)
    raw_row = next(
        r for r in coverage_report(keys_of(corp, RAW), sources, merged_raw, RAW)
        if r.category == "all"
    )
    stem_row = next(
        r for r in coverage_report(keys_of(corp, STEMMED), sources, merged_stem, STEMMED)
        if r.category == "all"
    )
    # "cenizas" only matches once stemming folds it onto "ceniza"
    assert stem_row.merged >= raw_row.merged
    assert stem_row.merged == pytest.approx(1.0)


def test_missing_word_report_sorted():
    corp = tiny_corpus()
    sources = [source("a", {"amor": {"valence": (8.0, None)}})]
    merged = merge_lexicons(sources, STEMMED)
    missing = missing_word_report(keys_of(corp, STEMMED), merged)
    assert (missing[0].key, missing[0].occurrences) == ("ceniz", 2)
    assert [m.key for m in missing] == ["ceniz", "muert"]
