"""Lexicon loading, rescaling, merging, and coverage accounting."""

import csv
import io
import json
import math
import statistics
from collections import Counter

import numpy as np
import pytest

import oracles
from cell_tables import entries_of, merged_lexicon
from cell_tables import source_lexicon as source
from versemood import lexicon
from versemood.corpus import (
    ANNOTATED_FEATURES,
    PSYCHOLOGICAL_TAGS,
    AnnotationSet,
    Corpus,
    Sonnet,
    categories,
    corpus_statistics,
)
from versemood.lexicon import (
    CANONICAL_SCALES,
    DIMENSIONS,
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
from versemood.textnorm import NormalizationConfig, TokenTable, normalize, recording, split_lines

RAW = NormalizationConfig(mode="raw", stopwords=frozenset())
STEMMED = NormalizationConfig(mode="stem", stopwords=frozenset())


def keys_of(corp, config):
    """The corpus's normalized keys, as a pipeline session holds them."""
    return TokenTable.of((s.sonnet_id, normalize(s.text, config)) for s in corp.sonnets)


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
    assert entries_of(lex)["amor"]["valence"] == (8.2, 1.1)
    assert entries_of(lex)["amor"]["arousal"] == (6.0, None)
    assert len(lex) == 2


def test_load_canonical_duplicates_average(tmp_path):
    path = tmp_path / "norms.csv"
    write_canonical(path, [
        ["amor", "valence", "8.0", "1.0", "1", "9"],
        ["amor", "valence", "6.0", "2.0", "1", "9"],
    ])
    with recording() as decisions:
        lex = load_lexicon(path)
    assert entries_of(lex)["amor"]["valence"] == (7.0, 1.5)
    assert any("duplicate" in d.text for d in decisions)


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


def test_load_canonical_rejects_a_scale_wider_than_a_float(tmp_path):
    path = tmp_path / "norms.csv"
    write_canonical(path, [
        ["amor", "valence", "5", "1", "1", "9"],
        ["sol", "arousal", "0", "1", "-1e308", "1e308"],
    ])
    with pytest.raises(LexiconFormatError, match=r"line 3: scale \[-1e\+308, 1e\+308\] is wider"):
        load_lexicon(path)


def test_load_described_rejects_a_scale_wider_than_a_float(tmp_path):
    data = tmp_path / "published.csv"
    data.write_text("w,v\namor,6.0\n", encoding="utf-8")
    scale = {"mean": "v", "scale": [-1e308, 1e308]}
    with pytest.raises(LexiconFormatError, match="dimension valence: scale .* is wider"):
        load_lexicon(data, descriptor={"word_column": "w", "dimensions": {"valence": scale}})


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
    assert entries_of(lex)["amor"]["valence"] == (6.5, 0.8)
    assert entries_of(lex)["amor"]["arousal"] == (4.0, None)
    assert "arousal" not in entries_of(lex)["odio"]  # empty mean cell skipped


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
    assert entries_of(lex)["amor"]["valence"] == (6.0, None)


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
    mean, sd = entries_of(merged)["amor"]["valence"]
    assert mean == pytest.approx(7.5)
    assert sd == pytest.approx(0.75)  # median of the two published sds


def test_merge_even_count_averages_middle_pair():
    sources = [
        source("a", {"mar": {"arousal": (2.0, None)}}),
        source("b", {"mar": {"arousal": (4.0, None)}}),
    ]
    merged = merge_lexicons(sources, RAW)
    assert entries_of(merged)["mar"]["arousal"][0] == pytest.approx(3.0)


def test_merge_rescales_before_fusing():
    sources = [
        source("narrow", {"amor": {"valence": (5.0, None)}}, scales={"valence": (1.0, 5.0)}),
    ]
    merged = merge_lexicons(sources, RAW)
    assert entries_of(merged)["amor"]["valence"][0] == pytest.approx(9.0)


def test_merge_stem_collision_averages():
    sources = [
        source("a", {
            "ceniza": {"valence": (2.0, None)},
            "cenizas": {"valence": (4.0, None)},
        }),
    ]
    with recording() as decisions:
        merged = merge_lexicons(sources, STEMMED)
    assert entries_of(merged)["ceniz"]["valence"][0] == pytest.approx(3.0)
    assert any("collapsed" in d.text for d in decisions)


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
    again = merge_lexicons([source("x2", entries_of(merged_once))], RAW)
    for word, dims in entries_of(merged_once).items():
        for dim, (mean, sd) in dims.items():
            mean2, sd2 = entries_of(again)[word][dim]
            assert mean2 == pytest.approx(mean, abs=1e-12)
            if sd is None:
                assert sd2 is None
            else:
                assert sd2 == pytest.approx(sd, abs=1e-12)


def test_merge_requires_unique_ids():
    with pytest.raises(ValueError, match="unique"):
        merge_lexicons([source("a", {}), source("a", {})], RAW)


def test_merge_rejects_a_degenerate_scale_before_its_values_are_read():
    narrow = source("a", {"amor": {"valence": (5.0, None)}}, scales={"valence": (5.0, 5.0)})
    with pytest.raises(ValueError, match="degenerate scale"):
        merge_lexicons([narrow], RAW)


def test_merge_and_rescale_reject_a_scale_wider_than_a_float():
    wide = {"valence": (-1e308, 1e308)}
    with pytest.raises(ValueError, match="degenerate scale"):
        merge_lexicons([source("a", {"amor": {"valence": (0.0, 1.0)}}, scales=wide)], RAW)
    with pytest.raises(ValueError, match="degenerate scale"):
        rescale_value(0.0, wide["valence"], CANONICAL_SCALES["valence"])


def test_rescale_divides_first_only_where_the_product_overflows():
    """A mean near the float range maps to its value, not inf; every finite
    product keeps its bits, where dividing first would move them."""
    wide = (-8e307, 8e307)
    assert rescale_value(7e307, wide, (1, 9)) == 8.5
    assert rescale_value(np.array([7e307, -8e307, 0.0]), wide, (1, 9)).tolist() == [8.5, 1.0, 5.0]
    merged = merge_lexicons([source("a", {"amor": {"valence": (7e307, 5e307)}}, {"valence": wide})], RAW)
    assert entries_of(merged)["amor"]["valence"] == (8.5, 2.5)
    values = np.random.default_rng(73).uniform(0.0, 10.0, 1000)
    product_first = 1.0 + (values - 0.0) * (7.0 - 1.0) / (10.0 - 0.0)
    assert rescale_value(values, (0.0, 10.0), (1.0, 7.0)).tobytes() == product_first.tobytes()
    assert (1.0 + (values - 0.0) / (10.0 - 0.0) * (7.0 - 1.0) != product_first).any()


NEAR_RANGE_FILES = {
    "canonical scale": (
        "word,dimension,mean,sd,scale_min,scale_max\namor,valence,5,1,1,9\n"
        "sol,arousal,0,1,-1.7e308,1.7e308\n",
        None,
        "line 3: scale [-1.7e+308, 1.7e+308] is wider than a float holds",
    ),
    "canonical sd": (
        "word,dimension,mean,sd,scale_min,scale_max\namor,valence,1.5,0.5,1,2\n"
        "sol,valence,1.5,1e308,1,2\n",
        None,
        "line 3: sd 1e+308 exceeds a float on the canonical scale",
    ),
    "described sd": (
        "w,v,s\namor,1.5,\nsol,1.5,1e308\n",
        {"word_column": "w", "dimensions": {"valence": {"mean": "v", "sd": "s", "scale": [1, 2]}}},
        "line 3: sd 1e+308 exceeds a float on the canonical scale",
    ),
    "descriptor scale": (
        "w,v\namor,6.0\n",
        {"word_column": "w", "dimensions": {"valence": {"mean": "v", "scale": [-1e308, 1e308]}}},
        "dimension valence: scale [-1e+308, 1e+308] is wider than a float holds",
    ),
}


@pytest.mark.parametrize("line_end", ["\n", "\r\n"], ids=["plain", "csv"])
@pytest.mark.parametrize("case", NEAR_RANGE_FILES)
def test_near_range_cells_give_the_row_by_row_loaders_message(tmp_path, case, line_end):
    """Scales and sds that no float holds on the canonical scale exit as input
    errors naming the file and line, and the row-by-row referees agree."""
    text, descriptor, message = NEAR_RANGE_FILES[case]
    path = tmp_path / "norms.csv"
    path.write_bytes(text.replace("\n", line_end).encode())
    if descriptor is None:
        expected = outcome(lambda: oracles.load_canonical(path))
    else:
        expected = outcome(lambda: oracles.load_described(path, descriptor))
    assert str(path) in expected and expected.endswith(message)
    assert outcome(lambda: load_lexicon(path, descriptor=descriptor)) == expected


def test_merged_values_are_computed_once_on_first_read(monkeypatch):
    original = lexicon._merge_values
    calls = []

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(lexicon, "_merge_values", counting)
    sources = [
        source("a", {"ceniza": {"valence": (2.0, 1.0)}, "cenizas": {"valence": (4.0, None)}}),
        source("b", {"amor": {"arousal": (3.0, 0.5)}, "ceniza": {"valence": (6.0, 2.0)}}),
    ]
    merged = merge_lexicons(sources, STEMMED)
    # what coverage and missing words read needs no values
    assert len(merged) == 2 and merged.rows_of(["amor", "ceniz", "mar"]).tolist() == [0, 1, -1]
    assert [rows.tolist() for rows in merged.source_rows] == [[1, 1], [0, 1]]
    assert calls == []
    sd, mean = merged.sd, merged.mean
    assert len(calls) == 1
    assert merged.mean is mean and merged.sd is sd and len(calls) == 1
    rows, want_mean, want_sd = oracles.merge_cubes(sources, STEMMED)
    assert list(merged.rows.items()) == list(rows.items())
    assert mean.tobytes() == want_mean.tobytes() and sd.tobytes() == want_sd.tobytes()


def test_a_merged_lexicon_built_with_its_values_keeps_them(monkeypatch):
    monkeypatch.setattr(lexicon, "_merge_values", None)  # never called
    mean, sd = np.full((2, len(DIMENSIONS)), 4.0), np.full((2, len(DIMENSIONS)), np.nan)
    rows = {"amor": 0, "mar": 1}
    merged = MergedLexicon(rows=rows, mean=mean, sd=sd, source_rows=(np.arange(2),))
    assert merged.mean is mean and merged.sd is sd and merged.rows is rows
    assert len(merged) == 2 and merged.rows_of(["mar", "sol"]).tolist() == [1, -1]
    assert entries_of(merged_lexicon({"sol": {"fear": (2.0, None)}}))["sol"] == {
        "fear": (2.0, None)
    }


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


_ONE_SOURCE = [source("a", {"a": {"valence": (5.0, None)}})]


@pytest.mark.parametrize(
    "report",
    [
        lambda keys, median: coverage_report(
            keys, _ONE_SOURCE, merge_lexicons(_ONE_SOURCE, RAW), RAW, median
        ),
        lambda keys, median: word_count_report(keys, keys, None, median),
        corpus_statistics,
    ],
    ids=["coverage", "word-counts", "corpus-statistics"],
)
def test_reports_reject_a_median_over_other_sonnets(report):
    keys = TokenTable.of([("s1", ("a",))])
    median = AnnotationSet(0, ("s1", "s2"), np.zeros((2, len(ANNOTATED_FEATURES))))
    with pytest.raises(ValueError, match="cover different sonnets"):
        report(keys, median)
    report(keys, AnnotationSet(0, ("s1",), median.values[:1]))


def test_missing_word_report_sorted():
    corp = tiny_corpus()
    sources = [source("a", {"amor": {"valence": (8.0, None)}})]
    merged = merge_lexicons(sources, STEMMED)
    missing = missing_word_report(keys_of(corp, STEMMED), merged)
    assert (missing[0].key, missing[0].occurrences) == ("ceniz", 2)
    assert [m.key for m in missing] == ["ceniz", "muert"]


# ---------------------------------------------------------------------------
# the coded reports against the key-tuple oracles

# Plural and feminine forms collide with their singulars under stemming and
# lemmas; "él", "corazón" and "pasión" give non-ASCII keys.
CORPUS_VOCAB = (
    "amor", "amores", "ceniza", "cenizas", "corazón", "corazones", "pasión", "pasiones",
    "niño", "niña", "niños", "sueño", "sueños", "él", "fuego", "fuegos", "llanto", "muerto",
)
CORPUS_LEMMAS = {
    "amores": "amor", "cenizas": "ceniza", "corazones": "corazón", "pasiones": "pasión",
    "niña": "niño", "niños": "niño", "sueños": "sueño", "fuegos": "fuego", "muerto": "morir",
}
STOP = frozenset({"el", "la", "de"})


def random_texts(rng):
    """Sonnet texts: some only stopwords, some of one word, the rest random."""
    texts = {}
    for i in range(int(rng.integers(1, 9))):
        kind = rng.random()
        if kind < 0.15:
            words = rng.choice(sorted(STOP), size=int(rng.integers(0, 4))).tolist()
        elif kind < 0.3:
            words = [CORPUS_VOCAB[int(rng.integers(len(CORPUS_VOCAB)))]]
        else:
            words = rng.choice([*CORPUS_VOCAB, *STOP], size=int(rng.integers(2, 15))).tolist()
        texts[f"s{i}"] = " ".join(words)
    return texts


def random_median(rng, sonnet_ids):
    """A median over ``sonnet_ids`` with random tags, one tag left with no sonnets at times."""
    values = np.full((len(sonnet_ids), len(ANNOTATED_FEATURES)), 3.0)
    tags = values[:, len(ANNOTATED_FEATURES) - len(PSYCHOLOGICAL_TAGS):]
    tags[:] = (rng.random(tags.shape) < 0.4).astype(float)
    tags[rng.random(tags.shape) < 0.1] = np.nan
    if rng.random() < 0.5:
        tags[:, int(rng.integers(tags.shape[1]))] = 0.0
    return AnnotationSet(0, tuple(sonnet_ids), values)


def random_sources(rng):
    """One to three sources over part of the corpus words and words it lacks."""
    pool = [*CORPUS_VOCAB, "sol", "flor", "mar"]
    return [
        source(f"src{k}", {
            word: {"valence": (float(rng.uniform(1, 9)), None)}
            for word in rng.choice(pool, size=int(rng.integers(1, 10)), replace=False).tolist()
        })
        for k in range(int(rng.integers(1, 4)))
    ]


def test_coded_reports_equal_the_key_tuple_oracles():
    rng = np.random.default_rng(93)
    reached = set()
    for case in range(300):
        texts = random_texts(rng)
        lemmas = CORPUS_LEMMAS if rng.random() < 0.7 else None
        configs = {
            mode: NormalizationConfig(mode=mode, stopwords=STOP, lemma_table=lemmas)
            for mode in ("raw", "stem", "lemma")
            if lemmas or mode != "lemma"
        }
        # as a session holds them: normalized once in raw mode, each word keyed once
        raw = TokenTable.of((sid, normalize(text, configs["raw"])) for sid, text in texts.items())
        tables = {mode: raw.keyed(config.key) for mode, config in configs.items()}
        tuples = {
            mode: {sid: tuple(normalize(text, config)) for sid, text in texts.items()}
            for mode, config in configs.items()
        }
        median = random_median(rng, texts) if rng.random() < 0.8 else None
        assert word_count_report(
            tables["raw"], tables["stem"], tables.get("lemma"), median
        ) == oracles.word_count_report(
            tuples["raw"], tuples["stem"], tuples.get("lemma"), median
        )
        mode = list(configs)[case % len(configs)]
        sources = random_sources(rng)
        merged = merge_lexicons(sources, configs[mode])
        assert coverage_report(
            tables[mode], sources, merged, configs[mode], median
        ) == oracles.coverage_report(tuples[mode], sources, merged, configs[mode], median)
        missing = missing_word_report(tables[mode], merged)
        assert missing == oracles.missing_word_report(tuples[mode], merged)

        lengths = raw.lengths.tolist()
        reached.add("stopwords only" if 0 in lengths else "")
        reached.add("one token" if 1 in lengths else "")
        reached.add("no lemma table" if lemmas is None else "")
        reached.add("no median" if median is None else "")
        if median is not None:
            reached.add("empty tag" if any(not rows.any() for _, rows in categories(median)) else "")
        on_one_key = [Counter(map(config.key, raw.words)) for config in configs.values()]
        reached.add("three words on one key" if any(3 in c.values() for c in on_one_key) else "")
        reached.add("absent keys" if missing else "")
        reached.add("non-ASCII key" if any(not m.key.isascii() for m in missing) else "")
        counts = [m.occurrences for m in missing]
        reached.add("count ties" if len(set(counts)) < len(counts) else "")
    assert reached - {""} == {
        "stopwords only", "one token", "no lemma table", "no median", "empty tag",
        "three words on one key", "absent keys", "non-ASCII key", "count ties",
    }


# ---------------------------------------------------------------------------
# the array loaders and merge against the dict-of-dict oracles

VOCAB = (
    "amor", "amores", "amoroso", "ceniza", "cenizas", "muerte", "muertes", "muerto",
    "vida", "vidas", "sol", "soles", "flor", "flores", "llanto", "llantos", "fuego",
)
LEMMAS = {
    "amores": "amor", "cenizas": "ceniza", "muertes": "muerte", "muerto": "morir",
    "vidas": "vida", "soles": "sol", "flores": "flor", "llantos": "llanto",
}
CONFIGS = (
    RAW,
    STEMMED,
    NormalizationConfig(mode="lemma", stopwords=frozenset(), lemma_table=LEMMAS),
)
DIMS = tuple(CANONICAL_SCALES)
NATIVE_SCALES = ((0.0, 10.0), (1.0, 7.0), (-3.0, 3.0), (1.0, 5.0), (1.0, 9.0))


def random_scales(rng):
    """A scale per dimension: the canonical one, or a native one in half the cases."""
    return {
        dim: NATIVE_SCALES[int(rng.integers(len(NATIVE_SCALES)))]
        if rng.random() < 0.5 else CANONICAL_SCALES[dim]
        for dim in DIMS
    }


def random_cell(rng, lo, hi):
    """A mean within [lo, hi]: few distinct values, so ties and equal medians occur."""
    if rng.random() < 0.4:
        value = lo + (hi - lo) * int(rng.integers(0, 9)) / 8
    else:
        value = rng.uniform(lo, hi)
    return repr(float(value)) if rng.random() < 0.5 else f"{value:.3f}"


def random_word(rng):
    word = VOCAB[int(rng.integers(len(VOCAB)))]
    return f" {word.upper()}" if rng.random() < 0.1 else word


def write_lines(path, rows, delimiter, rng):
    """Rows as delimited text, with CRLF or LF ends and a blank line here and there."""
    end = "\r\n" if rng.random() < 0.3 else "\n"
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, delimiter=delimiter, lineterminator=end)
        for i, row in enumerate(rows):
            if i and rng.random() < 0.05:
                fh.write(end)
            writer.writerow(row)


def random_canonical(rng, path):
    scales = random_scales(rng)
    dims = rng.choice(DIMS, size=int(rng.integers(1, 5)), replace=False).tolist()
    rows = [["word", "dimension", "mean", "sd", "scale_min", "scale_max"]]
    for _ in range(int(rng.integers(1, 25))):
        dim = dims[int(rng.integers(len(dims)))]
        lo, hi = scales[dim]
        sd = "" if rng.random() < 0.3 else random_cell(rng, 0.0, 2.0)
        rows.append([random_word(rng), dim, random_cell(rng, lo, hi), sd, lo, hi])
    write_lines(path, rows, ",", rng)
    return None, False


def random_described(rng, path):
    scales = random_scales(rng)
    dims = rng.choice(DIMS, size=int(rng.integers(1, 4)), replace=False).tolist()
    spec = {
        dim: {"mean": f"{dim}_m", "scale": list(scales[dim])}
        | ({"sd": f"{dim}_s"} if rng.random() < 0.7 else {})
        for dim in dims
    }
    delimiter = ("\t", ",", ";")[int(rng.integers(3))]
    header = ["Word"] + [col for s in spec.values() for col in (s["mean"], s.get("sd")) if col]
    rows = [header]
    for i in range(int(rng.integers(1, 25))):
        row = [random_word(rng)]
        for dim, s in spec.items():
            blank = rng.random() < 0.3
            row.append("" if blank else random_cell(rng, *scales[dim]))
            if "sd" in s:
                row.append("" if rng.random() < 0.3 else random_cell(rng, 0.0, 2.0))
        rows.append(row)
    # a row of some valid word, so that the file has an entry
    rows.append([random_word(rng), random_cell(rng, *scales[dims[0]])] + [""] * (len(header) - 2))
    write_lines(path, rows, delimiter, rng)
    means = [header.index(s["mean"]) for s in spec.values()]
    all_blank = any(not any(row[j] for j in means) for row in rows[1:])
    descriptor = {"source_id": path.stem, "word_column": "Word", "delimiter": delimiter}
    return descriptor | {"dimensions": spec}, all_blank


def load_both(rng, path):
    """One random file loaded by the package and by the oracle.

    Returns the source, the oracle's scales, entries and duplicate count,
    and whether a described row left every mean blank.
    """
    described = rng.random() < 0.5
    descriptor, all_blank = (random_described if described else random_canonical)(rng, path)
    with recording() as decisions:
        source = load_lexicon(path, descriptor=descriptor)
    logged = [d.text for d in decisions if "duplicate" in d.text]
    if described:
        scales, entries, n_dupes = oracles.load_described(path, descriptor)
    else:
        scales, entries, n_dupes = oracles.load_canonical(path)
    expected = f"{path.stem}: averaged {n_dupes} duplicate word/dimension rows"
    assert logged == ([expected] if n_dupes else [])
    return source, scales, entries, n_dupes, all_blank


def test_loaders_match_dict_oracle(tmp_path):
    rng = np.random.default_rng(90)
    reached = set()
    for case in range(300):
        path = tmp_path / f"src{case}.csv"
        source, scales, entries, n_dupes, all_blank = load_both(rng, path)
        assert source.source_id == path.stem
        assert source.scales == scales
        assert list(source.entries) == list(entries)
        assert entries_of(source) == entries
        assert source.mean.shape == source.sd.shape == (len(entries), len(DIMS))
        reached.add("duplicates" if n_dupes else "no duplicates")
        if any(sd is None for dims in entries.values() for _, sd in dims.values()):
            reached.add("missing sd")
        if all_blank:
            reached.add("all means blank")
    assert reached == {"duplicates", "no duplicates", "missing sd", "all means blank"}


def test_source_planes_are_computed_once_on_first_read(tmp_path, monkeypatch):
    # A load makes every check and records its duplicates; the planes wait for a read.
    original = lexicon._source_planes
    calls = []

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(lexicon, "_source_planes", counting)
    rng = np.random.default_rng(94)
    for case in range(60):
        calls.clear()
        source, _, entries, _, _ = load_both(rng, tmp_path / f"src{case}.csv")
        assert calls == [] and list(source.entries) == list(entries)
        first = source.sd if case % 2 else source.mean
        assert len(calls) == 1
        mean, sd = source.mean, source.sd
        assert (source.sd if case % 2 else source.mean) is first and len(calls) == 1
        want = np.full((2, len(entries), len(DIMENSIONS)), np.nan)
        for i, dims in enumerate(entries.values()):
            for dim, (m, s) in dims.items():
                want[:, i, DIMENSIONS.index(dim)] = m, math.nan if s is None else s
        for got, expected in zip((mean, sd), want):
            assert (np.isnan(got) == np.isnan(expected)).all()
            assert got[~np.isnan(got)].tobytes() == expected[~np.isnan(expected)].tobytes()


def test_merge_matches_dict_oracle(tmp_path):
    rng = np.random.default_rng(91)
    reached = set()
    for case in range(300):
        loaded = [
            load_both(rng, tmp_path / f"c{case}s{k}.csv")
            for k in range(int(rng.integers(1, 5)))
        ]
        config = CONFIGS[case % len(CONFIGS)]
        with recording() as decisions:
            merged = merge_lexicons([source for source, *_ in loaded], config)
        logged = [d.text for d in decisions if "collapsed" in d.text]
        entries, n_collisions = oracles.merge_lexicons(
            [(scales, entries) for _, scales, entries, *_ in loaded], config
        )
        assert list(merged.rows) == list(entries)
        assert entries_of(merged) == entries
        expected = f"merge: {n_collisions} surface words collapsed onto existing keys"
        assert logged == ([f"{expected} ({config.mode} mode)"] if n_collisions else [])
        assert len(merged.source_rows) == len(loaded)
        for (source, *_), rows in zip(loaded, merged.source_rows):
            assert rows.tolist() == [merged.rows[config.key(w)] for w in source.entries]
        if n_collisions:
            reached.add(f"collisions in {config.mode} mode")
        # sources per surface word and dimension
        per_cell = Counter(
            (word, dim)
            for _, _, entries, *_ in loaded
            for word, dims in entries.items()
            for dim in dims
        )
        if any(n % 2 == 0 for n in per_cell.values()):
            reached.add("even-count median")
        if any(n > 2 for n in per_cell.values()):
            reached.add("median of three or more")
    assert reached == {
        "collisions in stem mode",
        "collisions in lemma mode",
        "even-count median",
        "median of three or more",
    }


def random_array_source(rng, source_id):
    """A SourceLexicon straight from arrays: gaps in ``mean``, and no sd at all at times."""
    dims = rng.choice(DIMS, size=int(rng.integers(1, len(DIMS) + 1)), replace=False).tolist()
    scales = {dim: scale for dim, scale in random_scales(rng).items() if dim in dims}
    words = tuple(rng.choice(VOCAB, size=int(rng.integers(1, len(VOCAB) + 1)), replace=False))
    mean = np.full((len(words), len(DIMS)), np.nan)
    for dim in dims:
        j = DIMS.index(dim)
        lo, hi = scales[dim]
        mean[:, j] = [float(random_cell(rng, lo, hi)) for _ in words]
    mean[rng.random(mean.shape) < 0.3] = np.nan
    sd = np.where(np.isnan(mean), np.nan, rng.uniform(0.0, 2.0, mean.shape).round(2))
    if rng.random() < 0.25:
        sd[:] = np.nan
    sd[rng.random(sd.shape) < 0.2] = np.nan
    return SourceLexicon(source_id, scales, words, mean, sd)


def test_merge_equals_the_cube_oracle_bit_for_bit():
    rng = np.random.default_rng(94)
    reached = set()
    for case in range(300):
        sources = [random_array_source(rng, f"s{k}") for k in range(int(rng.integers(1, 5)))]
        config = CONFIGS[case % len(CONFIGS)]
        merged = merge_lexicons(sources, config)
        rows, mean, sd = oracles.merge_cubes(sources, config)
        assert list(merged.rows.items()) == list(rows.items())
        assert merged.mean.tobytes() == mean.tobytes()
        assert merged.sd.tobytes() == sd.tobytes()
        reached.add(f"{len(sources)} sources")
        if any(np.isnan(s.sd).all() for s in sources):
            reached.add("a source with no sd")
        if len(merged) < len(set().union(*(s.entries for s in sources))):
            reached.add(f"collisions in {config.mode} mode")
        # sources per surface word and dimension
        per_cell = Counter(
            (word, j)
            for s in sources
            for word, row in zip(s.entries, s.mean.tolist())
            for j, value in enumerate(row)
            if not math.isnan(value)
        )
        if any(n % 2 == 0 for n in per_cell.values()):
            reached.add("even-count median")
    assert reached == {
        "1 sources", "2 sources", "3 sources", "4 sources", "a source with no sd",
        "collisions in stem mode", "collisions in lemma mode", "even-count median",
    }


# "1.7e308" and "-1.7e308" make a scale wider than a float, or an sd no float holds on
# a canonical scale wider than its native one; too rarely for ROW_ERRORS, so
# test_near_range_cells_give_the_row_by_row_loaders_message writes them on purpose
BAD_CELLS = (
    "x", "nan", "-inf", "1e999", "-1", "99", "", " ", "valence", "dominance", "1.7e308", "-1.7e308",
)
ROW_ERRORS = (
    "cells, but the header has", "empty word", "unknown dimension", "not a number",
    "not a finite number", "scale_min must be below", "conflicting scale",
    "outside declared scale", "negative sd",
)


def corrupt(rng, path, delimiter):
    """Damage one to four cells or row widths of a written file, at random,
    in one row half the time, so one row often fails several checks."""
    lines = list(io.StringIO(path.read_text(encoding="utf-8"), newline=""))
    row = int(rng.integers(1, len(lines))) if len(lines) > 1 else 0
    one_row = rng.random() < 0.5
    for _ in range(int(rng.integers(1, 5))):
        at = row if one_row else int(rng.integers(1, len(lines))) if len(lines) > 1 else 0
        body = lines[at].rstrip("\r\n")
        cells = body.split(delimiter)
        kind = rng.random()
        if kind < 0.1:
            cells.pop()
        elif kind < 0.2:
            cells.append("7")
        else:
            cells[int(rng.integers(len(cells)))] = BAD_CELLS[int(rng.integers(len(BAD_CELLS)))]
        lines[at] = delimiter.join(cells) + lines[at][len(body):]
    path.write_text("".join(lines), encoding="utf-8")


def outcome(load):
    """What a loader gives: its scales and entries, or its error message."""
    try:
        result = load()
    except LexiconFormatError as exc:
        return str(exc)
    if isinstance(result, SourceLexicon):
        return result.scales, entries_of(result)
    return result[:2]


def test_damaged_files_give_the_row_by_row_loaders_message(tmp_path):
    rng = np.random.default_rng(92)
    reached = set()
    for case in range(300):
        path = tmp_path / f"bad{case}.csv"
        if rng.random() < 0.5:
            descriptor, _ = random_described(rng, path)
            corrupt(rng, path, descriptor["delimiter"])
            expected = outcome(lambda: oracles.load_described(path, descriptor))
        else:
            descriptor, _ = random_canonical(rng, path)
            corrupt(rng, path, ",")
            expected = outcome(lambda: oracles.load_canonical(path))
        assert outcome(lambda: load_lexicon(path, descriptor=descriptor)) == expected
        reached.update(kind for kind in ROW_ERRORS if kind in expected)
    assert reached == set(ROW_ERRORS)


def test_lexicon_sizes_count_what_the_tracer_reads(tmp_path):
    """len(source) counts distinct surface words, len(merged) distinct keys;
    the surface words the merge loses are its key collisions."""
    path = tmp_path / "norms.csv"
    write_canonical(path, [
        ["ceniza", "valence", "2.0", "", "1", "9"],
        ["cenizas", "valence", "4.0", "", "1", "9"],
        ["ceniza", "arousal", "5.0", "1", "1", "9"],
        ["amor", "valence", "8.0", "", "1", "9"],
    ])
    lex = load_lexicon(path)
    assert len(lex) == 3
    assert set(lex.entries) == {"ceniza", "cenizas", "amor"}
    merged = merge_lexicons([lex], STEMMED)
    assert len(merged) == 2  # ceniz, amor
    assert len(set(lex.entries)) - len(merged) == 1


@pytest.mark.parametrize("text", [
    "a,b\nc,d\n",
    "a,b\r\nc,d\r\n",
    "a,b\rc,d\r",
    "a,b\r\r\nc\n\rd",
    "a\x0cb,c\nd\x85e,f\ng\u2028h,i \n",
    'w,"two\nlines",x\r\n"three\r\nmore\rlines",y,z\n',
    "no trailing newline",
    "",
], ids=["lf", "crlf", "cr", "mixed", "other separators", "quoted newlines", "no end", "empty"])
def test_lines_split_as_stringio_splits(text):
    assert list(split_lines(text)) == list(io.StringIO(text, newline=""))
    assert list(csv.reader(split_lines(text))) == list(csv.reader(io.StringIO(text, newline="")))


CANONICAL_HEADER = "word,dimension,mean,sd,scale_min,scale_max\n"


@pytest.mark.parametrize("text, descriptor, message", [
    (
        CANONICAL_HEADER + '"amor\nmio",valence,5,1,1,9\nodio,valence,x,1,1,9\n',
        None,
        "line 4: not a number: 'x'",
    ),
    (
        CANONICAL_HEADER + "amor,valence,5,1,1,9\nodio,valence,5,1,1,9\nsol,arousal,5,-0.5,1,9\n",
        None,
        "line 4: negative sd -0.5",
    ),
    (
        "w\tv\ta\namor\t5\t4\nodio\t3\t8\n",
        {"word_column": "w", "delimiter": "\t", "dimensions": {
            "valence": {"mean": "v", "scale": [1, 7]},
            "arousal": {"mean": "a", "scale": [1, 7]},
        }},
        "line 3: arousal mean 8.0 outside declared scale [1.0, 7.0]",
    ),
    (CANONICAL_HEADER + "amor,valence,5,1,1,9\nodio,valence,5,1\n", None, "line 3: 4 cells"),
    (CANONICAL_HEADER + "amor,valence,5,1,1,9,7\n", None, "line 2: 7 cells"),
    (
        CANONICAL_HEADER + "amor,valence,x,1,1,9\n" + '"' + "a" * 140_000 + "\n",
        None,
        "line 2: not a number: 'x'",
    ),
], ids=["after a quoted multi-line field", "negative sd in the last row",
        "second dimension out of range", "short row", "long row",
        "before a field the csv reader rejects"])
def test_bad_row_message_equals_the_row_by_row_loader(tmp_path, text, descriptor, message):
    path = tmp_path / "norms.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(LexiconFormatError) as new:
        load_lexicon(path, descriptor=descriptor)
    with pytest.raises(LexiconFormatError) as old:
        if descriptor is None:
            oracles.load_canonical(path)
        else:
            oracles.load_described(path, descriptor)
    assert str(new.value) == str(old.value)
    assert message in str(new.value)
