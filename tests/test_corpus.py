"""Corpus loading, annotation validation, and median fusion."""

import csv
from itertools import compress

import numpy as np
import pytest

import oracles
from cell_tables import annotation_set, cells_of
from versemood.agreement import agreement_report
from versemood.corpus import (
    ALL_CATEGORY,
    ANNOTATED_FEATURES,
    MEDIAN_ANNOTATOR_ID,
    MISSING,
    ORDINAL_FEATURES,
    PSYCHOLOGICAL_TAGS,
    AnnotationFormatError,
    AnnotationSet,
    CorpusFormatError,
    build_median_annotator,
    categories,
    corpus_statistics,
    fill_missing_psych,
    load_annotation_set,
    load_corpus,
    reverse_ordinal_scale,
)
from versemood.pipeline import Session
from versemood.textnorm import NormalizationConfig, TokenTable, normalize, recording


def write_metadata(path, rows):
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["author", "year", "title", "id_sonnet", "file_path"])
        writer.writerows(rows)


def write_annotations(path, rows, header=None):
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header or list(ANNOTATED_FEATURES))
        writer.writerows(rows)


def full_row(ordinal=2, binary=1):
    return [ordinal] * len(ORDINAL_FEATURES) + [binary] * len(PSYCHOLOGICAL_TAGS)


# ---------------------------------------------------------------------------
# corpus loading


def test_load_corpus_reads_texts(tmp_path):
    (tmp_path / "s1.txt").write_text("el amor\n", encoding="utf-8")
    (tmp_path / "s2.txt").write_text("la muerte\n", encoding="utf-8")
    meta = tmp_path / "meta.csv"
    write_metadata(meta, [
        ["Lope", "1602", "Uno", "s1", "s1.txt"],
        ["Góngora", "1610", "Dos", "s2", "s2.txt"],
    ])
    corp = load_corpus(meta, tmp_path)
    assert corp.sonnet_ids == ("s1", "s2")
    assert corp.sonnets[1].author == "Góngora"
    assert corp.sonnets[0].text == "el amor\n"


def test_load_corpus_without_root_skips_texts(tmp_path):
    meta = tmp_path / "meta.csv"
    write_metadata(meta, [["A", "1600", "T", "s1", "absent.txt"]])
    corp = load_corpus(meta, None)
    assert corp.sonnets[0].text is None


def test_load_corpus_missing_column(tmp_path):
    meta = tmp_path / "meta.csv"
    meta.write_text("author,year,title\nA,1600,T\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError, match="id_sonnet"):
        load_corpus(meta, None)


def test_load_corpus_missing_text_file(tmp_path):
    meta = tmp_path / "meta.csv"
    write_metadata(meta, [["A", "1600", "T", "s1", "gone.txt"]])
    with pytest.raises(CorpusFormatError, match="line 2"):
        load_corpus(meta, tmp_path)


def test_duplicate_sonnet_ids_rejected(tmp_path):
    meta = tmp_path / "meta.csv"
    write_metadata(meta, [
        ["A", "1600", "T", "s1", "s1.txt"],
        ["B", "1601", "U", "s2", "s2.txt"],
        ["C", "1602", "V", "s1", "s3.txt"],
    ])
    with pytest.raises(CorpusFormatError, match=r"line 4: duplicate sonnet id 's1' \(first on line 2\)"):
        load_corpus(meta, None)


def _metadata_rows(n):
    return [["Autor", str(1600 + i), f"Soneto {i}", f"s{i}", f"s{i}.txt"] for i in range(n)]


def _cut_row(rng, rows):
    i = int(rng.integers(1, len(rows)))
    del rows[i][int(rng.integers(len(rows[i]))) :]


def _set_cell(value, column=None):
    def mutate(rng, rows):
        i = int(rng.integers(1, len(rows)))
        rows[i][int(rng.integers(5)) if column is None else column] = value
    return mutate


def _long_field_after_a_bad_id(rng, rows):
    rows[2][3] = rows[1][3] if rng.random() < 0.5 else " "
    rows[-1][2] = "x" * (csv.field_size_limit() + 1)


def _repeated_header(rng, rows):
    rows[0].append("title")
    for row in rows[1:]:
        row.append("Otro")


def _every_row_short(rng, rows):
    width = int(rng.integers(2, 5))
    for row in rows[1:]:
        del row[width:]


def _header_only(rng, rows):
    del rows[1:]


def _no_id_column(rng, rows):
    del rows[0][3]


METADATA_MUTATIONS = {
    "clean": lambda rng, rows: None,
    "blank line": lambda rng, rows: rows.insert(int(rng.integers(1, len(rows) + 1)), []),
    "short row": _cut_row,
    "every row short": _every_row_short,
    "long row": lambda rng, rows: rows[int(rng.integers(1, len(rows)))].append("extra"),
    "padded cell": _set_cell("  padded  "),
    "empty id": _set_cell(" ", column=3),
    "duplicate id": _set_cell("s1", column=3),
    "missing text": _set_cell("gone.txt", column=4),
    "nul in a text path": _set_cell("s1\x00.txt", column=4),
    "quoted comma": _set_cell("Vega, Lope"),
    "field past the csv limit": _set_cell("x" * (csv.field_size_limit() + 1)),
    "long field after a bad id": _long_field_after_a_bad_id,
    "header only": _header_only,
    "repeated header name": _repeated_header,
    "no id column": _no_id_column,
    "crlf": None,
}


def test_load_corpus_equals_the_row_by_row_loader(tmp_path):
    """Each mutated metadata file gives the sonnets or the error of the row-by-row loader."""
    rng = np.random.default_rng(1700)
    for i in range(6):
        (tmp_path / f"s{i}.txt").write_text(f"texto {i}\n", encoding="utf-8")
    for kind, mutate in METADATA_MUTATIONS.items():
        for case in range(6 if kind != "clean" else 1):
            rows = [["author", "year", "title", "id_sonnet", "file_path"], *_metadata_rows(6)]
            if mutate:
                mutate(rng, rows)
            meta = tmp_path / f"{kind}-{case}.csv"
            with meta.open("w", encoding="utf-8", newline="") as fh:
                csv.writer(fh, lineterminator="\r\n" if kind == "crlf" else "\n").writerows(rows)
            root = tmp_path if case % 2 == 0 else None
            try:
                expected = oracles.load_corpus_by_rows(meta, root)
            except CorpusFormatError as exc:
                expected = str(exc)
            try:
                got = [tuple(s) for s in load_corpus(meta, root).sonnets]
            except CorpusFormatError as exc:
                got = str(exc)
            assert got == expected, (kind, case)


# ---------------------------------------------------------------------------
# annotation loading


def test_load_annotation_set_happy_path(tmp_path):
    path = tmp_path / "a.csv"
    write_annotations(path, [full_row(ordinal=3, binary=0), full_row(ordinal=1, binary=1)])
    aset = load_annotation_set(path, annotator_id=1, sonnet_ids=["s1", "s2"])
    assert aset.annotator_id == 1
    assert cells_of(aset)[("s1", "valence")] == 3.0
    assert cells_of(aset)[("s2", "Anxiety")] == 1.0


def test_load_annotation_set_synthetic_ids(tmp_path):
    path = tmp_path / "a.csv"
    write_annotations(path, [full_row(), full_row()])
    aset = load_annotation_set(path, annotator_id=2)
    assert aset.sonnet_ids == ("s0001", "s0002")


def test_load_annotation_set_header_must_match(tmp_path):
    path = tmp_path / "a.csv"
    header = list(ANNOTATED_FEATURES)
    header[0] = "valencia"
    write_annotations(path, [full_row()], header=header)
    with pytest.raises(AnnotationFormatError, match="valencia"):
        load_annotation_set(path, annotator_id=1)


def test_load_annotation_set_row_count_checked(tmp_path):
    path = tmp_path / "a.csv"
    write_annotations(path, [full_row()])
    with pytest.raises(AnnotationFormatError, match="1 data rows but 2"):
        load_annotation_set(path, annotator_id=1, sonnet_ids=["s1", "s2"])


def test_load_annotation_set_cell_errors_carry_coordinates(tmp_path):
    path = tmp_path / "a.csv"
    bad = full_row()
    bad[2] = "often"
    write_annotations(path, [bad])
    with pytest.raises(AnnotationFormatError, match="row 2, column 3"):
        load_annotation_set(path, annotator_id=1)


def test_load_annotation_set_error_names_the_physical_line(tmp_path):
    path = tmp_path / "a.csv"
    bad = full_row()
    bad[2] = "often"
    write_annotations(path, [full_row(), [], bad])
    assert path.read_text(encoding="utf-8").splitlines()[2] == ""
    with pytest.raises(AnnotationFormatError, match="row 4, column 3"):
        load_annotation_set(path, annotator_id=1)


def test_load_annotation_set_names_a_bad_row_before_an_unreadable_line(tmp_path):
    path = tmp_path / "a.csv"
    bad, unreadable = full_row(), full_row()
    bad[0] = 9
    unreadable[2] = "x" * (csv.field_size_limit() + 1)
    write_annotations(path, [bad, full_row(), unreadable])
    feature = ANNOTATED_FEATURES[0]
    with pytest.raises(AnnotationFormatError, match=rf"row 2, column 1 \({feature}\): value 9 "):
        load_annotation_set(path, annotator_id=1, sonnet_ids=["s1", "s2", "s3"])
    # with the rows before it sound, the unreadable line is named, and no row count
    write_annotations(path, [full_row(), full_row(), unreadable])
    with pytest.raises(AnnotationFormatError, match=r"line 4: field larger than field limit"):
        load_annotation_set(path, annotator_id=1, sonnet_ids=["s1", "s2", "s3"])


def test_load_annotation_set_ordinal_range(tmp_path):
    path = tmp_path / "a.csv"
    bad = full_row()
    bad[0] = 5
    write_annotations(path, [bad])
    with pytest.raises(AnnotationFormatError, match="outside 1..4"):
        load_annotation_set(path, annotator_id=1)


def test_load_annotation_set_ordinal_may_not_be_missing(tmp_path):
    path = tmp_path / "a.csv"
    bad = full_row()
    bad[1] = ""
    write_annotations(path, [bad])
    with pytest.raises(AnnotationFormatError, match="may not be missing"):
        load_annotation_set(path, annotator_id=1)


def test_load_annotation_set_binary_cells(tmp_path):
    path = tmp_path / "a.csv"
    row = full_row()
    row[len(ORDINAL_FEATURES)] = ""  # first tag left blank
    write_annotations(path, [row])
    aset = load_annotation_set(path, annotator_id=1, sonnet_ids=["s1"])
    first_tag = PSYCHOLOGICAL_TAGS[0]
    assert ("s1", first_tag) not in cells_of(aset)

    bad = full_row()
    bad[len(ORDINAL_FEATURES)] = 3
    write_annotations(path, [bad])
    with pytest.raises(AnnotationFormatError, match="0 or 1"):
        load_annotation_set(path, annotator_id=1)


def test_load_annotation_set_reads_every_spelling_of_a_valid_cell(tmp_path):
    # canonical cells are looked up; padded or signed ones go the long way
    canonical = [full_row(ordinal=2, binary=1), full_row(ordinal=4, binary=0)]
    canonical[1][len(ORDINAL_FEATURES)] = ""
    padded = [["0" + str(c) if c != "" else " " for c in row] for row in canonical]
    padded[0][0] = " +2 "
    expected = tmp_path / "canonical.csv"
    write_annotations(expected, canonical)
    path = tmp_path / "padded.csv"
    write_annotations(path, padded)
    got = load_annotation_set(path, annotator_id=1).values
    np.testing.assert_array_equal(got, load_annotation_set(expected, annotator_id=1).values)
    assert np.isnan(got[1, len(ORDINAL_FEATURES)])


# ---------------------------------------------------------------------------
# scale reversal


def make_set(annotator_id, values, ids=("s1", "s2", "s3")):
    return annotation_set(annotator_id, ids, ANNOTATED_FEATURES, values)


def test_reverse_ordinal_scale_maps_endpoints():
    values = {("s1", "valence"): 1.0, ("s2", "valence"): 4.0, ("s3", "valence"): 2.0}
    reversed_set = reverse_ordinal_scale(make_set(1, values), "valence")
    assert cells_of(reversed_set)[("s1", "valence")] == 4.0
    assert cells_of(reversed_set)[("s2", "valence")] == 1.0
    assert cells_of(reversed_set)[("s3", "valence")] == 3.0


def test_reverse_ordinal_scale_is_involution():
    rng = np.random.default_rng(60)
    for _ in range(100):
        values = {
            (f"s{i}", "arousal"): float(rng.integers(1, 5)) for i in range(1, 4)
        }
        original = make_set(1, dict(values))
        twice = reverse_ordinal_scale(reverse_ordinal_scale(original, "arousal"), "arousal")
        assert cells_of(twice) == cells_of(original)


def test_reverse_ordinal_scale_rejects_tags():
    values = {("s1", "Anxiety"): 1.0, ("s2", "Anxiety"): 0.0, ("s3", "Anxiety"): 1.0}
    with pytest.raises(ValueError, match="ordinal"):
        reverse_ordinal_scale(make_set(1, values), "Anxiety")


# ---------------------------------------------------------------------------
# fill and median fusion


def aligned_triple(overrides=None):
    """Three aligned sets over two sonnets with every cell present."""
    cells = []
    for annotator_id in (1, 2, 3):
        values = {}
        for sid in ("s1", "s2"):
            for feat in ORDINAL_FEATURES:
                values[(sid, feat)] = 2.0
            for feat in PSYCHOLOGICAL_TAGS:
                values[(sid, feat)] = 1.0
        cells.append(values)
    for (annotator_id, sid, feat), value in (overrides or {}).items():
        target = cells[annotator_id - 1]
        if value is None:
            target.pop((sid, feat), None)
        else:
            target[(sid, feat)] = value
    return [
        make_set(annotator_id, values, ids=("s1", "s2"))
        for annotator_id, values in zip((1, 2, 3), cells)
    ]


def test_fill_missing_in_one_set_becomes_zero():
    sets = aligned_triple({(2, "s1", "Anxiety"): None})
    filled, unfilled = fill_missing_psych(sets)
    assert cells_of(filled[1])[("s1", "Anxiety")] == 0.0
    assert unfilled == []


def test_fill_missing_in_two_sets_is_reported():
    sets = aligned_triple({(1, "s1", "Pride"): None, (3, "s1", "Pride"): None})
    filled, unfilled = fill_missing_psych(sets)
    assert ("s1", "Pride") not in cells_of(filled[0])
    assert len(unfilled) == 1
    assert unfilled[0].sonnet_id == "s1"
    assert unfilled[0].feature == "Pride"
    assert unfilled[0].n_present == 1


def test_median_of_three_takes_middle():
    sets = aligned_triple({
        (1, "s1", "valence"): 1.0,
        (2, "s1", "valence"): 3.0,
        (3, "s1", "valence"): 4.0,
    })
    median = build_median_annotator(sets)
    assert median.annotator_id == MEDIAN_ANNOTATOR_ID
    assert cells_of(median)[("s1", "valence")] == 3.0


def test_median_of_three_membership_randomized():
    rng = np.random.default_rng(61)
    for _ in range(200):
        triple = [float(rng.integers(1, 5)) for _ in range(3)]
        sets = aligned_triple({
            (k + 1, "s2", "sadness"): triple[k] for k in range(3)
        })
        median = build_median_annotator(sets)
        assert cells_of(median)[("s2", "sadness")] in triple
        assert cells_of(median)[("s2", "sadness")] == sorted(triple)[1]


def test_median_binary_split_resolves_to_zero():
    sets = aligned_triple({
        (1, "s1", "Solitude"): None,
        (2, "s1", "Solitude"): 0.0,
        (3, "s1", "Solitude"): 1.0,
    })
    # leave the cell genuinely two-valued: fill would set the missing one to 0
    median = build_median_annotator(sets)
    assert cells_of(median)[("s1", "Solitude")] == 0.0


def test_median_two_ordinals_average():
    sets = aligned_triple({(2, "s1", "fear"): None, (1, "s1", "fear"): 3.0})
    # remaining values are 3 and 2: the fused cell lands between them
    median = build_median_annotator(sets)
    assert cells_of(median)[("s1", "fear")] == 2.5


def test_median_under_two_values_stays_missing():
    sets = aligned_triple({
        (1, "s1", "Irritability"): None,
        (2, "s1", "Irritability"): None,
    })
    median = build_median_annotator(sets)
    assert ("s1", "Irritability") not in cells_of(median)


def random_triple(rng, n_sonnets):
    """Three sets over every annotated feature with each cell missing at rate 0.3.

    Ordinal cells go missing too, which only the library API allows, so
    two-valued cells reach both median branches.
    """
    ids = tuple(f"s{i}" for i in range(1, n_sonnets + 1))
    sets = []
    for annotator_id in (1, 2, 3):
        cells = {}
        for sid in ids:
            for feat in ANNOTATED_FEATURES:
                if rng.random() < 0.3:
                    continue
                low, high = (1, 5) if feat in ORDINAL_FEATURES else (0, 2)
                cells[(sid, feat)] = float(rng.integers(low, high))
        sets.append(annotation_set(annotator_id, ids, ANNOTATED_FEATURES, cells))
    return ids, sets


def recorded(call, *args):
    """``call(*args)``, and the texts of the corpus decisions it recorded."""
    with recording() as decisions:
        result = call(*args)
    return result, [d.text for d in decisions if d.module == "versemood.corpus"]


def test_fill_missing_psych_matches_dict_loop_oracle():
    rng = np.random.default_rng(64)
    missing_in = set()
    for _ in range(300):
        ids, sets = random_triple(rng, int(rng.integers(1, 6)))
        cells = [cells_of(s) for s in sets]
        ref_cells, ref_unfilled, ref_messages = oracles.fill_missing_psych(cells, ids)
        (filled, unfilled), messages = recorded(fill_missing_psych, sets)
        assert [cells_of(s) for s in filled] == ref_cells
        assert unfilled == ref_unfilled
        assert messages == ref_messages
        missing_in.update(
            sum((sid, tag) not in c for c in cells)
            for sid in ids for tag in PSYCHOLOGICAL_TAGS
        )
    assert missing_in == {0, 1, 2, 3}


def test_median_annotator_matches_dict_loop_oracle():
    rng = np.random.default_rng(65)
    branches = set()
    for _ in range(300):
        ids, sets = random_triple(rng, int(rng.integers(1, 6)))
        cells = [cells_of(s) for s in sets]
        ref_values, ref_messages = oracles.build_median_annotator(cells, ids)
        median, messages = recorded(build_median_annotator, sets)
        assert median.values.shape == (len(ids), len(ANNOTATED_FEATURES))
        assert cells_of(median) == ref_values
        assert messages == ref_messages
        branches.update(m.split(": ", 1)[1].split(" ", 1)[0] for m in ref_messages)
        branches.update(
            len([c for c in cells if (sid, feat) in c])
            for sid in ids for feat in ANNOTATED_FEATURES
        )
    # every present-count, and both two-value messages
    assert branches == {0, 1, 2, 3, "0/1", "averaging"}


def test_median_by_selection_equals_the_sorted_cube():
    """Bit for bit, and decision for decision, the median of sorting a
    stacked cube: NaN, ties and half-integers in every feature."""
    rng = np.random.default_rng(66)
    for _ in range(100):
        n = int(rng.integers(1, 60))
        ids = tuple(f"s{i}" for i in range(n))
        grid = [[0.0, 1.0], [1.0, 1.5, 2.0], [1.0, 2.0, 2.5, 3.5, 4.0]][rng.integers(3)]
        values = rng.choice(grid, (3, n, len(ANNOTATED_FEATURES)))
        values[rng.random(values.shape) < rng.uniform(0.0, 0.7)] = np.nan
        sets = [AnnotationSet(i + 1, ids, values[i]) for i in range(3)]
        ref_values, ref_messages = oracles.median_by_sort(sets)
        median, messages = recorded(build_median_annotator, sets)
        assert median.values.tobytes() == ref_values.tobytes()
        assert messages == ref_messages


def random_code_sets(rng, n, n_sets=3):
    """Sets of uint8 codes as the loaders give them (tags blank at a random
    rate), and in some draws blank ordinal cells, as only the library allows."""
    ids = tuple(f"s{i}" for i in range(n))
    ordinal = np.array([f in ORDINAL_FEATURES for f in ANNOTATED_FEATURES])
    shape = (n_sets, n, len(ANNOTATED_FEATURES))
    codes = np.where(ordinal, rng.integers(1, 5, shape), rng.integers(0, 2, shape)).astype(np.uint8)
    blank = rng.random(shape) < rng.uniform(0.0, 0.6)
    if rng.random() < 0.7:
        blank &= ~ordinal
    codes[blank] = MISSING
    return ids, [AnnotationSet(i + 1, ids, codes[i]) for i in range(n_sets)]


def floats_of(sets):
    """Each set with its values as a float table."""
    return [AnnotationSet(s.annotator_id, s.sonnet_ids, s.values) for s in sets]


def test_code_sets_give_what_their_float_copies_give():
    """Reversal, fill, median and every agreement cell, bit for bit and
    decision for decision, whether a set holds codes or floats."""
    rng = np.random.default_rng(67)
    for _ in range(40):
        n = int(rng.integers(1, 50))
        ids, sets = random_code_sets(rng, n)
        copies = floats_of(sets)
        assert [s.table.dtype for s in sets + copies] == [np.uint8] * 3 + [np.float64] * 3
        # as a run reverses the sets that used the valence scale upside down,
        # a blank cell (which only the library allows in an ordinal) included
        for r in np.flatnonzero(rng.random(3) < 0.5):
            sets[r], copies[r] = [reverse_ordinal_scale(x[r], "valence") for x in (sets, copies)]
            assert sets[r].table.dtype == np.uint8
            assert sets[r].values.tobytes() == copies[r].values.tobytes()

        (filled, unfilled), messages = recorded(fill_missing_psych, sets)
        (filled_copies, unfilled_copies), copy_messages = recorded(fill_missing_psych, copies)
        assert [s.table.dtype for s in filled] == [np.uint8] * 3
        assert [s.values.tobytes() for s in filled] == [s.values.tobytes() for s in filled_copies]
        assert (unfilled, messages) == (unfilled_copies, copy_messages)

        # unfilled sets too, so that 0/1 splits over two values reach the median
        for code_sets, float_sets in ((filled, filled_copies), (sets, copies)):
            median, messages = recorded(build_median_annotator, code_sets)
            copy, copy_messages = recorded(build_median_annotator, float_sets)
            assert median.values.tobytes() == copy.values.tobytes()
            assert messages == copy_messages

        # the built median, and a float median with halves or without
        halves = rng.random() < 0.5
        drawn = rng.integers(0, 9 if halves else 5, (n, len(ANNOTATED_FEATURES))).astype(float)
        drawn /= 2 if halves else 1
        drawn[rng.random(drawn.shape) < 0.2] = np.nan
        for median in (build_median_annotator(filled), AnnotationSet(0, ids, drawn), None):
            for k in (2, 3):
                assert agreement_report(filled[:k], median) == agreement_report(
                    filled_copies[:k], median
                )


def test_sets_share_the_corpus_sonnet_ids(workspace_config):
    session = Session(workspace_config, ["agreement"])
    ids = session.corpus.sonnet_ids
    assert session.corpus.sonnet_ids is ids
    assert all(s.sonnet_ids is ids for s in [*session.annotations[0], session.median])


# ---------------------------------------------------------------------------
# tag subsets and corpus statistics


def tag_split(median, tag):
    """The (tagged, untagged) sonnet ids of one tag's category."""
    inside = tuple(compress(median.sonnet_ids, dict(categories(median))[tag]))
    return inside, tuple(sid for sid in median.sonnet_ids if sid not in inside)


def test_categories_partition():
    sets = aligned_triple({
        (1, "s1", "Anxiety"): 0.0,
        (2, "s1", "Anxiety"): 0.0,
        (3, "s1", "Anxiety"): 0.0,
    })
    median = build_median_annotator(sets)
    assert [name for name, _ in categories(median)] == [ALL_CATEGORY, *PSYCHOLOGICAL_TAGS]
    assert categories(median)[0][1].tolist() == [True, True]
    inside, outside = tag_split(median, "Anxiety")
    assert set(inside) | set(outside) == {"s1", "s2"}
    assert set(inside) & set(outside) == set()
    assert inside == ("s2",)


def test_categories_missing_counts_as_outside():
    sets = aligned_triple({
        (1, "s1", "Obsession"): None,
        (2, "s1", "Obsession"): None,
    })
    median = build_median_annotator(sets)
    inside, outside = tag_split(median, "Obsession")
    assert "s1" in outside


def test_corpus_statistics_counts_and_histogram(tmp_path):
    texts = {
        "s1": "el amor crece",            # 2 content words
        "s2": "la muerte llega pronto",   # 3
    }
    for sid, body in texts.items():
        (tmp_path / f"{sid}.txt").write_text(body, encoding="utf-8")
    meta = tmp_path / "meta.csv"
    write_metadata(meta, [
        ["A", "1600", "T1", "s1", "s1.txt"],
        ["B", "1601", "T2", "s2", "s2.txt"],
    ])
    corp = load_corpus(meta, tmp_path)
    sets = aligned_triple()
    median = build_median_annotator(sets)
    raw = NormalizationConfig(mode="raw")
    keys = TokenTable.of((s.sonnet_id, normalize(s.text, raw)) for s in corp.sonnets)
    stats = corpus_statistics(keys, median, n_bins=2)
    assert stats.n_sonnets == 2
    assert stats.word_mean == pytest.approx(2.5)
    assert stats.word_sd == pytest.approx(np.std([2, 3], ddof=1))
    assert sum(b.count for b in stats.histogram) == 2
    assert stats.tag_counts["Anxiety"] == 2
