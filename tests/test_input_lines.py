"""Every delimited loader names a bad row by the physical line it ends on, in one csv pass.

The four loaders (lexicon, metadata, annotations, lemma table) each parse
their file once: a failing load builds one csv reader and takes the line
of the row it names from that pass, not from a second parse.
"""

import csv

import pytest

from versemood.corpus import (
    ANNOTATED_FEATURES,
    ORDINAL_FEATURES,
    PSYCHOLOGICAL_TAGS,
    AnnotationFormatError,
    CorpusFormatError,
    load_annotation_set,
    load_corpus,
)
from versemood.lexicon import LexiconFormatError, load_lexicon
from versemood.textnorm import InputError, load_lemma_table

ANNOTATION_ROW = ",".join(["2"] * len(ORDINAL_FEATURES) + ["1"] * len(PSYCHOLOGICAL_TAGS))


class Loader:
    """A delimited loader, with a header, a sound row, a sound row whose
    quoted field spans two lines, a bad row, and what the error says of it."""

    def __init__(self, load, error, header, good, quoted, bad, message):
        self.load, self.error, self.header = load, error, header
        self.good, self.quoted, self.bad, self.message = good, quoted, bad, message

    def expected(self, path, line):
        if self.error is AnnotationFormatError:
            return f"{path}: row {line}, {self.message}"
        return f"{path}: line {line}: {self.message}"


LOADERS = {
    "lexicon": Loader(
        load_lexicon, LexiconFormatError, "word,dimension,mean,sd,scale_min,scale_max",
        "amor,valence,8.2,1.1,1,9", '"mal\nvado",valence,2.0,1.0,1,9',
        "muerte,valence,12,0.9,1,9", "mean 12.0 outside declared scale [1.0, 9.0]",
    ),
    "metadata": Loader(
        lambda path: load_corpus(path, None), CorpusFormatError,
        "author,year,title,id_sonnet,file_path",
        "A,1600,T,s1,s1.txt", 'B,1601,"Dos\nlíneas",s2,s2.txt',
        "C,1602,V,s1,s3.txt", "duplicate sonnet id 's1' (first on line 2)",
    ),
    "annotations": Loader(
        lambda path: load_annotation_set(path, 1), AnnotationFormatError,
        ",".join(ANNOTATED_FEATURES), ANNOTATION_ROW, '"2\n"' + ANNOTATION_ROW[1:],
        "9" + ANNOTATION_ROW[1:], f"column 1 ({ANNOTATED_FEATURES[0]}): value 9 outside 1..4",
    ),
    "lemma table": Loader(
        load_lemma_table, InputError, None,
        "amores,amor", '"en\ntre",entre', "solo", "expected two columns",
    ),
}

# the first two are plain files (no quote, no CR), which the lexicon and
# annotation loaders read as columns before they hand a bad one to the csv reader
PLACES = {
    "after a sound row": (["good", "bad"], "\n"),
    "after blank lines": (["good", "", "", "bad"], "\n"),
    "after a quoted field on two lines": (["good", "quoted", "bad"], "\n"),
    "in a CRLF file": (["good", "bad"], "\r\n"),
}


def write(path, loader, rows, end):
    """Write the header and the named rows; return the physical line the bad row ends on."""
    lines = ([loader.header] if loader.header else []) + [getattr(loader, r, r) for r in rows]
    text = end.join(lines) + end
    path.write_bytes(text.encode())
    return text.count("\n", 0, text.index(loader.bad)) + 1


@pytest.fixture
def readers(monkeypatch):
    """A list whose length counts the csv readers built since the fixture was set up."""
    built = []
    reader = csv.reader

    def counting(*args, **kwargs):
        built.append(args)
        return reader(*args, **kwargs)

    monkeypatch.setattr(csv, "reader", counting)
    return built


@pytest.mark.parametrize("place", list(PLACES))
@pytest.mark.parametrize("name", list(LOADERS))
def test_a_bad_row_is_named_by_the_physical_line_it_ends_on(tmp_path, name, place, readers):
    loader, (rows, end) = LOADERS[name], PLACES[place]
    path = tmp_path / "input.csv"
    line = write(path, loader, rows, end)
    with pytest.raises(loader.error) as caught:
        loader.load(path)
    assert str(caught.value) == loader.expected(path, line)
    assert len(readers) == 1


def test_metadata_naming_an_unreadable_text_is_parsed_once(tmp_path, readers):
    path, text_path = tmp_path / "meta.csv", tmp_path / "gone.txt"
    path.write_text("author,year,title,id_sonnet,file_path\n\nA,1600,T,s1,gone.txt\n")
    with pytest.raises(CorpusFormatError) as caught:
        load_corpus(path, tmp_path)
    assert str(caught.value) == (
        f"{path}: line 3: cannot read sonnet text {text_path}: "
        f"[Errno 2] No such file or directory: '{text_path}'"
    )
    assert len(readers) == 1
