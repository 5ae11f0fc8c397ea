"""Memory bounds of the annotation stage at the stress size of 2000 sonnets.

A loaded set holds one uint8 code per cell, so one load keeps about
2000 x 31 bytes, and its transients stay a few times the file's size.
The fill and the median work on those codes; only the median's float
output is n x 31 doubles.  Peaks are tracemalloc's, so they count what
Python and numpy allocate, not the interpreter's pages.
"""

import tracemalloc

import numpy as np
import pytest

from versemood.corpus import (
    ANNOTATED_FEATURES,
    ORDINAL_FEATURES,
    build_median_annotator,
    fill_missing_psych,
    load_annotation_set,
)

N_SONNETS = 2000
KIB = 1024

# Bounds.  Here one load peaks at 663 KiB and keeps 61, and the fill and the
# median together peak at 1,096 KiB.  When every set was an n x 31 float64
# array, the same calls read 1,988, 485 and 3,159 KiB.
LOAD_PEAK = 1024 * KIB
LOAD_KEPT = 128 * KIB
FILL_AND_MEDIAN_PEAK = 1536 * KIB


@pytest.fixture(scope="module")
def annotation_files(tmp_path_factory):
    """Three plain annotation files of N_SONNETS rows, 12% of the tags blank."""
    root = tmp_path_factory.mktemp("annotations")
    rng = np.random.default_rng(31)
    n_tags = len(ANNOTATED_FEATURES) - len(ORDINAL_FEATURES)
    paths = []
    for annotator in (1, 2, 3):
        ordinal = rng.integers(1, 5, (N_SONNETS, len(ORDINAL_FEATURES))).astype(str)
        tags = rng.integers(0, 2, (N_SONNETS, n_tags)).astype(str)
        tags[rng.random(tags.shape) < 0.12] = ""
        cells = np.hstack((ordinal, tags))
        rows = [",".join(ANNOTATED_FEATURES)] + [",".join(row) for row in cells]
        path = root / f"annotator{annotator}.csv"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        paths.append(path)
    return paths


def _traced(call):
    """``call()``, the peak it allocated above what was live, and what it kept."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - before, kept - before


def test_one_load_peaks_under_a_mebibyte_and_keeps_its_codes(annotation_files):
    ids = tuple(f"s{i:04d}" for i in range(1, N_SONNETS + 1))
    load_annotation_set(annotation_files[0], 1, ids)  # first-call allocations out of the count
    loaded, peak, kept = _traced(lambda: load_annotation_set(annotation_files[0], 1, ids))
    assert loaded.values.shape == (N_SONNETS, len(ANNOTATED_FEATURES))
    assert peak < LOAD_PEAK, f"peak {peak / KIB:.0f} KiB"
    assert kept < LOAD_KEPT, f"kept {kept / KIB:.0f} KiB"


def test_fill_and_median_peak_under_their_bound(annotation_files):
    ids = tuple(f"s{i:04d}" for i in range(1, N_SONNETS + 1))
    sets = [load_annotation_set(path, i, ids) for i, path in enumerate(annotation_files, 1)]
    build_median_annotator(fill_missing_psych(sets)[0])  # first-call allocations out of the count
    median, peak, _ = _traced(lambda: build_median_annotator(fill_missing_psych(sets)[0]))
    assert median.values.shape == (N_SONNETS, len(ANNOTATED_FEATURES))
    assert peak < FILL_AND_MEDIAN_PEAK, f"peak {peak / KIB:.0f} KiB"
