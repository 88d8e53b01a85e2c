"""Fixtures shared by the test modules."""

import pytest

from quartic import counting, geometry


@pytest.fixture
def cold_memo():
    """The process-wide memos of value tables and rank histograms, emptied before the test."""
    for memo in (counting._value_counts_memo, geometry._rank_count_cache):
        memo.clear()
