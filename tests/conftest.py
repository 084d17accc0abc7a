"""Fixtures shared by the test modules."""

from __future__ import annotations

import pytest

from goldencalc import binomials


def clear_memos() -> None:
    """Empty the per-process memos of the Golden binomials and the normal-ordered expansions."""
    binomials._golden_binomial.cache_clear()
    binomials._noncomm_expand.cache_clear()


@pytest.fixture
def cold_memos():
    """The test starts with both memos empty, and leaves nothing it built in them."""
    clear_memos()
    yield clear_memos
    clear_memos()
