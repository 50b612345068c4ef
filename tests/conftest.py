"""Fixtures shared by every test module."""

import pytest

from mackeywitt import norm


@pytest.fixture(autouse=True)
def fresh_norm_levels():
    """Each test builds its norm levels and edges anew, so a test that patches
    what a build calls (``norm.witt_scalar``, ``norm.WittLevel``) reaches it
    whatever ran before."""
    norm.witt_level.cache_clear()
    norm.witt_edge.cache_clear()
