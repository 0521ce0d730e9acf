"""Fixtures shared by every test module."""

import pytest
from hypothesis import settings

from bispec import exact

# Every @given test draws the same examples on every run; each test's own
# @settings still sets its max_examples.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture(autouse=True)
def scoped_relations():
    """Restore the declared parameter relations (with their values and relmask)
    when each test ends, so a relation one test declares is gone for the next.

    Field assignments are never restored: live MPoly values keep their packed
    keys, and a field handed to a new name would corrupt them.  So a name a
    test declared with a relation keeps its field as a free parameter, and
    declare_param refuses it a relation again: each test declares a name of
    its own.
    """
    saved = exact.PARAMS.save_relations()
    yield
    exact.PARAMS.restore_relations(saved)
