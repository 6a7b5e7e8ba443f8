from unittest import mock

import pytest

import qmwis.pkfree as pkfree


class NeverHits(dict):
    """A memo whose get never hits, so the run executes every node."""

    def get(self, key, default=None):
        return default


@pytest.fixture(scope="session")
def without_memo():
    """A factory of context managers inside which drive's memo never hits:
    a run there executes the full recursion tree, the reference that the
    memo's replayed counts and measure trace are compared with."""
    return lambda: mock.patch.object(pkfree, "_new_memo", NeverHits)
