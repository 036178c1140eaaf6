import pytest
from hypothesis import settings

from tvd.linalg import _MEMOS

# print_blob: a failure prints its @reproduce_failure line, since CI keeps no example database
settings.register_profile("numeric", deadline=None, max_examples=60, print_blob=True)
settings.load_profile("numeric")


def clear_memos() -> None:
    for memo in _MEMOS:
        memo.clear()


@pytest.fixture(autouse=True)
def cold_memos():
    """Start every test with empty memo tables, so no result depends on test order."""
    clear_memos()
