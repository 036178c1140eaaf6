import pytest
from hypothesis import settings

from tvd.linalg import _MEMOS

settings.register_profile("numeric", deadline=None, max_examples=60)
settings.load_profile("numeric")


def clear_memos() -> None:
    for memo in _MEMOS:
        memo.clear()


@pytest.fixture(autouse=True)
def cold_memos():
    """Start every test with empty memo tables, so no result depends on test order."""
    clear_memos()
