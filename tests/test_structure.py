"""Where the memo machinery and the transform algebra may be named.

Only ``linalg`` names the memo table class and its key builder; every other
module declares a cached quantity with ``linalg.memoised``. The oracle in
``runner`` derives its reversal with array arithmetic, never through the
detector-side ``compose`` and ``inverse``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tvd"
MODULES = sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "linalg.py")


def names_in(module: str) -> set[str]:
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("module", MODULES)
def test_only_linalg_names_the_memo_table_and_its_key(module):
    assert not names_in(module) & {"_Memo", "_content_key"}


def test_runner_does_not_import_the_transform_algebra():
    assert not names_in("runner.py") & {"compose", "inverse"}
