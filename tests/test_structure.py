"""Where the memo machinery and the transform algebra may be named.

Only ``linalg`` names the memo table class and its key builder; every other
module declares a cached quantity with ``linalg.memoised``. The oracle in
``runner`` derives its reversal with array arithmetic, never through the
detector-side ``compose`` and ``inverse``, and it names nothing of ``wigner``
but the detector it cross-checks, so its spectrum rule stays its own.
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


def test_runner_names_no_wigner_helper_but_the_detector():
    tree = ast.parse((PACKAGE / "wigner.py").read_text(encoding="utf-8"))
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined.update(target.id for target in node.targets if isinstance(target, ast.Name))
    assert "spectrum_clusters" in defined
    assert names_in("runner.py") & defined == {"wigner_principle_check"}
