"""Where the memo machinery and the detector code may be named.

Only ``linalg`` names the memo table class and its key builder; every other
module declares a cached quantity with ``linalg.memoised``. The oracle's
arithmetic is its own: ``oracle`` imports no detector module, and of
``symmetry`` only the transform type, never ``compose``, ``inverse`` or a
margin, so a bug in a detector cannot reach its own cross-check.
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


# The runner reaches the detectors through their records and the oracle
# through its own module, so the rules below read all three together.
RUNNER_MODULES = ("runner.py", "detectors.py", "oracle.py")


def test_runner_does_not_import_the_transform_algebra():
    for module in RUNNER_MODULES:
        assert not names_in(module) & {"compose", "inverse"}, module


def test_runner_names_no_wigner_helper_but_the_detector():
    tree = ast.parse((PACKAGE / "wigner.py").read_text(encoding="utf-8"))
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined.update(target.id for target in node.targets if isinstance(target, ast.Name))
    assert "spectrum_clusters" in defined
    named = set().union(*(names_in(module) for module in RUNNER_MODULES))
    assert named & defined == {"wigner_principle_check"}


def test_oracle_imports_no_detector_code():
    tree = ast.parse((PACKAGE / "oracle.py").read_text(encoding="utf-8"))
    imported: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                # ``from . import wigner`` imports the module itself
                module = node.module or alias.name
                imported.setdefault(module.removeprefix("tvd."), set()).add(alias.name)
        elif isinstance(node, ast.Import):
            imported.update((alias.name.removeprefix("tvd."), set()) for alias in node.names)
    assert not imported.keys() & {"curie", "kabir", "wigner"}
    assert imported["symmetry"] == {"SymmetryTransform"}
