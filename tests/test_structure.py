"""Where the memo machinery and the detector code may be named.

Only ``linalg`` names the memo table class and its key builder; every other
module declares a cached quantity with ``linalg.memoised``. The oracle's
arithmetic is its own: ``oracle`` imports no detector module, and of
``symmetry`` only the transform type, never ``compose``, ``inverse`` or a
margin, so a bug in a detector cannot reach its own cross-check. Parsing and
building a transform check form only: whether a symmetry is unitary, a state
of unit norm or a matrix Hermitian is judged where a tolerance is known.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tvd"
MODULES = sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "linalg.py")


def names_in(module: str) -> set[str]:
    return names_under(ast.parse((PACKAGE / module).read_text(encoding="utf-8")))


def names_under(tree: ast.AST) -> set[str]:
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


def test_parsing_judges_no_input_against_a_tolerance():
    assert not names_in("scenario.py") & {"require_unitary", "require_normalized", "norm_deviation", "require_hermitian"}


def test_building_a_transform_checks_no_unitarity():
    tree = ast.parse((PACKAGE / "symmetry.py").read_text(encoding="utf-8"))
    (transform,) = (node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "SymmetryTransform")
    (post_init,) = (node for node in transform.body if isinstance(node, ast.FunctionDef) and node.name == "__post_init__")
    assert "require_unitary" not in names_under(post_init)
