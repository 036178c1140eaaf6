"""Count the code lines of each ``src/tvd`` module, and of each tree.

A code line is a non-blank line whose first non-space character is not
``#``; docstrings count. One line per ``src/tvd`` module, then one total
line for each of ``src/tvd``, ``tests`` and ``perfbench``, so that a net
line delta over any of them comes from this script. It only reads the
files. Run from anywhere: ``python scripts/sloc.py``.
"""

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TREES = ("src/tvd", "tests", "perfbench")


def code_lines(path: Path) -> int:
    stripped = (line.strip() for line in path.read_text(encoding="utf-8").splitlines())
    return sum(1 for line in stripped if line and not line.startswith("#"))


def main() -> None:
    for path in sorted((ROOT / TREES[0]).glob("*.py")):
        print(f"{code_lines(path):6d}  {path.name}")
    for tree in TREES:
        print(f"{sum(code_lines(path) for path in (ROOT / tree).glob('*.py')):6d}  {tree}")


if __name__ == "__main__":
    main()
