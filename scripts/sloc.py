"""Count the code lines of each ``src/tvd`` module and of the package.

A code line is a non-blank line whose first non-space character is not
``#``; docstrings count. Run from anywhere: ``python scripts/sloc.py``.
"""

from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tvd"


def code_lines(path: Path) -> int:
    stripped = (line.strip() for line in path.read_text(encoding="utf-8").splitlines())
    return sum(1 for line in stripped if line and not line.startswith("#"))


def main() -> None:
    counts = {path.name: code_lines(path) for path in sorted(PACKAGE.glob("*.py"))}
    for name, count in counts.items():
        print(f"{count:6d}  {name}")
    print(f"{sum(counts.values()):6d}  src/tvd")


if __name__ == "__main__":
    main()
