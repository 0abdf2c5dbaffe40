"""The mutant table of `mutants.py` matches the package source.

Every line a mutant replaces occurs exactly once in `src/mbirnet`, in the
module the mutant names, so a change that rewrites a listed line must update
its mutant.  Running the mutants takes minutes (`python tests/mutants.py`), so
it is not part of the suite.
"""

from pathlib import Path

from mutants import MUTANTS

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mbirnet"


def test_every_mutated_line_occurs_once_in_src():
    sources = {p.name: p.read_text().splitlines() for p in PACKAGE.glob("*.py")}
    assert len({m.label for m in MUTANTS}) == len(MUTANTS)
    for mutant in MUTANTS:
        found = {name: sum(text.strip() == mutant.line for text in lines)
                 for name, lines in sources.items()}
        assert {name: n for name, n in found.items() if n} == {mutant.module: 1}, mutant.label
        assert mutant.replacement.strip() not in ("", mutant.line), mutant.label
