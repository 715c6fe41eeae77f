"""The mutation table of ``tests/mutants.py`` stays applicable: a row whose old
text no longer occurs exactly once fails here, before the runner is run."""

from pathlib import Path

import pytest

from mutants import MUTANTS, Mutant, StaleRow, apply

SRC = Path(__file__).resolve().parent.parent / "src"


def test_every_row_applies_to_the_tree_exactly_once(tmp_path):
    assert len({mutant.name for mutant in MUTANTS}) == len(MUTANTS)
    stale = []
    for mutant in MUTANTS:
        module = SRC / "isofloer" / mutant.module
        target = tmp_path / "isofloer" / mutant.module
        target.parent.mkdir(exist_ok=True)
        target.write_text(module.read_text(encoding="utf-8"), encoding="utf-8")
        try:
            apply(mutant, tmp_path)
        except StaleRow as exc:
            stale.append((mutant.name, str(exc)))
            continue
        assert target.read_text(encoding="utf-8") != module.read_text(encoding="utf-8")
    assert stale == []


@pytest.mark.parametrize("old", ["x = 1\n", "y = 2\n"], ids=["twice", "absent"])
def test_a_stale_row_is_refused(tmp_path, old):
    (tmp_path / "isofloer").mkdir()
    (tmp_path / "isofloer" / "m.py").write_text("x = 1\nx = 1\n", encoding="utf-8")
    with pytest.raises(StaleRow):
        apply(Mutant("stale", "m.py", old, "x = 2\n", ()), tmp_path)
