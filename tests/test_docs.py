"""Docs that name code, checked against the code."""

import pathlib

from repro.experiments.figures import tab3_loc

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _section(doc: str, heading: str) -> str:
    text = (ROOT / doc).read_text()
    start = text.index(heading)
    return text[start:text.index("\n## ", start + len(heading))]


def test_design_inventory_names_exactly_the_modules():
    """DESIGN.md §3 lists every module under ``src/repro`` (packages'
    ``__init__.py`` aside) and nothing that is not there."""
    block = _section("DESIGN.md", "## 3. Package inventory").split("```")[1]
    listed, package = set(), ""
    for line in block.splitlines():
        if not line.strip():
            continue
        indent = len(line) - len(line.lstrip())
        name = line.split()[0]
        if indent == 2:
            package = name if name.endswith("/") else ""
        if name.endswith(".py") and indent in (2, 4):
            listed.add(package + name if indent == 4 else name)
    src = ROOT / "src" / "repro"
    modules = {
        path.relative_to(src).as_posix()
        for path in src.rglob("*.py") if path.name != "__init__.py"
    }
    assert sorted(listed - modules) == [], "listed but missing"
    assert sorted(modules - listed) == [], "present but not listed"


def test_experiments_table3_matches_tab3_loc():
    """EXPERIMENTS.md Table 3's "this repo LoC" column is what
    ``run tab3`` prints, row for row."""
    lines = _section("EXPERIMENTS.md", "## Table 3").splitlines()
    rows = [line.split("|")[1:-1] for line in lines if line.startswith("| ")]
    header, *body = rows
    assert [cell.strip() for cell in header] == [
        "component", "paper LoC", "this repo LoC"]
    documented = [(cells[0].strip().lower(), int(cells[2])) for cells in body]
    assert documented == [(r["component"], r["loc"]) for r in tab3_loc().rows]
