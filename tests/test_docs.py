"""Docs that name code, checked against the code."""

import ast
import pathlib
import re

from repro.experiments.figures import tab3_loc
from repro.faults import FAULT_KINDS

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


CLI = "python -m repro.experiments.run"


def _documented_cli_flags(doc: str) -> set[str]:
    """Every ``--flag`` a doc shows on a ``python -m
    repro.experiments.run`` command: fenced lines and their backslash
    continuations, or one inline code span; ``#`` comments and anything
    after a pipe or ``;`` are not part of the command."""
    flags, command = set(), False
    for line in (ROOT / doc).read_text().splitlines():
        at = line.find(CLI)
        if at < 0 and not command:
            continue
        part = line[at:] if at >= 0 else line
        inline = at > 0 and line[:at].count("`") % 2 == 1
        if inline:
            part = part.split("`")[0]
        command = not inline and line.rstrip().endswith("\\")
        part = re.split(r"\s#|\||;|&&", part)[0]
        flags.update(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", part))
    return flags


def test_documented_cli_flags_exist():
    """Every flag README.md, DESIGN.md or EXPERIMENTS.md shows with the
    experiment runner is one ``run.py`` adds with ``add_argument``."""
    tree = ast.parse((ROOT / "src/repro/experiments/run.py").read_text())
    parsed = {
        arg.value for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) == "add_argument"
        for arg in node.args
        if isinstance(arg, ast.Constant) and str(arg.value).startswith("--")
    }
    assert "--profile" in parsed and "--journal" in parsed
    for doc in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
        shown = _documented_cli_flags(doc)
        assert sorted(shown - parsed) == [], doc


def test_design_fault_kinds_match_the_code():
    """DESIGN.md's fault model lists exactly ``FAULT_KINDS``, and
    counts them right."""
    text = (ROOT / "DESIGN.md").read_text()
    head = re.search(r"with (\w+) event kinds:\n", text)
    words = {2: "two", 3: "three", 4: "four", 5: "five"}
    assert head.group(1) == words[len(FAULT_KINDS)]
    kinds = []
    for line in text[head.end():].splitlines():
        bullet = re.match(r"  \* `(\w+)`", line)
        if bullet:
            kinds.append(bullet.group(1))
        elif not line.startswith("    "):
            break
    assert kinds == list(FAULT_KINDS)
