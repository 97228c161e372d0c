"""Reach recorder: which lines of ``src/repro`` a set of commands runs.

No coverage tool is a dependency of this repo, so this is a small
stdlib ``sys.settrace`` line recorder.  ``run`` executes a step set with
the recorder injected into every Python process it starts, ``report``
lists what the recorded runs left unreached::

    python tests/reach.py run reach --data .reach/reach   # ~7 min
    python tests/reach.py run tier1 --data .reach/tier1
    python tests/reach.py report .reach/reach              # reach set alone
    python tests/reach.py report .reach/reach .reach/tier1 --wholly
    python tests/reach.py exec --data DIR -- python script.py

The **reach set** is what must keep working: every CI step after
tier-1 (the shape gate, the examples, the CLI and service smokes, the
crash drill, the microbench, the e2e workloads at the committed scale
and their self-test).  ``REACH_STEPS`` names those steps, and their
commands are read from ``.github/workflows/ci.yml`` so the two cannot
drift; ``tests/test_reach.py`` checks that the list covers every step.
Each step runs in a fresh ``REPRO_CACHE_DIR`` with its ``/tmp/`` paths
moved to a fresh directory, as on a clean CI machine, and a failing
step is reported without stopping the rest.

Injection: ``python``/``python3`` shims on ``PATH`` put a generated
``sitecustomize.py`` first on ``PYTHONPATH``, so every interpreter the
steps start records — e2e ``child.py`` runs, CLI steps, ``serve``
children and pool workers alike.  Each process writes one JSON dump
at exit, and at ``os._exit`` (forked pool workers leave that way).
The recorder survives the code that clears tracers: ``sys.settrace``
is wrapped so a ``None`` (pytest-benchmark pauses tracing around timed
code) re-installs it, and every other function — the hook
``threading`` installs in each new thread — passes through.  A code
object is no longer traced once all its lines have been seen.

Blind spot: a process killed by a signal (the crash drill's SIGKILLed
``serve``) writes nothing.

A function's ``def`` and decorator lines run when its module is
imported, so the report counts only body lines: those after the
code object's ``RESUME``.
"""

from __future__ import annotations

# Every recording process loads this file: the tool's own imports stay
# in the functions that need them.
import json
import os
import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
CI = ROOT / ".github" / "workflows" / "ci.yml"

#: The reach set: the CI steps (by name) that run after tier-1.
REACH_STEPS = (
    "Paper-shape checks (figure, table and ablation benches)",
    "Example scripts",
    "Mixed-policy ablation (smoke, 1/256 scale)",
    "Fault injection (smoke, 1/256 scale)",
    "Figure statistics without numpy (smoke, 1/256 scale)",
    "Scenario runner (smoke, example file end to end)",
    "Latency spans (smoke, example file end to end)",
    "Scenario service (smoke, local tcp)",
    "Crash recovery (smoke, SIGKILL the serve process)",
    "Engine microbenchmark (smoke, regression gate)",
    "End-to-end benchmark (committed scale, pinned hashes)",
    "End-to-end benchmark self-test",
)
#: CI steps that are not part of any step set (setup, lint).
SETUP_STEPS = ("Install ruff", "Lint", "Install dependencies")
STEP_SETS = {"reach": REACH_STEPS, "tier1": ("Tier-1 test suite",)}


# ------------------------------------------------------------ recorder
def body_lines(code) -> set[int]:
    """Lines of ``code`` that can fire a trace ``line`` event: those of
    the instructions after its ``RESUME`` (the prologue reports the
    ``def`` or first decorator line, which never fires)."""
    import dis

    lines, started = set(), False
    for ins in dis.get_instructions(code):
        if not started:
            started = ins.opname == "RESUME"
        elif ins.positions.lineno is not None:
            lines.add(ins.positions.lineno)
    return lines


def install(data: str, root: str) -> None:
    """Start recording, in this process and its threads, every line run
    in a file under ``root``; dump to ``data`` at exit."""
    import atexit
    import threading

    prefix = os.path.join(os.path.realpath(root), "")
    # Keyed by id(code): equal code objects from two files compare
    # equal.  ``codes`` keeps each one alive, so no id is reused.
    todo: dict = {}      # id(code) -> body lines not seen yet
    codes: dict = {}     # id(code) -> (code, all its body lines)
    inside: dict = {}    # co_filename -> is it under root?
    dumped = []

    def local(frame, event, arg):
        if event == "line":
            left = todo[id(frame.f_code)]
            left.discard(frame.f_lineno)
            if not left:
                return None
        return local

    def tracer(frame, event, arg):
        code = frame.f_code
        left = todo.get(id(code))
        if left is None:
            name = code.co_filename
            if name not in inside:
                inside[name] = os.path.realpath(name).startswith(prefix)
            if not inside[name]:
                return None
            codes[id(code)] = (code, frozenset(body_lines(code)))
            left = todo[id(code)] = set(codes[id(code)][1])
        return local if left else None

    real_settrace, real_exit = sys.settrace, os._exit

    def settrace(fn):
        real_settrace(tracer if fn is None else fn)

    def dump() -> None:
        if os.getpid() in dumped:
            return
        dumped.append(os.getpid())
        files: dict[str, set] = {}
        for key, (code, all_lines) in list(codes.items()):
            seen = all_lines - todo[key]
            if seen:
                path = os.path.realpath(code.co_filename)
                files.setdefault(path, set()).update(seen)
        out = pathlib.Path(data) / f"lines-{os.getpid()}-{time.time_ns()}.json"
        out.write_text(json.dumps({k: sorted(v) for k, v in files.items()}))

    def exit_after_dump(status):
        dump()
        real_exit(status)

    pathlib.Path(data).mkdir(parents=True, exist_ok=True)
    sys.settrace = settrace
    os._exit = exit_after_dump
    atexit.register(dump)
    threading.settrace(tracer)
    real_settrace(tracer)


SITECUSTOMIZE = """\
import importlib.util as _util
_spec = _util.spec_from_file_location("_reach_recorder", {recorder!r})
_mod = _util.module_from_spec(_spec)
_spec.loader.exec_module(_mod)
_mod.install({data!r}, {root!r})
"""

SHIM = """\
#!/bin/sh
PYTHONPATH={site}${{PYTHONPATH:+:$PYTHONPATH}} exec {python} "$@"
"""


def recording_env(data: pathlib.Path, root: pathlib.Path) -> dict:
    """An environment whose ``python``/``python3`` record into
    ``data``: shims on ``PATH`` put the generated ``sitecustomize.py``
    first on ``PYTHONPATH``, whatever the command sets it to.  The
    ``lines`` and ``site`` directories of an earlier recording into
    ``data`` are removed first; nothing else there is touched."""
    import shlex
    import shutil

    for sub in ("lines", "site"):
        shutil.rmtree(data / sub, ignore_errors=True)
    site = data / "site"
    site.mkdir(parents=True, exist_ok=True)
    (site / "sitecustomize.py").write_text(SITECUSTOMIZE.format(
        recorder=str(pathlib.Path(__file__).resolve()),
        data=str(data / "lines"), root=str(root)))
    for name in ("python", "python3"):
        shim = site / name
        shim.write_text(SHIM.format(site=shlex.quote(str(site)),
                                    python=shlex.quote(sys.executable)))
        shim.chmod(0o755)
    env = dict(os.environ)
    env["PATH"] = f"{site}{os.pathsep}{env.get('PATH', '')}"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(site), env.get("PYTHONPATH")) if p)
    return env


# ---------------------------------------------------------- CI steps
def ci_steps(path: pathlib.Path = CI) -> dict[str, str]:
    """``{step name: run script}`` for every named CI step with a
    ``run`` (plain or ``|`` block), in file order."""
    import re
    import textwrap

    steps, name, block, indent = {}, None, None, 0
    for line in path.read_text().splitlines():
        if block is not None:
            if line.strip() and len(line) - len(line.lstrip()) <= indent:
                steps[name], block = textwrap.dedent("\n".join(block)), None
            else:
                block.append(line)
                continue
        match = re.match(r"\s*- name: (.+)$", line)
        if match:
            name = match.group(1).strip()
            continue
        match = re.match(r"(\s*)run: (.*)$", line)
        if match and name is not None:
            if match.group(2).strip() == "|":
                block, indent = [], len(match.group(1))
            else:
                steps[name] = match.group(2).strip()
    if block is not None:
        steps[name] = textwrap.dedent("\n".join(block))
    return steps


def run_steps(names, data: pathlib.Path, root: pathlib.Path) -> int:
    """Run the named CI steps under the recorder; returns how many
    failed."""
    import subprocess
    import tempfile

    scripts = ci_steps()
    missing = [n for n in names if n not in scripts]
    if missing:
        raise SystemExit(f"not a CI step with a run script: {missing}")
    env = recording_env(data, root)
    failed = 0
    for name in names:
        with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
            step_env = dict(env, REPRO_CACHE_DIR=f"{tmp}/cache")
            script = scripts[name].replace("/tmp/", f"{tmp}/")
            t0 = time.perf_counter()
            rc = subprocess.run(
                ["bash", "--noprofile", "--norc", "-eo", "pipefail", "-c",
                 script], cwd=ROOT, env=step_env).returncode
        failed += rc != 0
        print(f"[reach] {name}: rc={rc} in "
              f"{time.perf_counter() - t0:.0f}s", flush=True)
    return failed


# ------------------------------------------------------------- report
def _code_tree(code, parent=None):
    import types

    yield code, parent
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_tree(const, code)


def _is_function(code) -> bool:
    from inspect import CO_OPTIMIZED

    return bool(code.co_flags & CO_OPTIMIZED) and not code.co_name.startswith("<")


def _owner(code, parent_owner):
    """The function a code object's lines are reported under, or
    ``None`` for code that runs at import (module and class bodies,
    and comprehensions inside them)."""
    if _is_function(code) or (code.co_name == "<lambda>"
                              and parent_owner is None):
        return code
    return parent_owner


def functions_of(path: pathlib.Path):
    """``(qualname, def line, body lines)`` per function of a source
    file — lambdas and comprehensions count with the function they sit
    in — plus the module's own executable lines (module and class
    bodies: what runs at import)."""
    module = compile(path.read_text(), str(path), "exec")
    owner, funcs, import_lines = {}, {}, set()
    for code, parent in _code_tree(module):
        target = owner[id(code)] = _owner(code, owner.get(id(parent)))
        if target is None:
            import_lines |= body_lines(code)
        else:
            funcs.setdefault(target, set()).update(body_lines(code))
    rows = [(c.co_qualname, c.co_firstlineno, lines)
            for c, lines in funcs.items() if lines]
    return sorted(rows, key=lambda r: r[1]), import_lines


def _ranges(lines) -> str:
    """``[3, 4, 5, 9]`` -> ``"3-5,9"``."""
    runs: list[list[int]] = []
    for n in sorted(lines):
        if runs and n == runs[-1][-1] + 1:
            runs[-1].append(n)
        else:
            runs.append([n])
    return ",".join(f"{r[0]}-{r[-1]}" if len(r) > 1 else str(r[0])
                    for r in runs)


def load_reached(dirs) -> dict[str, set]:
    reached: dict[str, set] = {}
    for d in dirs:
        for dump in sorted(pathlib.Path(d, "lines").glob("lines-*.json")):
            for path, lines in json.loads(dump.read_text()).items():
                reached.setdefault(path, set()).update(lines)
    return reached


def report(dirs, root: pathlib.Path, wholly: bool = False,
           out=sys.stdout) -> dict:
    """Print, per module and per function, the body lines the dumps in
    ``dirs`` left unreached; returns the totals."""
    reached = load_reached(dirs)
    total = unreached_total = 0
    wholly_unreached = []
    for path in sorted(root.rglob("*.py")):
        name = path.relative_to(root.parent)
        seen = reached.get(os.path.realpath(path), set())
        rows, import_lines = functions_of(path)
        executable = set(import_lines)
        shown = []
        if import_lines - seen and not wholly:
            shown.append(f"  <import>: {_ranges(import_lines - seen)}")
        for qualname, first, body in rows:
            executable |= body
            missed = body - seen
            if missed == body:
                wholly_unreached.append(f"{name}:{first} {qualname}")
            if missed == body or (missed and not wholly):
                tag = "  [whole]" if missed == body else ""
                shown.append(f"  {qualname} (l. {first}): "
                             f"{len(missed)}/{len(body)}{tag}  "
                             f"{_ranges(missed)}")
        missed_total = len(executable - seen)
        total += len(executable)
        unreached_total += missed_total
        if shown:
            print(f"{name}: {missed_total} of {len(executable)} unreached",
                  file=out)
            print("\n".join(shown), file=out)
    share = unreached_total / total if total else 0.0
    print(f"[reach] {unreached_total} of {total} executable lines "
          f"unreached ({share:.1%}); {len(wholly_unreached)} functions "
          "wholly unreached", file=out)
    return {"executable": total, "unreached": unreached_total,
            "wholly_unreached": wholly_unreached}


# ---------------------------------------------------------------- CLI
def main(argv=None) -> int:
    import argparse
    import subprocess

    parser = argparse.ArgumentParser(
        prog="python tests/reach.py",
        description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run", help="run a step set under the recorder")
    run.add_argument("steps", choices=sorted(STEP_SETS))
    ex = sub.add_parser("exec", help="run one command under the recorder")
    ex.add_argument("command", nargs=argparse.REMAINDER)
    for p in (run, ex):
        p.add_argument("--data", type=pathlib.Path,
                       default=ROOT / ".reach", help="dump directory "
                       "(an earlier recording there is replaced; "
                       "default %(default)s)")
    rep = sub.add_parser("report", help="list unreached lines")
    rep.add_argument("dirs", nargs="+", type=pathlib.Path,
                     help="dump directories; their union is reported")
    rep.add_argument("--wholly", action="store_true",
                     help="list only functions with no body line reached")
    for p in (run, ex, rep):
        p.add_argument("--root", type=pathlib.Path, default=SRC,
                       help="record files under this directory "
                            "(default %(default)s)")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    if args.cmd == "run":
        return 1 if run_steps(STEP_SETS[args.steps], args.data.resolve(),
                              root) else 0
    if args.cmd == "exec":
        command = args.command[args.command[:1] == ["--"]:]
        env = recording_env(args.data.resolve(), root)
        return subprocess.run(command, env=env).returncode
    report(args.dirs, root, wholly=args.wholly)
    return 0


if __name__ == "__main__":
    sys.exit(main())
