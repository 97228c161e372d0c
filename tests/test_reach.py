"""The reach recorder (``tests/reach.py``) on a tiny script."""

import io
import textwrap

from . import reach

SCRIPT = textwrap.dedent("""\
    import os
    import subprocess
    import sys
    import threading


    def in_main():
        return "main"


    def in_thread():
        return "thread"


    def after_clear():
        return "cleared"


    def in_child():
        return "child"


    def in_fork():
        return "fork"


    def never_called():
        x = 1
        return x


    if __name__ == "__main__":
        if sys.argv[1:] == ["child"]:
            in_child()
            sys.exit(0)
        in_main()
        worker = threading.Thread(target=in_thread)
        worker.start()
        worker.join()
        sys.settrace(None)
        after_clear()
        subprocess.run([sys.executable, __file__, "child"], check=True)
        pid = os.fork()
        if pid == 0:
            in_fork()
            os._exit(0)
        os.waitpid(pid, 0)
""")


def _line_of(text: str) -> int:
    return SCRIPT.splitlines().index(text) + 1


def test_records_every_way_a_line_runs(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    script = pkg / "script.py"
    script.write_text(SCRIPT)
    data = tmp_path / "data"
    rc = reach.main(["exec", "--data", str(data), "--root", str(pkg),
                     "--", "python", str(script)])
    assert rc == 0

    reached = reach.load_reached([data])[str(script.resolve())]
    for body in ('    return "main"', '    return "thread"',
                 '    return "cleared"', '    return "child"',
                 '    return "fork"'):
        assert _line_of(body) in reached, body
    assert _line_of("    x = 1") not in reached

    out = io.StringIO()
    totals = reach.report([data], pkg, wholly=True, out=out)
    assert totals["wholly_unreached"] == [
        f"pkg/script.py:{_line_of('def never_called():')} never_called"]
    assert (f"never_called (l. {_line_of('def never_called():')}): "
            "2/2  [whole]") in out.getvalue()


def test_steps_mirror_ci():
    """Every CI step is in a step set or is set-up, and every step in a
    set has a run script in ci.yml."""
    steps = reach.ci_steps()
    in_sets = {name for names in reach.STEP_SETS.values() for name in names}
    assert set(steps) == in_sets | set(reach.SETUP_STEPS)
    assert all(steps[name].strip() for name in in_sets)
