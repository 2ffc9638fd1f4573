"""Line reach of the test suite: every executable line of ``src/tnnsim``
that no test runs.

Run it from any directory, with a Python that has numpy, pytest and
hypothesis:

    python tests/reached.py

It runs the whole suite in this process under a ``sys.settrace`` line
tracer that records the lines each frame of ``src/tnnsim`` executes, then
lists every line some code object of those files holds that no frame
reached. The exit status is 1 if the suite fails, if an unreached line is
not in ``ALLOWED``, or if an ``ALLOWED`` entry no longer names an
unreached line; otherwise 0.

Code that runs only in a child process, such as a module's ``__main__``
guard under ``python -m``, is not traced, so it is allowlisted. Reach is
line-level: a line whose condition is tested both ways counts once, so a
check whose one side no input can take does not show here.

The file is not collected by the suite, since its name does not start with
``test_``, and it is not named ``coverage.py``: ``tests/`` is on pytest's
path, where that name would shadow the ``coverage`` package.
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "tnnsim"

# Unreached lines that are meant to be: (file in ``src/tnnsim``, stripped
# source line) -> why no test in this process reaches it.
ALLOWED = {
    ("cli.py", "raise SystemExit(main())"): "runs only as `python -m tnnsim.cli`",
    ("synth.py", "raise SystemExit(main())"): "runs only as `python -m tnnsim.synth`",
}


def executable_lines(path: Path) -> set[int]:
    """The line numbers the instructions of every code object in ``path``
    carry, the module's own and each nested one; a module's first
    instruction carries line 0, which is no line of the file."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, CodeType))
    return lines


def run_suite(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest on ``args`` from the checkout root, tracing every frame
    whose code lies in ``src/tnnsim``; returns pytest's exit status and the
    lines reached, by file."""
    import pytest

    prefix = str(SRC) + os.sep
    reached: dict[str, set[int]] = {}
    ours: dict[CodeType, bool] = {}

    def local(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        code = frame.f_code
        if code not in ours:
            ours[code] = code.co_filename.startswith(prefix)
            reached.setdefault(code.co_filename, set())
        return local if ours[code] else None

    os.chdir(ROOT)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), reached


def main() -> int:
    sys.stdout.reconfigure(line_buffering=True)
    # The copy under test is this checkout's, not an installed one.
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    status, reached = run_suite(sys.argv[1:])
    unreached, stale = [], dict(ALLOWED)
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text().splitlines()
        for line in sorted(executable_lines(path) - reached.get(str(path), set())):
            source = text[line - 1].strip()
            reason = stale.pop((path.name, source), None)
            rel = path.relative_to(ROOT)
            if reason is None:
                unreached.append(f"{rel}:{line}: {source}")
            else:
                print(f"allowed   {rel}:{line}: {source} ({reason})")
    for line in unreached:
        print(f"UNREACHED {line}")
    for name, source in stale:
        print(f"STALE     {name}: {source!r} is reached or gone; drop it from ALLOWED")
    print(f"{len(unreached)} unreached lines outside the allowlist")
    if status:
        print(f"the suite failed (pytest exit {status})")
    return 1 if status or unreached or stale else 0


if __name__ == "__main__":
    sys.exit(main())
