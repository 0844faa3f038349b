"""Print the executable lines of src/coverspec that the test suite never
reaches.

Usage, from anywhere:

    python tools/unreached.py [pytest arguments]

Runs `python -m pytest -q -p no:cacheprovider --continue-on-collection-errors`
(plus any arguments given) in the repository root under a line tracer:
sys.settrace, and threading.settrace, on every frame whose code lives under
src/.  The tracer reaches the child processes the tests start, such as
`python -m coverspec.cli`, through a sitecustomize module written to a
temporary directory that is put first on PYTHONPATH; each process dumps the
lines it reached there at exit.  Nothing is written into the repository:
bytecode caching is off and pytest's cache plugin is disabled.  The
executable lines of a module are those of its compiled code objects
(co_lines), so a comment or the docstring of a function never counts.

The output is one line per module with unreached lines, as
`covers.py: 12, 40-42`.  The traced suite runs about five times slower
than the plain one: 295-340 s against 61-66 s on a shared 2-CPU machine
(Python 3.11).

The arguments are passed on to pytest, so naming test modules traces
only those; the lines of the other modules then read as unreached, and
only the lines of the modules they test are worth reading.  For example

    python tools/unreached.py tests/test_twist.py tests/test_cli.py \
        tests/test_acceptance.py

takes about a minute (47-65 s) against about 300 s for the full suite, and its
`twist.py` line lists what those three modules leave unreached there.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "coverspec"

SITECUSTOMIZE = '''
import atexit, json, os, sys, threading
_src, _out, _seen = {src!r}, {out!r}, {{}}

def _local(frame, event, arg):
    if event == "line":
        _seen[frame.f_code.co_filename].add(frame.f_lineno)
    return _local

def _global(frame, event, arg):
    name = frame.f_code.co_filename
    if not name.startswith(_src):
        return None
    _seen.setdefault(name, set()).add(frame.f_lineno)
    return _local

def _dump():
    sys.settrace(None)
    with open(os.path.join(_out, f"{{os.getpid()}}.json"), "w") as fh:
        json.dump({{k: sorted(v) for k, v in _seen.items()}}, fh)

atexit.register(_dump)
sys.settrace(_global)
threading.settrace(_global)
'''


def executable_lines(path):
    """The line numbers of every code object compiled from path."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def ranges(numbers):
    """'3, 7-9' for [3, 7, 8, 9]."""
    spans = []
    for n in sorted(numbers):
        if spans and spans[-1][1] == n - 1:
            spans[-1][1] = n
        else:
            spans.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def main(argv):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "lines")
        os.mkdir(out)
        Path(tmp, "sitecustomize.py").write_text(SITECUSTOMIZE.format(
            src=str(ROOT / "src"), out=out))
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                   PYTHONPATH=os.pathsep.join(filter(None, (
                       tmp, str(ROOT / "src"), os.environ.get("PYTHONPATH")))))
        subprocess.run([sys.executable, "-m", "pytest", "-q", "-p",
                        "no:cacheprovider", "--continue-on-collection-errors",
                        *argv], cwd=ROOT, env=env, check=False)
        reached = {}
        for dump in Path(out).glob("*.json"):
            for name, lines in json.loads(dump.read_text()).items():
                reached.setdefault(os.path.realpath(name), set()).update(lines)
    for path in sorted(SRC.glob("*.py")):
        missing = executable_lines(path) - reached.get(
            os.path.realpath(path), set())
        if missing:
            print(f"{path.name}: {ranges(missing)}")


if __name__ == "__main__":
    main(sys.argv[1:])
