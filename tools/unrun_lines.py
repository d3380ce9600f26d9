"""Print each line of a function body in src/sggkit that a command never runs, as in
``python3 tools/unrun_lines.py -m pytest -q``: the command runs in this process, as
``python3 <args>`` would, under a sys.settrace line tracer. Module and class bodies,
which run at import, and subprocesses are not covered.
"""
import contextlib
import runpy
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "sggkit"
ran, paths = set(), {}  # the (file, line) pairs run; each code filename's resolved path, or "" outside SRC


def trace(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in paths:
        paths[name] = str(Path(name).resolve()) if Path(name).resolve().parent == SRC else ""
    if paths[name]:
        ran.add((paths[name], frame.f_lineno))
        return trace


def body_lines(code):  # the lines of each function (CO_OPTIMIZED, unlike a class body) nested in code
    for c in (c for c in code.co_consts if hasattr(c, "co_lines")):
        yield from (line for _, _, line in c.co_lines() if c.co_flags & 1 and line and line != c.co_firstlineno)
        yield from body_lines(c)


module = sys.argv[1] == "-m"
sys.argv = sys.argv[1 + module:]
sys.path[0] = str(Path.cwd() if module else Path(sys.argv[0]).resolve().parent)  # as python3 would set it
sys.settrace(trace)
with contextlib.suppress(SystemExit):
    (runpy.run_module if module else runpy.run_path)(sys.argv[0], run_name="__main__")
sys.settrace(None)
for path in sorted(SRC.glob("*.py")):
    lines = (text := path.read_text(encoding="utf-8")).splitlines()
    for line in sorted(set(body_lines(compile(text, path, "exec"))) - {l for f, l in ran if f == str(path)}):
        print(f"{path.relative_to(SRC.parent.parent)}:{line}: {lines[line - 1].strip()}")
