"""Reachability report: the functions in src/lcdshare/ that no entry point enters.

    python tests/reach.py [--runs FILE]

The entry points are the six demos and bench/run.py --self-check.
Every entry point runs in this one process, with the working directory
set to the repository root, under a sys.settrace hook that records call
events only: it returns None, so no line is traced.  The functions are
the named code objects compiled from the files of src/lcdshare/, keyed
by file, first line and name.  <module>, lambdas, comprehensions and
generator expressions are skipped; the methods a dataclass generates are
compiled from strings, so they are never among them.

The report prints each function that nothing enters, with its reason
from KEEP if it has one, and exits 1 if any of them has none: such a
function is a candidate for deletion.  KEEP names only functions that
no entry point enters: the report also prints each KEEP name whose
function an entry point does enter, and exits 1 on one, since its
reason no longer explains anything.  It also exits 1 if an entry point
exits non-zero.  With --runs it writes each entry point's exit status
and standard output and error to FILE as JSON, keyed by its path and
arguments, so that the tests of the demos and of the self-check read
them instead of running each entry point again.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import json
import os
import runpy
import sys
import tempfile
import traceback
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "lcdshare"
DEMOS = tuple(sorted((ROOT / "demos").glob("*.py")))
SELF_CHECK = (ROOT / "bench" / "run.py", "--self-check")

KEEP = {
    "io_formats.read_deal_record": "public reader of a documented format",
    "scheme.deal_one": (
        "bench/spans.py LAYERS looks it up with getattr; "
        "waits for ROADMAP item 6 or a benchmark change"
    ),
    "cli.main_entry": "the console script in pyproject.toml",
    "scheme.verify_shares": (
        "the library's form of CLI verify's batched audit, and what the audit "
        "differential tests"
    ),
    "codes.random_code": (
        "the only generator of codes not filtered for LCD; non-LCD test cases, "
        "three differential suites and the acceptance tests draw from it"
    ),
    "linalg._RArray.__hash__": "frozen Share and DealRecord hash through their vectors",
    "linalg._RArray.__repr__": "diagnostics",
    "linalg.RVector.__getitem__": "part of the read protocol with __len__ and __iter__",
}


def functions() -> dict[tuple[str, int, str], str]:
    """Every named function in src/lcdshare/, keyed by (file, first
    line, name), valued by its module-qualified name.  The qualified
    name is built as the compiler builds co_qualname, which Python 3.10
    lacks: a class body adds "Name.", a function "name.<locals>."."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        stack = [(compile(path.read_text(encoding="utf-8"), str(path), "exec"), "")]
        while stack:
            code, prefix = stack.pop()
            qualname = prefix + code.co_name
            if code.co_name == "<module>":
                inner = ""
            else:
                local = code.co_flags & inspect.CO_NEWLOCALS
                inner = qualname + (".<locals>." if local else ".")
            stack += [(c, inner) for c in code.co_consts if isinstance(c, types.CodeType)]
            if not code.co_name.startswith("<"):
                key = (str(path), code.co_firstlineno, code.co_name)
                found[key] = f"{path.stem}.{qualname}"
    return found


@contextlib.contextmanager
def _entry_point_context(argv: list[str], out: io.StringIO, err: io.StringIO):
    """The repository root as cwd, a scratch temporary directory,
    standard output and error sent to out and err, and sys.argv,
    sys.path and os.environ restored afterwards."""
    saved = (os.getcwd(), sys.argv[:], sys.path[:], dict(os.environ), tempfile.tempdir)
    with tempfile.TemporaryDirectory(prefix="lcdshare-reach-") as scratch:
        try:
            os.chdir(ROOT)
            sys.argv = argv
            sys.path[:0] = [str(ROOT / "src")]
            tempfile.tempdir = scratch
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                yield
        finally:
            cwd, sys.argv, sys.path[:], environ, tempfile.tempdir = saved
            os.environ.clear()
            os.environ.update(environ)
            os.chdir(cwd)


def _run(script: Path, *args: str) -> dict:
    """Run one entry point: its exit status as a process would give it
    (1 for an uncaught exception, whose traceback goes to its standard
    error), and its standard output and error."""
    out, err = io.StringIO(), io.StringIO()
    with _entry_point_context([str(script), *args], out, err):
        try:
            runpy.run_path(str(script), run_name="__main__")
            status = 0
        except SystemExit as exc:
            status = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception:
            traceback.print_exc()
            status = 1
    return {"exit": status, "stdout": out.getvalue(), "stderr": err.getvalue()}


def never_entered(entry_points) -> tuple[list[tuple[str, str]], dict[str, dict]]:
    """(name, file:line) of each function in src/lcdshare/ that none of
    entry_points enters, and what each entry point's run gave (see _run),
    keyed by its path from the repository root and its arguments; an
    entry point is a script path and its arguments.  Whatever trace
    function was set before is set again."""
    runs = {}
    entered: set[types.CodeType] = set()

    def record(frame, event, arg):
        entered.add(frame.f_code)

    previous = sys.gettrace()
    sys.settrace(record)
    try:
        for script, *args in entry_points:
            label = " ".join([str(Path(script).relative_to(ROOT)), *args])
            runs[label] = _run(script, *args)
    finally:
        sys.settrace(previous)
    reached = {
        (os.path.realpath(c.co_filename), c.co_firstlineno, c.co_name) for c in entered
    }
    unentered = [
        (name, f"{Path(path).relative_to(ROOT)}:{line}")
        for (path, line, code_name), name in sorted(functions().items())
        if (os.path.realpath(path), line, code_name) not in reached
    ]
    return unentered, runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", help="write each entry point's exit status and output here")
    args = parser.parse_args(argv)
    unentered, runs = never_entered([(demo,) for demo in DEMOS] + [SELF_CHECK])
    if args.runs:
        Path(args.runs).write_text(json.dumps(runs, indent=1), encoding="utf-8")
    print(f"{len(unentered)} functions in src/lcdshare/ never entered")
    for name, where in unentered:
        print(f"  {name} ({where}): {KEEP.get(name, 'NOT IN KEEP')}")
    stale = [name for name in KEEP if name not in dict(unentered)]
    for name in stale:
        print(f"  {name} is in KEEP but an entry point enters it")
    failed = {label: run for label, run in runs.items() if run["exit"] != 0}
    for label, run in failed.items():
        print(f"{label} exited with {run['exit']}:\n{run['stderr']}")
    return 0 if all(name in KEEP for name, _ in unentered) and not stale and not failed else 1


if __name__ == "__main__":
    sys.exit(main())
