#!/usr/bin/env python3
"""The lines of src/convcode that nothing the package is used for runs.

    python3 tools/reach.py

Run from the root of a checkout.  In one process, with that checkout's
`src/` first on `sys.path`, it traces `src/convcode/*.py` with
`sys.settrace` while it runs every argv of `tests/golden/cli.json` through
`convcode.cli.main` (output discarded), every `demos/0*.py`, and every
item of the seed-1 corpus of each workload in `BENCHMARK.json`, which
`perfbench/workloads.build` writes into a temporary directory.  It then
prints, per module, the executable statement lines (docstrings excluded)
that none of them reached, and their total: the candidates for deletion,
each of which only tests, or nothing, still runs.  It uses the standard
library alone and writes nothing in the checkout.
"""

from __future__ import annotations

import ast
import contextlib
import json
import os
import pathlib
import runpy
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "convcode"


def statements(path: pathlib.Path) -> set[int]:
    """The first line of every statement of the module, docstrings excluded."""
    tree = ast.parse(path.read_text())
    docs = {id(node.body[0]) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and ast.get_docstring(node, clean=False) is not None}
    return {node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.stmt) and id(node) not in docs}


def unreached(argvs, demos) -> dict[str, list[int]]:
    """Per module file name, the statement lines that neither running each
    argv through `convcode.cli.main` nor each demo script reached.

    A module imported before the call has its import-time lines unreached.
    A code object stops being traced once every line it holds has run."""
    files = {str(path): path.name for path in sorted(PACKAGE.glob("*.py"))}
    hits = {name: set() for name in files.values()}
    modules: dict = {}  # co_filename -> the hits of its module, or None
    left: dict = {}  # code object -> (its lines not run yet, the hits of its module)
    done: set = set()  # code objects whose every line has run

    def local(frame, event, arg):
        if event != "line":
            return local
        lines, seen = left[frame.f_code]
        seen.add(frame.f_lineno)
        lines.discard(frame.f_lineno)
        if lines:
            return local
        done.add(frame.f_code)
        return None

    def calls(frame, event, arg):
        code = frame.f_code
        if code in done:
            return None
        if code not in left:
            path = code.co_filename
            if path not in modules:
                name = files.get(os.path.abspath(path))
                modules[path] = None if name is None else hits[name]
            if modules[path] is None:
                return None
            # a function's first line, its def, holds no line event
            lines = {line for _, _, line in code.co_lines()} - {None, code.co_firstlineno}
            left[code] = (lines, modules[path])
        return local

    here, tracer = os.getcwd(), sys.gettrace()
    os.chdir(ROOT)
    sys.settrace(calls)
    try:
        from convcode import cli

        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            for argv in argvs:
                try:
                    cli.main(list(argv))
                except SystemExit:
                    pass
            for demo in demos:
                runpy.run_path(str(demo), run_name="__main__")
    finally:
        sys.settrace(tracer)
        os.chdir(here)
    return {name: sorted(statements(PACKAGE / name) - hits[name]) for name in hits}


def main() -> int:
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src")]
    sys.path.append(str(ROOT / "perfbench"))
    import workloads

    argvs = [record["argv"] for record in json.loads((ROOT / "tests" / "golden" / "cli.json").read_text())]
    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            argvs += [item.argv for item in workloads.build(name, 1, os.path.join(tmp, name))]
        report = unreached(argvs, sorted((ROOT / "demos").glob("0*.py")))
    print("\n".join(summary(report)))
    return 0


def summary(report: dict[str, list[int]]) -> list[str]:
    """One line per module, its unreached count and lines, then the total."""
    rows = [f"{name}: {len(lines)} unreached" + (": " + " ".join(map(str, lines)) if lines else "")
            for name, lines in report.items()]
    return rows + [f"total: {sum(map(len, report.values()))} unreached"]


if __name__ == "__main__":
    sys.exit(main())
