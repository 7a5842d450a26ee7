"""Rules on the package source that the tests can check mechanically."""

import ast
import importlib.util
import pathlib

import convcode
import convcode.cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "convcode"


def test_no_assert_statements_in_package():
    # `python -O` strips asserts; certificates must raise InternalError instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_benchmark_tracer_patches_and_restores():
    # `perfbench/run.py --trace 1` wraps module attributes by name, so a
    # renamed function must fail here rather than crash a traced run
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer(convcode)
    try:
        tracer.install()
        patched = list(tracer._saved)
        assert patched and all(getattr(o, a) is not orig for o, a, orig in patched)
    finally:
        tracer.uninstall()
    assert all(getattr(o, a) is orig for o, a, orig in patched)
