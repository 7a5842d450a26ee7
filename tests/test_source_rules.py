"""Rules on the package source that the tests can check mechanically."""

import ast
import importlib.util
import json
import math
import os
import pathlib
import re
import subprocess
import sys

import convcode
import convcode.cli
from convcode.polyalg import MINOR_TERM_CEILING

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


def test_limits_are_raised_by_the_one_check():
    # every count-versus-bound refusal goes through errors.check_limit, which
    # names a count too large to print; only the undetermined free distance,
    # which compares no count with a bound, raises LimitError itself
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "errors.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = set()
        if path.name == "spectrum.py":
            fn = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "free_distance")
            allowed = {id(n) for n in ast.walk(fn)}
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Raise) and node.exc is not None and id(node) not in allowed
            and "LimitError" in ast.unparse(node.exc)
        ]
    assert found == []


def test_dense_adjacency_view_is_read_only_for_rendering():
    # Lambda is stored as sparse rows; only display and JSON expand it
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        if path.name not in ("spectrum.py", "cli.py")
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr in ("entries", "dense")
    ]
    assert found == []


def test_no_function_calls_row_iterate():
    # recovery grows the support of Gamma^r over the sparse rows; row_iterate
    # keeps no caller in the package
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and "row_iterate" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    assert found == []


def test_cell_graphs_interns_the_cell_tables_only():
    # which cells are equal is read off each matrix's table, once per entry,
    # never off the cells of its rows
    tree = ast.parse((PACKAGE / "invariance.py").read_text())
    fn = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_cell_graphs")
    over_cells = {
        node.target.id
        for node in ast.walk(fn)
        if isinstance(node, (ast.comprehension, ast.For))
        and isinstance(node.target, ast.Name)
        and isinstance(node.iter, ast.Attribute)
        and node.iter.attr == "cells"
    }
    receivers = [
        node.func.value
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "terms"
    ]
    assert receivers
    assert all(isinstance(r, ast.Name) and r.id in over_cells for r in receivers)


def test_labelled_edges_are_built_only_for_rendering():
    # the diagram stores its transition tables, and the DOT and JSON writers
    # format the labels of labelled_transitions: no module defines, imports
    # or builds an Edge record (the tests keep theirs in genutil)
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ClassDef) and node.name == "Edge"
        or isinstance(node, ast.Name) and node.id == "Edge"
        or isinstance(node, ast.Attribute) and node.attr == "Edge"
        or isinstance(node, (ast.Import, ast.ImportFrom))
        and any(a.name == "Edge" for a in node.names)
    ]
    assert found == []


def test_edge_groups_are_read_by_adjacency_only_and_never_stored():
    # a StateDiagram holds the packed tables of its form, and its edge views
    # replay them; the (dst, weight) groups cost q^(gamma + k), so no field
    # of the diagram keeps edges, and no module of the package reads them:
    # Lambda is built off the tables, the view serves the tests and tools
    statediag = ast.parse((PACKAGE / "statediag.py").read_text())
    cls = next(n for n in statediag.body if isinstance(n, ast.ClassDef) and n.name == "StateDiagram")
    fields = [n.target.id for n in cls.body if isinstance(n, ast.AnnAssign)]
    assert fields == ["field", "gamma", "k", "n", "num_states", "form", "add", "xa", "xc", "ub", "ud",
                      "orbit", "reps"]
    view = next(n for n in cls.body if isinstance(n, ast.FunctionDef) and n.name == "edges_by_source")
    assert [getattr(d, "id", None) for d in view.decorator_list] == ["property"]
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            touches = (isinstance(node, ast.Attribute) and node.attr == "edges_by_source") or (
                isinstance(node, ast.keyword) and node.arg == "edges_by_source"
            )
            if touches:
                found.append(f"{path.name}:{getattr(node, 'lineno', '?')}")
    assert found == []


def test_destinations_are_formed_by_transitions_only():
    # statediag._blocks alone turns a source into its destinations, so no
    # other module reads a diagram's orbit map, and in statediag only
    # _blocks does; spectrum reads no table of the diagram at all: it has
    # no xA and forms no xA + uB row
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        if path.name != "statediag.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "orbit"
        or isinstance(node, ast.Name) and node.id == "orbit"
    ]
    tree = ast.parse((PACKAGE / "statediag.py").read_text())
    readers = {
        fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn) if isinstance(node, ast.Attribute) and node.attr == "orbit"
    }
    assert readers == {"_blocks"}
    found += [
        f"spectrum.py:{node.lineno}"
        for node in ast.walk(ast.parse((PACKAGE / "spectrum.py").read_text()))
        if isinstance(node, ast.Attribute) and node.attr in ("xa", "xc", "ub", "ud")
    ]
    assert found == []


def test_only_statediag_reads_the_diagram_tables():
    # a diagram's packed tables xA, xC, uB and uD are read in statediag
    # alone, which serves Lambda, Q, the edge views and the alphabet route;
    # `add` is not named here, as FieldSpec.add shares the name
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        if path.name != "statediag.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr in ("xa", "xc", "ub", "ud")
    ]
    assert found == []


def _function(name: str, fn: str) -> ast.FunctionDef:
    tree = ast.parse((PACKAGE / name).read_text())
    return next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == fn)


def _calls(tree, name: str) -> list:
    return [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]


def test_adjacency_makes_every_cell_in_one_pass_over_the_blocks():
    # Lambda, Q and the diagrams of block codes and of codes with a degree-0
    # row take their cells from the one key table over statediag._blocks:
    # spectrum never names the per-source views, and adjacency has one loop
    # over the blocks and makes one AdjMatrix
    views = r"\b(edges_by_source|labelled_transitions)\b"
    assert re.search(views, (PACKAGE / "spectrum.py").read_text()) is None
    fn = _function("spectrum.py", "adjacency")
    loops = [node for node in ast.walk(fn) if isinstance(node, ast.For) and _calls(node.iter, "_blocks")]
    assert len(loops) == len(_calls(fn, "_blocks")) == 1
    assert len(_calls(fn, "AdjMatrix")) == 1


def test_two_codes_lambda_are_compared_in_one_place():
    # "are the Lambda of these two codes conjugate?" is answered by
    # invariance.code_witness alone, which checks the search bound before
    # either Lambda is built; `equal` and `mono-equiv` both ask it
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in _calls(ast.parse(path.read_text(), filename=str(path)), "gen_adj_equal")
    ]
    assert len(found) == 1
    witness = _function("invariance.py", "code_witness")
    assert found == [f"invariance.py:{node.lineno}" for node in _calls(witness, "gen_adj_equal")]
    cli_tree = ast.parse((PACKAGE / "cli.py").read_text())
    assert _calls(cli_tree, "check_search_size") == [] and _calls(cli_tree, "gen_adj_equal") == []
    for module, fn in (("cli.py", "_cmd_equal"), ("invariance.py", "monomial_equiv")):
        assert len(_calls(_function(module, fn), "code_witness")) == 1


def test_polyalg_divides_in_the_gcd_and_the_one_row_step_only():
    # every F_q[z] reduction (Hermite form, diagonalization) subtracts the
    # Euclidean quotient of one row by another through polyalg._reduce
    tree = ast.parse((PACKAGE / "polyalg.py").read_text())
    callers = [
        fn.name for fn in tree.body
        if isinstance(fn, ast.FunctionDef) and _calls(fn, "poly_divmod")
    ]
    assert sorted(callers) == ["_reduce", "poly_gcd"]


def test_rendering_guard_is_checked_once_by_the_cli():
    # the CLI's _check_rendering holds the one rendering guard, and `diagram`
    # (--dot and --json alike) and `adjacency` call it before the controller
    # form, so dot_chunks neither checks it nor takes a switch to skip it
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in _calls(ast.parse(path.read_text(), filename=str(path)), "check_limit")
        if "rendering guard" in ast.unparse(node) or "DOT_CEILING" in ast.unparse(node)
    ]
    guard = _calls(_function("cli.py", "_check_rendering"), "check_limit")
    assert found == [f"cli.py:{node.lineno}" for node in guard if "DOT_CEILING" in ast.unparse(node)]
    assert len(found) == 1
    callers = [
        fn.name for fn in ast.parse((PACKAGE / "cli.py").read_text()).body
        if isinstance(fn, ast.FunctionDef) and _calls(fn, "_check_rendering")
    ]
    assert sorted(callers) == ["_cmd_adjacency", "_cmd_diagram"]
    for caller in callers:
        body = _function("cli.py", caller)
        guards = [node.lineno for node in _calls(body, "_check_rendering")]
        later = [node.lineno for node in _calls(body, "controller_form") + _calls(body, "code_adjacency")]
        assert len(guards) == 1 and later and guards[0] < min(later)
    args = _function("statediag.py", "dot_chunks").args
    assert [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)] == ["sd"]


def test_weight_zero_destinations_are_integer_sums():
    # xA and uB occupy disjoint cells, so a destination is their integer sum,
    # the rule of _blocks; the field's vector sum has no uB operand
    fn = _function("statediag.py", "zero_weight_edges")
    found = [
        node.lineno
        for node in ast.walk(fn)
        if isinstance(node, ast.Call)
        and any(isinstance(a, ast.Subscript) and getattr(a.value, "id", None) == "ub" for a in node.args)
    ]
    assert found == []
    assert any(isinstance(n, ast.Subscript) and getattr(n.value, "id", None) == "ub" for n in ast.walk(fn))


def test_spectrum_reads_the_diagram_only():
    # Lambda, Phi and Omega come from the state diagram, never from G itself
    tree = ast.parse((PACKAGE / "spectrum.py").read_text())
    found = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in [getattr(node, "module", None) or "", *(a.name for a in node.names)]
        if "polyalg" in name
    ]
    assert found == []


def test_oracle_reads_neither_the_diagram_nor_the_series():
    # the oracle is the ground truth for Phi and Omega, so it reads its
    # register off the input, nothing of encoder, and of statediag only the
    # packing of a word's steps
    tree = ast.parse((PACKAGE / "oracle.py").read_text())
    imported = [
        (node.module or "", [a.name for a in node.names]) if isinstance(node, ast.ImportFrom)
        else ("", [a.name for a in node.names])
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    found = [
        (module, names)
        for module, names in imported
        for name in [module, *names]
        if name.rpartition(".")[2] in ("spectrum", "invariance", "encoder")
    ]
    assert found == []
    from_statediag = sorted(
        name for module, names in imported for name in names
        if module.rpartition(".")[2] == "statediag" or name.rpartition(".")[2] == "statediag"
    )
    assert from_statediag == ["state_index"]


def test_one_route_from_g_to_lambda_and_no_info_parameters():
    # invariance.code_adjacency alone turns a generator matrix into Lambda,
    # off the diagram of _code_diagram, which code_witness also reads;
    # encoder_info is read off the matrix as g.info, never handed on
    assert len(_calls(_function("invariance.py", "code_adjacency"), "_code_diagram")) == 1
    calls, params = [], []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = set()
        if path.name == "invariance.py":
            route = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "code_adjacency")
            allowed = {id(n) for n in ast.walk(route)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and id(node) not in allowed:
                func = node.func
                if getattr(func, "id", None) == "adjacency" or getattr(func, "attr", None) == "adjacency":
                    calls.append(f"{path.name}:{node.lineno}")
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                names = [x.arg for x in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if x]
                if {"info", "infos"} & set(names):
                    params.append(f"{path.name}:{node.lineno}")
    assert calls == []
    assert params == []


def test_benchmark_tracer_patches_and_restores(capsys, tmp_path):
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
        # the stats hooks read the results, so they must run here too
        # memory3's pair takes the alphabet route, mixed_rows's (row degrees
        # (0, 1)) the search over Lambda
        memory3 = ROOT / "demos" / "codes" / "memory3.gm"
        swapped = tmp_path / "swapped.gm"  # columns swapped: conjugate Lambda
        swapped.write_text("field p=2 m=1\nk=1 n=2\n1 0 1 1 ; 1 1 1 1\n")
        mixed = ROOT / "demos" / "codes" / "mixed_rows.gm"
        moved = tmp_path / "mixed_moved.gm"  # columns (0, 2, 1)
        moved.write_text("field p=2 m=1\nk=2 n=3\n1 ; 0 ; 1\n0 ; 0 1 ; 1 1\n")
        assert convcode.cli.main(["adjacency", str(memory3)]) == 0
        for pair in ((memory3, swapped), (mixed, moved)):
            assert convcode.cli.main(["equal", *map(str, pair)]) == 1
            assert "coincide" in capsys.readouterr().out
        assert tracer.counts["spectrum.adjacency.nonzero_cells"] > 0
        assert tracer.counts["invariance.gen_adj_equal.calls"] == 1
    finally:
        tracer.uninstall()
    assert all(getattr(o, a) is orig for o, a, orig in patched)


def test_series_pair_calls_phi_and_omega_through_the_module():
    # the tracer wraps spectrum.phi_series and spectrum.omega_series as module
    # attributes, so _series_pair must look both up there on every call for
    # the benchmark's spans and series_terms to see them
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    fn = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_series_pair")
    called = {
        node.func.attr for node in ast.walk(fn)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name) and node.func.value.id == "spectrum"
    }
    assert {"phi_series", "omega_series"} <= called
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert not names & {"phi_series", "omega_series"}


def test_equal_pairs_benchmark_run_is_correct():
    # the run checks every output against the stored digest and the planted
    # faults, so a witness that changes anywhere in its corpus fails here
    argv = [sys.executable, "perfbench/run.py", "--workload", "equal-pairs", "--seed", "1"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0), proc.stdout[-2000:]


def test_field_operations_are_lookups_and_statediag_adds_off_the_field():
    # every FieldSpec holds the same tables, so its operations read neither p
    # nor m, and statediag sums packed vectors with XOR or the field's table
    tree = ast.parse((PACKAGE / "galois.py").read_text())
    cls = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "FieldSpec")
    methods = {n.name: n for n in cls.body if isinstance(n, ast.FunctionDef)}
    found = [
        f"{name}:{node.lineno}"
        for name in ("add", "neg", "sub", "mul", "inv")
        for node in ast.walk(methods[name])
        if isinstance(node, ast.Attribute) and node.attr in ("p", "m")
    ]
    assert found == []
    tree = ast.parse((PACKAGE / "statediag.py").read_text())
    fn = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_vector_add")
    loops = [n for n in ast.walk(fn) if isinstance(n, (ast.For, ast.comprehension))]
    assert loops == []
    assert any(isinstance(n, ast.Attribute) and n.attr == "add_table" for n in ast.walk(fn))


def test_every_json_payload_goes_through_one_writer():
    # _write_json alone encodes JSON: no second writer, no json.dumps outside
    # it, and main alone names it
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        functions = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
        allowed = {id(n) for f in functions if f.name == "_write_json" for n in ast.walk(f)}
        found += [f"{path.name}:{f.lineno}" for f in functions if f.name == "_emit_json"]
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and id(node) not in allowed
            and getattr(node.func, "attr", None) == "dumps"
        ]
    assert found == []
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    named = [
        fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn) if isinstance(node, ast.Name) and node.id == "_write_json"
    ]
    assert named == ["main"]


def _own_nodes(fn: ast.FunctionDef) -> list:
    """The nodes of `fn` outside the functions and lambdas nested in it."""
    nodes, todo = [], [fn]
    while todo:
        nodes.append(todo.pop())
        todo += [n for n in ast.iter_child_nodes(nodes[-1])
                 if not isinstance(n, (ast.FunctionDef, ast.Lambda))]
    return nodes


def test_commands_return_their_output_and_main_writes_it():
    # each command returns (exit code, payload, text) and writes nothing:
    # no function of cli.py but main, _write_json and _silence_stdout prints
    # or names sys.stdout, and main alone reads args.json to choose what is
    # written; diagram reads it for its rendering guard and, once, to refuse
    # --dot with --json
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    functions = [fn for fn in tree.body if isinstance(fn, ast.FunctionDef)]
    writers = [
        fn.name for fn in functions for node in ast.walk(fn)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print"
        or isinstance(node, ast.Attribute) and node.attr == "stdout"
    ]
    assert sorted(set(writers)) == ["_silence_stdout", "_write_json", "main"]
    readers = [
        (fn.name, node) for fn in functions for node in ast.walk(fn)
        if isinstance(node, ast.Attribute) and node.attr == "json"
        and getattr(node.value, "id", None) == "args"
    ]
    assert sorted({name for name, _ in readers}) == ["_cmd_diagram", "main"]
    diagram = next(fn for fn in functions if fn.name == "_cmd_diagram")
    guarded = [
        node for branch in ast.walk(diagram) if isinstance(branch, ast.If)
        and any(_calls(stmt, "_check_rendering") for stmt in branch.body)
        for node in ast.walk(branch.test)
    ]
    refusals = [
        node for branch in ast.walk(diagram) if isinstance(branch, ast.If)
        and any(isinstance(stmt, ast.Raise) for stmt in branch.body)
        for node in ast.walk(branch.test)
    ]
    unguarded = [node for name, node in readers if name == "_cmd_diagram" and node not in guarded]
    assert len(unguarded) == 1 and unguarded[0] in refusals
    commands = [fn for fn in functions if fn.name.startswith("_cmd_")]
    assert len(commands) == len(convcode.cli._COMMANDS) == 13
    for fn in commands + [_function("cli.py", "_adjacency_result")]:
        returns = [node.value for node in _own_nodes(fn) if isinstance(node, ast.Return)]
        assert returns and all(
            isinstance(value, ast.Tuple) and len(value.elts) == 3
            or _calls(value, "_adjacency_result") and fn.name != "_adjacency_result"
            for value in returns
        ), fn.name


def test_json_schemas_state_each_member_list_once():
    # a payload's members are listed once, in its properties, and _object
    # derives the required list from them, so no dict literal in cli.py
    # states one; the command table names every schema, and each command's
    # payload has one
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    found = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Dict)
        and any(isinstance(key, ast.Constant) and key.value == "required" for key in node.keys)
    ]
    assert found == []
    written = {}
    for name, handler, schema, *_ in convcode.cli._COMMANDS:
        assert handler.__name__ == "_cmd_" + name.replace("-", "_")
        written.setdefault(schema, []).append(name)
    assert sorted(written) == sorted(convcode.cli.JSON_SCHEMAS)
    assert len(written) == 11
    assert sorted(written["witness"]) == ["equal", "mono-equiv"]
    assert sorted(written["adjacency"]) == ["adjacency", "macwilliams"]


def test_gen_adj_equal_returns_witnesses_only_through_one_check():
    # the identity and the search's witness alike leave gen_adj_equal only
    # inside `if a == b:`, which is `spectrum.conjugates` with the identity,
    # or after `if not spectrum.conjugates(a, b, w): raise ...`, and that
    # raise is the package's one re-verification failure
    tree = ast.parse((PACKAGE / "invariance.py").read_text())
    fn = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "gen_adj_equal")

    def witness(test):
        """w when the test is `spectrum.conjugates(a, b, w)`, the identity
        when it is `a == b`, else None."""
        if ast.unparse(test) == "a == b":
            return "tuple(range(a.size))"
        if isinstance(test, ast.Call) and ast.unparse(test.func) == "spectrum.conjugates":
            names = [getattr(x, "id", None) for x in test.args]
            if len(names) == 3 and names[:2] == ["a", "b"]:
                return names[2]
        return None

    def refused(stmt):
        """w when the statement is `if not _conjugates(a, b, w): ... raise`."""
        test = stmt.test
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            if isinstance(stmt.body[-1], ast.Raise):
                return witness(test.operand)
        return None

    def returns(body, checked):
        """(returned expression, whether _conjugates certified it) per return."""
        found = []
        for stmt in body:
            if isinstance(stmt, ast.Return):
                found.append((ast.unparse(stmt.value), ast.unparse(stmt.value) in checked))
            elif isinstance(stmt, ast.If):
                found += returns(stmt.body, checked | {witness(stmt.test)})
                found += returns(stmt.orelse, checked)
                checked = checked | {refused(stmt)}
            elif isinstance(stmt, (ast.For, ast.While)):
                found += returns(stmt.body, checked) + returns(stmt.orelse, checked)
        return found

    nested = {id(n) for f in fn.body if isinstance(f, ast.FunctionDef) for n in ast.walk(f)}
    found = returns(fn.body, frozenset())
    assert len(found) == sum(isinstance(n, ast.Return) and id(n) not in nested for n in ast.walk(fn))
    assert sorted((value, ok) for value, ok in found if value != "None") == [
        ("pi", True),
        ("tuple(range(a.size))", True),
    ]
    guards = [n for n in ast.walk(fn) if isinstance(n, ast.If) and refused(n)]
    raised = [
        (path.name, node.lineno)
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Raise)
        and any(isinstance(c, ast.Constant) and "re-verification" in str(c.value) for c in ast.walk(node))
    ]
    assert raised == [("invariance.py", g.body[-1].lineno) for g in guards]


def test_invariance_decides_and_the_layers_below_it_represent():
    # invariance defines no comparison of two matrices' cells and reads no
    # packing or weight table of statediag: `spectrum.conjugates` is the one
    # comparison, which AdjMatrix.__eq__ runs with the identity and
    # gen_adj_equal runs through `a == b` and on the search's witness
    tree = ast.parse((PACKAGE / "invariance.py").read_text())
    names = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(tree)}
    assert not names & {"_conjugates", "_weigher", "_cellwise", "_letter_states"}
    two_matrices = [
        fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
        and [ast.unparse(a.annotation) for a in fn.args.args if a.annotation].count("AdjMatrix") >= 2
        and fn.returns is not None and ast.unparse(fn.returns) == "bool"
    ]
    assert two_matrices == []
    spectrum = ast.parse((PACKAGE / "spectrum.py").read_text())
    matrix = next(n for n in spectrum.body if isinstance(n, ast.ClassDef) and n.name == "AdjMatrix")
    (eq,) = [n for n in matrix.body if isinstance(n, ast.FunctionDef) and n.name == "__eq__"]
    assert [ast.unparse(n) for n in _calls(eq, "conjugates")] == ["conjugates(self, other, range(self.size))"]
    compared = [n.name for n in spectrum.body if isinstance(n, ast.FunctionDef) and n.name == "conjugates"]
    assert compared == ["conjugates"]
    fn = _function("invariance.py", "gen_adj_equal")
    tests = [ast.unparse(n.test) for n in ast.walk(fn) if isinstance(n, ast.If)]
    assert "a == b" in tests and "not spectrum.conjugates(a, b, pi)" in tests
    assert [ast.unparse(n.func) for n in ast.walk(fn) if isinstance(n, ast.Call) and "conjugates" in ast.unparse(n.func)] == [
        "spectrum.conjugates"
    ]


def test_weight_enumerators_are_read_in_their_stored_order():
    # a WeightEnum keeps its terms as one tuple sorted by weight, so its
    # readers neither sort nor search them: no sorted/min/max in the methods
    # that read the tuple, no == re-comparison of cells in `conjugates`, and
    # the JSON writer sorts only the rendered strings, as JSON key order needs
    spectrum = ast.parse((PACKAGE / "spectrum.py").read_text())
    enum = next(n for n in spectrum.body if isinstance(n, ast.ClassDef) and n.name == "WeightEnum")
    readers = [n for n in enum.body if isinstance(n, ast.FunctionDef)
               and n.name in ("terms", "__eq__", "__hash__", "min_weight", "max_weight")]
    assert len(readers) == 5
    assert [ast.unparse(c) for fn in readers for name in ("sorted", "min", "max") for c in _calls(fn, name)] == []
    fn = _function("spectrum.py", "conjugates")
    assert not [n for n in ast.walk(fn) if isinstance(n, ast.Compare) and isinstance(n.ops[0], ast.Eq)]
    terms_text = _function("cli.py", "_terms_text")
    assert [ast.unparse(c.args[0]) for c in _calls(terms_text, "sorted")] == [
        "[f'\"{a}\": {c}' for a, c in e.terms()]"
    ]


def test_bijections_are_enumerated_only_by_monomial_equiv():
    # the conjugation search decides Lemma A.1 as it decides `equal`, so the
    # column search of monomial_equiv is the one place that lists permutations
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = set()
        if path.name == "invariance.py":
            fn = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "monomial_equiv")
            allowed = {id(n) for n in ast.walk(fn)}
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if (isinstance(node, ast.Attribute) and node.attr == "permutations"
                or isinstance(node, ast.alias) and node.name == "permutations")
            and id(node) not in allowed
        ]
    assert found == []


def test_code_witness_alone_passes_classes_to_the_search():
    # the F_q^* orbits are automorphisms of the Lambda of codes only, so the
    # classes enter the search at code_witness and are only handed on below
    # it, to gen_adj_equal alone, which calls them only as it reaches
    # _witnesses; so `classes` means orbits alone.  They hold only until a
    # state is individualised, so _witnesses hands them to its root
    # refinement alone, and each node below it refines from its start
    # colors, its rounds drawn from the search's one budget.  The alphabet
    # route gets no orbits: its placements read the pair tables alone.
    # The orbits are made by statediag._orbits alone, for the lumped Q and
    # for code_witness, which hands them on uncalled
    search = ("gen_adj_equal", "_alphabet_witness", "_witnesses", "_refined_colors", "_placements")
    passed, made = [], []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in (n for n in tree.body if isinstance(n, ast.FunctionDef)):
            for name in search:
                for node in _calls(fn, name):
                    extra = node.args[1 if name == "_refined_colors" else 2 :]
                    if extra or node.keywords:
                        passed.append((fn.name, name, *map(ast.unparse, extra), *(k.arg for k in node.keywords)))
            made += [
                (path.name, fn.name) for node in ast.walk(fn)
                if "_orbits" in (getattr(node, "id", None), getattr(node, "attr", None))
            ]
    assert passed == [
        ("_witnesses", "_refined_colors", "classes"),
        ("_witnesses", "_refined_colors", "start", "rounds"),
        ("gen_adj_equal", "_witnesses", "classes and classes()"),
        ("code_witness", "gen_adj_equal", "lambda: statediag._orbits(fld, delta)"),
    ]
    witnesses = _function("invariance.py", "_witnesses")
    (children,) = [n for n in ast.walk(witnesses) if isinstance(n, ast.FunctionDef) and n.name == "children"]
    assert [[k.arg for k in n.keywords] for n in _calls(children, "_refined_colors")] == [["start", "rounds"]]
    assert sorted(made) == [("invariance.py", "code_witness"), ("statediag.py", "build")]


def test_the_search_signs_every_state_by_default():
    # gen_adj_equal on arbitrary matrices, and the lemma through _witnesses,
    # get no classes: every state is its own representative, and the
    # refinement starts from state 0 pinned unless it is given start colors,
    # and runs unbounded rounds unless it is given a budget
    for fn in ("gen_adj_equal", "_witnesses", "_refined_colors"):
        args = _function("invariance.py", fn).args
        defaults = dict(zip([a.arg for a in args.args][::-1], args.defaults[::-1]))
        assert {name: ast.unparse(d) for name, d in defaults.items()} == (
            {"classes": "None", "start": "None", "rounds": "None"} if fn == "_refined_colors" else {"classes": "None"}
        )
    lemma = _calls(_function("invariance.py", "verify_shift_permutation_lemma"), "_witnesses")
    assert [(len(node.args), node.keywords) for node in lemma] == [(2, [])]


def test_no_function_calls_itself_but_the_minor_expansion():
    # no recursion depth may grow with the input: polyalg._det recurses k
    # deep and runs only under encoder_info, which refuses more than
    # MINOR_TERM_CEILING cofactor terms (at least k!) before any minor is
    # expanded, so k <= 9
    assert math.factorial(9) < MINOR_TERM_CEILING < math.factorial(10)
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                isinstance(node, ast.Call) and (
                    isinstance(node.func, ast.Name) and node.func.id == fn.name
                    or isinstance(node.func, ast.Attribute) and node.func.attr == fn.name
                    and getattr(node.func.value, "id", None) in ("self", "cls")
                )
                for node in ast.walk(fn)
            ):
                found.append(f"{path.name}:{fn.name}")
    assert found == ["polyalg.py:_det"]


def test_alphabet_candidates_are_handed_on_for_equal_degree_codes_only():
    # code_witness alone calls the alphabet route, and only when every row
    # has one degree m >= 1; the route lists sigma by placing it letter by
    # letter on the pair tables, within the classes of the tables' rows,
    # not by itertools, and no field size picks it; it certifies pi_sigma
    # by `_carries` on the edge weights and never builds or re-checks
    # Lambda, nor any matrix, cell graph or refinement.  SEARCH_WORK bounds
    # its refused candidates, the letters its placements compare and the
    # states the search signs below its root, and nothing else names it.
    # gen_adj_equal then runs its own search alone: one loop
    # over `_witnesses(a, b, ...)`, whose every witness passes
    # `spectrum.conjugates` or raises, right after the search bound
    assert not hasattr(convcode.invariance, "ALPHABET_FIELDS")
    tree = ast.parse((PACKAGE / "invariance.py").read_text())
    names = lambda node: {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node)} - {None}
    functions = [fn for fn in tree.body if isinstance(fn, ast.FunctionDef)]
    assert [fn.name for fn in functions if "_alphabet_witness" in names(fn)] == ["code_witness"]
    assert [fn.name for fn in functions if "SEARCH_WORK" in names(fn)] == [
        "_witnesses", "_placements", "_alphabet_witness"
    ]
    witness = _function("invariance.py", "code_witness")
    branches = [n for n in ast.walk(witness) if isinstance(n, ast.If) and "_alphabet_witness" in names(n)]
    assert len(branches) == 1 and ast.unparse(branches[0].test) == "alphabet"
    assert "_alphabet_witness" not in set().union(*map(names, branches[0].orelse))
    routes = [n for n in ast.walk(witness) if isinstance(n, ast.Assign) and "alphabet" in names(n.targets[0])]
    assert [ast.unparse(n.value) for n in routes] == ["delta and len(set(degrees)) == 1"]
    route = _function("invariance.py", "_alphabet_witness")
    assert not names(route) & {"adjacency", "_code_diagram", "conjugates", "itertools", "permutations", "_witnesses",
                               "AdjMatrix", "WeightEnum", "_cell_graphs", "_refined_colors", "_orbits"}
    assert [a.arg for a in route.args.args] == ["sd_g", "sd_h"]
    loops = [n for n in ast.walk(route) if isinstance(n, (ast.For, ast.While))]
    assert [ast.unparse(n.iter) for n in loops if names(n.target) == {"sigma"}] == [
        "_placements(table_g, table_h)"
    ]
    assert not names(_function("invariance.py", "_placements")) & {"_cell_graphs", "_refined_colors", "AdjMatrix"}
    assert all(names(n.target) == {"_"} for n in loops if names(n.target) != {"sigma"})
    (checked,) = [n for n in ast.walk(route) if isinstance(n, ast.If) and "_carries" in names(n.test)]
    assert [ast.unparse(n) for n in checked.body] == ["return pi"]
    fn = _function("invariance.py", "gen_adj_equal")
    assert not names(fn) & {"isinstance", "Iterator", "SEARCH_WORK", "check_limit"}
    loops = [n for n in ast.walk(fn) if isinstance(n, (ast.For, ast.While))]
    assert len(loops) == 1 and ast.unparse(loops[0].iter).startswith("_witnesses(a, b, ")
    guard, leave = loops[0].body
    assert ast.unparse(guard.test) == "not spectrum.conjugates(a, b, pi)" and isinstance(guard.body[-1], ast.Raise)
    assert ast.unparse(guard.body[-1].exc.func) == "InternalError"
    assert not any(isinstance(n, ast.Return) for n in ast.walk(guard))
    assert ast.unparse(leave) == "return pi"
    checks = [n for n in fn.body if _calls(n, "check_search_size")]
    assert [ast.unparse(n) for n in checks] == ["check_search_size(a.size)"]
    assert fn.body.index(checks[0]) == fn.body.index(loops[0]) - 1


STDLIB_IMPORTS = {"__future__", "argparse", "collections", "functools", "itertools",
                  "json", "operator", "os", "sys", "typing"}


def test_package_imports_only_the_stdlib_allow_list():
    # zero runtime dependencies: every absolute import names a module from an
    # explicit list of standard-library modules; relative imports stay inside
    found = [
        f"{path.name}:{node.lineno} {name}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        for name in (
            [alias.name for alias in node.names] if isinstance(node, ast.Import)
            else [node.module] if isinstance(node, ast.ImportFrom) and node.level == 0
            else []
        )
        if name.partition(".")[0] not in STDLIB_IMPORTS
    ]
    assert found == []


def test_cold_import_pulls_in_no_introspection_modules():
    # `import convcode.cli` in a fresh interpreter, against that interpreter's
    # own modules before it (site may preload re, typing and enum): the
    # dataclasses -> inspect chain costs about a fifth of the import
    code = ("import sys; bare = set(sys.modules); import convcode.cli; "
            "print(' '.join(sorted(set(sys.modules) - bare)))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "convcode.cli" in added
    assert added & {"dataclasses", "inspect", "ast", "dis", "tokenize"} == set()
