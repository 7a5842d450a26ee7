"""The helper scripts under tools/, on canned inputs: no benchmark runs."""

import ast
import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_perf_pairs_summary_reads_medians_ratio_iqr_and_wins():
    parent = [{"wall_ref_s": w, "setup_s": 0.0} for w in (0.40, 0.44, 0.42, 0.48, 0.46)]
    change = [{"wall_ref_s": w, "setup_s": 0.0} for w in (0.38, 0.45, 0.36, 0.40, 0.41)]
    header, wall, setup = _tool("perf_pairs").summary(parent, change)
    assert header.split() == ["metric", "parent", "change", "ratio", "parent", "IQR", "change", "lower"]
    # medians 0.44 and 0.40, quartiles of the parent 0.42 and 0.46, and the
    # change lower in pairs 1, 3, 4 and 5
    assert wall.split() == ["wall_ref_s", "0.4400", "0.4000", "0.909", "0.0400", "4/5"]
    # a parent median of 0 has no ratio, and no pair is lower
    assert setup.split() == ["setup_s", "0.0000", "0.0000", "-", "0.0000", "0/5"]


def test_perf_pairs_counts_the_lines_and_bytes_of_each_package(tmp_path):
    # two canned trees: only src/convcode/*.py counts, as `wc -l` and `wc -c`
    # count them, so bytecode and files of other directories are left out
    for side, texts in (("parent", ["a = 1\nb = 2\n", "c = 3\n"]), ("change", ["a = 1\n", "x"])):
        package = tmp_path / side / "src" / "convcode"
        (package / "__pycache__").mkdir(parents=True)
        for i, text in enumerate(texts):
            (package / f"m{i}.py").write_text(text)
        (package / "__pycache__" / "m0.cpython-311.pyc").write_bytes(b"\n" * 50)
        (package / "notes.txt").write_text("\n" * 7)
        (tmp_path / side / "README.md").write_text("\n" * 9)
    size = _tool("perf_pairs").source_size
    assert size(str(tmp_path / "parent")) == "3 lines, 18 bytes"
    assert size(str(tmp_path / "change")) == "1 lines, 7 bytes"


def test_perf_pairs_runs_every_workload_at_every_seed_given(tmp_path, monkeypatch, capsys):
    # runs are canned: each workload at seed 1, then each at seed 2, with
    # the two sides alternating first, and one table per seed and workload
    tool = _tool("perf_pairs")
    calls = []

    def canned(root, workload, seed):
        calls.append((pathlib.Path(root).name, workload, seed))
        return {"wall_ref_s": 1.0 if root.endswith("parent") else 0.5}

    monkeypatch.setattr(tool, "run", canned)
    for side in ("parent", "change"):
        (tmp_path / side / "src" / "convcode").mkdir(parents=True)
    argv = ["perf_pairs.py", str(tmp_path / "parent"), str(tmp_path / "change"), "--pairs", "2",
            "--workload", "a", "--workload", "b", "--seed", "1", "--seed", "2"]
    monkeypatch.setattr("sys.argv", argv)
    assert tool.main() == 0
    pairs = [("parent", "change"), ("change", "parent")]
    assert calls == [(side, workload, seed) for seed in (1, 2) for workload in "ab"
                     for order in pairs for side in order]
    titles = [line for line in capsys.readouterr().out.splitlines() if "alternated pairs" in line]
    assert titles == [f"{w} seed {s}, 2 alternated pairs" for s in (1, 2) for w in "ab"]
    # without --seed, seed 1 alone
    calls.clear()
    monkeypatch.setattr("sys.argv", argv[:-4])
    assert tool.main() == 0
    assert {seed for _, _, seed in calls} == {1} and len(calls) == 8


def test_reach_reports_the_lines_no_call_ran():
    # one `info` call runs every statement of cli._cmd_info and none of
    # cli._cmd_oracle; the relative path is read from the checkout root
    reach = _tool("reach")
    unreached = set(reach.unreached([["info", "demos/codes/g1.gm"]], [])["cli.py"])
    cli = reach.PACKAGE / "cli.py"
    body = {node.name: set(range(node.body[0].lineno, node.end_lineno + 1))
            for node in ast.parse(cli.read_text()).body if isinstance(node, ast.FunctionDef)}
    info, oracle = (reach.statements(cli) & body[name] for name in ("_cmd_info", "_cmd_oracle"))
    assert info and oracle
    assert not info & unreached and oracle <= unreached


def test_reach_summary_ends_with_the_total_of_the_modules():
    # a canned report: one line per module, in its order, then the sum
    summary = _tool("reach").summary({"a.py": [3, 9], "b.py": [], "c.py": [5]})
    assert summary == ["a.py: 2 unreached: 3 9", "b.py: 0 unreached", "c.py: 1 unreached: 5", "total: 3 unreached"]
    counts = [int(line.split()[1]) for line in summary]
    assert counts[-1] == sum(counts[:-1])
