"""The helper scripts under tools/, on canned inputs: no benchmark runs."""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _perf_pairs():
    spec = importlib.util.spec_from_file_location("perf_pairs", ROOT / "tools" / "perf_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_perf_pairs_summary_reads_medians_ratio_iqr_and_wins():
    parent = [{"wall_ref_s": w, "setup_s": 0.0} for w in (0.40, 0.44, 0.42, 0.48, 0.46)]
    change = [{"wall_ref_s": w, "setup_s": 0.0} for w in (0.38, 0.45, 0.36, 0.40, 0.41)]
    header, wall, setup = _perf_pairs().summary(parent, change)
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
    size = _perf_pairs().source_size
    assert size(str(tmp_path / "parent")) == "3 lines, 18 bytes"
    assert size(str(tmp_path / "change")) == "1 lines, 7 bytes"
