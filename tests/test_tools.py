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
