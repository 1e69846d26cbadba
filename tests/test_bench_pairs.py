import importlib.util
import os

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "bench_pairs.py")
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_op_times_reads_the_passing_lines_of_a_run():
    stderr = (
        "complexity:thue-morse             0.051s  ok\n"
        "algebra-check:twelve:8            -  timed out after 600 s\n"
        "algebra-check:vtm:20              0.020s  L_algebra and L_direct disagree\n"
        "complexity:thue-morse             0.060s  ok\n"
        "complexity:thue-morse             0.070s  ok\n"
        "spans: /tmp/spans.json\n"
    )
    assert bench_pairs.op_times(stderr) == {"complexity:thue-morse": 0.06}


def test_ops_summary_counts_the_pairs_both_sides_timed():
    runs = [
        {"parent": {"op_s": {"a": 2.0, "b": 1.0}}, "change": {"op_s": {"a": 1.0}}},
        {"parent": {"op_s": {"a": 3.0, "b": 1.0}}, "change": {"op_s": {"a": 4.0, "b": 0.5}}},
    ]
    assert bench_pairs.summarize_ops(runs) == {
        "a": {"parent_median": 2.5, "change_median": 2.5, "change_wins": 1, "pairs": 2},
        "b": {"parent_median": 1.0, "change_median": 0.5, "change_wins": 1, "pairs": 1},
    }
