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


_WALL = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}


def test_a_spread_wider_than_the_bound_is_unresolved():
    # the parent's quartiles, 0.4 and 0.6, lie 0.4 of its median apart
    parent = [0.3, 0.4, 0.4, 0.5, 0.5, 0.5, 0.6, 0.6, 0.7]
    slower = [p + 0.05 for p in parent]
    m = bench_pairs.summarize(_WALL, parent, slower)
    assert m["within_bound"] and m["unresolved"]
    assert bench_pairs.verdict(m) == "unresolved"
    # every change run better than every parent run settles it, even with
    # too small a gain for the gain rule
    parent = [0.48, 0.49, 0.5, 0.5, 0.5, 0.6, 0.7, 0.8, 0.9]
    m = bench_pairs.summarize(_WALL, parent, [0.47] * len(parent))
    assert not m["gain_rule_met"] and not m["unresolved"]
    assert bench_pairs.verdict(m) == "ok"


def test_a_narrow_spread_reads_ok_within_the_bound():
    parent = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
    m = bench_pairs.summarize(_WALL, parent, [p * 1.1 for p in parent])
    assert not m["unresolved"] and bench_pairs.verdict(m) == "ok"
    m = bench_pairs.summarize(_WALL, parent, [p * 1.3 for p in parent])
    assert bench_pairs.verdict(m) == "WORSE"
    higher = dict(_WALL, name="pass_rate", better="higher", bound=0.01)
    m = bench_pairs.summarize(higher, [1.0] * 10, [1.0] * 10)
    assert bench_pairs.verdict(m) == "ok"
