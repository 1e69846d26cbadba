"""Layer timing for liewords, measured from outside the package.

`install()` replaces each public function of the layer modules with a
timing wrapper, in every `liewords` module namespace that holds it, so
calls made through `from .x import f` bindings and through module
attributes are both seen.  Nothing in the package is edited.

Two kinds of wrapper keep the cost low:

* span wrappers record `[name, start, end, parent, leaf_s, post_s]` in an
  in-memory list; a re-entrant call of a function already on the stack
  runs unwrapped, so recursion is one span;
* leaf wrappers, for small functions called hundreds of thousands of
  times, only add their calls and seconds to a per-name total and to the
  enclosing span's `leaf_s`.

`post_s` is time the wrapper spends reading the result (state counts,
the minimize no-op test); it is charged to no layer.  The self time of a
span is its duration minus `post_s`, minus the durations of its child
spans, minus `leaf_s`.

`summarize()` turns one dump into additive raw counters, `merge()` adds
up the counters of a pass, and `layer_metrics()` turns them into the
per-layer metrics listed in `METRICS`.
"""

from __future__ import annotations

import functools
import sys
import time
import types

# layer modules, by their name under `liewords.`
LAYERS = (
    "cli",
    "words",
    "complexity",
    "algebra",
    "linalg",
    "automata",
    "formulas",
    "logic",
    "counting",
)

AUTOMATA_OPS = (
    "combine",
    "minimize",
    "project",
    "forall",
    "normalize_padding",
    "rename_tracks",
)

# Digit arithmetic called per symbol inside the automaton loops; a wrapper
# there would cost more than the work it times, so its time stays in the
# self time of the operation that calls it.
UNWRAPPED = frozenset({"automata.sym_of", "automata.digits_of", "words.digits_msd"})

LEAVES = frozenset(
    {
        "complexity.least_rotation",
        "complexity.rotations",
        "complexity.is_primitive",
        "complexity.primitive_root",
        "words.dfao_eval",
        "linalg.RowBasis.insert",
        "linalg.RowBasis.coords",
    }
)

METHODS = (
    ("words", "WordGenerator", "prefix"),
    ("linalg", "RowBasis", "insert"),
    ("linalg", "RowBasis", "coords"),
)

# Names the per-layer metrics depend on, in the namespace where the
# package looks them up.  install() refuses to run when one is missing,
# so a rename cannot silently zero a layer.
REQUIRED = {
    "cli": (
        "main",
        "complexity_table",
        "algebra_report",
        "compile_formula",
        "build_predicate_library",
        "counting_representation",
        "minimize_representation",
        "to_dfao",
        "sup_value",
    ),
    "words": ("saturation_window",),
    "complexity": (
        "saturation_window",
        "least_rotation",
        "factor_set",
        "lie_complexity",
        "cyclic_complexity",
        "abelian_complexity",
    ),
    "algebra": ("commutator_span",),
    "automata": AUTOMATA_OPS + ("MultiTrackDfa",),
    "logic": ("compile_formula", "apply_predicate", "build_predicate_library"),
    "counting": (
        "normalize_padding",
        "counting_representation",
        "minimize_representation",
        "to_dfao",
        "sup_value",
    ),
}


def missing_names() -> list[str]:
    """Required names that the imported package no longer binds."""
    missing = []
    for layer, names in REQUIRED.items():
        mod = sys.modules.get("liewords." + layer)
        for name in names:
            if mod is None or not hasattr(mod, name):
                missing.append("%s.%s" % (layer, name))
    for layer, cls, meth in METHODS:
        mod = sys.modules.get("liewords." + layer)
        if mod is None or not callable(getattr(getattr(mod, cls, None), meth, None)):
            missing.append("%s.%s.%s" % (layer, cls, meth))
    return missing


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.active: set[str] = set()
        self.leaves: dict[str, list] = {}
        self.counters: dict[str, float] = {}

    def dump(self) -> dict:
        return {"spans": self.spans, "leaves": self.leaves, "counters": self.counters}

    def count(self, key: str, amount) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def span(self, name, fn, post=None):
        spans, stack, active = self.spans, self.stack, self.active
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name in active:
                return fn(*args, **kwargs)
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            active.add(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                active.discard(name)
                stack.pop()
                rec[2] = clock()
            if post is not None:
                post(self, args, out)
                end = clock()
                rec[5] = end - rec[2]
                rec[2] = end
            return out

        return wrapper

    def leaf(self, name, fn):
        spans, stack = self.spans, self.stack
        stats = self.leaves.setdefault(name, [0, 0.0])
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stats[0] += 1
                stats[1] += dt
                if stack:
                    spans[stack[-1]][4] += dt

        return wrapper


def _post_hooks(dfa_type):
    def cells(tr, out):
        size = out.n_states * out.base ** len(out.tracks)
        tr.counters["automata.max_cells"] = max(tr.counters.get("automata.max_cells", 0), size)

    def automaton_op(op):
        def post(tr, args, out):
            cells(tr, out)
            tr.count("automata.%s.states_out" % op, out.n_states)
            if op == "minimize" and args and out == args[0]:
                tr.count("automata.minimize.noops", 1)

        return post

    def any_automaton(tr, args, out):
        if isinstance(out, dfa_type):
            cells(tr, out)

    def counter(key, measure):
        return lambda tr, args, out: tr.count(key, measure(out))

    hooks = {"automata." + op: automaton_op(op) for op in AUTOMATA_OPS}
    hooks.update(
        {
            "counting.counting_representation": counter("counting.rep_dim", lambda r: r.dimension),
            "counting.minimize_representation": counter("counting.min_dim", lambda r: r.dimension),
            "counting.to_dfao": counter("counting.dfao_states", lambda d: d.n_states),
            "algebra.commutator_span": lambda tr, args, out: (
                tr.count("algebra.generators", out.generator_count),
                tr.count("algebra.rank", out.rank),
            ),
            "complexity.factor_set": counter("complexity.factors", lambda fs: len(fs.members)),
            "words.WordGenerator.prefix": counter("words.prefix_letters", len),
        }
    )
    return hooks, any_automaton


def install() -> Tracer:
    """Wrap the layer functions of the imported package; returns the tracer."""
    missing = missing_names()
    if missing:
        raise RuntimeError("traced names missing from liewords: " + ", ".join(missing))
    tracer = Tracer()
    hooks, any_automaton = _post_hooks(sys.modules["liewords.automata"].MultiTrackDfa)
    layer_of = {"liewords." + layer: layer for layer in LAYERS}
    wrappers: dict[int, object] = {}

    def wrapper_for(name, fn):
        if name in LEAVES:
            return tracer.leaf(name, fn)
        post = hooks.get(name)
        if post is None and name.split(".")[0] in ("automata", "logic"):
            post = any_automaton
        return tracer.span(name, fn, post)

    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "liewords" or mod_name.startswith("liewords.")):
            continue
        for attr, value in list(vars(mod).items()):
            if not isinstance(value, types.FunctionType) or attr.startswith("_"):
                continue
            layer = layer_of.get(value.__module__)
            name = "%s.%s" % (layer, value.__name__)
            if layer is None or name in UNWRAPPED:
                continue
            if id(value) not in wrappers:
                wrappers[id(value)] = wrapper_for(name, value)
            setattr(mod, attr, wrappers[id(value)])
    for layer, cls_name, meth in METHODS:
        cls = getattr(sys.modules["liewords." + layer], cls_name)
        name = "%s.%s.%s" % (layer, cls_name, meth)
        setattr(cls, meth, wrapper_for(name, getattr(cls, meth)))
    return tracer


def summarize(dump: dict) -> dict[str, float]:
    """Raw additive counters of one traced operation (max_cells excepted,
    which combines by max)."""
    spans = dump["spans"]
    covered = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    raw: dict[str, float] = {}

    def add(key, amount):
        raw[key] = raw.get(key, 0.0) + amount

    for i, (name, start, end, _, leaf_s, post_s) in enumerate(spans):
        incl = end - start - post_s
        own = incl - covered[i] - leaf_s
        add(name.split(".")[0] + ".self_s", own)
        add(name + ".calls", 1)
        add(name + ".self_s", own)
        add(name + ".incl_s", incl)
        add("trace.post_s", post_s)
    for name, (calls, secs) in dump["leaves"].items():
        add(name.split(".")[0] + ".self_s", secs)
        add(name + ".calls", calls)
        add(name + ".incl_s", secs)
    for key, value in dump["counters"].items():
        add(key, value)
    return raw


def merge(raws) -> dict[str, float]:
    """Counters of several operations, as one pass."""
    total: dict[str, float] = {}
    for raw in raws:
        for key, value in raw.items():
            if key == "automata.max_cells":
                total[key] = max(total.get(key, 0), value)
            else:
                total[key] = total.get(key, 0.0) + value
    return total


def _ratio(num, den):
    return lambda g: g(num) / g(den) if g(den) else 0.0


def _metric_table():
    t = [
        ("words.prefix_s", "s", "lower", "words.WordGenerator.prefix.incl_s"),
        ("words.prefix_calls", "count", "lower", "words.WordGenerator.prefix.calls"),
        ("words.prefix_letters", "count", "lower", "words.prefix_letters"),
        ("words.saturation_window_s", "s", "lower", "words.saturation_window.incl_s"),
        ("complexity.least_rotation_calls", "count", "lower", "complexity.least_rotation.calls"),
        ("complexity.least_rotation_s", "s", "lower", "complexity.least_rotation.incl_s"),
        ("complexity.factor_set_s", "s", "lower", "complexity.factor_set.incl_s"),
        ("complexity.factors", "count", "lower", "complexity.factors"),
        ("complexity.lie_s", "s", "lower", "complexity.lie_complexity.incl_s"),
        ("complexity.cyclic_s", "s", "lower", "complexity.cyclic_complexity.incl_s"),
        ("complexity.abelian_s", "s", "lower", "complexity.abelian_complexity.incl_s"),
        ("algebra.commutator_span_s", "s", "lower", "algebra.commutator_span.incl_s"),
        ("algebra.generators", "count", "lower", "algebra.generators"),
        ("algebra.rank_yield", "ratio", "higher", _ratio("algebra.rank", "algebra.generators")),
        ("linalg.insert_s", "s", "lower", "linalg.RowBasis.insert.incl_s"),
        ("linalg.inserts", "count", "lower", "linalg.RowBasis.insert.calls"),
    ]
    for op in AUTOMATA_OPS:
        t += [
            ("automata.%s.calls" % op, "count", "lower", "automata.%s.calls" % op),
            ("automata.%s.self_s" % op, "s", "lower", "automata.%s.self_s" % op),
            ("automata.%s.states_out" % op, "count", "lower", "automata.%s.states_out" % op),
        ]
    t += [
        (
            "automata.minimize.noop_ratio",
            "ratio",
            "lower",
            _ratio("automata.minimize.noops", "automata.minimize.calls"),
        ),
        ("automata.max_cells", "count", "lower", "automata.max_cells"),
        ("logic.compile_formula_s", "s", "lower", "logic.compile_formula.incl_s"),
        ("logic.apply_predicate_s", "s", "lower", "logic.apply_predicate.incl_s"),
        ("logic.library_s", "s", "lower", "logic.build_predicate_library.incl_s"),
        ("counting.representation_s", "s", "lower", "counting.counting_representation.incl_s"),
        ("counting.minimize_rep_s", "s", "lower", "counting.minimize_representation.incl_s"),
        ("counting.to_dfao_s", "s", "lower", "counting.to_dfao.incl_s"),
        ("counting.sup_s", "s", "lower", "counting.sup_value.incl_s"),
        ("counting.rep_dim", "count", "lower", "counting.rep_dim"),
        ("counting.min_dim", "count", "lower", "counting.min_dim"),
        ("counting.dfao_states", "count", "lower", "counting.dfao_states"),
    ]
    t += [("%s.self_s" % layer, "s", "lower", "%s.self_s" % layer) for layer in LAYERS]
    t += [
        ("trace.wall_s", "s", "lower", "trace.wall_s"),
        ("trace.post_s", "s", "lower", "trace.post_s"),
    ]
    return t


METRICS = _metric_table()


def layer_metrics(total: dict[str, float]) -> dict[str, float]:
    """Per-layer metric values, by name, from one pass's counters."""
    g = lambda key: total.get(key, 0.0)  # noqa: E731
    return {name: source(g) if callable(source) else g(source) for name, _, _, source in METRICS}
