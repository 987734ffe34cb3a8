"""Layer spans for the traced benchmark run, installed from outside the package.

Each public function at a layer boundary is replaced, where its caller looks
it up, by a wrapper that records a span (name, start, end, parent, op id).
Spans stay in memory for the whole run and are written out at the end; self
time is a span's duration minus the durations of its direct children.

Three rules keep the numbers honest:

* a name is wrapped in every module that binds it (``depth`` does
  ``from .chartab import decompose``, so ``subdepth.depth.decompose`` is the
  name ``inclusion_matrix`` calls), and methods are wrapped on the class so
  the ``validate()`` inside the ``CharacterTable`` constructor is caught;
* ``PermGroup.classes()`` is timed only on its first call per group: later
  calls are cache hits and would bury the layer in span overhead;
* the tracer never calls anything itself (a second ``validate()`` on a table
  runs faster because ``ClassFunction.rationals()`` is cached).
"""

from __future__ import annotations

import functools
from collections import Counter
from time import perf_counter

# span name -> [(module attribute path, function name), ...].  Module paths are
# relative to the ``subdepth`` package; "Class.method" names wrap a method.
SPANS = {
    "perm.enumerate": [("perm", "PermGroup.generated")],
    "perm.classes": [("perm", "PermGroup.classes")],
    "perm.core": [("depth", "min_core_conjugates"), ("depth", "subgroup_core"),
                  ("constructions", "subgroup_core")],
    "perm.fusion": [("depth", "class_fusion"), ("constructions", "class_fusion"),
                    ("lemma", "class_fusion")],
    "constructions.build": [("constructions", "wreath_cyclic"),
                            ("constructions", "direct_product"),
                            ("constructions", "family"),
                            ("constructions", "base_groups"),
                            ("lemma", "base_groups")],
    "chartab.dixon": [("chartab", "dixon_character_table")],
    "modlin.split": [("modlin", "matvec_mod"), ("modlin", "charpoly_mod"),
                     ("modlin", "roots_mod"), ("modlin", "nullspace_mod"),
                     ("modlin", "rref_mod")],
    "chartab.product_table": [("chartab", "direct_product_table")],
    "chartab.validate": [("chartab", "CharacterTable.validate")],
    "chartab.decompose": [("depth", "decompose"), ("chartab", "decompose")],
    "chartab.induce": [("depth", "induce_character"), ("lemma", "induce_character"),
                       ("chartab", "induce_character")],
    "chartab.oracle": [("chartab", "wreath_cyclic_table")],
    "chartab.import": [("chartab", "table_from_obj")],
    "chartab.export": [("chartab", "table_to_obj")],
    "depth.report": [("depth", "ordinary_depth")],
    "depth.inclusion": [("depth", "inclusion_matrix"), ("lemma", "inclusion_matrix")],
    "depth.matrix": [("depth", "matrix_depth")],
    "depth.criteria": [("depth", "relation_graph"), ("depth", "m_chi"),
                       ("depth", "depth_one_check"), ("depth", "is_normal"),
                       ("lemma", "relation_graph")],
    "graphs.bfs": [("depth", "distances_from"), ("depth", "bfs_distance"),
                   ("lemma", "bfs_distance"), ("graphs", "distances_from"),
                   ("graphs", "bfs_distance")],
    "depth.core": [("depth", "core_depth_bound")],
    "lemma.report": [("lemma", "lemma_report")],
}

# Called tens of thousands of times per pass: counted, never spanned.
COUNTED = {"chartab.inner_products": [("chartab", "inner_product"),
                                      ("lemma", "inner_product")]}

# Spans reported by their inclusive duration, besides their self time.
INCLUSIVE = ("depth.report", "depth.inclusion", "depth.core")

ERROR_LAYERS = ("perm", "constructions", "chartab", "modlin", "depth", "lemma")


class Tracer:
    """Span recorder for one benchmark run; spans are grouped by pass."""

    def __init__(self):
        self.passes = []          # per pass: list of (name, start, end, parent, op)
        self.counts = []          # per pass: Counter
        self.spans = None
        self.count = None
        self.stack = []
        self.op = None
        self._validated = None    # tables validated in this pass (kept alive)

    # -- recording -------------------------------------------------------------

    def begin_pass(self):
        self.spans = []
        self.count = Counter()
        self._validated = {}
        self.passes.append(self.spans)
        self.counts.append(self.count)

    def end_pass(self):
        self.count["chartab.distinct_tables"] = len(self._validated)
        self._validated = None

    def _wrap(self, name, fn, on_result=None):
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = self.spans
            idx = len(spans)
            spans.append(None)
            parent = self.stack[-1] if self.stack else -1
            self.stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.count[layer + ".errors"] += 1
                raise
            finally:
                end = perf_counter()
                self.stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if on_result is not None:
                on_result(args, result)
            return result
        return wrapper

    def _counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self, sd):
        """Wrap every boundary named in SPANS and COUNTED on the loaded package.

        ``sd`` maps module names ("perm", "depth", ...) to the imported modules.
        """
        hooks = {
            "perm.enumerate": self._count_elements,
            "perm.core": self._count_core,
            "chartab.validate": self._count_validate,
            "depth.matrix": self._count_matrix_steps,
        }
        for name, sites in SPANS.items():
            for module, attr in sites:
                if name == "perm.classes":
                    self._install_first_classes(sd[module].PermGroup)
                elif name == "perm.enumerate":
                    cls = sd[module].PermGroup
                    fn = cls.__dict__["generated"].__func__
                    cls.generated = classmethod(self._wrap(name, fn, hooks[name]))
                elif name == "chartab.validate":
                    cls = sd[module].CharacterTable
                    cls.validate = self._wrap(name, cls.validate, hooks[name])
                elif name == "modlin.split" and attr == "charpoly_mod":
                    fn = self._counted("modlin.charpolys", getattr(sd[module], attr))
                    setattr(sd[module], attr, self._wrap(name, fn))
                else:
                    fn = getattr(sd[module], attr)
                    setattr(sd[module], attr, self._wrap(name, fn, hooks.get(name)))
        for name, sites in COUNTED.items():
            for module, attr in sites:
                setattr(sd[module], attr, self._counted(name, getattr(sd[module], attr)))

    def _install_first_classes(self, cls):
        orig = cls.classes
        timed = self._wrap("perm.classes", orig)

        # ``_classes`` is the group's own cache slot: a cached call is not timed.
        def classes(group):
            if group._classes is not None:
                return orig(group)
            return timed(group)
        cls.classes = classes

    def _count_elements(self, args, group):
        self.count["perm.elements"] += group.order

    def _count_core(self, args, result):
        self.count["perm.core_calls"] += 1

    def _count_validate(self, args, result):
        self.count["chartab.validate_calls"] += 1
        table = args[0]
        self._validated[id(table)] = table

    def _count_matrix_steps(self, args, result):
        self.count["depth.matrix_steps"] += result[0]

    # -- aggregation -----------------------------------------------------------

    def pass_breakdown(self, spans):
        """Self seconds per span name, inclusive seconds of INCLUSIVE spans,
        and the seconds covered by top-level spans."""
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = Counter()
        incl_s = Counter()
        covered = 0.0
        for i, (name, start, end, parent, _) in enumerate(spans):
            dur = end - start
            self_s[name] += dur - child[i]
            if name in INCLUSIVE:
                incl_s[name] += dur
            if parent < 0:
                covered += dur
        return self_s, incl_s, covered


def per_layer_metrics(tracer, traced_raw, traced_scaled, untraced_scaled):
    """Per-pass means of every per-layer metric over the traced passes.

    Span times of a pass are scaled like the pass itself (``scaled / raw``,
    see ``run.Clock``).  Means, not medians, so that the self times of all
    spans plus ``trace.unattributed_s`` add up exactly to ``trace.pass_s``.
    """
    k = len(traced_raw)
    self_tot, incl_tot, counts = Counter(), Counter(), Counter()
    unattributed = 0.0
    for spans, count, raw, scaled in zip(tracer.passes, tracer.counts,
                                         traced_raw, traced_scaled):
        factor = scaled / raw
        self_s, incl_s, covered = tracer.pass_breakdown(spans)
        for name, t in self_s.items():
            self_tot[name] += t * factor
        for name, t in incl_s.items():
            incl_tot[name] += t * factor
        counts.update(count)
        unattributed += (raw - covered) * factor
    out = {}
    for name in SPANS:
        key = name + ("_self_s" if name in INCLUSIVE else "_s")
        out[key] = (self_tot[name] / k, "s")
    for name in INCLUSIVE:
        out[name + "_s"] = (incl_tot[name] / k, "s")
    for name in ("perm.elements", "perm.core_calls", "modlin.charpolys",
                 "chartab.validate_calls", "chartab.inner_products",
                 "depth.matrix_steps"):
        out[name] = (counts[name] / k, "count")
    tables = counts["chartab.distinct_tables"]
    out["chartab.validations_per_table"] = (
        counts["chartab.validate_calls"] / tables if tables else 0.0, "ratio")
    for layer in ERROR_LAYERS:
        out[layer + ".errors"] = (counts[layer + ".errors"], "count")
    traced_mean = sum(traced_scaled) / k
    out["trace.pass_s"] = (traced_mean, "s")
    out["trace.unattributed_s"] = (unattributed / k, "s")
    out["trace.overhead_s"] = (traced_mean - sum(untraced_scaled) / len(untraced_scaled), "s")
    return out
