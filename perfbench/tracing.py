"""Per-layer spans and counts, taken from outside the library.

A traced block installs timing wrappers around the public callables of each
numerical module, patched where the caller looks them up, and removes them
afterwards. Spans (name, parent, start, end) stay in memory; a layer's self
time is the duration of its spans minus the part covered by child spans.
Calls too frequent for a span (the ~40k resolvent applications of one
depth) are counted only.

Span names are `<module>.<callable>`; the module is the layer. Mode-algebra
arithmetic called from inside a contour integral has no span of its own and
counts as `kato` self time; `util` runs inside `dno` and `modealg` spans.
"""

import functools
import warnings
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

from stokestab import dispersion, dno, isola, kato, modealg, stokes, validator

# (owner, attribute, span name): each owner is where the callers look it up
SPANS = (
    (dispersion, "build_context", "dispersion.build_context"),
    (isola, "build_context", "dispersion.build_context"),
    (kato, "spectrum_gap", "dispersion.spectrum_gap"),
    (stokes, "build_tables", "stokes.build_tables"),
    (isola, "build_tables", "stokes.build_tables"),
    (validator, "profile_series", "stokes.profile_series"),
    (dno, "cascade_row", "dno.cascade_row"),
    (kato, "operator_family", "modealg.operator_family"),
    (modealg.RowProvider, "taylor", "modealg.taylor"),
    (kato, "assemble_matrix_coeffs", "kato.assemble_matrix_coeffs"),
    (isola, "b30_coefficient", "kato.b30_coefficient"),
    (kato.KatoAssembler, "inner_product_table", "kato.inner_product_table"),
    (isola, "scan_h", "isola.scan_h"),
    (isola, "find_h_crit", "isola.find_h_crit"),
    (validator, "build_operator", "validator.build_operator"),
    (validator, "spectrum", "validator.spectrum"),
)

# (owner, attribute, counter name): counted, no span
COUNTS = (
    (kato.KatoAssembler, "resolvent_apply", "kato.resolvent_apply"),
    (dno, "cascade_profiles", "dno.cascade_profiles"),
)

# (name, unit, better) of every per-layer metric, per traced item unless the
# unit says otherwise
LAYER_METRICS = (
    ("kato.projections", "count/item", "lower"),
    ("kato.resolvent_applies", "count/item", "lower"),
    ("kato.contour_self_s", "s/item", "lower"),
    ("kato.ledger_s", "s/item", "lower"),
    ("kato.self_s", "s/item", "lower"),
    ("kato.achieved_tol_max", "rel", "lower"),
    ("dno.trees_built", "count/item", "lower"),
    ("dno.tree_requests", "count/item", "lower"),
    ("dno.tree_hit_ratio", "ratio", "higher"),
    ("dno.tree_self_s", "s/item", "lower"),
    ("dno.row_self_s", "s/item", "lower"),
    ("modealg.rows_requested", "count/item", "lower"),
    ("modealg.fd_rows", "count/item", "lower"),
    ("modealg.fd_trees", "count/item", "lower"),
    ("modealg.self_s", "s/item", "lower"),
    ("modealg.fd_warnings", "count/item", "lower"),
    ("isola.hcrit_b30_evals", "count/item", "lower"),
    ("isola.self_s", "s/item", "lower"),
    ("validator.operators_built", "count/item", "lower"),
    ("validator.fill_self_s", "s/item", "lower"),
    ("validator.eig_s", "s/item", "lower"),
    ("validator.ties", "count/item", "lower"),
    ("dispersion.calls", "count/item", "lower"),
    ("dispersion.self_s", "s/item", "lower"),
    ("stokes.self_s", "s/item", "lower"),
    ("bench.self_s", "s/item", "lower"),
    ("bench.item_s", "s/item", "lower"),
    ("trace.throughput_per_s", "1/s", "higher"),
    ("trace.overhead", "ratio", "lower"),
)


class Tracer:
    """In-memory spans and counters for the blocks run under `installed()`."""

    def __init__(self):
        self.spans = []          # [name, parent index or -1, start, end]
        self.counts = Counter()
        self.achieved_tol_max = 0.0
        self._stack = []

    @contextmanager
    def span(self, name):
        """Record one span around the body of the `with` statement."""
        rec = [name, self._stack[-1] if self._stack else -1,
               perf_counter(), 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[3] = perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if after is not None:
                after(args, out)
            return out
        return traced

    def count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _patches(self):
        def note_tol(args, _out):
            self.achieved_tol_max = max(self.achieved_tol_max,
                                        args[0].achieved_tol)

        def note_ties(_args, comp):
            self.counts["validator.ties"] += len(comp.ties)

        fd_taylor = modealg.RowProvider.__dict__["_fd_taylor"]

        def fd_rows(*args, **kwargs):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                out = fd_taylor(*args, **kwargs)
            self.counts["modealg.fd_warnings"] += sum(
                issubclass(w.category, RuntimeWarning) for w in caught)
            return out

        tree = dno.CascadeTree
        yield dno, "CascadeTree", type(tree.__name__, (tree,), {
            "__init__": self.wrap("dno.CascadeTree", tree.__init__)})
        yield (kato.KatoAssembler, "apply_P",
               self.wrap("kato.apply_P", kato.KatoAssembler.apply_P,
                         after=note_tol))
        yield (modealg.RowProvider, "_fd_taylor",
               self.wrap("modealg.fd_taylor", fd_rows))
        yield (validator, "compare_isola",
               self.wrap("validator.compare_isola", validator.compare_isola,
                         after=note_ties))
        for owner, attr, name in SPANS:
            yield owner, attr, self.wrap(name, getattr(owner, attr))
        for owner, attr, name in COUNTS:
            yield owner, attr, self.count(name, getattr(owner, attr))

    @contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, wrapper in self._patches():
                saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def layer_metrics(self, items, untraced_tput):
        """Per-layer metrics per traced item, and the tracing overhead."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for name, parent, t0, t1 in spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        self_s = defaultdict(float)
        layer_self = defaultdict(float)
        calls = Counter()
        for (name, _, t0, t1), child in zip(spans, covered):
            self_s[name] += t1 - t0 - child
            layer_self[name.split(".")[0]] += t1 - t0 - child
            calls[name] += 1

        def under(i, ancestor):
            i = spans[i][1]
            while i >= 0:
                if spans[i][0] == ancestor:
                    return True
                i = spans[i][1]
            return False

        fd_trees = sum(1 for i, sp in enumerate(spans)
                       if sp[0] == "dno.CascadeTree"
                       and under(i, "modealg.fd_taylor"))
        hcrit_evals = sum(1 for i, sp in enumerate(spans)
                          if sp[0] == "kato.b30_coefficient"
                          and under(i, "isola.find_h_crit"))
        block_s = sum(t1 - t0 for name, _, t0, t1 in spans
                      if name == "bench.block")
        trees = calls["dno.CascadeTree"]
        requests = self.counts["dno.cascade_profiles"]
        tput = items / block_s
        values = {
            "kato.projections": calls["kato.apply_P"],
            "kato.resolvent_applies": self.counts["kato.resolvent_apply"],
            "kato.contour_self_s": self_s["kato.apply_P"],
            "kato.ledger_s": self_s["kato.inner_product_table"],
            "kato.self_s": layer_self["kato"],
            "dno.trees_built": trees,
            "dno.tree_requests": requests,
            "dno.tree_self_s": self_s["dno.CascadeTree"],
            "dno.row_self_s": self_s["dno.cascade_row"],
            "modealg.rows_requested": calls["modealg.taylor"],
            "modealg.fd_rows": calls["modealg.fd_taylor"],
            "modealg.fd_trees": fd_trees,
            "modealg.self_s": layer_self["modealg"],
            "modealg.fd_warnings": self.counts["modealg.fd_warnings"],
            "isola.hcrit_b30_evals": hcrit_evals,
            "isola.self_s": layer_self["isola"],
            "validator.operators_built": calls["validator.build_operator"],
            "validator.fill_self_s": self_s["validator.build_operator"],
            "validator.eig_s": self_s["validator.spectrum"],
            "validator.ties": self.counts["validator.ties"],
            "dispersion.calls": calls["dispersion.build_context"],
            "dispersion.self_s": layer_self["dispersion"],
            "stokes.self_s": layer_self["stokes"],
            "bench.self_s": layer_self["bench"],
            "bench.item_s": block_s,
        }
        values = {k: v / items for k, v in values.items()}
        values.update({
            "kato.achieved_tol_max": self.achieved_tol_max,
            "dno.tree_hit_ratio": 1.0 - trees / requests if requests else 0.0,
            "trace.throughput_per_s": tput,
            "trace.overhead": untraced_tput / tput - 1.0,
        })
        return {name: {"value": values[name], "unit": unit}
                for name, unit, _ in LAYER_METRICS}

    def dump(self):
        return {"fields": ["name", "parent", "start", "end"],
                "spans": self.spans, "counts": dict(self.counts)}

