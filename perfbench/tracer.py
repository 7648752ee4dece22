"""Span tracer installed from outside the library.

``install`` wraps the public functions and methods listed in ``TRACED``.
Functions are rebound in every loaded ``stabtorus`` module that holds the
same function object, and methods are replaced on their class, so calls made
inside the package are captured as well as calls from the benchmark.

Each wrapped call is a span: name, start, end, parent span and request id.
Spans are kept in memory and written out by ``write_spans`` at the end of a
run. The innermost, hottest boundaries (``AGGREGATED``; millions of calls on
the tilt sweep) are not stored one by one: they, and everything below them,
are only aggregated per (name, parent name), as every span is. A span's self
time is its duration minus the durations of its direct child spans, which
nest strictly because the library is single-threaded.
"""

from __future__ import annotations

import gzip
import json
import sys
import time

perf_ns = time.perf_counter_ns

# layer (= package module) -> traced callables; "Class.method" names a method,
# a bare "Class" its constructor (__post_init__), a trailing "*" a generator
TRACED = {
    "exactnum": ["direction_angle", "cot_pi", "gamma_from_cot", "phase_mod1", "parse_number"],
    "linalg": ["Matrix2.mul", "Matrix2.inverse", "Matrix2.apply"],
    "charges": ["charge_eval", "std_charge", "deg_charge", "is_stability_function",
                "phase_in_strip", "charge_norm"],
    "cover": ["gl_compose", "gl_inverse", "lift_eval", "act_on_charge", "canonical_base_value"],
    "sheaves": ["FormalObject", "enumerate_objects*", "enumerate_sheaves*", "object_is_legal",
                "object_sum", "object_shift", "sheaf_at", "class_of", "objects_isomorphic",
                "formal_object"],
    "hearts": ["heart_membership", "StandardHeart.contains", "StandardHeart.cohomology",
               "TiltedHeart.contains", "TiltedHeart.cohomology", "StandardHeart.sample_members*",
               "hrs_tilt", "iterated_heart", "standard_pair", "hearts_agree_on",
               "canonical_decomposition", "chain_stabilizes"],
    "stability": ["act", "classify", "hn_filtration", "make_std", "make_deg", "StabPoint.charge",
                  "StabPoint.phi_sky", "StabPoint.psi_line", "spectrum_of", "stable_objects",
                  "subobject_classes", "is_stable_in_model"],
    "walls": ["boundary_at", "boundary_heart", "twist_escape", "gamma_pm", "phase_cut_pair",
              "orbit_complex", "fiber_types", "remove_node", "wall_only_complex"],
    "jsonio": ["encode_number", "decode_number", "encode_kclass", "decode_kclass",
               "encode_charge", "decode_charge", "encode_auto", "decode_auto", "encode_label",
               "decode_label", "encode_point", "decode_point", "encode_sheaf", "decode_sheaf",
               "encode_object", "decode_object", "encode_hn_factor", "encode_family",
               "encode_spectrum", "encode_wall_decision", "encode_complex", "encode_group",
               "dumps"],
    "presentations": ["pi1", "pi1_components", "tietze_simplify"],
    "svg": ["helix_svg"],
    "cli": ["main", "build_parser", "_cmd_classify", "_cmd_act", "_cmd_hn", "_cmd_tilt_chain",
            "_cmd_spectrum", "_cmd_gamma_bounds", "_cmd_boundary", "_cmd_orbit_graph",
            "_cmd_pi1", "_cmd_fiber", "_cmd_twist_escape", "_cmd_helix_svg"],
}
LAYERS = tuple(TRACED)

AGGREGATED = frozenset({
    "sheaves.FormalObject", "sheaves.object_sum", "sheaves.object_shift", "sheaves.sheaf_at",
    "sheaves.class_of", "sheaves.object_is_legal", "hearts.StandardHeart.cohomology",
    "hearts.TiltedHeart.cohomology", "exactnum.direction_angle", "exactnum.phase_mod1",
    "linalg.Matrix2.mul", "linalg.Matrix2.inverse", "linalg.Matrix2.apply",
    "charges.charge_eval", "cover.canonical_base_value",
})


class Tracer:
    """Span stack, stored spans and per-(name, parent) aggregates."""

    def __init__(self):
        self.active = True
        self.request = None
        self.stack = []  # frames: [name, child_ns, span id or -1 when not stored]
        self.spans = []  # (id, name, start_ns, end_ns, parent id, request)
        self.stats = {}  # (name, parent name) -> [calls, inclusive ns, self ns]
        self.yields = {}  # generator name -> items produced
        self.memo_calls = 0
        self.memo_hits = 0
        self._memo_last = {}  # id(heart) -> (heart, last cohomology dict)
        self._next_id = 0

    def _enter(self, name):
        stack = self.stack
        if stack and stack[-1][2] < 0 or name in AGGREGATED:
            frame = [name, 0, -1]
        else:
            frame = [name, 0, self._next_id]
            self._next_id += 1
        stack.append(frame)
        return frame

    def _leave(self, frame, start, end):
        stack = self.stack
        stack.pop()
        dur = end - start
        parent = stack[-1] if stack else None
        pname = ""
        if parent is not None:
            parent[1] += dur
            pname = parent[0]
        key = (frame[0], pname)
        st = self.stats.get(key)
        if st is None:
            self.stats[key] = [1, dur, dur - frame[1]]
        else:
            st[0] += 1
            st[1] += dur
            st[2] += dur - frame[1]
        if frame[2] >= 0:
            self.spans.append((frame[2], frame[0], start, end,
                               parent[2] if parent is not None else -1, self.request))

    def begin(self, name, request):
        """Open a root span for one benchmark operation."""
        self.request = request
        frame = self._enter(name)
        return frame, perf_ns()

    def end(self, token):
        frame, start = token
        self._leave(frame, start, perf_ns())

    # -- wrappers ---------------------------------------------------------

    def wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer._enter(name)
            start = perf_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._leave(frame, start, perf_ns())

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, name, fn):
        """Each resumption of the generator is one span."""
        tracer = self

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            if not tracer.active:
                yield from it
                return
            while True:
                frame = tracer._enter(name)
                start = perf_ns()
                try:
                    item = next(it)
                except StopIteration:
                    tracer._leave(frame, start, perf_ns())
                    return
                except BaseException:
                    tracer._leave(frame, start, perf_ns())
                    raise
                tracer._leave(frame, start, perf_ns())
                tracer.yields[name] = tracer.yields.get(name, 0) + 1
                yield item

        traced.__wrapped__ = fn
        return traced

    def wrap_chain_contains(self, fn):
        """TiltedHeart.contains, one span name per tilt level."""
        tracer = self
        names = {}

        def traced(heart, E):
            if not tracer.active:
                return fn(heart, E)
            name = names.get(heart.level)
            if name is None:
                name = names[heart.level] = f"hearts.TiltedHeart.contains.L{heart.level}"
            frame = tracer._enter(name)
            start = perf_ns()
            try:
                return fn(heart, E)
            finally:
                tracer._leave(frame, start, perf_ns())

        traced.__wrapped__ = fn
        return traced

    def wrap_cohomology(self, name, fn):
        """A call is a memo hit when it returns the same dict object as the
        previous call on that heart."""
        tracer = self
        inner = self.wrap(name, fn)

        def traced(heart, E):
            out = inner(heart, E)
            if tracer.active:
                tracer.memo_calls += 1
                last = tracer._memo_last.get(id(heart))
                if last is not None and last[1] is out:
                    tracer.memo_hits += 1
                tracer._memo_last[id(heart)] = (heart, out)
            return out

        traced.__wrapped__ = fn
        return traced

    # -- output -----------------------------------------------------------

    def summary(self) -> dict:
        return {
            "stats": [[n, p, c, i, s] for (n, p), (c, i, s) in self.stats.items()],
            "yields": dict(self.yields),
            "memo_calls": self.memo_calls,
            "memo_hits": self.memo_hits,
            "stored_spans": len(self.spans),
        }

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for sid, name, start, end, parent, request in self.spans:
                fh.write(json.dumps([sid, name, start, end, parent, request]) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap every callable in TRACED whose module is loaded."""
    for layer, names in TRACED.items():
        mod = sys.modules.get(f"stabtorus.{layer}")
        if mod is None:
            continue
        for entry in names:
            gen = entry.endswith("*")
            entry = entry.rstrip("*")
            span = f"{layer}.{entry}"
            if "." in entry:
                cls_name, meth = entry.split(".")
                cls = getattr(mod, cls_name)
                fn = cls.__dict__[meth]
                if span == "hearts.TiltedHeart.contains":
                    wrapped = tracer.wrap_chain_contains(fn)
                elif meth == "cohomology":
                    wrapped = tracer.wrap_cohomology(span, fn)
                elif gen:
                    wrapped = tracer.wrap_generator(span, fn)
                else:
                    wrapped = tracer.wrap(span, fn)
                for attr, value in list(vars(cls).items()):
                    if value is fn:  # covers aliases such as __matmul__ = mul
                        setattr(cls, attr, wrapped)
                continue
            obj = getattr(mod, entry)
            if isinstance(obj, type):
                # constructors: the dataclass __init__ calls __post_init__
                fn = obj.__post_init__
                setattr(obj, "__post_init__", tracer.wrap(span, fn))
                continue
            wrapped = tracer.wrap_generator(span, obj) if gen else tracer.wrap(span, obj)
            for name, loaded in list(sys.modules.items()):
                if name == "stabtorus" or name.startswith("stabtorus."):
                    for attr, value in list(vars(loaded).items()):
                        if value is obj:
                            setattr(loaded, attr, wrapped)


# ---------------------------------------------------------------------------
# per-layer metrics from the summaries of one traced run

SUBCOMMANDS = ("classify", "act", "hn", "tilt-chain", "spectrum", "gamma-bounds", "boundary",
               "orbit-graph", "pi1", "fiber", "twist-escape", "helix-svg")
CHAIN_LEVELS = (1, 2, 3)  # the tilt levels of the d = 4 sweep
COHOMOLOGY = ("hearts.StandardHeart.cohomology", "hearts.TiltedHeart.cohomology")


def merge(summaries) -> dict:
    stats, yields = {}, {}
    memo_calls = memo_hits = 0
    for s in summaries:
        for name, parent, calls, incl, own in s["stats"]:
            st = stats.setdefault((name, parent), [0, 0, 0])
            st[0] += calls
            st[1] += incl
            st[2] += own
        for name, n in s["yields"].items():
            yields[name] = yields.get(name, 0) + n
        memo_calls += s["memo_calls"]
        memo_hits += s["memo_hits"]
    return {"stats": stats, "yields": yields, "memo_calls": memo_calls, "memo_hits": memo_hits}


def layer_metrics(merged, ops, total_ns, overhead_share, import_ms, floor_ms) -> dict:
    """Name -> {"value", "unit"}. A function the workload never called reads
    0 in its per-call metrics; its layer's counts are 0 as well."""
    stats = merged["stats"]
    by_name = {}
    for (name, _), (calls, incl, own) in stats.items():
        agg = by_name.setdefault(name, [0, 0, 0])
        agg[0] += calls
        agg[1] += incl
        agg[2] += own

    def calls(*names):
        return sum(by_name.get(n, (0, 0, 0))[0] for n in names)

    def incl(*names):
        return sum(by_name.get(n, (0, 0, 0))[1] for n in names)

    def own(*names):
        return sum(by_name.get(n, (0, 0, 0))[2] for n in names)

    def ratio(a, b):
        return a / b if b else 0.0

    def us_per_call(name):
        return ratio(incl(name), calls(name)) / 1e3

    def outermost(family):
        n = t = 0
        for (name, parent), (c, i, _) in stats.items():
            if family(name) and not family(parent):
                n += c
                t += i
        return ratio(t, n) / 1e3

    out = {}

    def put(name, value, unit):
        out[name] = {"value": float(value), "unit": unit}

    layer_own = {layer: 0 for layer in LAYERS}
    layer_calls = {layer: 0 for layer in LAYERS}
    for name, (c, _, o) in by_name.items():
        layer = name.split(".")[0]
        if layer in layer_own:
            layer_own[layer] += o
            layer_calls[layer] += c
    for layer in LAYERS:
        put(f"{layer}.self_share", ratio(layer_own[layer], total_ns), "share")
        put(f"{layer}.calls_per_op", ratio(layer_calls[layer], ops), "count")

    enum = "sheaves.enumerate_objects"
    put("sheaves.enumerate_objects.ns_per_object",
        ratio(incl(enum), merged["yields"].get(enum, 0)), "ns")
    put("sheaves.formal_object.builds_per_object", ratio(calls("sheaves.FormalObject"), ops), "count")
    put("sheaves.formal_object.busy_share", ratio(incl("sheaves.FormalObject"), total_ns), "share")
    put("sheaves.object_is_legal.calls_per_object", ratio(calls("sheaves.object_is_legal"), ops),
        "count")
    put("hearts.heart_membership.ns_per_call", us_per_call("hearts.heart_membership") * 1e3, "ns")
    for k in CHAIN_LEVELS:
        put(f"hearts.chain_contains.L{k}.us_per_call",
            us_per_call(f"hearts.TiltedHeart.contains.L{k}"), "us")
    put("hearts.cohomology.self_share", ratio(own(*COHOMOLOGY), total_ns), "share")
    put("hearts.cohomology.calls_per_object", ratio(calls(*COHOMOLOGY), ops), "count")
    put("hearts.cohomology.memo_hit_ratio", ratio(merged["memo_hits"], merged["memo_calls"]),
        "ratio")
    put("hearts.hrs_tilt.us_per_call", us_per_call("hearts.hrs_tilt"), "us")
    for fn in ("gl_compose", "gl_inverse", "lift_eval"):
        put(f"cover.{fn}.us_per_call", us_per_call(f"cover.{fn}"), "us")
    put("exactnum.direction_angle.calls_per_query", ratio(calls("exactnum.direction_angle"), ops),
        "count")
    put("charges.is_stability_function.us_per_call", us_per_call("charges.is_stability_function"),
        "us")
    cover_children = sum(
        i for (name, parent), (_, i, _) in stats.items()
        if parent == "stability.classify" and name.startswith("cover.")
    )
    put("stability.classify.self_us",
        ratio(incl("stability.classify") - cover_children, calls("stability.classify")) / 1e3, "us")
    for fn in ("act", "hn_filtration"):
        put(f"stability.{fn}.us_per_call", us_per_call(f"stability.{fn}"), "us")
    for fn in ("boundary_at", "boundary_heart", "twist_escape"):
        put(f"walls.{fn}.us_per_call", us_per_call(f"walls.{fn}"), "us")
    evals = stats.get(("exactnum.phase_mod1", "walls.twist_escape"), (0, 0, 0))[0]
    put("walls.twist_escape.phase_evals_per_call", ratio(evals, calls("walls.twist_escape")),
        "count")
    put("jsonio.decode.us_per_call", outermost(lambda n: n.startswith("jsonio.decode")), "us")
    put("jsonio.encode.us_per_call",
        outermost(lambda n: n.startswith("jsonio.encode") or n == "jsonio.dumps"), "us")
    put("cli.import_ms", import_ms, "ms")
    for sub in SUBCOMMANDS:
        name = "cli._cmd_" + sub.replace("-", "_")
        put(f"cli.handler_ms.{sub}", us_per_call(name) / 1e3, "ms")
    put("cli.interpreter_floor_ms", floor_ms, "ms")
    put("trace.overhead_share", overhead_share, "share")
    library_own = sum(layer_own.values())
    put("trace.unattributed_share", ratio(total_ns - library_own, total_ns), "share")
    return out
