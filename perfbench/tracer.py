"""Outside-in layer tracing of the hilbfock package.

The tracer wraps public functions of each package module from outside the
package.  A wrapped function records a span (id, name, start, end, parent
id, request id) and adds its self time, its duration minus the time its
wrapped children took, to its layer group.  Every module global that holds
a wrapped function is rebound, so calls through other import sites (for
example ``verify.heisenberg`` and ``cli.heisenberg``) are traced too;
methods are patched on their class.  The two Fock primitives called
millions of times get count-only wrappers without timing.

Counters are derived from public arguments and return values only; no
private cache of the package is read.
"""

import json
import time
from collections import defaultdict

# layer group -> (module, function or Class.method) pairs.
GROUPS = {
    "partitions.enumerate": [("partitions", "enumerate_genpartitions"),
                             ("partitions", "enumerate_ordinary")],
    "ring.build": [("ring", "builtin_ring"), ("ring", "load_ring")],
    "ring.multiply": [("ring", "SurfaceRing.multiply")],
    "ring.tau": [("ring", "SurfaceRing.tau"), ("ring", "SurfaceRing.tau2")],
    "fock.pairing": [("fock", "pairing")],
    "fock.basis_states": [("fock", "basis_states")],
    "operators.build": [("operators", "heisenberg"),
                        ("operators", "monomial"),
                        ("operators", "quadratic_sum"),
                        ("operators", "instantiate")],
    "operators.apply": [("operators", "OperatorSum.apply"),
                        ("operators", "commutator_action"),
                        ("operators", "derivation_apply"),
                        ("operators", "apply_arrangement")],
    "operators.smeared": [("operators", "series_to_smeared"),
                          ("operators", "series_bracket"),
                          ("operators", "s_bracket"),
                          ("operators", "s_derive")],
    "walgebra.build": [("walgebra", "jay"), ("walgebra", "chern"),
                       ("walgebra", "virasoro"), ("walgebra", "fourier"),
                       ("walgebra", "jay_via_fields")],
    "walgebra.wbracket": [("walgebra", "wbracket")],
    "hilbert": [("hilbert", "chern_class"),
                ("hilbert", "chern_class_closed"),
                ("hilbert", "cup_product"),
                ("hilbert", "intersection_number"),
                ("hilbert", "intersection_number_closed")],
    "verify": [("verify", "run_suite")],
    "cli": [("cli", "main")],
}

COUNT_ONLY = {
    "fock.create_state": ("fock", "create_state"),
    "fock.annihilate_state": ("fock", "annihilate_state"),
}

# Groups whose repeat_ratio is tracked: the share of calls whose
# arguments were already seen earlier in the same process.
REPEAT_GROUPS = ("ring.tau", "operators.build")

MODULES = ("partitions", "ring", "fock", "operators", "walgebra", "hilbert",
           "verify", "cli")

# Spans kept in memory and written out; later spans are counted only.
# The action workload makes about 2.4M spans, which would take several
# hundred MB to keep.
SPAN_CAP = 100_000


def _arg_key(x):
    """Hashable identity of a public argument, by value where possible."""
    if hasattr(x, "coeffs"):            # RingElem
        return x.coeffs
    if hasattr(x, "basis_names"):       # SurfaceRing: one object per ring
        return ("ring", id(x))
    if hasattr(x, "parts"):             # GenPartition
        return x.parts
    terms = getattr(x, "terms", None)
    if isinstance(terms, dict):         # SmearedOp, OperatorSum, FockVector
        return frozenset(terms.items())
    return x


class Tracer:
    """Span recorder and per-group aggregates for one process."""

    def __init__(self):
        self.spans = []
        self.spans_dropped = 0
        self.request = None
        self.stack = []
        self.next_id = 0
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.request_self_s = defaultdict(float)
        self._seen = defaultdict(set)

    # -- installation ------------------------------------------------------

    def install(self, package):
        """Wrap every listed function of the imported package."""
        modules = [getattr(package, name) for name in MODULES]
        for group, targets in GROUPS.items():
            for modname, path in targets:
                self._patch(modules, getattr(package, modname), path,
                            lambda fn, label, g=group: self._timed(g, label, fn))
        for group, (modname, path) in COUNT_ONLY.items():
            self._patch(modules, getattr(package, modname), path,
                        lambda fn, label, g=group: self._counted(g, fn))

    def _patch(self, modules, module, path, make):
        if "." in path:
            cls_name, meth = path.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, meth, make(getattr(cls, meth), path))
            return
        original = getattr(module, path)
        wrapper = make(original, path)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapper)

    # -- wrappers ------------------------------------------------------------

    def _timed(self, group, label, fn):
        count = self._counter(group)
        name = "%s:%s" % (group, label)
        perf = time.perf_counter
        stack = self.stack

        def wrapper(*args, **kwargs):
            sid = self.next_id
            self.next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            ok = False
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = perf()
                stack.pop()
                self.calls[group] += 1
                self.self_s[group] += (t1 - t0) - frame[1]
                self.request_self_s[(self.request, group)] += \
                    (t1 - t0) - frame[1]
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((sid, name, t0, t1, parent,
                                       self.request))
                else:
                    self.spans_dropped += 1
                if ok and count is not None:
                    count(args, result)
                # Bookkeeping above belongs to the tracer, not to the
                # caller: charge the whole wrapper to the parent's children.
                if stack:
                    stack[-1][1] += perf() - t0

        return wrapper

    def _counted(self, group, fn):
        counts = self.counts
        calls = self.calls
        if group == "fock.create_state":
            def wrapper(*args):
                result = fn(*args)
                calls[group] += 1
                if result[0] is None:
                    counts["fock.create_state.dropped"] += 1
                return result
        else:
            def wrapper(*args):
                result = fn(*args)
                calls[group] += 1
                if not result:
                    counts["fock.annihilate_state.empty"] += 1
                return result
        return wrapper

    def _counter(self, group):
        counts = self.counts
        if group == "operators.smeared":
            def count(args, result):
                counts["operators.smeared.terms_out"] += len(result.terms)
        elif group == "operators.apply":
            def count(args, result):
                counts["operators.apply.states_in"] += len(args[-1].terms)
        elif group == "verify":
            def count(args, result):
                counts["verify.records"] += len(result.records)
                counts["verify.checks"] += sum(r.checks
                                               for r in result.records)
        elif group in REPEAT_GROUPS:
            seen = self._seen[group]

            def count(args, result):
                key = hash(tuple(_arg_key(a) for a in args))
                if key in seen:
                    counts[group + ".repeats"] += 1
                else:
                    seen.add(key)
        else:
            count = None
        return count

    # -- output --------------------------------------------------------------

    def summary(self):
        """Per-group calls, self seconds and counters, as plain dicts."""
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counts": dict(self.counts),
                "spans": len(self.spans) + self.spans_dropped,
                "spans_dropped": self.spans_dropped}

    def request_breakdown(self):
        """Self seconds per (request id, group)."""
        out = defaultdict(dict)
        for (req, group), s in self.request_self_s.items():
            out[str(req)][group] = s
        return dict(out)

    def write_spans(self, path):
        """One JSON list per line: id, name, start, end, parent id
        (-1 for none), request id (null during set-up)."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
