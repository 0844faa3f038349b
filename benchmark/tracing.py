"""In-memory span tracer wrapped around coverspec's public functions.

The package code is not edited.  `install` replaces each traced function
at every module attribute bound to it (a `from .factor import factor_ff`
makes a second binding that would otherwise escape) and each traced
method on its class; `uninstall` puts the originals back.  A span records
(name, start, end, parent, job); very hot methods get a call counter
instead of a span.  Span names are `<module>.<function>`, with `__init__`,
`__mul__` and `__divmod__` written `init`, `mul` and `divmod`.

A name that a later version of the package no longer has is skipped; its
metrics then read zero.
"""

import importlib
import json
import sys
from collections import Counter
from time import perf_counter

SPANS = {
    "census": ["census"],
    "cli": ["main"],
    "covers": ["BivariateCover.__init__", "is_good_prime", "reduce_mod"],
    "factor": ["factor_ff", "factor_z", "is_irreducible_ff"],
    "numutil": ["prime_factors"],
    "parsing": ["parse_bivariate"],
    "poly": ["poly_gcd", "resultant"],
    "search": ["certify_sn", "grunwald_search", "local_solutions",
               "standard_trick_primes"],
    "specialize": ["etale_algebra", "residue_degrees_at",
                   "specialize_pattern"],
    "twist": ["FiniteGroup.__init__", "GroupHom.__init__",
              "enumerate_sections", "semidirect_extension", "twisted_action",
              "verify_twisting_lemma"],
}
COUNTS = {
    "fields": ["ExtField.mul"],
    "poly": ["Polynomial.__mul__", "Polynomial.__divmod__"],
    "twist": ["Perm.__mul__"],
}
JOB = "job"  # the benchmark's own root span around each job


def _ratio(a, b):
    return a / b if b else 0.0


def layer_name(module, attr):
    for dunder, plain in (("__init__", "init"), ("__mul__", "mul"),
                          ("__divmod__", "divmod")):
        attr = attr.replace(dunder, plain)
    return f"{module}.{attr}"


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent, job, self_seconds]
        self.stack = []      # [span index, seconds covered by children]
        self.active = Counter()
        self.outer = Counter()  # time of spans with no same-name ancestor
        self.counts = Counter()
        self.reductions = set()
        self.keep = []       # covers whose id() is in `reductions`
        self.job = None
        self._patches = []

    # ------------------------------------------------------------ wrapping

    def _span(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            parent = tracer.stack[-1][0] if tracer.stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            frame = [index, 0.0]
            tracer.stack.append(frame)
            tracer.active[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.active[name] -= 1
                tracer.stack.pop()
                duration = end - start
                if tracer.stack:
                    tracer.stack[-1][1] += duration
                if not tracer.active[name]:
                    tracer.outer[name] += duration
                tracer.spans[index] = [name, start, end, parent, tracer.job,
                                       duration - frame[1]]
            tracer._observe(name, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        wrappers = {}  # id(original function) -> (original, wrapper)
        for kind, table in ((self._span, SPANS), (self._counter, COUNTS)):
            for short, attrs in table.items():
                module = importlib.import_module("coverspec." + short)
                for attr in attrs:
                    owner_name, _, method = attr.rpartition(".")
                    owner = getattr(module, owner_name, None) if owner_name \
                        else module
                    fn = vars(owner).get(method) if owner is not None else None
                    if fn is None:
                        continue
                    wrapper = kind(layer_name(short, attr), fn)
                    if owner_name:
                        self._patch(owner, method, wrapper)
                    else:
                        wrappers[id(fn)] = (fn, wrapper)
        for modname, module in list(sys.modules.items()):
            if modname != "coverspec" and not modname.startswith("coverspec."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # ------------------------------------------------------------ jobs

    def run_job(self, job_id, fn, *args):
        """Call fn under a root span; returns (result, seconds)."""
        self.job = job_id
        start = perf_counter()
        result = self._span(JOB, fn)(*args)
        return result, perf_counter() - start

    def _observe(self, name, args, result):
        """Work counters read from arguments and results at the boundary."""
        c = self.counts
        try:
            if name == "specialize.specialize_pattern" and \
                    self.active["search.local_solutions"]:
                c["search.local_solutions.fibers"] += 1
            elif name == "covers.reduce_mod":
                key = (id(args[0]), args[1])
                if key not in self.reductions:
                    self.reductions.add(key)
                    self.keep.append(args[0])
            elif name == "search.certify_sn":
                c["search.certify_sn.primes_scanned"] += result.scanned
            elif name == "search.grunwald_search":
                c["search.certified"] += len(result.certified)
                c["search.tried"] += len(result.certified) + len(result.skipped)
            elif name == "census.census":
                c["census.fibers"] += sum(result.counts.values())
                c["census.excluded"] += result.excluded
            elif name == "twist.verify_twisting_lemma":
                c["twist.sections"] += result["sections"]
                c["twist.fixed"] += sum(
                    1 for e in result["entries"] if e["fixed_points"])
        except (AttributeError, KeyError, TypeError, IndexError):
            c["trace.unreadable_results"] += 1

    # ------------------------------------------------------------ results

    def layer_metrics(self):
        """calls / total_s / self_s per span name, plus the counters."""
        calls, self_s = Counter(), Counter()
        for name, _, _, _, _, own in self.spans:
            calls[name] += 1
            self_s[name] += own
        out = {}
        for short, attrs in SPANS.items():
            for attr in attrs:
                name = layer_name(short, attr)
                out[name + ".calls"] = calls[name]
                out[name + ".total_s"] = self.outer[name]
                out[name + ".self_s"] = self_s[name]
        for short, attrs in COUNTS.items():
            for attr in attrs:
                name = layer_name(short, attr)
                out[name + ".calls"] = self.counts[name]
        c = self.counts
        out["factor.factor_ff.us_per_call"] = 1e6 * _ratio(
            self.outer["factor.factor_ff"], calls["factor.factor_ff"])
        out["covers.reduce_mod.reuse_ratio"] = _ratio(
            len(self.reductions), calls["covers.reduce_mod"])
        out["search.certified_ratio"] = _ratio(
            c["search.certified"], c["search.tried"])
        out["twist.fixed_point_ratio"] = _ratio(
            c["twist.fixed"], c["twist.sections"])
        for name in ("search.local_solutions.fibers",
                     "search.certify_sn.primes_scanned", "census.fibers",
                     "census.excluded", "twist.sections",
                     "trace.unreadable_results"):
            out[name] = c[name]
        out["trace.spans"] = len(self.spans)
        out["trace.layer_self_share"] = _ratio(
            sum(self_s.values()) - self_s[JOB], sum(self_s.values()))
        return out

    def write(self, path):
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as handle:
            for name, start, end, parent, job, _ in self.spans:
                handle.write(json.dumps(
                    [name, round(start - origin, 7), round(end - origin, 7),
                     parent, job]) + "\n")
