"""Span recording around qcluster's public functions, installed from outside.

Nothing under src/ knows about this module. install() replaces each
target function with a wrapper that records one span per call (name,
parent span, start and end in perf_counter nanoseconds) in flat arrays,
plus a few work counts read off the arguments or the result. The
wrapper is bound in every qcluster namespace that holds the original
object, so calls made through a name imported with ``from x import f``
are traced as well as calls through ``module.f``.

Span names are ``<module>.<qualname>``; a class target (CandidateBasis)
wraps its __init__ and keeps the class name.
"""
from __future__ import annotations

import functools
import json
import sys
from array import array
from time import perf_counter_ns

# Entry points of the CLI stages plus the two timed operations,
# verify_pair and mutate_tracked: all that an untraced (light) run wraps.
STAGES = (
    "cli.load_seed",
    "expansion.build_exchange_graph",
    "expansion.mutate_tracked",
    "expansion.emit_dot",
    "leclerc.CandidateBasis",
    "leclerc.verify_theorem",
    "leclerc.verify_pair",
    "tropical.detect_shift",
)

# Every layer the traced run reports on.
LAYERS = (
    "cli.load_seed",
    "seed.find_compatible_lambda",
    "seed.mutate_seed",
    "_linalg.solve_integer",
    "_linalg.invert",
    "qtorus.twisted_mul",
    "qtorus.exact_divide",
    "qtorus.lam_pair",
    "expansion.build_exchange_graph",
    "expansion.mutate_tracked",
    "expansion.cluster_monomial",
    "expansion.ExchangeGraph.vars_in",
    "expansion.ExchangeGraph.monomial_in",
    "pointed.dominance_n",
    "pointed.degree",
    "pointed.codegree",
    "pointed.interval",
    "pointed.decompose",
    "tropical.detect_shift",
    "leclerc.CandidateBasis",
    "leclerc.CandidateBasis.window_set",
    "leclerc.CandidateBasis.element_at_degree",
    "leclerc.CandidateBasis.element_at_codegree",
    "leclerc.verify_pair",
    "leclerc.verify_theorem",
)

# Stages that start the work a call was made for; everything a call does
# before the first of them is set-up.
WORK_STAGES = ("leclerc.verify_pair", "expansion.emit_dot", "tropical.detect_shift")


VERDICTS = ("in_basis", "two_tail_pass", "two_tail_fail", "indeterminate")

# Work counts taken at the same boundaries as the spans. Each hook is
# (counter names, fn(args, result) -> increments) and runs after every
# call that returns.
HOOKS = {
    "qtorus.twisted_mul": (
        ("qtorus.twisted_mul.term_pairs",),
        lambda a, r: (len(a[0].terms) * len(a[1].terms),)),
    "qtorus.exact_divide": (
        ("qtorus.exact_divide.quotient_terms",), lambda a, r: (len(r.terms),)),
    "seed.find_compatible_lambda": (
        ("seed.find_compatible_lambda.hits",), lambda a, r: (1,)),
    "expansion.build_exchange_graph": (("expansion.nodes",), lambda a, r: (len(r.order),)),
    "pointed.interval": (("pointed.interval.points",), lambda a, r: (len(r),)),
    "pointed.decompose": (
        ("pointed.decompose.steps", "pointed.decompose.exact"),
        lambda a, r: (len(r.terms), int(r.is_exact))),
    "leclerc.CandidateBasis": (("leclerc.basis_size",), lambda a, r: (len(a[0].by_degree),)),
    "leclerc.CandidateBasis.element_at_degree": (
        ("leclerc.resolve.found",), lambda a, r: (int(r is not None),)),
    "leclerc.CandidateBasis.element_at_codegree": (
        ("leclerc.resolve.found",), lambda a, r: (int(r is not None),)),
    "leclerc.verify_theorem": (
        tuple("leclerc.verdict." + v for v in VERDICTS) + ("leclerc.conflicts",),
        lambda a, r: tuple(r.counts()[v] for v in VERDICTS) + (len(r.conflicts),)),
}


class SetupDone(BaseException):
    """Raised at the first work stage of a call run only for its set-up.

    A BaseException, so that the CLI's error mapping lets it through."""


class Recorder:
    """Spans and counts of one process, in memory until written out."""

    def __init__(self, names):
        self.names = list(names)
        self.name_ids = {name: i for i, name in enumerate(self.names)}
        self.name = array("H")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.counts = {}
        self._stack = [-1]

    def wrap(self, span_name, fn, hook=None, stop=False):
        name_id = self.name_ids[span_name]
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                if stop:
                    raise SetupDone(span_name)
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if hook is not None:
                keys, fn_counts = hook
                for key, inc in zip(keys, fn_counts(args, result)):
                    counts[key] += inc
            return result

        return traced

    def spans(self):
        """(name, parent index, start_ns, end_ns) per span, in start order."""
        return [
            (self.names[n], p, s, e)
            for n, p, s, e in zip(self.name, self.parent, self.start, self.end)
        ]

    def write(self, path):
        """One JSON header line, then the four columns as raw arrays."""
        header = {
            "names": self.names,
            "spans": len(self.start),
            "columns": [["name", self.name.typecode], ["parent", self.parent.typecode],
                        ["start_ns", self.start.typecode], ["end_ns", self.end.typecode]],
            "byteorder": sys.byteorder,
            "counts": self.counts,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for col in (self.name, self.parent, self.start, self.end):
                col.tofile(fh)


def read_trace(path):
    """Inverse of Recorder.write: (header, {column name: array})."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        cols = {}
        for name, code in header["columns"]:
            col = array(code)
            col.fromfile(fh, header["spans"])
            if header["byteorder"] != sys.byteorder:
                col.byteswap()
            cols[name] = col
    return header, cols


def _resolve_target(modules, target):
    mod_name, _, qual = target.partition(".")
    owner = modules[mod_name]
    *path, attr = qual.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def install(targets, setup_only=False):
    """Wrap each target and rebind it wherever qcluster holds the original.

    With setup_only, the first entry into any of WORK_STAGES raises
    SetupDone. Returns the Recorder. The qcluster modules must already
    be imported.
    """
    modules = {
        name.rpartition(".")[2]: mod
        for name, mod in sys.modules.items()
        if name.startswith("qcluster.")
    }
    recorder = Recorder(targets)
    for target in targets:
        for key in HOOKS.get(target, ((), None))[0]:
            recorder.counts[key] = 0
    replaced = {}
    for target in targets:
        owner, attr = _resolve_target(modules, target)
        original = owner.__dict__[attr]
        hook = HOOKS.get(target)
        if isinstance(original, type):
            # a class target times construction and keeps the class itself
            original.__init__ = recorder.wrap(target, original.__init__, hook)
            continue
        wrapped = recorder.wrap(target, original, hook,
                                stop=setup_only and target in WORK_STAGES)
        setattr(owner, attr, wrapped)
        if isinstance(owner, type):
            continue
        replaced[id(original)] = (original, wrapped)
    for mod in list(modules.values()) + [sys.modules["qcluster"]]:
        for attr, value in list(vars(mod).items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])
    return recorder

