"""Spans around stepcheck's public calls, recorded from outside the library.

``instrument`` rebinds a public function everywhere a stepcheck module
holds it, so calls that cross a module boundary go through a wrapper.
The ``Tracer`` wrapper records one span per call (name, start, end,
parent, run id and a few counts read off the result) and keeps the spans
in memory; ``layer_metrics`` turns them into per-module self times and
counts.  The ``Recorder`` wrapper only keeps results, so that an untimed
run can still check what was generated.
"""
from __future__ import annotations

import sys
import time
from dataclasses import asdict, dataclass, field

# (module, attribute) of every public call that gets a span.  ``Model`` is
# a class, so its ``validate`` is rebound on the class.
TRACED = (
    ("stepcheck.cli", "main"),
    ("stepcheck.dsl", "parse_model"),
    ("stepcheck.model", "Model.validate"),
    ("stepcheck.semantics", "prepare_system"),
    ("stepcheck.semantics", "generate_lts"),
    ("stepcheck.semantics", "prune_dead"),
    ("stepcheck.equivalence", "check_relation"),
    ("stepcheck.equivalence", "branching_bisim"),
    ("stepcheck.equivalence", "strong_step_bisim"),
    ("stepcheck.equivalence", "minimize"),
    ("stepcheck.equivalence", "weak_trace_inclusion"),
    ("stepcheck.composition", "derive_ab"),
)

# What the answer checks need from a run that is not traced.
RECORDED = (
    ("stepcheck.semantics", "generate_lts"),
    ("stepcheck.equivalence", "check_relation"),
)

_BISIMS = ("equivalence.branching_bisim", "equivalence.strong_step_bisim")


def _span_name(module: str, attr: str) -> str:
    return module.removeprefix("stepcheck.") + "." + attr.split(".")[-1]


def _bindings(fn):
    """Every (owner, attribute) in a loaded stepcheck module bound to ``fn``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "stepcheck" and not mod_name.startswith("stepcheck."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is fn:
                yield mod, attr


def instrument(targets, wrap):
    """Rebind each target to ``wrap(name, fn)``; return a function that undoes it."""
    undo = []
    for module, attr in targets:
        name = _span_name(module, attr)
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(sys.modules[module], cls_name)
            fn = vars(owner)[meth]
            undo.append((owner, meth, fn))
            setattr(owner, meth, wrap(name, fn))
            continue
        fn = getattr(sys.modules[module], attr)
        wrapper = wrap(name, fn)
        for owner, binding in _bindings(fn):
            undo.append((owner, binding, fn))
            setattr(owner, binding, wrapper)

    def restore():
        for owner, binding, fn in reversed(undo):
            setattr(owner, binding, fn)
    return restore


class Recorder:
    """Keeps every result of the wrapped calls, with no timing."""

    def __init__(self):
        self.results: list[tuple[str, object]] = []

    def wrap(self, name, fn):
        def recorded(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.results.append((name, result))
            return result
        return recorded


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: int
    counts: dict = field(default_factory=dict)


def _counts(name, args, result) -> dict:
    """Work done by one call, read off its arguments and result."""
    if name == "semantics.generate_lts":
        return {"states": result.num_states,
                "transitions": len(result.transitions)}
    if name == "semantics.prune_dead":
        return {"states_in": args[0].num_states,
                "states_out": result.num_states}
    if name in _BISIMS:
        counts = {"union_states": args[0].num_states + args[1].num_states}
        if "blocks" in result.details:
            counts["blocks"] = result.details["blocks"]
        return counts
    if name == "equivalence.check_relation":
        cx = result.counterexample
        return {"holds": int(result.holds),
                "cex_len": 0 if cx is None else len(cx.trace)}
    if name == "composition.derive_ab":
        return {"ab_states": result.lts.num_states}
    return {}


class Tracer:
    """Records one span per wrapped call and keeps results for the checks."""

    def __init__(self, run: int = 0):
        self.run = run
        self.spans: list[Span] = []
        self.results: list[tuple[str, object]] = []
        self._open: list[int] = []

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else None
            span = Span(name, time.perf_counter(), 0.0, parent, self.run)
            self.spans.append(span)
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            span.counts = _counts(name, args, result)
            self.results.append((name, result))
            return result
        return traced

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict = {}
    for i, s in enumerate(spans):
        if s.parent is not None:
            children.setdefault(s.parent, []).append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(i, ()), key=lambda c: spans[c].start):
            lo = max(spans[c].start, reach)
            hi = min(spans[c].end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out


# Per-layer metrics: name -> unit, in the order they are reported.
LAYER_UNITS = {
    "semantics.generate_s": "s",
    "semantics.states_per_s": "1/s",
    "semantics.generate_calls": "count",
    "semantics.states": "count",
    "semantics.transitions": "count",
    "semantics.prepare_s": "s",
    "dsl.parse_s": "s",
    "model.validate_s": "s",
    "semantics.prune_s": "s",
    "semantics.live_ratio": "ratio",
    "equivalence.refine_s": "s",
    "equivalence.blocks": "count",
    "equivalence.quotient_ratio": "ratio",
    "equivalence.cex_s": "s",
    "equivalence.cex_len": "count",
    "composition.derive_ab_s": "s",
    "composition.ab_states": "count",
    "cli.self_s": "s",
}


def layer_metrics(spans) -> dict:
    """Per-layer self times and counts of one traced run."""
    own = self_times(spans)

    def total(*names, where=lambda s: True):
        return sum(t for s, t in zip(spans, own)
                   if s.name in names and where(s))

    def count(name, key):
        return sum(s.counts.get(key, 0) for s in spans if s.name == name)

    def under_bisim(s):
        return s.parent is not None and spans[s.parent].name in _BISIMS

    generate_s = total("semantics.generate_lts")
    states = count("semantics.generate_lts", "states")
    kept = count("semantics.prune_dead", "states_out")
    pruned_from = count("semantics.prune_dead", "states_in")
    blocks = sum(count(b, "blocks") for b in _BISIMS)
    union = sum(s.counts["union_states"] for s in spans
                if s.name in _BISIMS and "blocks" in s.counts)
    return {
        "semantics.generate_s": generate_s,
        "semantics.states_per_s": states / generate_s if generate_s else 0.0,
        "semantics.generate_calls": sum(
            1 for s in spans if s.name == "semantics.generate_lts"),
        "semantics.states": states,
        "semantics.transitions": count("semantics.generate_lts", "transitions"),
        "semantics.prepare_s": total("semantics.prepare_system"),
        "dsl.parse_s": total("dsl.parse_model"),
        "model.validate_s": total("model.validate"),
        "semantics.prune_s": total("semantics.prune_dead"),
        "semantics.live_ratio": kept / pruned_from if pruned_from else 1.0,
        "equivalence.refine_s": (
            total("equivalence.check_relation", "equivalence.minimize", *_BISIMS)
            + total("equivalence.weak_trace_inclusion",
                    where=lambda s: not under_bisim(s))),
        "equivalence.blocks": blocks,
        "equivalence.quotient_ratio": blocks / union if union else 1.0,
        "equivalence.cex_s": total("equivalence.weak_trace_inclusion",
                                   where=under_bisim),
        "equivalence.cex_len": count("equivalence.check_relation", "cex_len"),
        "composition.derive_ab_s": total("composition.derive_ab"),
        "composition.ab_states": count("composition.derive_ab", "ab_states"),
        "cli.self_s": total("cli.main"),
    }
