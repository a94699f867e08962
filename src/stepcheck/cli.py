"""Command-line interface.

    stepcheck check MODEL [--name N] [options]     run declared checks
    stepcheck lts MODEL --system S [options]       export a state space
    stepcheck derive-ab MODEL --wso NAME [options] derive an activity base

Exit codes: 0 all checks hold, 1 some check fails, 2 usage or model error.
"""
from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from dataclasses import fields

from . import composition
from .dsl import ParseError, ResolutionError, parse_model
from .equivalence import check_relation, minimize
from .model import Model
from .semantics import (
    POLICIES,
    Config,
    SemanticsError,
    StepLTS,
    generate_lts,
    label_str,
    prune_dead,
)
from .terms import term_to_str

_OVERRIDE_KEYS = {key: name for name, (key, _) in POLICIES.items()}
# each check option -> the values it takes, as an error names them
_TAKES = {key: " or ".join(allowed) for key, allowed in POLICIES.values()}
_TAKES["max_states"] = "a positive integer"
# the cyclic collector's generation-0 threshold while a command runs:
# generation and refinement allocate many tuples and lists that hold no
# cycle, and at the default of 700 the collector rescans them often
_GC_THRESHOLD = 50_000


def _config_from_args(args, goal=None) -> Config:
    # precedence: explicit command-line flag > check option > default
    values = {}
    for key, value in (goal.overrides if goal else {}).items():
        name = _OVERRIDE_KEYS.get(key)
        if key == "max_states" and value.isdecimal() and int(value) > 0:
            values[key] = int(value)
        elif name and value in POLICIES[name][1]:
            values[name] = value
        elif key in _TAKES:
            raise SemanticsError(
                f"check {goal.name}: bad option {key}={value} "
                f"({key} takes {_TAKES[key]})")
        else:
            raise SemanticsError(
                f"check {goal.name}: unknown option {key}={value} "
                f"(the options are {', '.join(_TAKES)})")
    for field in fields(Config):
        flag = getattr(args, field.name)
        if flag is not None:
            values[field.name] = flag
    return Config(**values)


def _add_config_args(p):
    for name, (_, allowed) in POLICIES.items():
        p.add_argument("--" + name.replace("_", "-"), choices=allowed)
    p.add_argument("--max-states", type=int)


def _load_model(path: str) -> Model:
    with open(path, "r", encoding="utf-8") as fh:
        source = fh.read()
    model = parse_model(source)
    violations = model.validate()
    if violations:
        raise SemanticsError("model is not well-formed: " + "; ".join(
            map(str, violations)))
    return model


def _run_checks(model: Model, args) -> int:
    goals = model.checks
    if args.name:
        goals = tuple(g for g in goals if g.name == args.name)
        if not goals:
            raise SemanticsError(f"no check named {args.name}")
    if not goals:
        raise SemanticsError("the model declares no checks")
    # every check's options are read before any check generates
    configs = [_config_from_args(args, goal) for goal in goals]
    reports = []
    for goal, config in zip(goals, configs):
        start = time.monotonic()
        left = composition.side_lts(model, goal.left, config)
        right = composition.side_lts(model, goal.right, config)
        record = {"check": goal.name, "left": goal.left,
                  "right": goal.right, "relation": goal.relation,
                  "left_states": left.num_states,
                  "right_states": right.num_states}
        if args.rooted and goal.relation == "branching-bisim":
            record["relation"] = "rooted-branching-bisim"
        verdict = check_relation(record["relation"], left, right)
        elapsed = time.monotonic() - start
        # the record keeps the state counts only, so that this check's
        # LTSs are freed before the next check generates its own
        del left, right
        record["holds"] = verdict.holds
        cx = verdict.counterexample
        if cx is not None:
            record["counterexample"] = {
                "kind": type(cx).__name__, "detail": cx.pretty(),
                "trace": [label_str(l) for l in cx.trace]}
        reports.append((record, elapsed))
    if args.json:
        print(json.dumps([r for r, _ in reports], indent=2, sort_keys=True))
    else:
        for r, elapsed in reports:
            print(f"{r['check']}: {r['left']} vs {r['right']} "
                  f"({r['relation']}) {'holds' if r['holds'] else 'FAILS'} "
                  f"[{r['left_states']}/{r['right_states']} states, "
                  f"{elapsed:.2f}s]")
            if "counterexample" in r:
                print(f"  {r['counterexample']['detail']}")
    return 0 if all(r["holds"] for r, _ in reports) else 1


def _lts_json(lts: StepLTS) -> dict:
    dead = set(lts.deadlock_states())
    shown = [[l.pretty() for l in a] or ["tau"] for a in lts.labels]
    return {
        "initial": lts.initial,
        "states": [{"id": i, "name": name, "deadlock": i in dead}
                   for i, name in enumerate(lts.state_names)],
        "transitions": [
            {"from": s, "label": shown[a], "to": t}
            for s, a, t in zip(lts.sources, lts.label_ids, lts.targets)],
    }


def _lts_dot(lts: StepLTS, name: str) -> str:
    lines = [f'digraph "{name}" {{', "  rankdir=LR;",
             '  node [shape=circle];']
    dead = set(lts.deadlock_states())
    for i in range(lts.num_states):
        attrs = []
        if i == lts.initial:
            attrs.append("shape=doublecircle")
        if i in dead:
            attrs.append('style=filled fillcolor=lightgray')
        lines.append(f'  {i} [{" ".join(attrs) or "shape=circle"}];')
    shown = [label_str(a) for a in lts.labels]
    for s, a, t in zip(lts.sources, lts.label_ids, lts.targets):
        lines.append(f'  {s} -> {t} [label="{shown[a]}"];')
    lines.append("}")
    return "\n".join(lines)


def _run_lts(model: Model, args) -> int:
    config = _config_from_args(args)
    lts = generate_lts(composition.side_term(model, args.system), model,
                       config)
    if args.prune_dead:
        lts = prune_dead(lts)
    if args.minimize:
        lts = minimize(lts, "branching")
    if args.format == "json":
        print(json.dumps(_lts_json(lts), indent=2, sort_keys=True))
    else:
        print(_lts_dot(lts, args.system))
    return 0


def _run_derive_ab(model: Model, args) -> int:
    config = _config_from_args(args)
    internal = model.action_sets.get(args.internal)
    if internal is None and args.internal:
        internal = frozenset(
            s.strip() for s in args.internal.split(",") if s.strip())
        unused = sorted(internal - model.action_names())
        if unused:
            # an unknown --wso is the error to report first
            composition.process_spec(model, args.wso)
            raise SemanticsError(
                f"--internal {args.internal} is no declared set, and the "
                f"model uses no action {', '.join(unused)}")
    ab = composition.derive_ab(model, args.wso, internal, config)
    if args.json:
        out = {
            "name": ab.name,
            "source": ab.source,
            "internal": sorted(ab.internal),
            "states": ab.lts.num_states,
            "equations": (None if ab.spec is None else {
                n: term_to_str(rhs) for n, rhs in ab.spec.equations.items()}),
            "notes": list(ab.notes),
        }
        print(json.dumps(out, indent=2, sort_keys=True))
    else:
        print(f"{ab.name} (from {ab.source}, hiding "
              f"{{{', '.join(sorted(ab.internal))}}})")
        print(ab.pretty_equations())
        for note in ab.notes:
            print(f"note: {note}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stepcheck",
        description="verify step-semantics process models")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run the model's declared checks")
    p_check.add_argument("model")
    p_check.add_argument("--name", help="run only the named check")
    p_check.add_argument("--rooted", action="store_true",
                         help="use the rooted variant of branching checks")
    p_check.add_argument("--json", action="store_true")
    _add_config_args(p_check)

    p_lts = sub.add_parser("lts", help="export a state space")
    p_lts.add_argument("model")
    p_lts.add_argument("--system", required=True,
                       help="system or process name")
    p_lts.add_argument("--format", choices=("dot", "json"), default="dot")
    p_lts.add_argument("--minimize", action="store_true")
    p_lts.add_argument("--prune-dead", action="store_true")
    _add_config_args(p_lts)

    p_ab = sub.add_parser("derive-ab", help="derive an activity base")
    p_ab.add_argument("model")
    p_ab.add_argument("--wso", required=True, help="orchestration name")
    p_ab.add_argument("--internal",
                      help="comma-separated action names or a set name")
    p_ab.add_argument("--json", action="store_true")
    _add_config_args(p_ab)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    threshold = gc.get_threshold()
    gc.set_threshold(_GC_THRESHOLD, *threshold[1:])
    try:
        model = _load_model(args.model)
        if args.command == "check":
            return _run_checks(model, args)
        if args.command == "lts":
            return _run_lts(model, args)
        return _run_derive_ab(model, args)
    except (ParseError, ResolutionError, SemanticsError,
            composition.CompositionError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: the model nests too deeply to process "
              "(maximum recursion depth exceeded)", file=sys.stderr)
        return 2
    finally:
        gc.set_threshold(*threshold)


if __name__ == "__main__":
    sys.exit(main())
