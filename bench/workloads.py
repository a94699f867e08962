"""The benchmark's workloads: a model, the commands a user runs on it, and
the answers those commands must give.

Each check of an answer is one attempt; ``check_answers`` returns every
attempt with whether it matched, and never raises on a mismatch.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from bench import families

MAX_STATES = "20000"   # passed as a flag: `max_states=N` as a check option does not parse
TAU_L, TAU_K = 70, 2


@dataclass(frozen=True)
class Workload:
    name: str
    decls: tuple
    commands: tuple      # argument lists for stepcheck.cli.main, MODEL as a placeholder
    fingerprints: tuple  # sorted fingerprints of every LTS generate_lts returns


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "ws_pair",
            tuple(families.ws_pair(2)),
            (("check", "MODEL", "--json"),
             ("derive-ab", "MODEL", "--wso", "WSOAx0", "--json"),
             ("derive-ab", "MODEL", "--wso", "WSOBx1", "--json")),
            (
                "3f51481ffc1969bf0472be2a8532a19f9d68c006576a6eff3498fe398f4453c7",
                "8fd7536f0d44e46a6e42124e7503a393e79d2adaeef26425d030d204d37f760e",
                "905bd9dfe2042a59031f7c43b48956f7ed0bfc3d8bbcefbd6825d54bb5c02453",
                "976520639504c7413df6b5ad9b15762e7ead1a124271ff4974722119012a9d6f",
                "988fbdaf9fd1bbff227f99a8f16188b93f7a7307446869b166ae84de4d460f5f",
                "a33f58870d6fc9fc650567a9672494e0b750ee6c6d7aefbb9935142c1de44397",
            ),
        ),
        Workload(
            "ring",
            tuple(families.ring(9)),
            (("check", "MODEL", "--json"),),
            (
                "22ef3e645a6803820bf20c557c06c01eb267d2751ecd5ff059378cb9c89fa5df",
                "746146e39df0ad5a55a62e248841dadee084444920b4d263306694cb2b61be98",
            ),
        ),
        Workload(
            "tau_chain",
            tuple(families.tau_chain(TAU_L, TAU_K)),
            (("check", "MODEL", "--json"),),
            (
                "4e5a300404c954acaf712cd480db4d9fd5aeb2ed96c4abba7f7e434252821bd2",
                "4e5a300404c954acaf712cd480db4d9fd5aeb2ed96c4abba7f7e434252821bd2",
                "7359110cba49fab001ee7de7f5ca2ab8c9a168d5e0b8fa99e6d80f2421b27b3e",
                "b6e0c6984e6bff3956bdac52d232030052974f0ad6c42f38c1dbe8725e1bb527",
            ),
        ),
    )
}


def commands(workload: Workload, model_path: str) -> list[list[str]]:
    return [[model_path if a == "MODEL" else a for a in cmd]
            + ["--max-states", MAX_STATES] for cmd in workload.commands]


def fingerprint(lts) -> str:
    """SHA-256 of the sorted (state name, label, state name) triples."""
    from stepcheck.semantics import label_str
    names = lts.state_names
    triples = sorted(f"{names[s]}\t{label_str(a)}\t{names[t]}"
                     for s, a, t in lts.transitions)
    return hashlib.sha256("\n".join(triples).encode()).hexdigest()


def _label_names(label: str) -> list[str]:
    """Action names in a rendered step label such as ``{A1x0(d1),B4x1(d2)}``."""
    if label == "tau":
        return []
    return [part.split("(")[0] for part in label.strip("{}").split(",")]


def _loop(equations: dict, entry: str, actions: tuple) -> bool:
    """The equations are exactly the loop ``entry = a1 . X1, X1 = a2 . entry ...``."""
    if len(equations) != len(actions):
        return False
    name = entry
    for i, act in enumerate(actions):
        rhs = equations.get(name, "")
        head, _, nxt = rhs.partition(" . ")
        if head != act or (i == len(actions) - 1) != (nxt == entry):
            return False
        name = nxt
    return True


def check_answers(workload: Workload, outputs, recorded) -> list[tuple[str, bool]]:
    """Every answer check of one run of ``workload``.

    ``outputs`` holds (exit code, stdout) per command; ``recorded`` holds
    (call name, result) for every generate_lts and check_relation call.
    """
    lts = [r for n, r in recorded if n == "semantics.generate_lts"]
    verdicts = [r for n, r in recorded if n == "equivalence.check_relation"]
    checks: list[tuple[str, bool]] = []

    def expect(name, ok):
        checks.append((name, bool(ok)))

    def parsed(i):
        try:
            return json.loads(outputs[i][1])
        except (IndexError, ValueError):
            return None

    fps = sorted(fingerprint(x) for x in lts)
    expect("fingerprints", fps == sorted(workload.fingerprints))
    report = parsed(0)
    by_name = {e["check"]: e for e in report} if isinstance(report, list) else {}

    def side(check, holds, left, right):
        e = by_name.get(check, {})
        expect(f"{check}.verdict", e.get("holds") is holds)
        expect(f"{check}.states",
               (e.get("left_states"), e.get("right_states")) == (left, right))

    if workload.name == "ws_pair":
        expect("check.exit", outputs[0][0] == 1)
        side("theorem", True, 224, 8)
        side("refuted", False, 324, 4)
        trace = by_name.get("refuted", {}).get("counterexample", {}).get("trace", [])
        before = []
        for label in trace:
            names = _label_names(label)
            if "B4x0" in names:
                break
            before += names
        expect("refuted.counterexample", before.count("A1x0") >= 2)
        for i, (entry, acts) in enumerate(
                (("ABAx0", ("A2x0", "A5x0")), ("ABBx1", ("B2x1", "B3x1"))),
                start=1):
            ab = parsed(i) or {}
            expect(f"derive_ab.{entry}.exit", outputs[i][0] == 0)
            expect(f"derive_ab.{entry}.equations",
                   _loop(ab.get("equations") or {}, entry, acts))
    elif workload.name == "ring":
        expect("check.exit", outputs[0][0] == 0)
        side("rot", True, 126, 126)
        expect("rot.transitions", [len(x.transitions) for x in lts] == [684, 684])
    elif workload.name == "tau_chain":
        states = TAU_L ** TAU_K
        expect("check.exit", outputs[0][0] == 0)
        side("quot", True, states, 2 ** TAU_K)
        side("rot", True, states, states)
        big = [x for x in lts if x.num_states == states]
        expect("closed_form.transitions",
               len(big) == 3 and all(len(x.transitions)
                                     == states * (2 ** TAU_K - 1) for x in big))
        blocks = [v.details.get("blocks") for v in verdicts
                  if v.relation == "branching bisimulation"]
        expect("closed_form.blocks", blocks == [2 ** TAU_K])
    return checks

