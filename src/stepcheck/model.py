"""The in-memory model: everything a single `.aptc` file declares."""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .terms import (
    CommTable,
    ConflictRelation,
    Violation,
    names_written,
    validate_terms,
)

# each relation a check may name -> its symbol in the model language
RELATIONS = {
    "strong-step-bisim": "~sb",
    "branching-bisim": "~bb",
    "rooted-branching-bisim": "~rbb",
    "weak-trace-inclusion": "~tr",
}


@dataclass
class CheckGoal:
    name: str
    left: str
    right: str
    relation: str
    overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.relation not in RELATIONS:
            raise ValueError(f"unknown relation {self.relation}")


@dataclass
class Model:
    domains: tuple = ()          # DataDomain
    processes: tuple = ()        # RecursiveSpec
    comms: CommTable = CommTable()
    conflicts: ConflictRelation = ConflictRelation()
    action_sets: dict = field(default_factory=dict)   # name -> frozenset
    systems: dict = field(default_factory=dict)       # name -> ProcessTerm
    checks: tuple = ()           # CheckGoal

    def domain_map(self) -> dict:
        return {d.name: d for d in self.domains}

    def action_names(self) -> frozenset:
        """Every action name that a process, a system or a comm
        declaration uses, shadow bases and comm results included."""
        names = set(self.comms.action_names())
        names.update(e.result for e in self.comms.entries if e.result)
        terms = [rhs for spec in self.processes
                 for rhs in spec.equations.values()]
        for term in terms + list(self.systems.values()):
            names.update(*names_written(term))
        return frozenset(names)

    def equations(self) -> dict:
        """All process equations in one namespace; names must be unique."""
        out: dict = {}
        for spec in self.processes:
            for name, rhs in spec.equations.items():
                if name in out:
                    raise ValueError(f"equation name {name} declared twice")
                out[name] = rhs
        return out

    def validate(self) -> list[Violation]:
        """Every well-formedness violation: equation names declared twice,
        then process by process (its entry, then its equations), then the
        systems; an empty list means valid."""
        names = Counter(name for spec in self.processes
                        for name in spec.equations)
        violations = [Violation("duplicate-equation", name,
                                f"equation name {name} declared twice")
                      for name, n in names.items() if n > 1]
        for spec in self.processes:
            if spec.entry not in spec.equations:
                violations.append(Violation(
                    "missing-entry", spec.entry,
                    f"entry variable {spec.entry} has no equation"))
            violations += validate_terms(spec.equations, self.domains, names)
        return violations + validate_terms(self.systems, self.domains, names)
