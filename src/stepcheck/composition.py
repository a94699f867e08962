"""Web-service composition workflow on top of the step semantics.

A composition couples web service orchestrations (WSO) with the web
services (WS) they drive.  From each orchestration an activity base (AB)
is derived by hiding its internal actions; the assembled system hides
internal traffic, blocks half-synchronizations, and eliminates conflicts.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from .equivalence import (
    Verdict,
    branching_bisim,
    minimize,
    strong_step_bisim,
)
from .model import Model
from .semantics import (
    Config,
    SemanticsError,
    StepLTS,
    generate_lts,
    label_key,
    prune_dead,
    sorted_label,
)
from .terms import (
    Act,
    ActionLabel,
    Alt,
    ConflictElim,
    Encaps,
    Hide,
    ProcessTerm,
    RecursiveSpec,
    Seq,
    Shadow,
    Var,
    WholePar,
    alphabet,
    term_to_str,
)


class CompositionError(Exception):
    pass


@dataclass
class AbDef:
    """An activity base derived from an orchestration by hiding internals."""
    name: str
    source: str                      # the orchestration it came from
    internal: frozenset
    lts: StepLTS
    spec: Optional[RecursiveSpec]    # None when no linear presentation exists
    notes: tuple = ()

    def pretty_equations(self) -> str:
        if self.spec is None:
            return f"// {self.name}: no linear presentation"
        return "\n".join(f"{n} = {term_to_str(rhs)}"
                         for n, rhs in self.spec.equations.items())


@dataclass
class WscContract:
    """The contract: the protocol the coupled interactions must follow."""
    name: str
    pairs: tuple                     # of (x, y) action-name pairs, sorted
    protocol: RecursiveSpec


def ab_name(wso_name: str) -> str:
    if wso_name.startswith("WSO"):
        return "AB" + wso_name[3:]
    return "AB_" + wso_name


# ---------------------------------------------------------------------------
# Activity-base derivation


def process_spec(model: Model, name: str) -> RecursiveSpec:
    spec = {p.name: p for p in model.processes}.get(name)
    if spec is None:
        raise CompositionError(f"no process named {name}")
    return spec


def default_internal(model: Model, wso: RecursiveSpec) -> frozenset:
    """Action names of the orchestration that take part in no communication."""
    info = alphabet(wso, model.domain_map())
    comm_names = model.comms.action_names()
    return frozenset(l.name for l in info.actions if l.name not in comm_names)


def derive_ab(model: Model, wso_name: str,
              internal: Optional[frozenset] = None,
              config: Config = Config()) -> AbDef:
    """Hide an orchestration's internal actions and minimize the result."""
    wso = process_spec(model, wso_name)
    if internal is None:
        internal = default_internal(model, wso)
    notes = []
    info = alphabet(wso, model.domain_map())
    term = Hide(frozenset(internal), Var(wso.entry))
    lts = generate_lts(term, model, config)
    reduced = minimize(lts, "branching")
    name = ab_name(wso_name)
    spec = _linear_presentation(name, reduced)
    if spec is None:
        notes.append("no linear presentation: the reduced behavior is "
                     "nondeterministic, silent or uses true steps")
    hidden_data = sorted({l.name for l in info.actions
                          if l.name in internal and l.args})
    if hidden_data:
        notes.append("hiding folds the data choice of "
                     + ", ".join(hidden_data) + " into silent branching")
    return AbDef(name, wso_name, frozenset(internal), reduced, spec,
                 tuple(notes))


def _linear_presentation(name: str, lts: StepLTS) -> Optional[RecursiveSpec]:
    """Rebuild linear equations X = a . Y + ... from a reduced LTS.

    Only possible when every step is a single visible label; silent steps
    or true multi-label steps have no linear rendering here.
    """
    keys = [label_key(a) for a in lts.labels]
    actions = {s: [] for s in range(lts.num_states)}
    for s, a, t in sorted(zip(lts.sources, lts.label_ids, lts.targets),
                          key=lambda tr: (tr[0], keys[tr[1]], tr[2])):
        label = lts.labels[a]
        if len(label) != 1:
            return None
        actions[s].append((label[0], t))
    if not all(actions.values()):
        return None  # deadlocking presentations are not linear loops
    others = [s for s in range(lts.num_states) if s != lts.initial]
    var = {lts.initial: name}
    for i, s in enumerate(others, start=1):
        var[s] = f"{name}{i}"
    equations = {}
    for s in [lts.initial] + others:
        branches = []
        for label, t in actions[s]:
            if not isinstance(label, ActionLabel):
                return None
            branches.append(Seq(Act(label), Var(var[t])))
        rhs = branches[0] if len(branches) == 1 else Alt(tuple(branches))
        equations[var[s]] = rhs
    return RecursiveSpec(name, equations, name)


# ---------------------------------------------------------------------------
# Orchestration / web-service correspondence


def strip_shadows(term: ProcessTerm) -> Optional[ProcessTerm]:
    """Elide shadow constants, contracting the sequences they sit in.

    Returns None for a term consisting of shadows only.
    """
    return term.fold(_strip)


def _strip(term, kids):
    if not kids:
        return None if isinstance(term, Shadow) else term
    kept = tuple(k for k in kids if k is not None)
    if not kept:
        return None
    # a sequence or parallel pair keeps its one remaining side, and an
    # alternative its one remaining branch
    if len(kept) == 1 and (len(kids) > 1 or isinstance(term, Alt)):
        return kept[0]
    return term.rebuild(kept)


def _relabel(lts: StepLTS, relabel) -> StepLTS:
    """The same LTS with each step label replaced by the labels
    ``relabel`` gives for it, sorted: a new label table on the same
    columns."""
    return StepLTS.from_columns(
        lts.initial, lts.num_states, lts.state_names, lts.sources,
        lts.label_ids, lts.targets,
        tuple(sorted_label(relabel(a)) for a in lts.labels))


def correspondence_check(model: Model, ab: AbDef, ws_name: str,
                         rename: Optional[dict] = None,
                         config: Config = Config()) -> Verdict:
    """Does the derived activity base mirror the web service's skeleton?

    The web service's shadows are removed (``strip_shadows``); the activity
    base's labels are renamed (by default through the communication table)
    onto the service's alphabet, then the two are compared up to strong
    step bisimulation.
    """
    ws = process_spec(model, ws_name)
    if rename is None:
        rename = {}
        ws_info = alphabet(ws, model.domain_map())
        ws_names = {l.name for l in ws_info.actions} | set(ws_info.shadow_bases)
        for pair in model.comms.mapping():
            a, b = sorted(pair)
            if a in ws_names and b not in ws_names:
                rename[b] = a
            elif b in ws_names and a not in ws_names:
                rename[a] = b
    stripped_eqs = {}
    for n, rhs in ws.equations.items():
        body = strip_shadows(rhs)
        if body is None:
            raise CompositionError(
                f"equation {n} of {ws.name} consists of shadows only")
        stripped_eqs[n] = body
    stripped = RecursiveSpec(ws.name, stripped_eqs, ws.entry)
    shadow_free = replace(
        model, processes=tuple(p if p.name != ws.name else stripped
                               for p in model.processes),
        systems={}, checks=())
    ws_lts = generate_lts(Var(ws.entry), shadow_free, config)
    renamed = _relabel(ab.lts, lambda label: [
        ActionLabel(rename[l.name], l.args)
        if isinstance(l, ActionLabel) and l.name in rename else l
        for l in label])
    verdict = strong_step_bisim(renamed, minimize(ws_lts, "strong"))
    verdict.details["rename"] = dict(sorted(rename.items()))
    return verdict


# ---------------------------------------------------------------------------
# System assembly and verification


def assemble_system(model: Model, component_names,
                    hide_set: Optional[frozenset] = None,
                    block_set: Optional[frozenset] = None) -> ProcessTerm:
    """hide I in block H in theta (C1 <> C2 <> ...)."""
    if not component_names:
        raise CompositionError("a system needs at least one component")
    term: ProcessTerm = Var(component_names[0])
    for name in component_names[1:]:
        term = WholePar(term, Var(name))
    term = ConflictElim(term)
    if block_set is None:
        block_set = model.comms.action_names()
    if block_set:
        term = Encaps(frozenset(block_set), term)
    if hide_set:
        term = Hide(frozenset(hide_set), term)
    return term


def side_term(model: Model, side) -> ProcessTerm:
    """The term of a side: ``side`` itself when it is a term; for a name,
    the declared ``system``'s term, else the process as a ``Var``."""
    if not isinstance(side, str):
        return side
    if side in model.systems:
        return model.systems[side]
    if side not in model.equations():
        raise SemanticsError(f"no system or process named {side}")
    return Var(side)


def side_lts(model: Model, side, config: Config = Config()) -> StepLTS:
    """The LTS a check compares for one side (``side_term``): a system
    pruned by ``prune_dead``, or a process name's LTS as generated."""
    lts = generate_lts(side_term(model, side), model, config)
    if isinstance(side, str) and side not in model.systems:
        return lts
    return prune_dead(lts)


def verify_system(model: Model, system: ProcessTerm, spec_name: str,
                  config: Config = Config(),
                  rooted: bool = False) -> Verdict:
    """(Rooted) branching-bisimulation check of an assembled system against
    a specification, each side taken by ``side_lts`` as the CLI takes it."""
    return branching_bisim(side_lts(model, system, config),
                           side_lts(model, spec_name, config), rooted=rooted)


# ---------------------------------------------------------------------------
# Contract conformance


def wsc_conformance(model: Model, system: ProcessTerm,
                    contract: WscContract,
                    config: Config = Config()) -> Verdict:
    """Do the system's contracted interactions follow the contract protocol?"""
    sys_lts = side_lts(model, system, config)
    # keep only the contracted interactions, as `x~y` labels; rest is tau
    pair_names = {frozenset(p): "~".join(sorted(p)) for p in contract.pairs}
    projected = _relabel(sys_lts, lambda label: [
        ActionLabel(name) for l in label if not isinstance(l, ActionLabel)
        for ps, name in pair_names.items() if ps <= set(l.participants)])
    proto_model = Model(
        domains=model.domains,
        processes=(contract.protocol,),
    )
    proto_lts = generate_lts(Var(contract.protocol.entry), proto_model,
                             Config(max_states=config.max_states))
    verdict = branching_bisim(minimize(projected, "branching"), proto_lts)
    verdict.relation = f"conformance to contract {contract.name}"
    return verdict
