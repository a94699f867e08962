"""stepcheck: a workbench for truly-concurrent process verification.

Recursive process specifications are given in a small declaration
language, unfolded into step-labeled transition systems (transitions
carry multisets of simultaneous actions), and compared up to strong
step or branching bisimulation.  A composition layer derives activity
bases from orchestrations and verifies assembled service systems
against their specifications.
"""
from importlib import resources

from .composition import (
    AbDef,
    CompositionError,
    WscContract,
    assemble_system,
    correspondence_check,
    derive_ab,
    side_lts,
    verify_system,
    wsc_conformance,
)
from .dsl import ParseError, ResolutionError, parse_model, render_model
from .equivalence import (
    StepCounterexample,
    TraceCounterexample,
    Verdict,
    branching_bisim,
    check_relation,
    counter_monitor,
    divergences,
    minimize,
    rooted_branching_bisim,
    strong_step_bisim,
    weak_trace_inclusion,
    weak_traces_equal,
)
from .model import CheckGoal, Model, RELATIONS
from .semantics import (
    Config,
    SemanticsError,
    StateBudgetExceeded,
    StepLTS,
    UnguardedRecursion,
    generate_lts,
    label_str,
    prune_dead,
)
from .terms import (
    Act,
    ActionLabel,
    Alt,
    CommEntry,
    CommResultLabel,
    CommTable,
    ConflictElim,
    ConflictRelation,
    DataDomain,
    Deadlock,
    Encaps,
    Hide,
    Par,
    ProcessTerm,
    RecursiveSpec,
    Seq,
    Shadow,
    SpecError,
    Sum,
    Var,
    WholePar,
    alphabet,
    term_to_str,
)

__version__ = "0.1.0"


def bundled_model_path(name: str = "ws_composition.aptc"):
    """Path to a model shipped with the package."""
    return resources.files(__name__) / "data" / name


def load_bundled_model(name: str = "ws_composition.aptc") -> Model:
    source = bundled_model_path(name).read_text(encoding="utf-8")
    return parse_model(source)
