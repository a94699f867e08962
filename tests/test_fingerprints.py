"""Two benchmark workloads generate exactly the LTSs the benchmark records,
and the bundled model, systems of several fusion groups and systems of
one fusion group the LTSs and CLI output recorded below.  Generation
keeps the order of a plain breadth-first loop over ``enabled_steps``.

The models come from ``bench.families`` and the expected fingerprints
(SHA-256 of the sorted name-level transition triples) from
``bench.workloads``; ``bench`` is only imported, never changed.
"""
import contextlib
import hashlib
import io
import itertools
import json
import sys
from pathlib import Path
from unittest import mock

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench import families, spans, workloads  # noqa: E402
from stepcheck import (  # noqa: E402
    bundled_model_path, cli, load_bundled_model, semantics)
from stepcheck.dsl import parse_model  # noqa: E402
from stepcheck.semantics import (  # noqa: E402
    POLICIES,
    Config,
    StepLTS,
    enabled_steps,
    generate_lts,
    label_key,
    label_str,
    prepare_system,
    prune_dead,
)
from stepcheck.terms import Var  # noqa: E402


@pytest.mark.parametrize("name, decls", [
    ("ring", families.ring(9)),
    ("ws_pair", families.ws_pair(2)),
])
def test_workload_lts_fingerprints(name, decls, tmp_path):
    workload = workloads.WORKLOADS[name]
    path = tmp_path / f"{name}.aptc"
    path.write_text(families.render(decls, seed=1))
    recorder = spans.Recorder()
    restore = spans.instrument(spans.RECORDED, recorder.wrap)
    try:
        outputs = []
        for argv in workloads.commands(workload, str(path)):
            with contextlib.redirect_stdout(io.StringIO()) as out:
                code = cli.main(argv)
            outputs.append((code, out.getvalue()))
    finally:
        restore()
    generated = [r for n, r in recorder.results
                 if n == "semantics.generate_lts"]
    assert (sorted(workloads.fingerprint(lts) for lts in generated)
            == sorted(workload.fingerprints))
    failed = [check for check, ok in
              workloads.check_answers(workload, outputs, recorder.results)
              if not ok]
    assert failed == []


def test_tau_chain_closed_form(tmp_path):
    """Two 12-step hidden cycles: L^k states, L^k (2^k - 1) transitions,
    2^k branching blocks, for L = 12 and k = 2."""
    path = tmp_path / "tau_chain.aptc"
    path.write_text(families.render(families.tau_chain(12, 2), seed=1))
    recorder = spans.Recorder()
    restore = spans.instrument(spans.RECORDED, recorder.wrap)
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli.main(["check", str(path), "--json"])
    finally:
        restore()
    assert code == 0
    report = {e["check"]: e for e in json.loads(out.getvalue())}
    assert report["quot"]["holds"] and report["rot"]["holds"]
    assert (report["quot"]["left_states"], report["quot"]["right_states"]) == (144, 4)
    big = [r for n, r in recorder.results
           if n == "semantics.generate_lts" and r.num_states == 144]
    assert [len(lts.transitions) for lts in big] == [432, 432, 432]
    blocks = [r.details.get("blocks") for n, r in recorder.results
              if n == "equivalence.check_relation"
              and r.relation == "branching bisimulation"]
    assert blocks == [4]


# per policy combination: SHA-256 of "name fingerprint" lines over every
# system and equation of the bundled model, sorted by name
BUNDLED = {
    ('binary', 'interleave', 'overlap', 'strict'):
        "9f5b04d9c19e9c475c836ef9bc5b3d530d8350bbe509c14bcad58fed55442a78",
    ('binary', 'interleave', 'overlap', 'loose'):
        "2df1a15c261f7d0e569639b9a688441b7bff02e0f381c666cfc85a1a3bd21c13",
    ('binary', 'interleave', 'barrier', 'strict'):
        "ec65bf383e5026bc916b062a75c604a8456f1db6d8c9ce612c7823c3293a016b",
    ('binary', 'interleave', 'barrier', 'loose'):
        "50842da94da32af9c0a14410b85bd780e4d2250bb5f453120198f83ff868d11b",
    ('binary', 'step', 'overlap', 'strict'):
        "984405f7b8197875b5386ee6dd9e4694d659c546605a1ab3ecba1301d320a689",
    ('binary', 'step', 'overlap', 'loose'):
        "52faec59854844f411e546f916519ad55bf910e7d855408df2cbec9cb702f2dc",
    ('binary', 'step', 'barrier', 'strict'):
        "5aabefd807213778342514064f289957d0cc78584437806af3f3bb5746338e23",
    ('binary', 'step', 'barrier', 'loose'):
        "ceba89675795bdb3415db4480af760b53aa72e61d31ec5ec82d0f5ce7081505d",
    ('chained', 'interleave', 'overlap', 'strict'):
        "56c58178c498ee971f08c5c66327fa304dd3bd849b3cca89a14da0d608388452",
    ('chained', 'interleave', 'overlap', 'loose'):
        "a314112d4eb6a3ffafceb851e97ba1011c71cf98ab9ae8a11905e603b797d199",
    ('chained', 'interleave', 'barrier', 'strict'):
        "4d794978d9a44fc6cc330934715066d9b6e0ab70f4f508131f6125bcc6d6166f",
    ('chained', 'interleave', 'barrier', 'loose'):
        "43621bb8f11a0e67b759c17cf1718daf61c99727a666f991961b885159927141",
    ('chained', 'step', 'overlap', 'strict'):
        "eaf12f2bbc24c2626e47e3843ba2eb088b7faad8412553508c7b97828ee8f0a9",
    ('chained', 'step', 'overlap', 'loose'):
        "a1ea998097972b27de0666af0c25c6b1dfcd0b9aead66b06d67aeef1c7525801",
    ('chained', 'step', 'barrier', 'strict'):
        "9f23c4235ad171e9a60f807564358cbe3ded32543217e941ef23fe5152250094",
    ('chained', 'step', 'barrier', 'loose'):
        "01dc6fc3f0930a01ff93529389e0fbdfe8fdddda4f7f6f3f095ad2decea1ae1a",
}


@pytest.mark.parametrize("policies", list(itertools.product(
    *(allowed for _, allowed in POLICIES.values()))), ids="-".join)
def test_bundled_model_fingerprints(ws_model, policies):
    config = Config(*policies)
    terms = {**ws_model.systems, **{n: Var(n) for n in ws_model.equations()}}
    assert len(terms) == 25
    lines = "\n".join(
        f"{name} {workloads.fingerprint(generate_lts(term, ws_model, config))}"
        for name, term in sorted(terms.items()))
    assert hashlib.sha256(lines.encode()).hexdigest() == BUNDLED[policies]


def exact_fingerprint(lts) -> str:
    """SHA-256 of the initial state, the state names in order and the
    transitions in order: unlike ``workloads.fingerprint``, this also pins
    the BFS state numbering."""
    rows = [f"{lts.initial} {lts.num_states}", *lts.state_names,
            *(f"{s} {label_str(a)} {t}" for s, a, t in lts.transitions)]
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


# per policy combination: SHA-256 of "name exact_fingerprint" lines over
# ws_pair(2)'s Sys and Spec and tau_chain(12, 2)'s S, whose components fall
# into two or more fusion groups
MULTI_GROUP = {
    ('binary', 'interleave', 'overlap', 'strict'):
        "1d67631738d34264ad9eb3c089638391ecca01415560d043a9d2d24b3afb4fd3",
    ('binary', 'interleave', 'overlap', 'loose'):
        "c7802cd11edb043b597de08ac6a8b5d88150c412aae7f8c65234bca55f8b4132",
    ('binary', 'interleave', 'barrier', 'strict'):
        "481b734b947efdef628b7bcf3b49d3afeeeece0f419539555b786eec8807d2b1",
    ('binary', 'interleave', 'barrier', 'loose'):
        "ef00cf30b28bc9236385433c1052f1cbb7fe97a0b15a596188200efa5d6d994f",
    ('binary', 'step', 'overlap', 'strict'):
        "ff6cd69dbf9704f2764f174ae04c166e7b9847eff15fbeb8b1ab2841a4c04ab9",
    ('binary', 'step', 'overlap', 'loose'):
        "6695dba55f81fc0219b957901ad6c778144f3d17fd185ad56e18a2d709df8251",
    ('binary', 'step', 'barrier', 'strict'):
        "5b8a6d436ab79da863036fed75b280ed9abb40d3e29255b704d208926e1922dc",
    ('binary', 'step', 'barrier', 'loose'):
        "f7293140fc71bf43b142cac723c52e6c188f444b7fa401a5f906b24e4272f636",
    ('chained', 'interleave', 'overlap', 'strict'):
        "06014916bd572ff1535dd5f0069c88e7bdad00e75763dd1c550bc47124348ef1",
    ('chained', 'interleave', 'overlap', 'loose'):
        "48adf89c6d00e90286c99e423352f0d584716a83c3f3015668a86b94dd689b8c",
    ('chained', 'interleave', 'barrier', 'strict'):
        "075743354175d134f6c0841208f8611e07eb249d00786a8aaea2a4b74267680c",
    ('chained', 'interleave', 'barrier', 'loose'):
        "32d8eb2ac8099693b3827824289c93f86f3fe91d728595bf4e34936943f48881",
    ('chained', 'step', 'overlap', 'strict'):
        "0f67e20f88bc948564f82c994e17e7abd1e7abef22703d9d732f2976e3dfe848",
    ('chained', 'step', 'overlap', 'loose'):
        "edfd7f53a7ec2b1c676595fb0afb328e43148b3f7e77985d643eeecd1081a90b",
    ('chained', 'step', 'barrier', 'strict'):
        "30cc5e3c1bd9c37ff82f56d683533f2d453e5e8badca573a0066db92f688246d",
    ('chained', 'step', 'barrier', 'loose'):
        "ea4f5823af9405dc803dadb9691eaf16446fb800a33db351d6c80579f7e5c6f5",
}


@pytest.fixture(scope="module")
def multi_group_systems():
    ws = parse_model(families.render(families.ws_pair(2), seed=1))
    tau = parse_model(families.render(families.tau_chain(12, 2), seed=1))
    return [("Sys", ws), ("Spec", ws), ("S", tau)]


@pytest.mark.parametrize("policies", list(itertools.product(
    *(allowed for _, allowed in POLICIES.values()))), ids="-".join)
def test_multi_group_fingerprints(multi_group_systems, policies):
    config = Config(*policies)
    lines = []
    for name, model in multi_group_systems:
        system = model.systems[name]
        assert len(prepare_system(system, model, config).groups) >= 2
        lines.append(
            f"{name} {exact_fingerprint(generate_lts(system, model, config))}")
    assert (hashlib.sha256("\n".join(lines).encode()).hexdigest()
            == MULTI_GROUP[policies])


# per policy combination: SHA-256 of "name exact_fingerprint" lines over
# ring(7)'s S and SR, whose components all fall into one fusion group
ONE_GROUP = {
    ('binary', 'interleave', 'overlap', 'strict'):
        "7ea1a218a29ff18d363a410cef21b74765fb8af143303ac9c7d8b0bb6116be2a",
    ('binary', 'interleave', 'overlap', 'loose'):
        "7ea1a218a29ff18d363a410cef21b74765fb8af143303ac9c7d8b0bb6116be2a",
    ('binary', 'interleave', 'barrier', 'strict'):
        "52b15ca19d039c4787278539b4b9766788b0f31c3857b195ef0c9f41c29a06cc",
    ('binary', 'interleave', 'barrier', 'loose'):
        "52b15ca19d039c4787278539b4b9766788b0f31c3857b195ef0c9f41c29a06cc",
    ('binary', 'step', 'overlap', 'strict'):
        "40971ec7e2385dce801d22921d9047e06ca0cee62f9f0b4aec8c13b23ce00f6f",
    ('binary', 'step', 'overlap', 'loose'):
        "40971ec7e2385dce801d22921d9047e06ca0cee62f9f0b4aec8c13b23ce00f6f",
    ('binary', 'step', 'barrier', 'strict'):
        "4d4c6854f3537be9aea7c266c5ca1f829da36ce4eeb69aa5779067b527da2622",
    ('binary', 'step', 'barrier', 'loose'):
        "4d4c6854f3537be9aea7c266c5ca1f829da36ce4eeb69aa5779067b527da2622",
    ('chained', 'interleave', 'overlap', 'strict'):
        "7ea1a218a29ff18d363a410cef21b74765fb8af143303ac9c7d8b0bb6116be2a",
    ('chained', 'interleave', 'overlap', 'loose'):
        "7ea1a218a29ff18d363a410cef21b74765fb8af143303ac9c7d8b0bb6116be2a",
    ('chained', 'interleave', 'barrier', 'strict'):
        "52b15ca19d039c4787278539b4b9766788b0f31c3857b195ef0c9f41c29a06cc",
    ('chained', 'interleave', 'barrier', 'loose'):
        "52b15ca19d039c4787278539b4b9766788b0f31c3857b195ef0c9f41c29a06cc",
    ('chained', 'step', 'overlap', 'strict'):
        "40971ec7e2385dce801d22921d9047e06ca0cee62f9f0b4aec8c13b23ce00f6f",
    ('chained', 'step', 'overlap', 'loose'):
        "40971ec7e2385dce801d22921d9047e06ca0cee62f9f0b4aec8c13b23ce00f6f",
    ('chained', 'step', 'barrier', 'strict'):
        "4d4c6854f3537be9aea7c266c5ca1f829da36ce4eeb69aa5779067b527da2622",
    ('chained', 'step', 'barrier', 'loose'):
        "4d4c6854f3537be9aea7c266c5ca1f829da36ce4eeb69aa5779067b527da2622",
}


@pytest.mark.parametrize("policies", list(itertools.product(
    *(allowed for _, allowed in POLICIES.values()))), ids="-".join)
def test_one_group_fingerprints(policies):
    model = parse_model(families.render(families.ring(7), seed=1))
    config = Config(*policies)
    lines = []
    for name in ("S", "SR"):
        system = model.systems[name]
        assert len(prepare_system(system, model, config).groups) == 1
        lines.append(
            f"{name} {exact_fingerprint(generate_lts(system, model, config))}")
    assert (hashlib.sha256("\n".join(lines).encode()).hexdigest()
            == ONE_GROUP[policies])


def reference_generation(system, model, config) -> StepLTS:
    """Breadth-first closure by ``enabled_steps``: each new successor is
    numbered in the order the steps come, and every transition is sorted
    at the end by (source, label key, destination)."""
    prepared = prepare_system(system, model, config)
    order = [prepared.initial_state()]
    index = {order[0]: 0}
    transitions = []
    for src, state in enumerate(order):
        for label, succ in enabled_steps(state, prepared):
            if succ not in index:
                index[succ] = len(order)
                order.append(succ)
            transitions.append((src, label, index[succ]))
    transitions.sort(key=lambda t: (t[0], label_key(t[1]), t[2]))
    return StepLTS(initial=0, num_states=len(order),
                   transitions=tuple(transitions),
                   state_names=tuple(state.pretty() for state in order))


@pytest.fixture(scope="module")
def ordered_terms():
    """Every system of ws_pair(1), ring(5) and tau_chain(12, 2), and every
    system and equation of the bundled model, each with its model."""
    models = [parse_model(families.render(decls, seed=1)) for decls in (
        families.ws_pair(1), families.ring(5), families.tau_chain(12, 2))]
    terms = [(m, term) for m in models for term in m.systems.values()]
    bundled = load_bundled_model()
    return terms + [(bundled, term) for term in (
        *bundled.systems.values(), *map(Var, bundled.equations()))]


@pytest.mark.parametrize("policies", list(itertools.product(
    *(allowed for _, allowed in POLICIES.values()))), ids="-".join)
def test_generation_order_matches_reference_bfs(ordered_terms, policies):
    # the initial state, the state names in order and the transitions in
    # order, which the name-level fingerprints above leave open
    config = Config(*policies)
    for model, term in ordered_terms:
        assert_same_generation(generate_lts(term, model, config),
                               reference_generation(term, model, config))


def assert_same_generation(lts, reference):
    assert lts == reference
    # ``==`` compares the triples only; the label table's order is
    # ``minimize``'s order for labels of one text, so it is pinned too
    assert lts.labels == reference.labels
    assert lts.label_ids == reference.label_ids


@pytest.mark.parametrize("round_mode", ["overlap", "barrier"])
@pytest.mark.parametrize("step_mode", ["step", "interleave"])
def test_labels_of_one_key_keep_the_reference_order(round_mode, step_mode):
    # R's action c and the comm result c of P's a with Q's b share a sort
    # key, and a state has both towards different targets
    model = parse_model("process P { P = e . a . P }\n"
                        "process Q { Q = b . Q }\n"
                        "process R { R = d . c . R }\n"
                        "comm a, b -> c\n"
                        "system S = P <> Q <> R")
    config = Config(step_mode=step_mode, round_mode=round_mode)
    lts = generate_lts(model.systems["S"], model, config)
    assert_same_generation(
        lts, reference_generation(model.systems["S"], model, config))
    c_steps = {}
    for s, label, t in lts.transitions:
        if label_str(label) == "{c}":
            c_steps.setdefault(s, set()).add((type(label[0]), t))
    assert any(kind != other_kind and t != other_t
               for steps in c_steps.values()
               for (kind, t), (other_kind, other_t)
               in itertools.combinations(steps, 2))


@pytest.mark.parametrize("policies", list(itertools.product(
    *(allowed for _, allowed in POLICIES.values()))), ids="-".join)
def test_generated_lts_with_no_deadlock_is_its_own_pruning(ordered_terms,
                                                           policies):
    # a generated LTS is numbered breadth first from state 0, so with a
    # step in every state the one-pass check keeps it whole, and the full
    # algorithm, ``semantics._prune``, never runs
    config = Config(*policies)
    live = [lts for lts in (generate_lts(term, model, config)
                            for model, term in ordered_terms)
            if not lts.deadlock_states()]
    assert len(live) >= 20
    with mock.patch.object(semantics, "_prune",
                           side_effect=AssertionError("full algorithm ran")):
        assert all(prune_dead(lts) is lts for lts in live)


# SHA-256 of the CLI's standard output on the bundled model and, for a key
# that starts with a name in CLI_FAMILIES, on that family's model.  Unlike
# the name-level fingerprints above, these also pin the BFS state numbering
# and the order of every list in the JSON; on the families, the verdicts,
# block counts and counterexamples of their checks.
CLI_OUTPUTS = {
    ("lts", "--format", "json", "--system", "Sys"):
        "17019ca2870b430ccf83e78d705302dd462a6fb5969647d9c342dae705b5ce87",
    ("lts", "--format", "json", "--system", "Sys", "--round-mode", "barrier"):
        "01d35fa2d43ff5a428e9d68c01d732231781f5670448cafbe49cd7e16aa9a585",
    ("check", "--json"):
        "403ffdeed5bf583b8af98376cfefd6685e15dfba1ade451cc18004c43f0ba013",
    ("check", "--json", "--rooted"):
        "851bd0d819063bfe70ab363bbae29e7aef8d84862ba62e48ef5677135279ac3a",
    ("derive-ab", "--wso", "WSOA", "--json"):
        "5470fd3acfc8487473a7bbac3f64f67a09b7546b48aa09f90e4ae7033d7e4746",
    ("derive-ab", "--wso", "WSOB", "--json"):
        "31fdd5666ceb14abd196b64bee874a7df9fb44f2bec0f7c52680fe2b35648b0f",
    ("ws_pair(1)", "check", "--json"):
        "1bfd1cb227adaf4f4890f45f05c441a95c5956d9beeb9e04abc13a846f1b0f8d",
    ("tau_chain(12, 2)", "check", "--json"):
        "3f70cd9d97fcb09c1d8c413f5b63caa0833c1949cbb25d41b7732c831d9de10c",
}

# the exit code of a command on the bundled model, if not 0: the rooted
# checks fail on the root condition
BUNDLED_EXIT_CODES = {("check", "--json", "--rooted"): 1}

# family model -> (its declarations, rendered with seed 1; the exit code of
# its commands: ws_pair's overlap check fails, so ``check`` exits 1)
CLI_FAMILIES = {
    "ws_pair(1)": (families.ws_pair(1), 1),
    "tau_chain(12, 2)": (families.tau_chain(12, 2), 0),
}


@pytest.mark.parametrize("args", [a for a in CLI_OUTPUTS
                                  if a[0] not in CLI_FAMILIES], ids=" ".join)
def test_bundled_model_cli_output(args):
    argv = [args[0], str(bundled_model_path()), *args[1:]]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(argv)
    assert code == BUNDLED_EXIT_CODES.get(args, 0)
    assert (hashlib.sha256(out.getvalue().encode()).hexdigest()
            == CLI_OUTPUTS[args])


@pytest.mark.parametrize("args", [a for a in CLI_OUTPUTS
                                  if a[0] in CLI_FAMILIES], ids=" ".join)
def test_family_model_cli_output(args, tmp_path):
    decls, exit_code = CLI_FAMILIES[args[0]]
    path = tmp_path / "family.aptc"
    path.write_text(families.render(decls, seed=1))
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main([args[1], str(path), *args[2:]])
    assert code == exit_code
    assert (hashlib.sha256(out.getvalue().encode()).hexdigest()
            == CLI_OUTPUTS[args])


def test_spans_see_every_traced_call(tmp_path):
    """Every call the benchmark traces goes through its module-level
    name, so ``spans.instrument`` sees it: a reference captured elsewhere,
    such as a dispatch table, would make that layer's metrics read 0."""
    called = set()

    def wrap(name, fn):
        def recorded(*args, **kwargs):
            called.add(name)
            return fn(*args, **kwargs)
        return recorded

    path = tmp_path / "traced.aptc"
    path.write_text("process P { P = a . b . P }\n"
                    "process Q { Q = a . Q }\n"
                    "system S = hide {b} in (P <> Q)\n"
                    "check S ~sb S\ncheck S ~bb P\n"
                    "check P ~rbb Q\ncheck S ~tr Q\n")
    restore = spans.instrument(spans.TRACED, wrap)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["check", str(path)])
            cli.main(["derive-ab", str(bundled_model_path()),
                      "--wso", "WSOA"])
    finally:
        restore()
    assert called == {spans._span_name(module, attr)
                      for module, attr in spans.TRACED}
