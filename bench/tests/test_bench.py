"""Tests for the benchmark's own code: generators, answer checks, spans.

    python3 -m pytest bench/tests
"""
import contextlib
import io

import pytest

import stepcheck as sc
from stepcheck import cli
from bench import families, spans, workloads


def _parse(decls, seed=0):
    model = sc.parse_model(families.render(decls, seed))
    assert model.validate() == []
    return model


def _system(model, name, **config):
    return sc.prune_dead(sc.generate_lts(
        model.systems[name], model, sc.Config(**config)))


@pytest.mark.parametrize("decls", [
    families.ws_pair(1), families.ws_pair(2), families.ring(5),
    families.ring(9), families.tau_chain(5, 2), families.tau_chain(70, 2),
    families.tau_chain(4, 3),
])
@pytest.mark.parametrize("seed", [0, 7])
def test_generated_models_parse_and_validate(decls, seed):
    model = _parse(decls, seed)
    assert model.checks


def test_seed_permutes_declarations_and_keeps_checks_last():
    decls = families.tau_chain(4, 2)
    texts = {families.render(decls, seed) for seed in range(5)}
    assert len(texts) > 1
    for text in texts:
        parts = text.strip().split("\n\n")
        assert sorted(parts) == sorted(decls)
        assert parts[-2:] == ["check quot: S ~bb SPEC", "check rot: S ~sb SR"]


def test_ws_pair_1_reproduces_bundled_sizes():
    model = _parse(families.ws_pair(1))
    bundled = sc.load_bundled_model()
    for mode, states in (("barrier", 14), ("overlap", 18)):
        ours = _system(model, "Sys", round_mode=mode)
        theirs = _system(bundled, "Sys", round_mode=mode)
        assert ours.num_states == theirs.num_states == states
        assert len(ours.transitions) == len(theirs.transitions)


@pytest.mark.parametrize("length,k", [(5, 2), (6, 2), (4, 3)])
def test_tau_chain_closed_forms(length, k):
    model = _parse(families.tau_chain(length, k))
    system = _system(model, "S")
    assert system.num_states == length ** k
    assert len(system.transitions) == length ** k * (2 ** k - 1)
    verdict = sc.branching_bisim(system, _system(model, "SPEC"))
    assert verdict.holds
    assert verdict.details["blocks"] == 2 ** k


def test_ring_token_count():
    model = _parse(families.ring(5))
    assert _system(model, "S").num_states == 10   # 3 tokens on 5 places


def _run(workload, path):
    recorder = spans.Recorder()
    restore = spans.instrument(spans.RECORDED, recorder.wrap)
    outputs = []
    try:
        for argv in workloads.commands(workload, path):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                outputs.append((cli.main(argv), buf.getvalue()))
    finally:
        restore()
    return outputs, recorder.results


def test_ws_pair_answers_and_fingerprints_hold(tmp_path):
    workload = workloads.WORKLOADS["ws_pair"]
    for seed in (0, 3):
        path = tmp_path / f"m{seed}.aptc"
        path.write_text(families.render(list(workload.decls), seed))
        outputs, recorded = _run(workload, str(path))
        checks = workloads.check_answers(workload, outputs, recorded)
        assert len(checks) == 11
        assert [name for name, ok in checks if not ok] == []


def test_answer_checks_count_mismatches_without_raising():
    workload = workloads.WORKLOADS["ws_pair"]
    outputs = [(0, "not json"), (2, ""), (2, "")]
    checks = workloads.check_answers(workload, outputs, [])
    assert len(checks) == 11
    assert not any(ok for _, ok in checks)


def test_instrument_rebinds_and_restores():
    original = sc.semantics.generate_lts
    tracer = spans.Tracer()
    restore = spans.instrument(spans.TRACED, tracer.wrap)
    try:
        assert cli.generate_lts is not original
        assert sc.composition.generate_lts is cli.generate_lts
        assert cli.main(["check", str(sc.bundled_model_path()),
                         "--name", "ab_a"]) == 0
    finally:
        restore()
    assert cli.generate_lts is original is sc.composition.generate_lts
    assert sc.model.Model.validate is not None
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    assert len(by_name["cli.main"]) == 1
    root = tracer.spans.index(by_name["cli.main"][0])
    assert by_name["dsl.parse_model"][0].parent == root
    generate = by_name["semantics.generate_lts"][0]
    prepare = by_name["semantics.prepare_system"][0]
    assert tracer.spans[prepare.parent] is generate
    assert generate.counts["states"] > 0
    metrics = spans.layer_metrics(tracer.spans)
    assert set(metrics) == set(spans.LAYER_UNITS)
    assert metrics["semantics.generate_calls"] == 2


def _span(name, start, end, parent=None):
    return spans.Span(name, start, end, parent, 0)


def test_self_times_on_a_hand_built_tree():
    tree = [
        _span("cli.main", 0.0, 10.0),                      # 0
        _span("semantics.generate_lts", 1.0, 5.0, 0),      # 1
        _span("semantics.prepare_system", 1.0, 1.5, 1),    # 2
        _span("equivalence.check_relation", 6.0, 9.0, 0),  # 3
        _span("equivalence.branching_bisim", 6.5, 8.5, 3), # 4
        _span("equivalence.weak_trace_inclusion", 7.0, 8.0, 4),  # 5
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 3.5, 0.5, 1.0, 1.0, 1.0])
    metrics = spans.layer_metrics(tree)
    assert metrics["cli.self_s"] == pytest.approx(3.0)
    assert metrics["semantics.generate_s"] == pytest.approx(3.5)
    assert metrics["semantics.prepare_s"] == pytest.approx(0.5)
    # the weak-trace search under a bisimulation is counterexample work
    assert metrics["equivalence.refine_s"] == pytest.approx(2.0)
    assert metrics["equivalence.cex_s"] == pytest.approx(1.0)


def test_self_times_count_overlapping_children_once():
    tree = [
        _span("cli.main", 0.0, 4.0),
        _span("dsl.parse_model", 1.0, 3.0, 0),
        _span("model.validate", 2.0, 3.5, 0),
    ]
    assert spans.self_times(tree)[0] == pytest.approx(1.5)


def test_benchmark_json_lists_the_reported_metrics():
    import json
    import os
    from bench import __main__ as harness
    with open(os.path.join(harness.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == harness.END_TO_END_UNITS
    reported = {n: u for n, u in harness.LAYER_UNITS.items()
                if n not in harness.UNREPORTED}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == reported
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_reference_scale_uses_the_median_kernel_time():
    from bench import reference
    assert reference.scale([0.05, 0.2, 0.1]) == pytest.approx(
        reference.REFERENCE_S / 0.1)
    assert len(reference.measure(reps=2)) == 2
    assert reference.kernel(50) == reference.kernel(50)
