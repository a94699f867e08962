"""Two benchmark workloads generate exactly the LTSs the benchmark records.

The models come from ``bench.families`` and the expected fingerprints
(SHA-256 of the sorted name-level transition triples) from
``bench.workloads``; ``bench`` is only imported, never changed.
"""
import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench import families, spans, workloads  # noqa: E402
from stepcheck import cli  # noqa: E402


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
