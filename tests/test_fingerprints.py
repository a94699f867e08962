"""Two benchmark workloads generate exactly the LTSs the benchmark records.

The models come from ``bench.families`` and the expected fingerprints
(SHA-256 of the sorted name-level transition triples) from
``bench.workloads``; ``bench`` is only imported, never changed.
"""
import contextlib
import io
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
