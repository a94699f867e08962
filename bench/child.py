"""One sample, in a fresh interpreter: set up, run a workload, check it.

    python3 -m bench.child SPAWNED ROOT MODEL WORKLOAD MODE RUN

SPAWNED is the parent's ``time.monotonic()`` just before it started this
process, so set-up time counts the interpreter's start.  MODE is
``setup`` (stop once the model is validated), ``plain`` or ``traced``.
Prints one JSON object.  Only the standard library is imported before
stepcheck, so set-up time is stepcheck's own.
"""
import os
import sys
import time


def main(argv) -> int:
    spawned, root, model_path, workload_name, mode, run = argv
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import stepcheck
    from stepcheck.dsl import parse_model

    with open(model_path, encoding="utf-8") as fh:
        model = parse_model(fh.read())
    violations = model.validate()
    setup_s = time.monotonic() - float(spawned)
    if violations:
        print(f"generated model is not well-formed: {violations}", file=sys.stderr)
        return 2
    if not os.path.abspath(stepcheck.__file__).startswith(os.path.abspath(src)):
        print(f"stepcheck imported from {stepcheck.__file__}, not {src}",
              file=sys.stderr)
        return 2
    result = {"setup_s": setup_s}
    if mode == "setup":
        return _emit(result)

    import contextlib
    import io

    from bench import spans, workloads
    from stepcheck import cli

    workload = workloads.WORKLOADS[workload_name]
    if mode == "traced":
        hook = spans.Tracer(run=int(run))
        spans.instrument(spans.TRACED, hook.wrap)
    else:
        hook = spans.Recorder()
        spans.instrument(spans.RECORDED, hook.wrap)
    outputs = []
    start = time.perf_counter()
    for argv_i in workloads.commands(workload, model_path):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv_i)
        outputs.append((code, buf.getvalue()))
    result["verdict_s"] = time.perf_counter() - start
    result["peak_rss_mb"] = _peak_rss_kib() / 1024.0
    result["checks"] = workloads.check_answers(workload, outputs, hook.results)
    if mode == "traced":
        result["spans"] = hook.dump()
    return _emit(result)


def _peak_rss_kib() -> int:
    """This process's peak resident set size (Linux ``VmHWM``), in KiB.

    ``ru_maxrss`` would keep the peak from before ``exec``, which is the
    size of the parent that forked this process.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _emit(result) -> int:
    import json
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
