"""One CLI call, in a fresh interpreter, as a user's invocation runs.

run.py starts `python3 -I child.py REQUEST`, where REQUEST is the JSON object
{"call": [argv, facts], "trace_path": null or a file for the spans}.  The
call runs as `freerep.cli.main(["--json", *argv])`.

The child prints "ready" once `freerep.cli` is imported, so the parent can
time set-up, then one JSON line: the call's time, its check result, the
process's peak memory, the host speed over set-up and over the call, and
the per-layer metrics when traced.
"""

import contextlib
import io
import json
import os
import resource
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from speed import Speedometer  # noqa: E402
from workloads import check, kind  # noqa: E402


def run_calls(calls, main, tracer=None, speedometer=None) -> list:
    """Time each call, then check its output; one result dict per call.

    With a speedometer, "seconds" excludes its samples and "speed" is the
    host speed over the call.
    """
    results = []
    for argv, facts in calls:
        out, err = io.StringIO(), io.StringIO()
        mark = speedometer.mark() if speedometer else None
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                args = ["--json", *argv]
                code = tracer.call(main, args) if tracer else main(args)
        except SystemExit as exc:
            code, problem = exc.code, None
        except Exception as exc:  # a crash is a failed call, not a failed run
            code, problem = None, f"raised {type(exc).__name__}: {exc}"
        else:
            problem = None
        seconds = perf_counter() - start
        sampled, speed = speedometer.since(mark) if speedometer else (0.0, 1.0)
        problem = problem or check(argv, facts, code, out.getvalue())
        results.append({"argv": argv, "kind": kind(argv, facts),
                        "seconds": seconds - sampled, "speed": speed,
                        "problem": problem})
    return results


def main() -> None:
    request = json.loads(sys.argv[1])
    speedometer = Speedometer()
    before_import = speedometer.mark()
    speedometer.start()
    import freerep.cli  # set-up ends here

    print("ready", flush=True)
    setup_sampled, setup_speed = speedometer.since(before_import)
    tracer = None
    if request["trace_path"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        if tracer.missing:
            print("not traced, no longer defined:", *tracer.missing, file=sys.stderr)
    try:
        [result] = run_calls([request["call"]], freerep.cli.main, tracer, speedometer)
    finally:
        speedometer.stop()
        if tracer:
            tracer.uninstall()
    result["setup_sampled"] = setup_sampled
    result["setup_speed"] = setup_speed
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.write(request["trace_path"])
        result["layers"] = tracer.metrics()
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
