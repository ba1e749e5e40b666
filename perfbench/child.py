"""One fresh rotref interpreter, started by run.py.

    python child.py                 import rotref.cli, print the ready time
    python child.py SPEC_JSON       then run the commands of SPEC through
                                    rotref.cli.main and write a result file

SPEC is ``{"commands": [[arg, ...], ...], "trace": bool, "result": path}``.
The ready time is CLOCK_MONOTONIC, the clock run.py reads just before it
spawns this process, so their difference is the set-up time.
"""

import json
import sys
import time

import rotref.cli

READY = time.clock_gettime(time.CLOCK_MONOTONIC)


def _run(argv) -> int:
    try:
        return rotref.cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        return exc.code if isinstance(exc.code, int) else 2


def main() -> int:
    if len(sys.argv) == 1:
        print(repr(READY))
        return 0
    spec = json.loads(sys.argv[1])
    tracer = None
    if spec["trace"]:
        import tracing  # this file's directory leads sys.path

        tracer = tracing.Tracer()
        tracing.install(tracer)
    commands = []
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    for argv in spec["commands"]:
        t = time.perf_counter()
        code = _run(argv)
        commands.append({"exit": code, "wall_s": time.perf_counter() - t})
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    result = {
        "ready": READY,
        "wall_s": wall,
        "cpu_s": cpu,
        "commands": commands,
        "trace": tracer.metrics(0.0) if tracer else None,
    }
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
