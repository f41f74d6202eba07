"""One cold repetition of a benchmark workload, in a fresh interpreter.

    python child.py SPEC_JSON RESULT_JSON

SPEC_JSON names the workload, its inputs and whether to trace.  The child
refuses to run in a process that has already imported ``ramsey``: the
package keeps module-level caches (``_level_cache``, ``_ramsey_cache``)
that would otherwise answer a repeated question without searching.

RESULT_JSON receives the answer, the CLOCK_MONOTONIC instants at which the
timed work started and ended (the parent spawned the child on the same
clock), and, when traced, the counters and spans.
"""

from __future__ import annotations

import json
import os
import sys
import time

EXIT_WARM = 4


def main(argv: list[str]) -> int:
    if any(m == "ramsey" or m.startswith("ramsey.") for m in sys.modules):
        print("refusing to time a repetition: ramsey is already imported", file=sys.stderr)
        return EXIT_WARM
    spec_path, result_path = argv
    with open(spec_path) as fp:
        spec = json.load(fp)

    t0 = time.perf_counter()
    import ramsey.cli  # noqa: F401  (what every CLI run imports)
    import_s = time.perf_counter() - t0
    src = os.path.realpath(spec["src"])
    if not os.path.realpath(ramsey.cli.__file__).startswith(src + os.sep):
        print(f"ramsey was imported from {ramsey.cli.__file__}, not from {src}", file=sys.stderr)
        return EXIT_WARM

    if spec["traced"]:
        import tracer
        tracer.install()
    from workloads import WORKLOADS
    workload = WORKLOADS[spec["workload"]]

    state = workload.setup(spec["inputs"])
    start = time.monotonic()
    answer = workload.work(state)
    end = time.monotonic()

    result = {"answer": answer, "start": start, "end": end, "import_s": import_s}
    if spec["traced"]:
        result["trace"] = tracer.snapshot()
    with open(result_path, "w") as fp:
        json.dump(result, fp)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
