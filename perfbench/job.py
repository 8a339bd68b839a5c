"""Run one replica-harmony CLI job in this process and stamp its phases.

    python3 perfbench/job.py STAMP_FILE TRACE_FILE|- <replica-harmony argv...>

The package is imported from ``src/`` of the checkout this file sits in.
Set-up ends once the package is imported and the argv and scenario specs
are resolved and validated; the job then runs ``cli.main`` on the same
argv.  STAMP_FILE receives the set-up end time and the exit code, as
``time.perf_counter`` readings, which on Linux share one monotonic clock
with the parent process.  With a TRACE_FILE the layer tracer is installed
after set-up and its trace is written there when ``main`` returns.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    stamp_path, trace_path, *argv = sys.argv[1:]
    sys.path.insert(0, str(ROOT / "src"))
    import replica_harmony
    from replica_harmony import cli

    args = cli.build_parser().parse_args(argv)
    sources = args.scenario if isinstance(args.scenario, list) else [args.scenario]
    for source in sources:
        cli.resolve_scenario(source)
    cli.resolve_seeds(args.seeds, 0)
    setup_end = time.perf_counter()

    tracer = None
    if trace_path != "-":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(replica_harmony)
    code = cli.main(argv)
    if tracer is not None:
        tracer.dump(trace_path, {"argv": argv, "exit_code": code})
    Path(stamp_path).write_text(json.dumps({"setup_end": setup_end, "exit_code": code}))
    return code


if __name__ == "__main__":
    sys.exit(main())
