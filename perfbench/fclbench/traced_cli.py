"""The fcl CLI under the benchmark's tracer.

    python traced_cli.py SPAN_FILE CLI_ARGS...

Imports fcl.cli, wraps the traced functions, runs main(CLI_ARGS), unwraps
them and writes the spans and per-layer metrics to SPAN_FILE.  Standard
output and the exit code are the CLI's own.
"""
import json
import sys
from pathlib import Path

sys.path[0] = str(Path(__file__).resolve().parent.parent)

from fclbench import env  # noqa: E402
from fclbench.tracing import Tracer  # noqa: E402


def main() -> int:
    span_file, argv = Path(sys.argv[1]), sys.argv[2:]
    env.use_checkout_fcl()
    import fcl.cli
    tracer = Tracer()
    tracer.install()
    try:
        code = fcl.cli.main(argv)
    finally:
        tracer.uninstall()
        span_file.write_text(json.dumps(tracer.dump()))
    return code


if __name__ == "__main__":
    sys.exit(main())
