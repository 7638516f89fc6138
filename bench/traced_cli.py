"""Run ``rootheight`` under the tracer: the CLI's stdout and exit code are
passed through, and the trace summary is written to stderr as one line
after ``TRACE_MARK``.

    PYTHONPATH=src python3 bench/traced_cli.py verify A 16 --format json
"""

import json
import sys

from tracer import TRACE_MARK, Tracer

if __name__ == "__main__":
    tracer = Tracer()
    tracer.install()
    from rootheight import cli

    code = cli.main(sys.argv[1:])
    sys.stdout.flush()
    summary = tracer.summary()
    sys.stderr.write(TRACE_MARK + json.dumps(summary) + "\n")
    sys.exit(code)
