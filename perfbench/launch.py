"""Run one ``repro`` CLI command with the benchmark's span wrappers installed.

Usage::

    python3 perfbench/launch.py SPANS_FILE ROLE REPRO_ARGS...

e.g. ``launch.py /tmp/spans-w0.jsonl worker worker --listen 127.0.0.1:0``.
The wrappers go in before :func:`repro.cli.main` runs; the recorded spans are
written to ``SPANS_FILE`` when the command returns or the process gets
SIGTERM.  ``repro`` must be importable (the benchmark sets ``PYTHONPATH``).
"""

import atexit
import signal
import sys

import spans


def main(argv) -> int:
    spans_file, role, command = argv[0], argv[1], argv[2:]
    tracer = spans.install(role)
    atexit.register(tracer.dump, spans_file)
    # SIGTERM ends the command through SystemExit, so atexit still runs.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(0))
    from repro.cli import main as repro_main

    return repro_main(command)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
