"""Traced CLI op: ``python3 cli_shim.py TRACE_FILE zlab-arguments...``.

Imports zlab.cli, installs the benchmark's span wrappers, calls
``zlab.cli.main(argv)`` and writes the import time and the spans to
TRACE_FILE.  Stdout and the exit code are the CLI's own.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

start = perf_counter()
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
import zlab.cli  # noqa: E402

imported = perf_counter()
sys.path.insert(0, str(HERE))
from tracer import Tracer  # noqa: E402

tracer = Tracer()
tracer.install()
code = zlab.cli.main(sys.argv[2:])
sys.stdout.flush()
with open(sys.argv[1], "w", encoding="utf-8") as handle:
    json.dump({"import_s": imported - start, "spans": tracer.spans}, handle)
sys.exit(code)
