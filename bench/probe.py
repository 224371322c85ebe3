"""Set-up probe, run in a fresh process by ``run.py``.

    python3 bench/probe.py MODEL.json ...

Times importing pgmkit (with its CLI) and then parsing the workload's
model files, the one-time loading a workload needs. Prints one JSON line
with ``import_s`` and ``load_s``.
"""

import json
import sys
import time

start = time.perf_counter()
import pgmkit.cli  # noqa: E402
from pgmkit.io import parse_model  # noqa: E402

imported = time.perf_counter()
for path in sys.argv[1:]:
    with open(path) as handle:
        parse_model(handle.read())
loaded = time.perf_counter()
print(json.dumps({"import_s": imported - start, "load_s": loaded - imported}))
