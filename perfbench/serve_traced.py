"""Run ``repro serve`` with the benchmark's span shims installed.

    python3 perfbench/serve_traced.py SPANS.json serve --port 8176 ...

Installs the shims of ``spans.py``, then enters :func:`repro.cli.main`, the
same entry point ``python -m repro serve`` uses.  Spans stay in memory
until the server stops; on SIGTERM the server drains, ``main`` returns and
the span totals are written to ``SPANS.json`` with the process's wall time
since the shims went in.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import spans


def main() -> int:
    out = Path(sys.argv[1])
    t0 = time.perf_counter()
    spans.install()
    import repro.cli

    try:
        return repro.cli.main(sys.argv[2:])
    finally:
        payload = {"wall_s": time.perf_counter() - t0, "spans": spans.snapshot()}
        tmp = out.with_name(out.name + ".tmp")
        tmp.write_text(json.dumps(payload, sort_keys=True))
        tmp.replace(out)


if __name__ == "__main__":
    sys.exit(main())
