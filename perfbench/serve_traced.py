"""``repro serve`` with the benchmark's layer spans installed.

    python3 perfbench/serve_traced.py SPANS_PATH serve [serve options...]

Installs the wrappers of ``tracing.py``, runs the public CLI entry
``repro.api.cli.main``, and when SIGTERM has drained the server writes
every recorded span to ``SPANS_PATH`` as JSON.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402


def main() -> int:
    spans_path, argv = Path(sys.argv[1]), sys.argv[2:]
    rec = tracing.Recorder()
    tracing.install_engine(rec)
    tracing.install_server(rec)
    from repro.api.cli import main as cli_main

    code = cli_main(argv)
    spans_path.write_text(json.dumps(rec.dump()))
    return code


if __name__ == "__main__":
    sys.exit(main())
