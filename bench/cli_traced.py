"""Run one ``charvar`` CLI command with every layer function traced.

Usage: ``python3 bench/cli_traced.py STATE_FILE <charvar arguments>``.
Appends the tracer state as one JSON line to STATE_FILE and exits with
the command's own exit code.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import charvar.cli
import tracer as tr


def main() -> int:
    state_file, argv = sys.argv[1], sys.argv[2:]
    t = tr.Tracer()
    t.install()
    try:
        code = charvar.cli.main(argv)
    finally:
        t.uninstall()
        with open(state_file, "a") as fh:
            fh.write(json.dumps(t.state()) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
