"""Record the output digests the keyrate workload checks against.

Runs every command line the keyrate workload can issue and writes the
digest of each output to ``digests.json``. The recorded file is the
byte-identical contract for ``rate``, ``threshold`` and ``curve``: record
it once, at the commit that defines the reference outputs, and never to
make a changed output pass.

Usage, from the repository root::

    PYTHONPATH=src python3 perfbench/record_digests.py
"""
from __future__ import annotations

import json
import sys

import sqkd.cli as cli
from workloads import DIGESTS, digest, execute, keyrate_inputs


def main() -> int:
    digests = {}
    for argv in keyrate_inputs():
        code, text, _ = execute(cli, argv)
        if code != 0:
            print(f"exit code {code}: {' '.join(argv)}", file=sys.stderr)
            return 1
        digests[" ".join(argv)] = digest(text)
    DIGESTS.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n")
    print(f"{len(digests)} digests written to {DIGESTS.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
