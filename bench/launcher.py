"""Run one qharmonics CLI command under span tracing.

    python bench/launcher.py SPANS.json <subcommand> [flags...]

Imports qharmonics.cli (timing the import), installs the span wrappers,
calls ``qharmonics.cli.main(argv)`` and writes the spans to SPANS.json
when the command returns.  The exit code is the command's.
"""

import sys
import time

sys.dont_write_bytecode = True

_t0 = time.perf_counter()
import qharmonics.cli  # noqa: E402

_import_s = time.perf_counter() - _t0

import json  # noqa: E402

from spans import Recorder  # noqa: E402


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    rec = Recorder()
    rec.install()
    rec.job = 0
    rec.active = True
    try:
        code = rec.wrap("cli.main", qharmonics.cli.main)(argv)
    finally:
        rec.active = False
        dump = rec.dump()
        dump["import_s"] = _import_s
        with open(out_path, "w") as fh:
            json.dump(dump, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
