"""Run one consultmarket CLI command in this process with span tracing on.

    python launch.py SPANS.npz <cli arguments...>

The span wrappers are installed after the package is imported and removed
before the spans are written; the exit code is the CLI's own.  ``src``
must be on PYTHONPATH, as for the untraced ``main()`` launch.
"""

from __future__ import annotations

import sys

import spans


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    from consultmarket import cli

    recorder = spans.Recorder()
    sys.argv = ["consultmarket", *argv]
    root = recorder.begin_op("op.invocation")
    try:
        with spans.Patches(recorder):
            cli.main()
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        recorder.close(root)
    spans.save_parts([(recorder.arrays(), recorder.names)], out)
    return code


if __name__ == "__main__":
    sys.exit(main())
