"""Run one observkit CLI command in-process with layer spans recorded.

    python3 perfbench/tracecli.py SPANS.json -- ARGS...

behaves like ``python3 -m observkit ARGS...`` (same output, same exit
code), and also writes the spans of ``observkit.cli.main(ARGS)`` to
SPANS.json.  The traced run of the benchmark launches it in place of the
plain CLI.
"""

import sys

from common import SRC
from spans import Recorder


def main(argv: list[str]) -> int:
    spans_path, sep, *args = argv
    if sep != "--":
        raise SystemExit("usage: tracecli.py SPANS.json -- ARGS...")
    sys.path.insert(0, str(SRC))
    import observkit.cli

    rec = Recorder()
    with rec.installed(), rec.span("cli.main", command=args[0]):
        code = observkit.cli.main(args)
    sys.stdout.flush()
    rec.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
