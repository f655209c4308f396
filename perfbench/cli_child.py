"""One bellbox command line with the tracer installed.

    python perfbench/cli_child.py SUMMARY_FILE [bellbox arguments...]

Behaves as ``python -m bellbox.cli [arguments...]`` and writes the span
summary (including argument parsing) to SUMMARY_FILE when it ends.
"""

import argparse
import json
import sys
from pathlib import Path

from tracer import Tracer

import bellbox.cli


def main() -> int:
    tracer = Tracer()
    tracer.install()
    parse = argparse.ArgumentParser.parse_args
    tracer.patch(argparse.ArgumentParser, "parse_args", tracer.wrap(parse, "cli.parse_args"))
    try:
        return bellbox.cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
        Path(sys.argv[1]).write_text(json.dumps(tracer.summary()), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
