#!/usr/bin/env python3
"""Fail unless a perfbench result line reports a correct run.

    python3 tools/check_perfbench.py RESULT.json

RESULT.json holds the last line of a perfbench run's standard output. The
check passes only when it reads "correct": true and "failed": 0.
"""
import json
import sys


def main(path):
    with open(path, encoding="utf-8") as f:
        result = json.loads(f.read())
    if result.get("correct") is True and result.get("failed") == 0:
        print(f"{path}: correct, {result.get('attempted')} operations checked")
        return 0
    print(f"{path}: perfbench outputs differ from the stored reference: "
          f"correct={result.get('correct')} failed={result.get('failed')}",
          file=sys.stderr)
    return 1


if __name__ == "__main__":
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    sys.exit(main(sys.argv[1]))
