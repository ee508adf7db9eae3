"""List the bundled reports that differ between this tree and another.

    python tools/diff_reports.py OTHER_TREE

Runs `seqembed suite`, `extend` and `embed` on each bundled config, in
a fresh interpreter on this tree's `src` and on OTHER_TREE's (another
checkout of the repository, such as `git archive BASE | tar -x -C
DIR`), and compares each pair of reports once their `timestamp` is
dropped. Prints a Markdown list, one line per report, `same` or
`DIFFERS` (with the exit code of a run that wrote no report), then the
count of reports that differ. Informational: it exits 0 whatever it
finds, and 1 only for a missing OTHER_TREE.
"""
from __future__ import annotations

import json
import os
import reprlib
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = ("suite", "extend", "embed")


def report(tree: Path, command: str, config: str, out: Path):
    """The report `command` writes on `config` at `tree`, without its
    timestamp, or the run's exit code if it wrote none."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    done = subprocess.run([sys.executable, "-m", "seqembed.cli", command, "--config", config,
                           "--out", str(out)], env=env, cwd=out.parent,
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    if not out.exists():
        return f"exit {done.returncode}"
    data = json.loads(out.read_text(encoding="utf-8"))
    data.pop("timestamp", None)
    return data


def main(argv: list) -> int:
    if len(argv) != 1 or not (Path(argv[0]) / "src" / "seqembed").is_dir():
        print(__doc__.strip(), file=sys.stderr)
        return 1
    other = Path(argv[0]).resolve()
    configs = sorted(p.stem for p in (ROOT / "src" / "seqembed" / "configs").glob("*.json"))
    differ = 0
    with tempfile.TemporaryDirectory() as scratch:
        for config in configs:
            for command in COMMANDS:
                here, there = (report(tree, command, config, Path(scratch) / f"{i}-{command}-{config}.json")
                               for i, tree in enumerate((ROOT, other)))
                verdict = "same" if here == there else "DIFFERS"
                if verdict != "same":
                    differ += 1
                    if not isinstance(here, dict) or not isinstance(there, dict):
                        verdict += f" (this tree: {reprlib.repr(here)}, other: {reprlib.repr(there)})"
                print(f"- `{command} --config {config}`: {verdict}", flush=True)
    print(f"\n{differ} of {len(configs) * len(COMMANDS)} reports differ")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
