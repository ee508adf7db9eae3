"""Print the statements of src/seqembed that no benchmark case runs.

    python tools/traffic_lines.py

Runs `tools/check_outputs.py`'s pass over every case of the three
workloads, certificate re-checks included, under `sys.settrace`
restricted to the files of `src/seqembed`, then prints `file:line
source` for each statement that none of them ran, and their count. The
trace slows every case many times over, so nothing here is a timing.
Exits with check_outputs' own status.
"""
from __future__ import annotations

import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
SRC = TOOLS.parent / "src" / "seqembed"


def statements(path: Path) -> set:
    """The lines of `path` that hold an instruction of any of its code
    objects, nested functions and comprehensions included."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo += [c for c in code.co_consts if hasattr(c, "co_lines")]
    return lines


def main() -> int:
    files = {str(p): set() for p in sorted(SRC.glob("*.py"))}

    def local(frame, event, arg):
        if event == "line":
            files[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        return local if frame.f_code.co_filename in files else None

    sys.path.insert(0, str(TOOLS))
    sys.settrace(call)              # before seqembed is imported: module bodies count
    try:
        import check_outputs
        status = check_outputs.main()
    finally:
        sys.settrace(None)
    missed = 0
    for name, ran in files.items():
        source = Path(name).read_text().splitlines()
        for line in sorted(statements(Path(name)) - ran):
            print(f"{Path(name).relative_to(SRC.parent.parent)}:{line}  {source[line - 1].strip()}")
            missed += 1
    print(f"{missed} statements run by no case")
    return status


if __name__ == "__main__":
    sys.exit(main())
