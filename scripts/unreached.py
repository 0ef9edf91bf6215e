"""List the ``src/repro`` functions that no output of the repository enters.

Runs, in a scratch copy of the working tree and under a profile hook that
every Python process it starts inherits:

- every CLI command, with its ``--json``, ``--diff``, ``--strict`` and
  ``--include-suppressed`` variants,
- every script in ``examples/``,
- ``pytest benchmarks`` (with ``--benchmark-disable``),
- ``perfbench/run.py`` on each of its workloads,

then prints each function under ``src/repro`` that was never entered, with
the lines its definition spans (decorators included), and the totals.  A
nested function is listed only when the function around it ran.  A listed
function is a candidate for deletion, not a verdict: check its callers, the
docs and the tests first.

Report only: exits 0 whatever it finds, and non-zero only if a run fails.
Needs no install; takes about a minute.

Usage: python scripts/unreached.py
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Seeded lint violations (and their clean twins) for the ``lint`` runs.
FIXTURES = "tests/analysis/fixtures"

#: Copied into the scratch tree: what the runs import, read or lint.
COPIED = ("src", "examples", "benchmarks", "perfbench", FIXTURES, "pyproject.toml")

#: Installed as ``sitecustomize`` on the runs' PYTHONPATH, so that every
#: Python process records the code it enters and writes it out on exit.
HOOK = '''
import atexit, os, sys, threading

_entered = set()


def _hook(frame, event, arg):
    if event == "call":
        _entered.add(frame.f_code)


def _dump():
    sys.setprofile(None)
    prefix = os.environ["UNREACHED_SRC"]
    path = os.path.join(os.environ["UNREACHED_OUT"], f"{os.getpid()}.txt")
    with open(path, "w", encoding="utf-8") as handle:
        for code in _entered:
            if code.co_filename.startswith(prefix):
                handle.write(f"{code.co_filename}\\t{code.co_firstlineno}\\n")


atexit.register(_dump)
sys.setprofile(_hook)
threading.setprofile(_hook)
'''

REQUIREMENTS = {
    "name": "probe",
    "interaction_privacy": "group-private",
    "data_classes": [
        {"name": "pii", "deletion_required": True},
        {"name": "trade"},
    ],
    "logic": {"keep_logic_private": True},
    "deployment": {"ordering_service_trusted": False},
}

PLATFORMS = ("fabric", "corda", "quorum")

#: Seconds per ``perfbench/run.py`` workload.
PERF_SECONDS = 1.0


def subcommands() -> set[str]:
    """The subcommand names ``repro.cli`` defines."""
    sys.path.insert(0, str(ROOT / "src"))
    from repro.cli import build_parser

    return {name for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
            for name in action.choices}


def cli_runs(work: pathlib.Path) -> list[list[str]]:
    """Every CLI command and output variant; fails if ``repro.cli`` has a
    subcommand this list does not run."""
    requirements = work / "requirements.json"
    requirements.write_text(json.dumps(REQUIREMENTS))
    runs = [
        ["table1"],
        ["figure1"],
        ["figure1", "--deletion-required", "--untrusted-orderer",
         "--third-party-admin"],
        ["figure1", "--private-from-counterparties", "--shared-function",
         "--no-encrypted-sharing", "--no-onchain-record",
         "--partial-visibility", "--uninvolved-validation"],
        ["design", str(requirements)],
        ["threats", str(requirements)],
        ["audit"],
        ["lint", "--self", "--strict"],
        ["lint", "--json", FIXTURES],
        ["lint", "--include-suppressed", FIXTURES],
        ["converge"],
        ["converge", "--json"],
    ]
    for platform in PLATFORMS:
        runs += [
            ["trace", "--platform", platform],
            ["trace", "--platform", platform, "--json"],
            ["metrics", "--platform", platform],
            ["recover", "--platform", platform],
            ["recover", "--platform", platform, "--json"],
        ]
        for workload in ("kv", "trades", "loc"):
            runs.append(["bench", "--platform", platform, "--workload", workload])
        runs.append(["bench", "--platform", platform, "--json", "--no-force-cut"])
    snapshots = []
    for platform in ("fabric", "corda"):
        snapshot = work / f"metrics-{platform}.json"
        snapshots.append(str(snapshot))
        runs.append(["metrics", "--platform", platform, "--json",
                     f">{snapshot}"])
    runs.append(["metrics", "--diff", *snapshots])
    missing = subcommands() - {args[0] for args in runs}
    if missing:
        raise SystemExit(f"unreached: no run for subcommand(s) "
                         f"{', '.join(sorted(missing))}; add them to cli_runs")
    return [[sys.executable, "-m", "repro", *args] for args in runs]


def run_all(work: pathlib.Path, env: dict) -> None:
    runs = cli_runs(work)
    runs += [[sys.executable, str(script)]
             for script in sorted((work / "examples").glob("*.py"))]
    runs.append([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                 "benchmarks", "--benchmark-disable"])
    for workload in ("kv", "loc"):
        runs.append([sys.executable, "perfbench/run.py", "--workload", workload,
                     "--seed", "1", "--seconds", str(PERF_SECONDS)])
    for command in runs:
        target = command.pop()[1:] if command[-1].startswith(">") else None
        result = subprocess.run(command, cwd=work, env=env,
                                capture_output=True, text=True)
        if target:
            pathlib.Path(target).write_text(result.stdout)
        # Linting the seeded bad fixtures reports findings: exit status 1.
        expected = 1 if FIXTURES in command else 0
        if result.returncode != expected:
            sys.stderr.write(result.stderr)
            raise SystemExit(f"unreached: {' '.join(command[1:])} "
                             f"exited {result.returncode}")
        print(f"ran {' '.join(command[1:])}", file=sys.stderr)


def unreached(src: pathlib.Path, entered: set[tuple[str, int]]):
    """Yield ``(path, line, qualname, lines)`` for every definition under
    *src* whose code was never entered."""

    def walk(path, node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from walk(path, child, prefix + child.name + ".")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                if {(path, child.lineno), (path, first)} & entered:
                    yield from walk(path, child, prefix + child.name + ".<locals>.")
                else:
                    yield (path, child.lineno, prefix + child.name,
                           child.end_lineno - first + 1)
            else:
                yield from walk(path, child, prefix)

    for file in sorted(src.rglob("*.py")):
        path = str(file.relative_to(src.parent))
        yield from walk(path, ast.parse(file.read_text(encoding="utf-8")), "")


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="unreached-") as scratch:
        scratch = pathlib.Path(scratch)
        work, hook, out = scratch / "tree", scratch / "hook", scratch / "out"
        for directory in (work, hook, out):
            directory.mkdir()
        for name in COPIED:
            source, target = ROOT / name, work / name
            target.parent.mkdir(parents=True, exist_ok=True)
            if source.is_dir():
                shutil.copytree(source, target,
                                ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(source, target)
        (hook / "sitecustomize.py").write_text(HOOK)
        env = dict(os.environ)
        env.update(
            PYTHONPATH=os.pathsep.join([str(hook), str(work / "src")]),
            PYTHONDONTWRITEBYTECODE="1",
            UNREACHED_OUT=str(out),
            UNREACHED_SRC=str(work / "src") + os.sep,
        )
        run_all(work, env)
        entered = set()
        for record in out.glob("*.txt"):
            for line in record.read_text(encoding="utf-8").splitlines():
                filename, first = line.split("\t")
                path = pathlib.Path(filename).relative_to(work)
                entered.add((str(path), int(first)))
        found = list(unreached(work / "src", entered))
    for path, line, name, lines in found:
        print(f"{path}:{line}  {name}  ({lines} lines)")
    total = sum(lines for *__, lines in found)
    print(f"{len(found)} functions never entered, {total} lines "
          f"({total + len(found)} with one blank separator each)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
