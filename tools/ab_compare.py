"""Interleaved A/B timing of two versions of framekit in one process.

    python tools/ab_compare.py BASE [--workload NAME] [--seed N] [--rounds R]
                               [--scratch DIR]

Exports ``src/framekit`` of commit BASE (side A) with ``git archive`` into a
scratch directory, next to a copy of the working tree's (side B).  Each side
is imported under its own package name, which framekit's relative imports
allow, and so is a second copy of A, the A/A control.  Every round then times parse -> run -> emit (``parse_scenario``,
``run_suite``, ``emit_report(..., "json")``) once per copy, the order of the
three rotating from round to round, so the host's slow and fast phases fall
on all of them alike.

Prints, for B against A and for the A/A control: the median of the per-round
ratios time(A) / time(B) (above 1: B is faster), their interquartile range
and the number of rounds B won; then each side's median time, each side's
Python calls per report row (the calls cProfile counts in one ``run_suite``,
which the host's speed does not move), each side's working set over one
``run_suite`` (tracemalloc's peak, and what the run still holds once its
report is dropped, both above the memory traced before it; as exact as the
call counts), each side's minor page faults and system time over one
``run_suite`` in a fresh process (the median of five per side, A and B
alternating, each after a samples=1 warm-up: what the allocator's state,
which the sides share in this process, hides; and each side's system time
summed over its five, which the system clock's ticks of a few ms blur less
than a median), and how B's first report differs from A's
(``tools/compare_reports.py``).  The workload is one of perfbench's seeded
documents (default: ``full_matrix`` at seed 42).  Needs git and no network; it is not part of the test suite.
"""

from __future__ import annotations

import argparse
import cProfile
import importlib
import io
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402
from compare_reports import compare  # noqa: E402


def export(rev: str | None, dest: Path, name: str) -> None:
    """src/framekit at commit rev (the working tree's if None) as package dest/name."""
    if rev is None:
        shutil.copytree(ROOT / "src" / "framekit", dest / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        return
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev,
                          "src/framekit"], capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest / "_archive", filter="data")
    (dest / "_archive" / "src" / "framekit").rename(dest / name)
    shutil.rmtree(dest / "_archive")


def repetition(package, text: str) -> tuple[float, str]:
    """Seconds for parse -> run -> emit, and the emitted JSON report."""
    fs = package.scenario
    t0 = time.perf_counter()
    emitted = fs.emit_report(fs.run_suite(fs.parse_scenario(text)), "json")
    return time.perf_counter() - t0, emitted


def calls_per_row(package, text: str) -> float:
    """The Python calls of one run_suite, divided by its report rows.  Summed
    over the profiler's own entries, one per code object: pstats keys them by
    (file, line, name), so two lambdas on one line would count as one."""
    fs = package.scenario
    scenario, profile = fs.parse_scenario(text), cProfile.Profile()
    report = profile.runcall(fs.run_suite, scenario)
    return sum(entry.callcount for entry in profile.getstats()) / len(report.results)


def working_set(package, text: str) -> tuple[float, float]:
    """tracemalloc's peak over one run_suite and the memory still held once its
    report is dropped, in MB above the traced memory before it."""
    fs = package.scenario
    scenario = fs.parse_scenario(text)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fs.run_suite(scenario)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return (peak - before) / 1e6, (held - before) / 1e6


FRESH_RUNS = 5   # fresh processes per side
# Run in a fresh process on side argv[1] of the working directory, the document on stdin.
FRESH = """
import dataclasses, importlib, resource, sys
fs = importlib.import_module(sys.argv[1] + ".scenario")
scenario = fs.parse_scenario(sys.stdin.read())
fs.run_suite(dataclasses.replace(scenario, samples=1))
before = resource.getrusage(resource.RUSAGE_SELF)
fs.run_suite(scenario)
after = resource.getrusage(resource.RUSAGE_SELF)
print(after.ru_minflt - before.ru_minflt, after.ru_stime - before.ru_stime)
"""


def fresh_process(dest: Path, name: str, text: str) -> tuple[int, float]:
    """Minor page faults and system seconds of one run_suite, after a samples=1
    warm-up, in a new Python process that imports side name from dest."""
    faults, sys_s = subprocess.run([sys.executable, "-c", FRESH, name], input=text, cwd=dest,
                                   capture_output=True, text=True, check=True).stdout.split()
    return int(faults), float(sys_s)


def summary(label: str, ratios: list) -> str:
    q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    won = sum(r > 1.0 for r in ratios)
    return (f"{label}: median ratio {median:.3f}, IQR {q1:.3f}-{q3:.3f}, "
            f"won {won} of {len(ratios)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="commit of side A")
    parser.add_argument("--workload", default="full_matrix", choices=("full_matrix", "nested_fd"))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--scratch", help="directory for the exported copies, made if "
                        "missing (default: a temporary one, removed at exit)")
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2")
    text = workloads.WORKLOADS[args.workload](args.seed)
    if args.scratch:
        Path(args.scratch).mkdir(parents=True, exist_ok=True)

    with tempfile.TemporaryDirectory(dir=args.scratch) as tmp:
        dest = Path(tmp)
        for rev, name in ((args.base, "framekit_a"), (args.base, "framekit_a2"),
                          (None, "framekit_b")):
            export(rev, dest, name)
        sys.path.insert(0, str(dest))
        sides = {name: importlib.import_module(name)
                 for name in ("framekit_a", "framekit_b", "framekit_a2")}
        reports = {name: repetition(pkg, text)[1] for name, pkg in sides.items()}  # warm-up
        times = {name: [] for name in sides}
        order = list(sides)
        for k in range(args.rounds):
            for name in order[k % 3:] + order[:k % 3]:
                times[name].append(repetition(sides[name], text)[0])
        calls = {name: calls_per_row(pkg, text) for name, pkg in sides.items()}
        memory = {name: working_set(pkg, text) for name, pkg in sides.items()}
        fresh = {"framekit_a": [], "framekit_b": []}
        for _ in range(FRESH_RUNS):
            for name, runs in fresh.items():
                runs.append(fresh_process(dest, name, text))
    a, b, a2 = (times[name] for name in ("framekit_a", "framekit_b", "framekit_a2"))
    print(f"workload: {args.workload} seed {args.seed}; A = {args.base}, B = working tree; "
          f"{args.rounds} rounds")
    print(summary("B vs A", [x / y for x, y in zip(a, b)]))
    print(summary("A/A control", [x / y for x, y in zip(a, a2)]))
    print(f"median s: A {statistics.median(a):.4f}, B {statistics.median(b):.4f}, "
          f"A/A {statistics.median(a2):.4f}")
    print(f"run_suite calls per row: A {calls['framekit_a']:.1f}, "
          f"B {calls['framekit_b']:.1f}, A/A {calls['framekit_a2']:.1f}")
    pair = (("A", "framekit_a"), ("B", "framekit_b"))
    print(f"fresh-process run_suite, median of {FRESH_RUNS}, minor faults / sys ms: " + ", ".join(
        f"{label} {statistics.median(f for f, _ in fresh[name]):.0f} / "
        f"{1e3 * statistics.median(s for _, s in fresh[name]):.1f}" for label, name in pair)
        + f"; sys ms summed over the {FRESH_RUNS}: " + ", ".join(
            f"{label} {1e3 * sum(s for _, s in fresh[name]):.1f}" for label, name in pair))
    print("run_suite tracemalloc peak / held after, MB: " + ", ".join(
        f"{label} {memory[name][0]:.2f} / {memory[name][1]:.2f}" for label, name in
        (("A", "framekit_a"), ("B", "framekit_b"), ("A/A", "framekit_a2"))))
    lines, _ = compare(reports["framekit_a"], reports["framekit_b"])
    print("\n".join(["report B vs A:"] + [f"  {line}" for line in lines]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
