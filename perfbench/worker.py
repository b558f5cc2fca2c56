"""Fresh-process half of the benchmark; run.py spawns it, one process per job.

    python3 perfbench/worker.py measure SCENARIO --seconds S [--trace SPANS]
        Warm up, then repeat parse_scenario -> run_suite -> emit_report until
        S seconds have passed (at least twice), and print one JSON line with
        the timings, peak RSS and the correctness gate.  It also times
        set-up processes: SETUPS_FIRST before the first repetition and, after
        each one, one per SETUP_EVERY_S seconds that repetition took.  So the
        set-up times sample the same phases of the machine's speed as the
        repetitions, about 25 of them in a 40 s run.  With --trace, run an
        untraced, a traced and another untraced repetition instead and write
        the spans to SPANS.

    python3 perfbench/worker.py setup SCENARIO
        Import framekit, parse SCENARIO and build every frame and field, then
        print the CLOCK_MONOTONIC reading at that moment as JSON.  The
        measuring process subtracts its own reading taken just before it
        started this one.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import resource
import subprocess
import sys
import time
from pathlib import Path

import yaml

from workloads import TOL_REF, expected_triples

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

SETUPS_FIRST = 4
SETUP_EVERY_S = 2.0


def _import_framekit():
    import framekit
    if not Path(framekit.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"framekit imported from {framekit.__file__}, "
                         f"not from this checkout's src/")
    return framekit


def setup(text: str) -> dict:
    fk = _import_framekit()
    sc = fk.parse_scenario(text)
    frames = [fk.make_frame(name, **params) for name, params in sc.frames]
    fields = [fk.make_field(name, **params)
              for name, params in sc.fields + (sc.pressure,)]
    done = time.clock_gettime(time.CLOCK_MONOTONIC)
    return {"done": done, "frames": len(frames), "fields": len(fields)}


class Gate:
    """Checks every report of one seed against the document and the first.

    A triple fails if its row is misplaced or missing, is not 'pass', has
    the wrong sample count or exceeds the frozen reference tolerance, or if
    it differs from the first repetition's row.  ``consistent`` turns false
    if a report has the wrong number of rows or its canonical JSON differs.
    """

    def __init__(self, text: str):
        doc = yaml.safe_load(text)
        self.expected = expected_triples(doc)
        self.samples = doc["samples"]
        self.failed = set()
        self.consistent = True
        self.first_rows = None
        self.first_canonical = None
        self.worst_margin = None
        self.total_samples = 0

    def add(self, report, canonical: str, emitted: str) -> None:
        rows = [json.dumps(r, sort_keys=True) for r in report.results]
        if (len(rows) != len(self.expected)
                or len(json.loads(emitted)["results"]) != len(rows)):
            self.consistent = False
        if self.first_rows is None:
            self.first_rows, self.first_canonical = rows, canonical
            self._judge(report.results)
        elif canonical != self.first_canonical:
            self.consistent = False
            self.failed.update(i for i, row in enumerate(self.first_rows)
                               if i >= len(rows) or rows[i] != row)

    def _judge(self, rows) -> None:
        margins = []
        for i, triple in enumerate(self.expected):
            if i >= len(rows):
                self.failed.add(i)
                continue
            row, tol = rows[i], TOL_REF[triple[2]]
            err = row.get("max_abs_err")
            if ((row["frame"], row["field"], row["check"]) != triple
                    or row["status"] != "pass" or row["samples"] != self.samples
                    or err is None or not math.isfinite(err) or err > tol):
                self.failed.add(i)
            elif err > 0.0:
                margins.append(math.log10(tol / err))
        self.worst_margin = min(margins, default=None)
        self.total_samples = sum(row["samples"] for row in rows)

    def result(self) -> dict:
        return {"attempted": len(self.expected), "failed": len(self.failed),
                "consistent": self.consistent, "worst_margin": self.worst_margin}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setup(scenario: str) -> float:
    """Seconds from just before a fresh setup process starts to its end of set-up."""
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run([sys.executable, __file__, "setup", scenario],
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["done"] - started


def measure(scenario: str, seconds: float, spans_path: str | None) -> dict:
    text = Path(scenario).read_text(encoding="utf-8")
    fk = _import_framekit()
    import numpy as np
    from framekit import scenario as fs

    # Warm-up: the same document at samples=1 loads every code path.
    warm = dataclasses.replace(fs.parse_scenario(text), samples=1)
    fs.emit_report(fs.run_suite(warm), "json")

    gate = Gate(text)

    def repetition() -> float:
        # Look the functions up at call time so a tracer's wrappers apply.
        t0 = time.perf_counter()
        report = fs.run_suite(fs.parse_scenario(text))
        emitted = fs.emit_report(report, "json")
        elapsed = time.perf_counter() - t0
        gate.add(report, fs.canonical_report_json(report), emitted)
        return elapsed

    out = {"python": sys.version.split()[0], "numpy": np.__version__,
           "framekit": fk.__version__}
    if spans_path is None:
        times, setups = [], []
        began = time.perf_counter()
        setups += [timed_setup(scenario) for _ in range(SETUPS_FIRST)]
        while len(times) < 2 or time.perf_counter() - began < seconds:
            times.append(repetition())
            if len(times) == 1:
                out["peak_rss_mb"] = _peak_rss_mb()
            setups += [timed_setup(scenario)
                       for _ in range(math.ceil(times[-1] / SETUP_EVERY_S))]
        out["verify_s"] = times
        out["setup_s"] = setups
    else:
        from tracer import Tracer
        before = repetition()
        tracer = Tracer()
        tracer.install()
        try:
            traced = repetition()
        finally:
            tracer.uninstall()
        out["verify_s"] = [before, repetition()]
        out["traced_verify_s"] = traced
        out["layers"] = tracer.summary()
        out["sites"] = tracer.sites
        out["total_samples"] = gate.total_samples
        tracer.save(spans_path)
    out.update(gate.result())
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("scenario")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", default=None, metavar="SPANS")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        result = setup(Path(args.scenario).read_text(encoding="utf-8"))
    else:
        result = measure(args.scenario, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
