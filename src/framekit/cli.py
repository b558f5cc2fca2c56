"""framekit command line: scenario-driven verification runs.

Exit codes: 0 all checks pass, 1 at least one check fails or errors,
2 usage/configuration problems.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import objectivity as obj
from .errors import FramekitError
from .fields import FIELD_CATALOG
from .frames import FRAME_CATALOG
from .scenario import VERSION, emit_report, load_scenario, run_suite


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="framekit",
        description="Verify frame-invariance identities on manufactured flows.")
    parser.add_argument("--version", action="version", version=f"framekit {VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run the checks of a scenario file")
    verify.add_argument("--scenario", required=True, help="path to a scenario document")
    verify.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    verify.add_argument("--samples", type=int, default=None,
                        help="override the per-check sample count")
    verify.add_argument("--out", default=None, help="write the report here instead of stdout")
    verify.add_argument("--format", choices=("json", "table"), default="table")

    sub.add_parser("list", help="print the frame/field/check catalogs")
    return parser


def _cmd_verify(args) -> int:
    scenario = load_scenario(args.scenario)
    overrides = {key: v for key in ("seed", "samples") if (v := getattr(args, key)) is not None}
    scenario = dataclasses.replace(scenario, **overrides) if overrides else scenario   # checked
    report = run_suite(scenario)
    text = emit_report(report, format=args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if report.passed else 1


def _cmd_list() -> int:
    for kind, names in (("frames", FRAME_CATALOG), ("fields", FIELD_CATALOG),
                        ("checks", obj.CHECKS)):
        print(f"{kind}:")
        for name in names:
            print(f"  {name}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "list":
            return _cmd_list()
        return _cmd_verify(args)
    except (FramekitError, OSError) as exc:
        print(f"framekit: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
