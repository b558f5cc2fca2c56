"""Scenario parsing, suite orchestration, and report emission.

A scenario document (YAML; JSON is accepted as a YAML subset) names the
frames, fields, and checks to run plus sampling/FD parameters.  Unknown and
repeated keys are rejected so typos cannot silently change a run; a ``Scenario``,
parsed or made in Python, reads its values (numbers by ``tensor_core``'s rule) and
builds every frame and field when made, so a malformed one fails before any check runs.
Reports are deterministic for a given (scenario, seed): each (frame, field,
check) triple has its own seeded generator, so neither execution order nor
the grouping of a check's fields into one call alters them.
"""

from __future__ import annotations

import json
import math
import re
import time
from dataclasses import MISSING, dataclass, field as dc_field, fields as dc_fields, is_dataclass
from functools import partial

import numpy as np
import yaml

from . import objectivity as obj, tensor_core as tc
from .diffops import _OFFSETS, FdConfig
from .errors import FramekitError, ScenarioError, UsageError
from .fields import FIELD_CATALOG, FlowField, ScalarField, make_field
from .frames import FRAME_CATALOG, make_frame

VERSION = "0.1.0"
MAX_SAMPLES = 1_000_000   # at about 3 KB of peak memory each, a run near 3 GB
# The samples of one check call on several fields: past about 1,000 a field, a
# larger group saves no time, and its arrays, which the call frees, grow with it
# (README; the frame jets it makes are freed too, and their rotation folds bounded).
GROUP_SAMPLES = 2_048
MAX_VALUES = 64           # numbers, lists and mappings in one params or box value
# A catalog frame's jet is sums and products of values within their bounds. In magnitude, an
# entry of R_i, R_i', R_i'' is at most 4, 2 a_i, 2 (b_i + a_i^2), so three factors' fold stays
# under 288 times the jet's bound (alpha under 576) and the spin under 6 times; rounding adds
# under 1e-13 of it. So no number of a jet whose bound times HEADROOM is finite overflows.
HEADROOM = 2.0 ** 10


class _StrictLoader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """The safe loader (libyaml's, ten times faster, where PyYAML has it), but a
    key repeated in a mapping is an error; a merged (<<) key may be overridden."""

    def construct_mapping(self, node, deep=False):
        own = [key for key, _ in node.value if key.tag != "tag:yaml.org,2002:merge"]
        mapping = super().construct_mapping(node, deep)   # rejects unhashable keys
        seen = set()
        for key_node in own:
            key = self.construct_object(key_node, deep)
            if key in seen:
                raise yaml.constructor.ConstructorError(
                    "while constructing a mapping", node.start_mark,
                    f"found duplicate key {key!r}", key_node.start_mark)
            seen.add(key)
        return mapping


# YAML 1.2 floats that YAML 1.1 reads as strings, such as 1e-6 and 1.0e308.
_StrictLoader.add_implicit_resolver("tag:yaml.org,2002:float", re.compile(
    r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$"), list("-+.0123456789"))


@dataclass(frozen=True)
class Material:
    """Fluid constants used by the constitutive and momentum checks."""
    mu: float = 1.0
    rho: float = 1.0
    g: tuple = (0.0, 0.0, -9.81)
    conductivity: float = 1.0    # validated and echoed; no check reads it


@dataclass(frozen=True)
class Scenario:
    """A validated run specification; making one reads each field by its key's rule, then
    builds and checks its frames, fields, pressure and body force once, for ``run_suite``.  A
    primed stencil point has |alpha^T (x - y)| <= sqrt(3) (|x| + |y|) (max-norms), 2 rounded."""
    frames: tuple = None     # ((name, params), ...); required, as None is no list
    fields: tuple = None
    checks: tuple = None
    box: tuple = obj.DEFAULT_BOX
    samples: int = 100
    seed: int = 42
    fd: FdConfig = dc_field(default_factory=FdConfig)
    tolerances: dict = dc_field(default_factory=dict)
    material: Material = dc_field(default_factory=Material)
    pressure: tuple = ("gaussian_T", {})

    def __post_init__(self):
        try:   # each field by its _SCENARIO rule, in field order, so that the first error
            for f in dc_fields(self):   # is that of the first bad key, as in a document
                if (value := getattr(self, f.name)) is None and f.name in _NULL_IS_DEFAULT:
                    value = f.default if f.default_factory is MISSING else f.default_factory()
                object.__setattr__(self, f.name, _SCENARIO[f.name](value, f"'{f.name}'"))
        except UsageError as exc:   # a number reader's names the key: as a ScenarioError
            raise exc if isinstance(exc, ScenarioError) else ScenarioError(str(exc))
        fd, box = self.fd, max(abs(v) for pair in self.box for v in pair)
        frames = [(name, _built("frame", make_frame, name, p)) for name, p in self.frames]
        fields = [(name, _built("field", make_field, name, p)) for name, p in self.fields]
        if not isinstance(pressure := _built("field", make_field, *self.pressure), ScalarField):
            raise ScenarioError("'pressure' must name a scalar field")
        for name, frame in frames:   # at |t| up to 1 plus fd's time reach
            jet, y = frame.bound(max(map(abs, obj.TIME_WINDOW)) + fd.reach(fd.h_t))
            if not math.isfinite(HEADROOM * jet):
                raise ScenarioError(f"bad parameters for frame {name!r}: non-finite entries "
                                    f"possible in its kinematics (bound {jet:.3g}, headroom "
                                    f"{HEADROOM:g})")
            if not math.isfinite(2.0 * (box + y) + fd.reach(fd.h)):
                raise ScenarioError(f"'box' and 'fd.h' put a primed stencil point of frame "
                                    f"{name!r} past the largest float")
        kinds = tuple(obj.CHECKS[c].field or FlowField for c in self.checks)
        if not any(isinstance(f, kinds) for _, f in fields):
            raise ScenarioError("no check in 'checks' applies to a field in 'fields'")
        force = obj.BodyForce(g=np.asarray(self.material.g), rho=self.material.rho)
        values = {"p_field": pressure, "mu": self.material.mu, "force": force}
        object.__setattr__(self, "_built", (frames, fields, values))   # not a field: not echoed

    def tolerance(self, check_id: str) -> float:
        return self.tolerances.get(check_id, obj.CHECKS[check_id].tol)   # read when made


@dataclass(frozen=True)
class Report:
    """Suite outcome: one row per executed (frame, field, check) triple."""
    scenario: dict
    results: tuple           # of row dicts, each as the JSON report writes it
    passed: bool
    wall_time_s: float
    version: str = VERSION


# Validators: each takes its parameters (bound with partial in the tables),
# a document value and the quoted name of its key (what), and returns the
# field's value or raises a one-line ScenarioError (or tensor_core's UsageError).

def _entry(noun: str, catalog, item, what: str) -> tuple:
    """(name, params) of a catalog entry: a name, a mapping of a name and params, or
    a stored (name, params) pair."""
    item = {"name": item} if isinstance(item, str) else _echo(item)   # a pair as its mapping
    if not isinstance(item, dict):
        raise ScenarioError(f"{what} must be a name or mapping")
    if extra := set(item) - {"name", "params"}:
        raise ScenarioError(f"unknown key(s) {sorted(extra, key=repr)} in {what}")
    name, params = item.get("name"), item.get("params")
    if not isinstance(name, str) or name not in catalog:
        raise ScenarioError(f"unknown {noun} id {name!r}; valid ids: {sorted(catalog)}")
    if not isinstance(params := {} if params is None else params, dict):   # only null means none
        raise ScenarioError(f"'params' for {noun} {name!r} must be a mapping")
    values = _plain(list(params.values()), f"bad parameters for {noun} {name!r}")
    return str(name), dict(zip(params, values))


def _built(noun: str, make, name: str, params: dict):
    """make(name, **params), a field evaluated at x = 0, t = 0, or one-line ScenarioError."""
    prefix = f"bad parameters for {noun} {name!r}: "
    try:
        with np.errstate(all="ignore"):
            built = make(name, **params)
            if noun == "field" and not all(np.all(np.isfinite(f(np.zeros(3), 0.0)))
                                           for f in vars(built).values() if callable(f)):
                raise ValueError("non-finite value at x = 0, t = 0")
            return built
    except (FramekitError, TypeError, ValueError, ArithmeticError) as exc:
        raise ScenarioError(prefix + str(exc).removeprefix(prefix)) from exc   # make's, once


def _check_id(value, what: str) -> str:
    if not isinstance(value, str) or value not in obj.CHECKS:
        raise ScenarioError(f"unknown check id {value!r}; valid ids: {list(obj.CHECKS)}")
    return str(value)


def _list_of(entry, value, what: str) -> tuple:
    if not isinstance(value, (list, tuple)) or not value:
        raise ScenarioError(f"{what} must be a non-empty list")
    return tuple(entry(item, f"a {what} entry") for item in value)


def _order(value, what: str) -> int:
    if not tc.is_number(value, integer=True) or value not in _OFFSETS:   # diffops' orders
        raise ScenarioError(f"{what} must be one of {sorted(_OFFSETS)}, got {value!r}")
    return int(value)


def _plain(value, what: str, budget=None):
    """A copy of value, if its lists and mappings (keys too) hold only numbers and it has at
    most MAX_VALUES numbers, lists and mappings (budget: the count left, shared by one walk's
    calls), else ScenarioError; each numpy number as Python's, for plain JSON and YAML data."""
    budget = iter(range(MAX_VALUES)) if budget is None else budget
    if next(budget, None) is None:   # the alias guard: a YAML alias may expand without end
        raise ScenarioError(f"{what}: more than {MAX_VALUES} numbers, lists and mappings "
                            "in one value")
    walk = partial(_plain, what=what, budget=budget)
    if isinstance(value, dict):
        return {walk(k): walk(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return (list if isinstance(value, list) else tuple)(map(walk, value))
    if not tc.is_number(value):
        raise ScenarioError(f"{what}: parameter values must be finite numbers, "
                            "not booleans or strings")
    return int(value) if isinstance(value, np.integer) else (
        float(value) if isinstance(value, np.floating) else value)


def _vector(value, what: str) -> tuple:
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ScenarioError(f"{what} must be a list of 3 numbers, got {value!r}")
    return tuple(tc.number(v, f"{what} entry") for v in value)


def _box(value, what: str) -> tuple:
    try:   # the walk guards the cast, which reads the nesting: [lo, hi] or three pairs
        box = np.asarray(_plain(value, what), dtype=float)
        return obj.box_pairs(np.tile(box, (3, 1)) if box.shape == (2,) else box)
    except (UsageError, TypeError, ValueError, OverflowError):
        raise ScenarioError(f"{what} must be [lo, hi] or three [lo, hi] pairs of numbers "
                            "with lo < hi and a finite width hi - lo") from None


def _keys(table: dict, value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioError(f"{what} must be a mapping")
    if extra := set(value) - set(table):
        raise ScenarioError(f"unknown {what} key(s) {sorted(extra, key=repr)}; "
                            f"valid keys: {sorted(table)}")
    return value


def _mapping(table: dict, cls, prefix: str, value, what: str):
    """cls from a mapping of table's keys (or a cls, as its echo), each checked by its
    validator in table order; a key left out keeps its field's default."""
    value = _keys(table, _echo(value) if isinstance(value, cls) else value, what)
    return cls(**{_FIELD.get(key, key): valid(value[key], f"'{prefix}{key}'")
                  for key, valid in table.items() if key in value})


# The document's keys, each with its validator, in the order of the fields
# they fill.  A key names its field, but for the renames in _FIELD.  A null
# value keeps the default of the keys in _NULL_IS_DEFAULT.
_nonnegative = partial(tc.number, low=0.0)
_positive = partial(tc.number, low=0.0, strict=True)
_FIELD = {"ht": "h_t"}
_FD = {"h": _positive, "ht": _positive, "order": _order}
_MATERIAL = {"mu": _nonnegative, "rho": _positive, "g": _vector, "conductivity": _nonnegative}
_TOLERANCES = dict.fromkeys(sorted(obj.CHECKS), _nonnegative)
_SCENARIO = {
    "frames": partial(_list_of, partial(_entry, "frame", FRAME_CATALOG)),
    "fields": partial(_list_of, partial(_entry, "field", FIELD_CATALOG)),
    "checks": partial(_list_of, _check_id),
    "box": _box,
    "samples": partial(tc.integer, low=1, high=MAX_SAMPLES),
    "seed": partial(tc.integer, low=0),
    "fd": partial(_mapping, _FD, FdConfig, "fd."),
    "tolerances": partial(_mapping, _TOLERANCES, dict, "tolerances."),
    "material": partial(_mapping, _MATERIAL, Material, "material."),
    "pressure": partial(_entry, "field", FIELD_CATALOG),
}
_NULL_IS_DEFAULT = ("box", "fd", "tolerances", "material", "pressure")


def parse_scenario(text: str) -> Scenario:
    """Parse a scenario document: its keys here, its values by the Scenario made of it."""
    try:
        return Scenario(**_keys(_SCENARIO, yaml.load(text, Loader=_StrictLoader), "scenario"))
    except yaml.YAMLError as exc:   # its message spans lines; the contract is one
        what = " ".join(str(exc).split())
        raise ScenarioError(f"scenario document is not valid YAML: {what}") from exc


def load_scenario(path) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_scenario(fh.read())
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"scenario file is not UTF-8 text: {exc}") from exc


# --------------------------------------------------------------------------
# Suite execution
# --------------------------------------------------------------------------

def _echo(value):
    """The report's form of a scenario value: a dataclass as the mapping of its
    document keys, a (name, params) entry as a mapping, a tuple as a list.
    Tolerances keep their parsed order, which is sorted."""
    if is_dataclass(value):
        key = {f: k for k, f in _FIELD.items()}
        return {key.get(f.name, f.name): _echo(getattr(value, f.name))
                for f in dc_fields(value)}
    if isinstance(value, tuple):
        named = len(value) == 2 and isinstance(value[1], dict)
        return {"name": value[0], "params": value[1]} if named else [_echo(v) for v in value]
    return value


def _results(call, members) -> list:
    """(member, its CheckResult or the exception it raised) for each member:
    one call for all of them, or, when that raises, one call for each."""
    try:
        return list(zip(members, call(members)))
    except Exception as exc:  # captured per-triple by contract
        if len(members) == 1:
            return [(members[0], exc)]
        return [pair for member in members for pair in _results(call, [member])]


def _row(frame: str, field: str, check_id: str, res, tol: float) -> dict:
    """The report row of a triple, as its JSON says it, from its CheckResult (a number
    that is not finite as None, since JSON has no nan or inf), or from the exception
    its call raised (an 'error' row)."""
    row = {"frame": frame, "field": field, "check": check_id}
    if isinstance(res, Exception):
        row.update(samples=0, max_abs_err=None, mean_abs_err=None, tol=tol, witness=None,
                   status="error", message=f"{type(res).__name__}: {res}")
        return row
    mx, mean, wit = [v if v is None or math.isfinite(v) else None
                     for v in (res.max_abs_err, res.mean_abs_err, res.witness)]
    row.update(samples=res.samples, max_abs_err=mx, mean_abs_err=mean, tol=res.tol,
               witness=wit, status="pass" if res.passed else "fail")
    if mx is None or mean is None:
        row["message"] = "non-finite residual: the check's arithmetic overflowed"
    return row


def run_suite(scenario: Scenario) -> Report:
    """Execute every applicable (frame, field, check) triple; rows in that order.

    A frame-only check gets one row per flow field.  Each triple has its own
    generator, seeded [seed, frame, field, check] by their indices.  A check
    runs once per frame on its fields, as groups of consecutive fields of at
    most GROUP_SAMPLES samples in all (one field a call where samples exceed
    it); a group call that raises is run again one field at a time, with
    fresh generators, so an 'error' row is its own triple's.  Per-triple
    errors fail the suite but do not abort it.
    """
    start = time.perf_counter()
    (frames, fields, values), box = scenario._built, np.array(scenario.box)   # read as is
    per_call = max(1, GROUP_SAMPLES // scenario.samples)

    rows = []
    with np.errstate(all="ignore"):   # a row reports its own overflow
        for fi, (fname, frame) in enumerate(frames):
            cells = {}   # (field index, check index) -> row
            for ci, check_id in enumerate(scenario.checks):
                spec, tol = obj.CHECKS[check_id], scenario.tolerance(check_id)
                members = [(gi, *m) for gi, m in enumerate(fields)
                           if isinstance(m[1], spec.field or FlowField)]

                def call(group):   # looked up per call, so that a patched attribute runs
                    return getattr(obj, spec.function)(
                        frame, *([[f for _, _, f in group]] if spec.field else []),
                        *(values[name] for name in spec.needs), box=box,
                        samples=scenario.samples, fd=scenario.fd, tol=tol,
                        rng=[np.random.default_rng((scenario.seed, fi, gi, ci))
                             for gi, _, _ in group])

                for first in range(0, len(members), per_call):
                    for (gi, gname, _), res in _results(call, members[first:first + per_call]):
                        cells[gi, ci] = _row(fname, gname, check_id, res, tol)
            rows += [cells[key] for key in sorted(cells)]

    passed = all(r["status"] == "pass" for r in rows)
    return Report(scenario=_echo(scenario), results=tuple(rows),
                  passed=passed, wall_time_s=time.perf_counter() - start)


# --------------------------------------------------------------------------
# Report emission
# --------------------------------------------------------------------------

def _report_json(report: Report, include_wall_time: bool) -> str:
    out = {"version": report.version, "scenario": report.scenario,
           "results": list(report.results),
           "suite_verdict": "pass" if report.passed else "fail"}
    if include_wall_time:
        out["wall_time_s"] = report.wall_time_s
    return json.dumps(out, indent=2, allow_nan=False) + "\n"


def canonical_report_json(report: Report) -> str:
    """Byte-stable JSON form with the wall-time field excluded."""
    return _report_json(report, include_wall_time=False)


def emit_report(report: Report, format: str = "json") -> str:
    """Render a report as JSON (stable key order, shortest round-trip float
    text) or as a human-readable table.  JSON has no nan or inf: a report
    holding one (run_suite's rows hold None) raises json's ValueError."""
    if format == "json":
        return _report_json(report, include_wall_time=True)
    if format != "table":
        raise ScenarioError(f"unknown report format {format!r}")
    header = (f"{'frame':<24} {'field':<14} {'check':<27} "
              f"{'max_err':>12} {'tol':>9} {'witness':>10} verdict")
    lines = [header, "-" * len(header)]
    for row in report.results:
        mx = "-" if row["max_abs_err"] is None else f"{row['max_abs_err']:.3e}"
        wit = "-" if row.get("witness") is None else f"{row['witness']:.3e}"
        lines.append(f"{row['frame']:<24} {row['field']:<14} {row['check']:<27} "
                     f"{mx:>12} {row['tol']:>9.0e} {wit:>10} {row['status']}")
        if row.get("message"):
            lines.append(f"    {row['message']}")
    lines.append(f"suite verdict: {'pass' if report.passed else 'fail'} "
                 f"({len(report.results)} triples, {report.wall_time_s:.2f}s)")
    return "\n".join(lines) + "\n"
