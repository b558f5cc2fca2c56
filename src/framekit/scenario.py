"""Scenario parsing, suite orchestration, and report emission.

A scenario document (YAML; JSON is accepted as a YAML subset) names the
frames, fields, and checks to run plus sampling/FD parameters.  Unknown and
repeated keys are rejected so typos cannot silently change a run, and the
numbers and every frame and field (built and evaluated once) are validated
here, so a malformed one fails before any check runs.  Reports are
deterministic for a given (scenario, seed): every (frame, field, check)
triple gets its own seeded generator, so execution order cannot change them.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field as dc_field

import numpy as np
import yaml

from . import objectivity as obj
from .diffops import FdConfig
from .errors import FramekitError, ScenarioError
from .fields import FIELD_CATALOG, ScalarField, make_field
from .frames import FRAME_CATALOG, make_frame, omega_from_alpha

VERSION = "0.1.0"

_TOP_KEYS = {"frames", "fields", "checks", "box", "samples", "seed", "fd",
             "tolerances", "material", "pressure"}
_FD_KEYS = {"h", "ht", "order"}
_MATERIAL_KEYS = {"mu", "rho", "g", "conductivity"}


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


@dataclass(frozen=True)
class Material:
    """Fluid constants used by the constitutive and momentum checks."""
    mu: float = 1.0
    rho: float = 1.0
    g: tuple = (0.0, 0.0, -9.81)
    conductivity: float = 1.0


@dataclass(frozen=True)
class Scenario:
    """A validated run specification."""
    frames: tuple            # ((name, params), ...)
    fields: tuple
    checks: tuple
    box: tuple = obj.DEFAULT_BOX
    samples: int = 100
    seed: int = 42
    fd: FdConfig = dc_field(default_factory=FdConfig)
    tolerances: dict = dc_field(default_factory=dict)
    material: Material = dc_field(default_factory=Material)
    pressure: tuple = ("gaussian_T", {})

    def tolerance(self, check_id: str) -> float:
        return float(self.tolerances.get(check_id, obj.CHECKS[check_id].tol))


@dataclass(frozen=True)
class Report:
    """Suite outcome: one row per executed (frame, field, check) triple."""
    scenario: dict
    results: tuple           # of row dicts
    passed: bool
    wall_time_s: float
    version: str = VERSION


def _named_entries(raw, kind: str, catalog) -> tuple:
    if not isinstance(raw, list) or not raw:
        raise ScenarioError(f"'{kind}' must be a non-empty list")
    entries = []
    for item in raw:
        if isinstance(item, str):
            name, params = item, {}
        elif isinstance(item, dict):
            extra = set(item) - {"name", "params"}
            if extra:
                raise ScenarioError(
                    f"unknown key(s) {sorted(extra)} in a '{kind}' entry")
            name = item.get("name")
            params = item.get("params", {}) or {}
        else:
            raise ScenarioError(f"each '{kind}' entry must be a name or mapping")
        if not isinstance(name, str) or name not in catalog:
            raise ScenarioError(
                f"unknown {kind[:-1]} id {name!r}; valid ids: {sorted(catalog)}")
        if not isinstance(params, dict):
            raise ScenarioError(f"'params' for {kind[:-1]} {name!r} must be a mapping")
        # Build the entry and evaluate it once at x = 0, t = 0, so that bad
        # params fail here rather than in every triple.
        try:
            with np.errstate(all="ignore"):
                built = catalog[name](**params)
                if kind == "frames":   # frame values are validated where computed
                    omega_from_alpha(built, 0.0)
                    built.d2y_dt2(0.0)
                elif not all(np.all(np.isfinite(f(np.zeros(3), 0.0)))
                             for f in vars(built).values() if callable(f)):
                    raise ValueError("non-finite value at x = 0, t = 0")
        except (FramekitError, TypeError, ValueError, ArithmeticError) as exc:
            raise ScenarioError(
                f"bad parameters for {kind[:-1]} {name!r}: {exc}") from exc
        entries.append((name, dict(params)))
    return tuple(entries)


def _number(value, what: str, low: float = -math.inf, strict: bool = False) -> float:
    """A finite real (YAML bools rejected) that is >= low, or > low if strict."""
    try:
        x = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError):
        x = math.nan
    if not (math.isfinite(x) and (x > low if strict else x >= low)):
        bound = "" if low == -math.inf else f" {'>' if strict else '>='} {low:g}"
        raise ScenarioError(f"{what} must be a finite number{bound}, got {value!r}")
    return x


def _integer(value, what: str, low: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise ScenarioError(f"{what} must be an integer >= {low}, got {value!r}")
    return value


def _mapping(doc: dict, key: str, allowed) -> dict:
    raw = doc.get(key) or {}
    if not isinstance(raw, dict):
        raise ScenarioError(f"'{key}' must be a mapping")
    extra = set(raw) - set(allowed)
    if extra:
        raise ScenarioError(f"unknown '{key}' key(s) {sorted(extra)}; "
                            f"valid keys: {sorted(allowed)}")
    return raw


def _parse_box(raw) -> tuple:
    if raw is None:
        return obj.DEFAULT_BOX
    try:
        box = np.asarray(raw, dtype=float)
    except (TypeError, ValueError):
        box = np.empty(0)
    if box.shape == (2,):
        box = np.tile(box, (3, 1))
    # A width that overflows would make every triple's sampling raise.
    if (box.shape != (3, 2) or not np.all(np.isfinite(box))
            or not all(lo < hi and math.isfinite(hi - lo) for lo, hi in box.tolist())):
        raise ScenarioError("'box' must be [lo, hi] or three [lo, hi] pairs "
                            "with lo < hi and a finite width hi - lo")
    return tuple((float(lo), float(hi)) for lo, hi in box)


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document; fill documented defaults."""
    try:
        doc = yaml.load(text, Loader=_StrictLoader)
    except yaml.YAMLError as exc:   # its message spans lines; the contract is one
        what = " ".join(str(exc).split())
        raise ScenarioError(f"scenario document is not valid YAML: {what}") from exc
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a mapping")
    extra = set(doc) - _TOP_KEYS
    if extra:
        raise ScenarioError(f"unknown scenario key(s): {sorted(extra)}")
    for key in ("frames", "fields", "checks"):
        if key not in doc:
            raise ScenarioError(f"scenario is missing required key '{key}'")

    frames = _named_entries(doc["frames"], "frames", FRAME_CATALOG)
    fields = _named_entries(doc["fields"], "fields", FIELD_CATALOG)

    checks = doc["checks"]
    if not isinstance(checks, list) or not checks:
        raise ScenarioError("'checks' must be a non-empty list")
    for c in checks:
        if not isinstance(c, str) or c not in obj.CHECKS:
            raise ScenarioError(
                f"unknown check id {c!r}; valid ids: {list(obj.CHECKS)}")

    samples = _integer(doc.get("samples", 100), "'samples'", 1)
    seed = _integer(doc.get("seed", 42), "'seed'", 0)

    fd_doc = _mapping(doc, "fd", _FD_KEYS)
    fd = FdConfig(h=_number(fd_doc.get("h", 1e-3), "'fd.h'", 0.0, strict=True),
                  h_t=_number(fd_doc.get("ht", 1e-5), "'fd.ht'", 0.0, strict=True),
                  order=_integer(fd_doc.get("order", 4), "'fd.order'", 2))

    tols = {c: _number(v, f"tolerance for {c!r}", 0.0)
            for c, v in _mapping(doc, "tolerances", obj.CHECKS).items()}

    mat_doc = _mapping(doc, "material", _MATERIAL_KEYS)
    g = mat_doc.get("g", Material.g)
    if not isinstance(g, (list, tuple)) or len(g) != 3:
        raise ScenarioError(f"'material.g' must be a list of 3 numbers, got {g!r}")
    material = Material(
        mu=_number(mat_doc.get("mu", Material.mu), "'material.mu'", 0.0),
        rho=_number(mat_doc.get("rho", Material.rho), "'material.rho'", 0.0, strict=True),
        g=tuple(_number(v, "'material.g' entry") for v in g),
        conductivity=_number(mat_doc.get("conductivity", Material.conductivity),
                             "'material.conductivity'", 0.0))

    pressure_doc = doc.get("pressure")
    pressure = (Scenario.pressure if pressure_doc is None
                else _named_entries([pressure_doc], "fields", FIELD_CATALOG)[0])
    if not isinstance(make_field(pressure[0], **pressure[1]), ScalarField):
        raise ScenarioError("'pressure' must name a scalar field")

    return Scenario(frames=frames, fields=fields, checks=tuple(checks),
                    box=_parse_box(doc.get("box")), samples=samples, seed=seed,
                    fd=fd, tolerances=tols, material=material, pressure=pressure)


def load_scenario(path) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"scenario file is not UTF-8 text: {exc}") from exc
    return parse_scenario(text)


# --------------------------------------------------------------------------
# Suite execution
# --------------------------------------------------------------------------

def _run_triple(scenario: Scenario, frame, field_obj, check_id: str,
                rng: np.random.Generator, values: dict) -> obj.CheckResult:
    spec = obj.CHECKS[check_id]
    # Looked up per call, so that a patched module attribute is what runs.
    check = getattr(obj, spec.function)
    common = dict(samples=scenario.samples, rng=rng,
                  tol=scenario.tolerance(check_id))
    if not spec.sampled:
        return check(frame, **common)
    return check(frame, field_obj, *(values[name] for name in spec.needs),
                 box=scenario.box, fd=scenario.fd, **common)


def _scenario_echo(scenario: Scenario) -> dict:
    return {
        "frames": [{"name": n, "params": p} for n, p in scenario.frames],
        "fields": [{"name": n, "params": p} for n, p in scenario.fields],
        "checks": list(scenario.checks),
        "box": [list(b) for b in scenario.box],
        "samples": scenario.samples,
        "seed": scenario.seed,
        "fd": {"h": scenario.fd.h, "ht": scenario.fd.h_t,
               "order": scenario.fd.order},
        "tolerances": {k: scenario.tolerances[k]
                       for k in sorted(scenario.tolerances)},
        "material": {"mu": scenario.material.mu, "rho": scenario.material.rho,
                     "g": list(scenario.material.g),
                     "conductivity": scenario.material.conductivity},
        "pressure": {"name": scenario.pressure[0],
                     "params": scenario.pressure[1]},
    }


def run_suite(scenario: Scenario) -> Report:
    """Execute every applicable (frame, field, check) triple, in that order.

    Per-triple errors are captured as 'error' rows; they fail the suite
    but do not abort it.
    """
    start = time.perf_counter()
    frames = [(i, name, make_frame(name, **params))
              for i, (name, params) in enumerate(scenario.frames)]
    fields = [(i, name, make_field(name, **params))
              for i, (name, params) in enumerate(scenario.fields)]
    p_field = make_field(scenario.pressure[0], **scenario.pressure[1])
    material = scenario.material
    values = {"p_field": p_field, "mu": material.mu,
              "force": obj.BodyForce(g=np.asarray(material.g), rho=material.rho)}

    rows = []
    for fi, fname, frame in frames:
        for gi, gname, field_obj in fields:
            for ci, check_id in enumerate(scenario.checks):
                if not isinstance(field_obj, obj.CHECKS[check_id].field):
                    continue
                rng = np.random.default_rng([scenario.seed, fi, gi, ci])
                row = {"frame": fname, "field": gname, "check": check_id}
                try:
                    res = _run_triple(scenario, frame, field_obj, check_id, rng, values)
                    row.update(samples=res.samples, max_abs_err=res.max_abs_err,
                               mean_abs_err=res.mean_abs_err, tol=res.tol,
                               witness=res.witness,
                               status="pass" if res.passed else "fail")
                    if not math.isfinite(res.max_abs_err):
                        row["message"] = "non-finite residual: the check's arithmetic overflowed"
                except Exception as exc:  # captured per-triple by contract
                    row.update(samples=0, max_abs_err=None, mean_abs_err=None,
                               tol=scenario.tolerance(check_id), witness=None,
                               status="error", message=f"{type(exc).__name__}: {exc}")
                rows.append(row)

    passed = all(r["status"] == "pass" for r in rows)
    return Report(scenario=_scenario_echo(scenario), results=tuple(rows),
                  passed=passed, wall_time_s=time.perf_counter() - start)


# --------------------------------------------------------------------------
# Report emission
# --------------------------------------------------------------------------

def _fmt(value, indent: int) -> str:
    pad = "  " * indent
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None or isinstance(value, float) and not math.isfinite(value):
        return "null"           # JSON has no nan or inf
    if isinstance(value, int):
        return repr(value)
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f'{pad}  {json.dumps(str(k))}: {_fmt(v, indent + 1)}'
                 for k, v in value.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if not len(value):
            return "[]"
        items = [f"{pad}  {_fmt(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _report_dict(report: Report, include_wall_time: bool) -> dict:
    out = {"version": report.version,
           "scenario": report.scenario,
           "results": list(report.results),
           "suite_verdict": "pass" if report.passed else "fail"}
    if include_wall_time:
        out["wall_time_s"] = report.wall_time_s
    return out


def canonical_report_json(report: Report) -> str:
    """Byte-stable JSON form with the wall-time field excluded."""
    return _fmt(_report_dict(report, include_wall_time=False), 0) + "\n"


def emit_report(report: Report, format: str = "json") -> str:
    """Render a report as JSON (stable key order, 17 significant digits)
    or as a human-readable table."""
    if format == "json":
        return _fmt(_report_dict(report, include_wall_time=True), 0) + "\n"
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
