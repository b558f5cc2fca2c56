"""Outside-in span tracer for framekit's public functions.

The tracer replaces each traced function with a wrapper at every place a
caller looks it up: module globals in every loaded ``framekit`` module that
hold the original object (so ``fields.observed_velocity`` and
``objectivity.omega_from_alpha`` are caught, not only the definitions), and
the class attribute for methods.  Nothing inside ``src/`` changes.

Spans (name, start, end, parent) are kept in flat in-memory arrays and are
written out only when the run ends.  A span's self time is its duration
minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# (metric prefix, module, attribute path).  The prefix is
# "<module>.<function>" with the module's short name.
TARGETS = [
    ("frames.observed_velocity", "framekit.frames", "observed_velocity"),
    ("frames.omega_from_alpha", "framekit.frames", "omega_from_alpha"),
    ("frames.map_position_to_prime", "framekit.frames", "map_position_to_prime"),
    ("frames.RigidFrameMotion.state", "framekit.frames", "RigidFrameMotion.state"),
    ("frames.RigidFrameMotion.alpha", "framekit.frames", "RigidFrameMotion.alpha"),
    ("frames.RigidFrameMotion.dalpha_dt", "framekit.frames", "RigidFrameMotion.dalpha_dt"),
    ("frames.RigidFrameMotion.d2alpha_dt2", "framekit.frames", "RigidFrameMotion.d2alpha_dt2"),
    ("fields.ObservedScalarField.__call__", "framekit.fields", "ObservedScalarField.__call__"),
    ("diffops.fd_jacobian", "framekit.diffops", "fd_jacobian"),
    ("diffops.fd_gradient", "framekit.diffops", "fd_gradient"),
    ("diffops.fd_time_derivative", "framekit.diffops", "fd_time_derivative"),
    ("diffops.fd_second_derivatives", "framekit.diffops", "fd_second_derivatives"),
    ("diffops.fd_viscous_divergence", "framekit.diffops", "fd_viscous_divergence"),
    ("diffops.substantial_derivative", "framekit.diffops", "substantial_derivative"),
    ("tensor_core.check_orthogonality", "framekit.tensor_core", "check_orthogonality"),
    ("tensor_core.orthonormalized", "framekit.tensor_core", "orthonormalized"),
    ("tensor_core.require_rotation", "framekit.tensor_core", "require_rotation"),
    ("scenario.parse_scenario", "framekit.scenario", "parse_scenario"),
    ("scenario.run_suite", "framekit.scenario", "run_suite"),
    ("scenario.emit_report", "framekit.scenario", "emit_report"),
] + [
    (f"objectivity.{name}", "framekit.objectivity", name)
    for name in ("check_divergence_invariance",
                 "check_scalar_gradient_invariance",
                 "check_velocity_gradient_relation",
                 "check_strain_rate_invariance",
                 "check_vorticity_relation",
                 "check_stress_transform_random",
                 "check_constitutive_frame_invariance",
                 "check_acceleration_decomposition",
                 "check_ns_rhs_equivalence",
                 "check_stress_tensor_transform")
]


class Tracer:
    """Patches TARGETS on install(), restores them on uninstall()."""

    def __init__(self, targets=TARGETS):
        self.targets = list(targets)
        self.names = [name for name, _, _ in self.targets]
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patches = []          # (owner, attribute, original)
        self.sites = {}             # metric prefix -> places patched

    def _wrap(self, idx: int, fn):
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            name_id.append(idx)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "framekit" or key.startswith("framekit."))]
        for idx, (name, module_name, path) in enumerate(self.targets):
            owner = sys.modules[module_name]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self._wrap(idx, original)
            if cls_path:
                places = [(owner, attr)]
            else:
                places = [(m, key) for m in modules
                          for key, value in vars(m).items() if value is original]
            for place, key in places:
                self._patches.append((place, key, original))
                setattr(place, key, wrapper)
            self.sites[name] = [f"{getattr(p, '__name__', p)}.{k}" for p, k in places]

    def uninstall(self) -> None:
        while self._patches:
            place, key, original = self._patches.pop()
            setattr(place, key, original)

    def arrays(self):
        return (np.frombuffer(self.name_id, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64))

    def summary(self) -> dict:
        """Per target: calls, total_s (inclusive) and self_s (exclusive)."""
        name, parent, start, end = self.arrays()
        n, k = len(start), len(self.names)
        dur = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=n)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        self_s = np.bincount(name, weights=dur - child, minlength=k)
        out = {nm: {"calls": int(calls[i]), "total_s": float(total[i]),
                    "self_s": float(self_s[i])}
               for i, nm in enumerate(self.names)}
        # A state() call that had to compute alpha(t) missed the frame cache.
        state = self.names.index("frames.RigidFrameMotion.state")
        alpha = self.names.index("frames.RigidFrameMotion.alpha")
        alpha_parents = parent[(name == alpha) & nested]
        misses = np.unique(alpha_parents[name[alpha_parents] == state]).size
        n_state = out["frames.RigidFrameMotion.state"]["calls"]
        out["frames.RigidFrameMotion.state"]["hit_ratio"] = (
            1.0 - misses / n_state if n_state else 0.0)
        return out

    def save(self, path) -> None:
        name, parent, start, end = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name=name,
                            parent=parent, start=start, end=end)
