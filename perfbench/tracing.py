"""Span recorder for the traced run, installed from outside the package.

Each wrapped call records a span ``[id, parent, request, name, start, end]``
in memory; spans of one ``cli.main`` call share a request number.  A
layer's self time is its span time minus the time of its child spans.

Modules bind functions with ``from .x import y``, so a wrapper replaces
every attribute of every ``trilevel`` module that holds the target, not
only the one in the defining module.  ``numpy.linalg.eigh``,
``numpy.linalg.eigvalsh`` and ``OperatorMatrix.__matmul__`` are wrapped on
their owners; ``OperatorMatrix.__post_init__`` only counts.

Counts marked "computed" come from array sizes, not from measurement:
``linalg.eigh_n3`` (sum of dim^3 over eigh calls), ``operators.matrix_bytes``
(bytes of every OperatorMatrix built) and ``dynamics.state_bytes``
(dim x samples x 16 per propagate call).
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (span name, module, attribute) of every module-level function traced.
FUNCTIONS = (
    ("cli.main", "trilevel.cli", "main"),
    ("cli.parse_config", "trilevel.cli", "parse_config"),
    ("cli.write_trajectory_csv", "trilevel.cli", "write_trajectory_csv"),
    ("hilbert.index_map", "trilevel.hilbert", "index_map"),
    ("operators.lift", "trilevel.operators", "lift"),
    ("operators.deformed_operator", "trilevel.operators", "deformed_operator"),
    ("operators.verify_algebra", "trilevel.operators", "verify_algebra"),
    ("hamiltonian.build_hamiltonian", "trilevel.hamiltonian", "build_hamiltonian"),
    ("hamiltonian.rotation_report", "trilevel.hamiltonian", "rotation_report"),
    ("hamiltonian.mode_rotation_unitary", "trilevel.hamiltonian", "mode_rotation_unitary"),
    ("hamiltonian.excitation_operator", "trilevel.hamiltonian", "excitation_operator"),
    ("dispersive.residual_and_order", "trilevel.dispersive", "residual_and_order"),
    ("dispersive.small_rotation", "trilevel.dispersive", "small_rotation"),
    ("dispersive.effective_transform", "trilevel.dispersive", "effective_transform"),
    ("dispersive.analytic_effective", "trilevel.dispersive", "analytic_effective"),
    ("dispersive.transfer_block_mask", "trilevel.dispersive", "transfer_block_mask"),
    ("dynamics.propagate", "trilevel.dynamics", "propagate"),
    ("dynamics.evolve", "trilevel.dynamics", "evolve"),
    ("dynamics.prepare_initial", "trilevel.dynamics", "prepare_initial"),
    ("dynamics.semiclassical_sweep", "trilevel.dynamics", "semiclassical_sweep"),
    ("weights.diagram_layout", "trilevel.weights", "diagram_layout"),
    ("weights.render_svg", "trilevel.weights", "render_svg"),
    ("weights.weight_table", "trilevel.weights", "weight_table"),
)

# Per-layer metrics: name -> (unit, how it is derived).  "self:<span>" is the
# self time of a span name, "calls:<span>" its call count, "count:<key>" a
# counter, all per traced round; "max:<key>" is a maximum.  run.py adds
# "overhead", the traced minus the untraced round time.
PER_LAYER = {
    "linalg.eigh_calls": ("count", "calls:linalg.eigh"),
    "linalg.eigh_s": ("s", "self:linalg.eigh"),
    "linalg.eigh_n3": ("n3-computed", "count:linalg.eigh_n3"),
    "linalg.eigh_dim_max": ("dim", "max:linalg.eigh_dim"),
    "linalg.eigvalsh_s": ("s", "self:linalg.eigvalsh"),
    "operators.matmul_calls": ("count", "calls:operators.matmul"),
    "operators.matmul_s": ("s", "self:operators.matmul"),
    "operators.matrices_built": ("count", "count:operators.matrices_built"),
    "operators.matrix_bytes": ("bytes-computed", "count:operators.matrix_bytes"),
    "operators.lift_s": ("s", "self:operators.lift"),
    "operators.deformed_operator_s": ("s", "self:operators.deformed_operator"),
    "operators.verify_algebra_s": ("s", "self:operators.verify_algebra"),
    "hamiltonian.build_hamiltonian_calls": ("count", "calls:hamiltonian.build_hamiltonian"),
    "hamiltonian.build_hamiltonian_s": ("s", "self:hamiltonian.build_hamiltonian"),
    "hamiltonian.rotation_report_s": ("s", "self:hamiltonian.rotation_report"),
    "hamiltonian.mode_rotation_unitary_s": ("s", "self:hamiltonian.mode_rotation_unitary"),
    "hamiltonian.excitation_operator_s": ("s", "self:hamiltonian.excitation_operator"),
    "dispersive.residual_and_order_s": ("s", "self:dispersive.residual_and_order"),
    "dispersive.small_rotation_calls": ("count", "calls:dispersive.small_rotation"),
    "dispersive.small_rotation_s": ("s", "self:dispersive.small_rotation"),
    "dispersive.effective_transform_s": ("s", "self:dispersive.effective_transform"),
    "dispersive.analytic_effective_s": ("s", "self:dispersive.analytic_effective"),
    "dispersive.transfer_block_mask_s": ("s", "self:dispersive.transfer_block_mask"),
    "hilbert.index_map_calls": ("count", "calls:hilbert.index_map"),
    "hilbert.split_calls": ("count", "calls:hilbert.split"),
    "hilbert.split_s": ("s", "self:hilbert.split"),
    "dynamics.propagate_s": ("s", "self:dynamics.propagate"),
    "dynamics.evolve_s": ("s", "self:dynamics.evolve"),
    "dynamics.state_bytes": ("bytes-computed", "count:dynamics.state_bytes"),
    "dynamics.prepare_initial_s": ("s", "self:dynamics.prepare_initial"),
    "cli.write_trajectory_csv_s": ("s", "self:cli.write_trajectory_csv"),
    "cli.output_bytes": ("bytes", "count:cli.output_bytes"),
    "cli.self_s": ("s", "self:cli.main"),
    "dynamics.semiclassical_sweep_s": ("s", "self:dynamics.semiclassical_sweep"),
    "weights.diagram_layout_s": ("s", "self:weights.diagram_layout"),
    "weights.render_svg_s": ("s", "self:weights.render_svg"),
    "weights.weight_table_s": ("s", "self:weights.weight_table"),
    "cli.parse_config_s": ("s", "self:cli.parse_config"),
    "trace.overhead_s": ("s", "overhead"),
}


class Recorder:
    """In-memory spans and counters; wrappers are live from install() to uninstall()."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.maxima: dict[str, int] = {}
        self.request = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, on_call=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else None, self.request, name,
                    perf_counter(), 0.0]
            spans.append(span)
            stack.append(span[0])
            try:
                return fn(*args, **kwargs)
            finally:
                span[5] = perf_counter()
                stack.pop()
                if on_call is not None:
                    on_call(args)

        return wrapper

    def _count_eigh(self, args) -> None:
        dim = args[0].shape[0]
        self.counters["linalg.eigh_n3"] += dim ** 3
        self.maxima["linalg.eigh_dim"] = max(self.maxima.get("linalg.eigh_dim", 0), dim)

    def _count_state(self, args) -> None:
        _ham, psi0, times = args[:3]
        self.counters["dynamics.state_bytes"] += psi0.shape[0] * len(times) * 16

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        import numpy
        from trilevel.hilbert import IndexMap
        from trilevel.operators import OperatorMatrix

        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "trilevel" or n.startswith("trilevel."))]
        hooks = {"dynamics.propagate": self._count_state}
        for name, module_name, attr in FUNCTIONS:
            target = getattr(sys.modules[module_name], attr)
            wrapper = self.wrap(name, target, hooks.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is target:
                        self._patch(module, key, wrapper)

        self._patch(numpy.linalg, "eigh",
                    self.wrap("linalg.eigh", numpy.linalg.eigh, self._count_eigh))
        self._patch(numpy.linalg, "eigvalsh",
                    self.wrap("linalg.eigvalsh", numpy.linalg.eigvalsh))
        self._patch(OperatorMatrix, "__matmul__",
                    self.wrap("operators.matmul", OperatorMatrix.__matmul__))
        self._patch(IndexMap, "split", self.wrap("hilbert.split", IndexMap.split))

        post_init = OperatorMatrix.__post_init__
        counters = self.counters

        def counting_post_init(op):
            post_init(op)
            counters["operators.matrices_built"] += 1
            counters["operators.matrix_bytes"] += op.mat.nbytes

        self._patch(OperatorMatrix, "__post_init__", counting_post_init)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def span_totals(self) -> tuple[dict[str, float], Counter]:
        """Self time and call count per span name, summed over all spans."""
        child_time: dict[int, float] = defaultdict(float)
        for sid, parent, _req, _name, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        self_time: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for sid, _parent, _req, name, start, end in self.spans:
            self_time[name] += (end - start) - child_time[sid]
            calls[name] += 1
        return self_time, calls

    def per_layer(self, rounds: int) -> dict[str, float]:
        """Every PER_LAYER metric but the overhead, per traced round."""
        self_time, calls = self.span_totals()
        out = {}
        for metric, (_unit, source) in PER_LAYER.items():
            kind, _, key = source.partition(":")
            if kind == "self":
                out[metric] = self_time.get(key, 0.0) / rounds
            elif kind == "calls":
                out[metric] = _per_round(calls.get(key, 0), rounds)
            elif kind == "count":
                out[metric] = _per_round(self.counters.get(key, 0), rounds)
            elif kind == "max":
                out[metric] = self.maxima.get(key, 0)
        return out


def _per_round(total: int, rounds: int) -> int | float:
    """Exact when every round did the same work, which the rounds should."""
    return total // rounds if total % rounds == 0 else total / rounds
