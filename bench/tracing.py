"""In-memory span tracer for the per-layer split.

``Tracer.installed()`` replaces crystalsurf functions, at the module
attribute their callers look up, with wrappers that record a span
(parent, op, name, start, end) and, for some, exact counts read from the
returned value. Everything is restored on exit; the program's own code
is not changed.

Self time is a span's duration minus its direct children's durations
minus the time the tracer spent in hooks directly under it, so count
bookkeeping does not show up as layer work.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import gzip
import os
import time
from pathlib import Path

import numpy as np

from crystalsurf import analysis, cli, coupled, mesh, solvers
from crystalsurf.solvers import SolverError

MESH_OPERATORS = (
    "stiffness_matrix",
    "mass_vector",
    "gradient_matrices",
    "edge_weight_vectors",
    "edge_stencil",
    "gradient",
    "divergence",
    "laplacian",
)
# kernel name -> which argument shape gives its point count
ENERGY_KERNELS = {
    "energy_density": "vector",
    "energy_hessian": "vector",
    "flux_coefficient": "scalar",
    "log_barrier": "scalar",
    "log_barrier_slope": "scalar",
}
IO_WRITERS = ("write_node_csv", "write_edge_csv", "_write_json")

# unit of each per-layer metric, in the order they are reported
PER_LAYER = {
    "linalg.factor_calls": "count",
    "linalg.factor_s": "s",
    "linalg.factor_fill_nnz": "count",
    "linalg.pcg_iters": "count",
    "solvers.rho_stages": "count",
    "solvers.rho_newton_steps": "count",
    "solvers.solve_rho.self_s": "s",
    "solvers.u_newton_steps": "count",
    "solvers.u_residual_evals": "count",
    "solvers.u_ls_accept_ratio": "ratio",
    "solvers.height_energy_s": "s",
    "solvers.solve_u.self_s": "s",
    "solvers.errors": "count",
    "coupled.solve_coupled.calls": "count",
    "coupled.outer_steps": "count",
    "coupled.solve_coupled.self_s": "s",
    "coupled.coupled_residuals_s": "s",
    "mesh.operator_calls": "count",
    "mesh.operator_s": "s",
    "mesh.edge_gradients_s": "s",
    "mesh.io_write_s": "s",
    "mesh.io_write_bytes": "bytes",
    "mesh.io_read_s": "s",
    "energy.kernel_calls": "count",
    "energy.kernel_s": "s",
    "energy.kernel_points": "count",
    "analysis.apriori_audit_s": "s",
    "cli.self_s": "s",
}
COUNT_METRICS = tuple(k for k, unit in PER_LAYER.items() if unit in ("count", "bytes"))


def _points(arg, kind: str) -> int:
    shape = np.shape(arg)
    return int(np.prod(shape[:-1] if kind == "vector" else shape))


class Tracer:
    """Records spans and counts while installed; one instance per pass."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (parent, op, name, start, end)
        self.hook_s: collections.Counter = collections.Counter()  # parent span -> hook time
        self.counts: collections.Counter = collections.Counter()
        self.op = -1
        self._stack: list[int] = []

    # -- wrappers ---------------------------------------------------------

    def _hook(self, hook, *args) -> None:
        t0 = time.perf_counter()
        hook(*args)
        if self._stack:
            self.hook_s[self._stack[-1]] += time.perf_counter() - t0

    def span(self, fn, name: str, after=None, on_error=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as err:
                stack.pop()
                spans[sid] = (parent, self.op, name, start, time.perf_counter())
                if on_error is not None and isinstance(err, SolverError):
                    self._hook(on_error, err)
                raise
            stack.pop()
            spans[sid] = (parent, self.op, name, start, time.perf_counter())
            if after is not None:
                self._hook(after, out, args)
            return out

        return traced

    def counter(self, fn, key: str):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _add(self, key: str, value) -> None:
        self.counts[key] += int(value)

    def _iterations(self, key: str):
        """Hooks adding a SolveReport's iterations on return and on failure."""

        def done(out, _args):
            self._add(key, out[1].iterations)

        def failed(err):
            self._add("solvers.errors", 1)
            if err.report is not None:
                self._add(key, err.report.iterations)

        return done, failed

    def _patches(self):
        """(module, attribute, wrapper factory) for every traced call site."""
        rho_done, rho_failed = self._iterations("solvers.rho_newton_steps")
        u_done, u_failed = self._iterations("solvers.u_newton_steps")

        def coupled_done(out, _args):
            self._add("coupled.outer_steps", out[1].iterations)

        def coupled_failed(err):
            if err.report is not None:
                self._add("coupled.outer_steps", err.report.iterations)

        def factored(lu, _args):
            self._add("linalg.factor_fill_nnz", lu.L.nnz + lu.U.nnz)

        def wrote(_out, args):
            path = next(a for a in args if isinstance(a, (str, os.PathLike)))
            self._add("mesh.io_write_bytes", os.path.getsize(path))

        def kernel(kind):
            return lambda _out, args: self._add("energy.kernel_points", _points(args[0], kind))

        sp = self.span
        patches = [
            (cli, "run", lambda f: sp(f, "cli.run")),
            (cli, "evolve", lambda f: sp(f, "coupled.evolve")),
            (cli, "continuation_tau", lambda f: sp(f, "coupled.continuation_tau")),
            (cli, "read_node_csv", lambda f: sp(f, "mesh.io_read")),
            (cli, "apriori_audit", lambda f: sp(f, "analysis.apriori_audit")),
            (analysis, "apriori_audit", lambda f: sp(f, "analysis.apriori_audit")),
            (coupled, "coupled_residuals", lambda f: sp(f, "coupled.coupled_residuals")),
            (coupled, "solve_rho", lambda f: sp(f, "solvers.solve_rho", rho_done, rho_failed)),
            (coupled, "solve_u", lambda f: sp(f, "solvers.solve_u", u_done, u_failed)),
            (coupled, "subgradient_select", lambda f: sp(f, "energy.kernel", kernel("vector"))),
            (solvers, "height_energy", lambda f: sp(f, "solvers.height_energy")),
            (solvers, "solve_rho_delta", lambda f: self.counter(f, "solvers.rho_stages")),
            (solvers, "apply_height_operator", lambda f: self.counter(f, "solvers.u_residual_evals")),
            (solvers, "pcg", lambda f: sp(f, "linalg.pcg", lambda out, _a: self._add("linalg.pcg_iters", out[1]))),
            (solvers.spla, "splu", lambda f: sp(f, "linalg.splu", factored)),
            (mesh, "edge_gradients", lambda f: sp(f, "mesh.edge_gradients")),
        ]
        for module in (cli, coupled):
            patches.append(
                (module, "solve_coupled", lambda f: sp(f, "coupled.solve_coupled", coupled_done, coupled_failed))
            )
        patches += [(cli, name, lambda f: sp(f, "mesh.io_write", wrote)) for name in IO_WRITERS]
        patches += [(mesh, name, lambda f: sp(f, "mesh.operator")) for name in MESH_OPERATORS]
        patches += [
            (solvers, name, lambda f, kind=kind: sp(f, "energy.kernel", kernel(kind)))
            for name, kind in ENERGY_KERNELS.items()
        ]
        return patches

    @contextlib.contextmanager
    def installed(self):
        originals = []
        try:
            for module, attr, factory in self._patches():
                original = getattr(module, attr)
                originals.append((module, attr, original))
                setattr(module, attr, factory(original))
            yield self
        finally:
            for module, attr, original in reversed(originals):
                setattr(module, attr, original)

    # -- aggregation ------------------------------------------------------

    def totals(self):
        """Per span name: (calls, total seconds, self seconds)."""
        child_s = collections.Counter(self.hook_s)
        for parent, _op, _name, start, end in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        calls = collections.Counter()
        total = collections.Counter()
        own = collections.Counter()
        for sid, (_parent, _op, name, start, end) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child_s[sid]
        return calls, total, own

    def metrics(self) -> dict:
        """Per-layer metrics of everything recorded, keyed as in ``PER_LAYER``."""
        calls, total, own = self.totals()
        c = self.counts
        trials = c["solvers.u_residual_evals"] - calls["solvers.solve_u"]
        return {
            "linalg.factor_calls": calls["linalg.splu"],
            "linalg.factor_s": total["linalg.splu"],
            "linalg.factor_fill_nnz": c["linalg.factor_fill_nnz"],
            "linalg.pcg_iters": c["linalg.pcg_iters"],
            "solvers.rho_stages": c["solvers.rho_stages"],
            "solvers.rho_newton_steps": c["solvers.rho_newton_steps"],
            "solvers.solve_rho.self_s": own["solvers.solve_rho"],
            "solvers.u_newton_steps": c["solvers.u_newton_steps"],
            "solvers.u_residual_evals": c["solvers.u_residual_evals"],
            "solvers.u_ls_accept_ratio": c["solvers.u_newton_steps"] / trials if trials > 0 else 1.0,
            "solvers.height_energy_s": total["solvers.height_energy"],
            "solvers.solve_u.self_s": own["solvers.solve_u"],
            "solvers.errors": c["solvers.errors"],
            "coupled.solve_coupled.calls": calls["coupled.solve_coupled"],
            "coupled.outer_steps": c["coupled.outer_steps"],
            "coupled.solve_coupled.self_s": own["coupled.solve_coupled"],
            "coupled.coupled_residuals_s": total["coupled.coupled_residuals"],
            "mesh.operator_calls": calls["mesh.operator"],
            "mesh.operator_s": own["mesh.operator"],
            "mesh.edge_gradients_s": total["mesh.edge_gradients"],
            "mesh.io_write_s": total["mesh.io_write"],
            "mesh.io_write_bytes": c["mesh.io_write_bytes"],
            "mesh.io_read_s": total["mesh.io_read"],
            "energy.kernel_calls": calls["energy.kernel"],
            "energy.kernel_s": total["energy.kernel"],
            "energy.kernel_points": c["energy.kernel_points"],
            "analysis.apriori_audit_s": total["analysis.apriori_audit"],
            "cli.self_s": own["cli.run"],
        }

    def write_spans(self, path: Path, origin: float) -> None:
        """Gzipped CSV of every span, times in seconds from ``origin``."""
        with gzip.open(path, "wt", compresslevel=1, newline="\n") as fh:
            fh.write("id,parent,op,name,start_s,end_s\n")
            for sid, (parent, op, name, start, end) in enumerate(self.spans):
                fh.write(f"{sid},{parent},{op},{name},{start - origin:.9f},{end - origin:.9f}\n")
