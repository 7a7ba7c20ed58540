"""Runs one `mvinpaint` command line in this process, as the console script does.

    python3 perfbench/child.py --report OUT.json --mode MODE -- inpaint -i ...

The report records, on the system-wide monotonic clock, when the process
reached the call into ``inpaint``; the parent took its own stamp just before
spawning, so the difference is the set-up time.  Modes:

* ``plain``: nothing else is wrapped.
* ``probe``: exits with code 0 at the call into ``inpaint`` (set-up only).
* ``trace``: the public entry point of every layer is wrapped from here,
  and the report holds each wrapper's time, call count and work count.
  Manifold kernel calls are attributed to the layer that made them.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import resource
import sys
import time
from collections import defaultdict

KERNEL_METHODS = ("dist2", "dist", "log_ortho", "exp_ortho")


class _StopAtInpaint(Exception):
    pass


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Per-key seconds, calls and work counts of the wrapped entry points."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.count = defaultdict(int)
        self.layers = ["cli"]        # stack of layers currently executing
        self.in_kernel = False
        self.graph_rss_mb = None
        self.layers_at_max_iter = 0

    def wrap(self, key, fn, layer=None, count=None, after=None):
        """Time fn under key; count and after get the bound arguments by name."""
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if layer:
                self.layers.append(layer)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self.seconds[key] += time.perf_counter() - t0
                if layer:
                    self.layers.pop()
            self.calls[key] += 1
            if count or after:
                bound = signature.bind(*args, **kwargs).arguments
                if count:
                    self.count[key] += count(bound, out)
                if after:
                    after(bound, out)
            return out
        return wrapper

    def wrap_kernel(self, name, fn):
        """Kernel method wrapper; calls nested in another kernel call are not counted."""
        if name in ("dist", "dist2"):
            def points(out):
                return int(getattr(out, "size", 1))
        else:
            def points(out):
                return out.size // out.shape[-1]

        @functools.wraps(fn)
        def wrapper(kernel, *args):
            if self.in_kernel:
                return fn(kernel, *args)
            self.in_kernel = True
            t0 = time.perf_counter()
            try:
                out = fn(kernel, *args)
            finally:
                dt = time.perf_counter() - t0
                self.in_kernel = False
            n = points(out)
            for key in (f"manifolds.{name}", f"{self.layers[-1]}.{name}"):
                self.seconds[key] += dt
                self.calls[key] += 1
                self.count[key] += n
            return out
        return wrapper

    def install(self, cli):
        from mvinpaint import driver, manifolds, operators
        from mvinpaint.manifolds import ManifoldDescriptor

        def after_graph(args, out):
            if self.graph_rss_mb is None:
                self.graph_rss_mb = _rss_mb()

        def after_solve(args, out):
            cfg = args["cfg"]
            iterations, trace = out[1], out[2]
            if iterations == cfg.max_iter and trace and trace[-1] >= cfg.eps:
                self.layers_at_max_iter += 1

        cli.read_mvi = self.wrap("fileio.read", cli.read_mvi, layer="fileio")
        cli.read_mask = self.wrap("fileio.read", cli.read_mask, layer="fileio")
        cli.write_mvi = self.wrap("fileio.write", cli.write_mvi, layer="fileio")
        cli.inpaint = self.wrap("driver.inpaint", cli.inpaint, layer="driver",
                                count=lambda args, out: len(out[1].log))
        driver.build_graph = self.wrap("graph.build", driver.build_graph,
                                       layer="graph", after=after_graph)
        driver.solve_dirichlet = self.wrap("operators.solve", driver.solve_dirichlet,
                                           layer="operators", after=after_solve)
        operators.euler_step = self.wrap("operators.step", operators.euler_step,
                                         count=lambda args, out: len(args["active"]))
        manifolds.sym_eig_batch = self.wrap(
            "eigen.sym_eig", manifolds.sym_eig_batch,
            count=lambda args, out: out[0].size // out[0].shape[-1])
        for desc in (ManifoldDescriptor.sphere2(), ManifoldDescriptor.spd(2)):
            cls = type(desc.kernel)
            for name in KERNEL_METHODS:
                setattr(cls, name, self.wrap_kernel(name, getattr(cls, name)))

    def report(self):
        return {
            "seconds": dict(self.seconds),
            "calls": dict(self.calls),
            "count": dict(self.count),
            "graph_rss_mb": self.graph_rss_mb,
            "layers_at_max_iter": self.layers_at_max_iter,
        }


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    split = argv.index("--")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--report", required=True)
    parser.add_argument("--mode", choices=("plain", "probe", "trace"), required=True)
    opts = parser.parse_args(argv[:split])
    program_args = argv[split + 1:]

    t0 = time.perf_counter()
    from mvinpaint import cli
    report = {"import_s": time.perf_counter() - t0}
    tracer = Tracer() if opts.mode == "trace" else None
    if tracer:
        tracer.install(cli)
    inner = cli.inpaint

    def stamped(*args, **kwargs):
        report["inpaint_called"] = time.monotonic()
        if opts.mode == "probe":
            raise _StopAtInpaint
        return inner(*args, **kwargs)

    cli.inpaint = stamped
    try:
        code = cli.run(program_args)
    except _StopAtInpaint:
        code = 0
    if tracer:
        report.update(tracer.report())
    with open(opts.report, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
