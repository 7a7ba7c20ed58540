"""The names and results that the benchmark tracer (perfbench/child.py) reads.

The tracer replaces driver.solve_dirichlet and operators.euler_step with
wrappers, binds each call's arguments to the wrapped function's signature,
and reads the solve's cfg argument, its out[1] (iterations) and out[2]
(trace), and the active set of every Euler step.  A refactor that renames
or bypasses any of these would silently empty the traced metrics.
"""

import inspect

import mvinpaint as mv
from mvinpaint import driver, operators


def wrap(module, name, monkeypatch):
    """Replace module.name as the tracer does; returns the (arguments, result) of each call."""
    fn = getattr(module, name)
    signature = inspect.signature(fn)
    seen = []

    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        seen.append((signature.bind(*args, **kwargs).arguments, out))
        return out

    monkeypatch.setattr(module, name, wrapper)
    return seen


def test_solve_and_step_hooks(monkeypatch):
    solves = wrap(driver, "solve_dirichlet", monkeypatch)
    steps = wrap(operators, "euler_step", monkeypatch)
    # the coupled pass after the two decoupled layers takes Euler steps,
    # and the layers take none
    img = mv.generate_sphere_image(8, 8)
    cfg = mv.SolverConfig(k=3, p=1, r=2, max_iter=5, coupled_pass=True)
    _, front = mv.inpaint(img, mv.cut_mask(8, 8, (3, 1, 3, 3)), cfg)
    assert len(solves) == len(front.log) == 3
    for (args, out), rec in zip(solves, front.log):
        assert args["cfg"] is cfg
        iterations, trace = out[1], out[2]
        assert iterations == rec.iterations == len(trace)
        # the tracer's test for a layer stopped by max_iter
        at_max_iter = iterations == cfg.max_iter and bool(trace) and trace[-1] >= cfg.eps
        assert at_max_iter == (not rec.converged)
    counted = sum(len(args["active"]) for args, _ in steps)
    assert counted == sum(rec.iterations * rec.active_size for rec in front.log) > 0
    assert [rec.iterations for rec in front.log[:2]] == [0, 0]
    assert len(steps) == front.log[2].iterations
