"""One-command benchmark of `mvinpaint inpaint`.

    python3 perfbench/run.py --workload s2-hole64 --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout.  Each round spawns one fresh
`mvinpaint inpaint` process (through perfbench/child.py, ``--threads 1``,
numerical-library threads pinned to 1), one at a time, and checks its output
with the independent checks in checks.py.  Rounds repeat until ``--seconds``
have passed; every round is the same operation.  Before the rounds, a few
set-up probes stop each process at its call into ``inpaint``.

``--trace 0`` prints the end-to-end metrics: median wall time, set-up time
(spawn to the call into ``inpaint``), peak RSS and rms geodesic error.
``--trace 1`` runs one plain and one traced process and prints the
per-layer metrics of the traced one, with its wall time and the tracing
overhead.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
from workloads import WORKLOADS, make_inputs, read_mvi, write_mvi, write_pbm

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SETUP_PROBES = 5
RUN_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env():
    env = dict(os.environ)
    env.pop("MVG_THREADS", None)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


class Bench:
    def __init__(self, workload, seed, deadline):
        self.w = workload
        self.deadline = deadline
        self.dir = WORK / workload.name
        self.dir.mkdir(parents=True, exist_ok=True)
        self.inputs = make_inputs(workload, seed)
        self.input = self.dir / "input.mvi"
        self.mask = self.dir / "mask.pbm"
        write_mvi(self.input, workload.manifold, self.inputs.image)
        write_pbm(self.mask, self.inputs.unknown)
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def spawn(self, mode):
        """One `mvinpaint inpaint` process; returns its measurements, or None if it failed."""
        out = self.dir / f"{mode}.mvi"
        report = self.dir / f"{mode}.report.json"
        for path in (out, report):
            path.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "child.py"), "--report", str(report),
               "--mode", mode, "--",
               "inpaint", "-i", str(self.input), "-m", str(self.mask), "-o", str(out),
               "--log", str(self.dir / f"{mode}.summary.json")] + self.w.inpaint_args()
        self.attempted += 1
        with open(self.dir / f"{mode}.stderr", "wb") as err:
            t0 = time.monotonic()
            proc = subprocess.Popen(cmd, env=self.env, stdout=subprocess.DEVNULL, stderr=err)
            killer = threading.Timer(max(1.0, self.deadline - t0), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:   # interrupted: leave no child behind
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.monotonic() - t0
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        if code != 0 or not report.is_file():
            self.failed += 1
            print(f"{mode}: exit code {code}, see {self.dir / (mode + '.stderr')}")
            return None
        rep = json.loads(report.read_text())
        res = {"wall_s": wall, "setup_s": rep["inpaint_called"] - t0,
               "peak_rss_mb": usage.ru_maxrss / 1024.0, "report": rep}
        if mode == "probe":
            return res
        try:
            result = read_mvi(out, self.w.manifold, self.w.size, self.w.size)
        except (OSError, ValueError) as e:
            failures = [f"unreadable output: {e}"]
        else:
            failures = checks.check_output(self.w.manifold, result, self.inputs.image,
                                           self.inputs.unknown, self.inputs.truth)
        if failures:
            self.failed += 1
            self.correct = False
            print(f"{mode}: output check failed: {'; '.join(failures)}")
            return None
        res["geo_err_rms"] = checks.rms_error(self.w.manifold, result,
                                              self.inputs.truth, self.inputs.unknown)
        print(f"{mode}: wall {wall:.3f} s, setup {res['setup_s']:.3f} s, "
              f"peak RSS {res['peak_rss_mb']:.1f} MB, rms error {res['geo_err_rms']:.6g}")
        return res


def end_to_end(bench, seconds):
    setups = [r["setup_s"] for r in (bench.spawn("probe") for _ in range(SETUP_PROBES)) if r]
    rounds = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        r = bench.spawn("plain")
        if r:
            rounds.append(r)
            setups.append(r["setup_s"])
        now = time.monotonic()
        # stop at --seconds, or before a round that would run past the deadline
        if now - start >= seconds or now + (now - t0) > bench.deadline:
            break
    if not rounds:
        return {}
    med = {key: statistics.median(r[key] for r in rounds)
           for key in ("wall_s", "peak_rss_mb", "geo_err_rms")}
    return {
        "wall_s": (med["wall_s"], "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (med["peak_rss_mb"], "MB"),
        "geo_err_rms": (med["geo_err_rms"], "rad"),
    }


def ratio(seconds, count, scale):
    return seconds / count * scale if count else 0.0


def per_layer(bench):
    plain = bench.spawn("plain")
    traced = bench.spawn("trace")
    if not (plain and traced):
        return {}
    rep = traced["report"]
    s, n, c = rep["seconds"], rep["count"], rep["calls"]

    def sec(key):
        return s.get(key, 0.0)

    metrics = {
        "cli.import_s": (rep["import_s"], "s"),
        "fileio.read_s": (sec("fileio.read"), "s"),
        "fileio.write_s": (sec("fileio.write"), "s"),
        "driver.layers": (n.get("driver.inpaint", 0), "count"),
        "driver.self_s": (sec("driver.inpaint") - sec("graph.build") - sec("operators.solve"), "s"),
        "graph.build_s": (sec("graph.build"), "s"),
        "graph.pixel_pairs": (n.get("graph.dist2", 0), "count"),
        "graph.ns_per_pixel_pair": (ratio(sec("graph.build"), n.get("graph.dist2", 0), 1e9), "ns"),
        "graph.dist2_s": (sec("graph.dist2"), "s"),
        "graph.rss_hwm_mb": (rep["graph_rss_mb"] or 0.0, "MB"),
        "operators.solve_s": (sec("operators.solve"), "s"),
        "operators.euler_steps": (c.get("operators.step", 0), "count"),
        "operators.vertex_steps": (n.get("operators.step", 0), "count"),
        "operators.step_ms": (ratio(sec("operators.step"), c.get("operators.step", 0), 1e3), "ms"),
        "operators.layers_at_max_iter": (rep["layers_at_max_iter"], "count"),
    }
    for name in ("log_ortho", "exp_ortho", "dist", "dist2"):
        key = f"manifolds.{name}"
        metrics[f"{key}_ns_per_pt"] = (ratio(sec(key), n.get(key, 0), 1e9), "ns")
    metrics["eigen.sym_eig_s"] = (sec("eigen.sym_eig"), "s")
    metrics["eigen.matrices"] = (n.get("eigen.sym_eig", 0), "count")
    metrics["trace.wall_s"] = (traced["wall_s"], "s")
    metrics["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of mvinpaint inpaint.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (SRC / "mvinpaint" / "cli.py").is_file():
        print(f"no mvinpaint sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    bench = Bench(WORKLOADS[args.workload], args.seed, deadline)
    metrics = per_layer(bench) if args.trace else end_to_end(bench, args.seconds)
    if not metrics:
        print("no run succeeded", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": bench.correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
