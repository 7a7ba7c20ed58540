"""Command line interface.

Subcommands: generate, mask, inpaint, render, compare.  Exit codes: 0 on
success, then one per family of errors.py: 1 usage, 2 data (any OSError
too), 3 numerical; a numerical failure names its layer and vertex.  A command
line that does not parse or an option out of range is a usage error, found
before any file is read, but for a patch wider than the image, found when
the first graph is built.  Every run writes a JSON run summary (parameters,
layer log, timings) to stderr, or to --log PATH when given.  Outputs are
bitwise deterministic for identical invocations, independent of --threads.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time

import numpy as np

from .config import SolverConfig
from .errors import ConfigError, DimensionMismatch, FileFormatError, NumericalError
from .driver import inpaint
from .fileio import read_mask, read_mvi, write_mask, write_mvi
from .metrics import compare
from .render import render
from .synthetic import cut_mask, generate_sphere_image, generate_spd_image

USAGE_ERROR = 1
DATA_ERROR = 2
NUMERICAL_ERROR = 3


# exception class -> (stderr label, exit code); an exception is looked up by
# the first class of its MRO listed here
_EXITS = {
    ConfigError: ("usage error", USAGE_ERROR),
    **dict.fromkeys((OSError, FileFormatError, DimensionMismatch),
                    ("data error", DATA_ERROR)),
    NumericalError: ("numerical error", NUMERICAL_ERROR),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _parse_rect(text):
    try:
        i0, j0, h, w = (int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("expected four integers i0,j0,height,width")
    return i0, j0, h, w


def _parse_sigma(text):
    if text == "auto":
        return "auto"
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError('sigma must be a number or "auto"')


def build_parser():
    top = _Parser(prog="mvinpaint",
                  description="Nonlocal inpainting of manifold-valued images.")
    sub = top.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic test image")
    g.add_argument("--manifold", required=True, choices=("s2", "spd2"),
                   help="which synthetic family to generate")
    g.add_argument("--rows", type=int, required=True, help="grid rows")
    g.add_argument("--cols", type=int, required=True, help="grid columns")
    g.add_argument("-o", "--output", required=True, help="output .mvi path")

    m = sub.add_parser("mask", help="write a rectangular-hole PBM mask")
    m.add_argument("--rows", type=int, required=True, help="grid rows")
    m.add_argument("--cols", type=int, required=True, help="grid columns")
    m.add_argument("--rect", type=_parse_rect, required=True,
                   help="unknown rectangle as i0,j0,height,width")
    m.add_argument("-o", "--output", required=True, help="output .pbm path")

    cfg = SolverConfig()
    p = sub.add_parser("inpaint", help="fill the masked pixels of an image")
    p.add_argument("-i", "--input", required=True, help="input .mvi image")
    p.add_argument("-m", "--mask", required=True, help="input .pbm mask (1 = unknown)")
    p.add_argument("-o", "--output", required=True, help="output .mvi path")
    p.add_argument("--k", type=int, default=cfg.k, help="neighbors per vertex (default: %(default)s)")
    p.add_argument("--p", type=int, default=cfg.p, help="patch radius (default: %(default)s)")
    p.add_argument("--r", type=int, default=cfg.r, help="search window radius (default: %(default)s)")
    p.add_argument("--sigma", type=_parse_sigma, default=cfg.sigma,
                   help='weight scale, positive or "auto" (default: %(default)s)')
    p.add_argument("--eps", type=float, default=cfg.eps,
                   help="relative-change stopping threshold of the coupled pass "
                        "(default: %(default)s)")
    p.add_argument("--max-iter", type=int, default=cfg.max_iter,
                   help="Euler step cap of the coupled pass (default: %(default)s)")
    p.add_argument("--coupled-pass", action="store_true",
                   help="after the front layers, solve every unknown pixel again "
                        "in one coupled pass of full Euler steps")
    p.add_argument("--threads", type=int, default=None,
                   help="worker cap for graph building, capped at the CPUs this "
                        "process may run on (default: that count)")

    r = sub.add_parser("render", help="render an image to .ppm or .svg")
    r.add_argument("-i", "--input", required=True, help="input .mvi image")
    r.add_argument("-m", "--mask", default=None, help="optional .pbm mask; unknown pixels render gray")
    r.add_argument("-o", "--output", required=True, help="output path ending in .ppm or .svg")

    c = sub.add_parser("compare", help="geodesic error of a result vs a reference")
    c.add_argument("-a", "--result", required=True, help="result .mvi image")
    c.add_argument("-b", "--truth", required=True, help="reference .mvi image")
    c.add_argument("-m", "--mask", required=True, help=".pbm mask naming the compared (unknown) pixels")

    for sp in (g, m, p, r, c):
        sp.add_argument("--log", default=None, help="write the JSON run summary here instead of stderr")
    return top


def _cmd_generate(args, summary):
    if args.rows < 1 or args.cols < 1:
        raise ConfigError("rows and cols must be positive")
    if args.manifold == "s2":
        img = generate_sphere_image(args.rows, args.cols)
    else:
        img = generate_spd_image(args.rows, args.cols)
    write_mvi(img, args.output)
    summary["output"] = args.output


def _cmd_mask(args, summary):
    if args.rows < 1 or args.cols < 1:
        raise ConfigError("rows and cols must be positive")
    try:
        mask = cut_mask(args.rows, args.cols, args.rect)
    except DimensionMismatch as e:
        raise ConfigError(str(e))
    write_mask(mask, args.output)
    summary["output"] = args.output
    summary["unknown_pixels"] = int((~mask.known).sum())


def _cmd_inpaint(args, summary):
    cfg = SolverConfig(**{f.name: getattr(args, f.name)
                          for f in dataclasses.fields(SolverConfig)})
    img = read_mvi(args.input)
    mask = read_mask(args.mask)
    t0 = time.perf_counter()
    result, front = inpaint(img, mask, cfg)
    solve_s = time.perf_counter() - t0
    write_mvi(result, args.output)
    summary["output"] = args.output
    summary["layers"] = [dataclasses.asdict(rec) for rec in front.log]
    summary["timings"]["solve_s"] = solve_s
    summary["threads"] = cfg.resolved_threads()
    summary["versions"] = {
        "python": ".".join(str(v) for v in sys.version_info[:3]),
        "numpy": np.__version__,
    }
    summary["peak_rss_kb"] = _peak_rss_kb()


def _peak_rss_kb():
    """Peak resident set size of this process in KiB, None without getrusage."""
    try:
        import resource
    except ImportError:
        return None
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss // 1024 if sys.platform == "darwin" else rss


def _cmd_render(args, summary):
    if args.output.endswith(".ppm"):
        style = "ppm"
    elif args.output.endswith(".svg"):
        style = "svg"
    else:
        raise ConfigError("output must end in .ppm or .svg")
    img = read_mvi(args.input)
    mask = read_mask(args.mask) if args.mask else None
    render(img, mask, args.output, style)
    summary["output"] = args.output
    summary["style"] = style


def _cmd_compare(args, summary):
    result = read_mvi(args.result)
    truth = read_mvi(args.truth)
    mask = read_mask(args.mask)
    report = compare(result, truth, mask)
    sys.stdout.write(report.text())
    summary["report"] = {
        "pixels": report.pixels,
        "mean": report.mean,
        "max": report.max,
        "rms": report.rms,
    }


_COMMANDS = {
    "generate": _cmd_generate,
    "mask": _cmd_mask,
    "inpaint": _cmd_inpaint,
    "render": _cmd_render,
    "compare": _cmd_compare,
}


def _emit_summary(summary, log_path):
    text = json.dumps(summary, sort_keys=True)
    if log_path:
        try:
            with open(log_path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
            return
        except OSError as e:
            sys.stderr.write(f"log error: cannot write {log_path}: {e}; "
                             "summary follows on stderr\n")
    sys.stderr.write(text + "\n")


def run(argv) -> int:
    # a command line that does not parse leaves through _EXITS too
    summary = {"command": None, "parameters": {}, "timings": {}, "status": "ok"}
    args = None
    t0 = time.perf_counter()
    code, failure = 0, None
    try:
        args = build_parser().parse_args(argv)
        summary["command"] = args.command
        summary["parameters"] = {k: v for k, v in vars(args).items()
                                 if k not in ("command", "log")}
        _COMMANDS[args.command](args, summary)
    except SystemExit as e:  # argparse --help exits 0
        return 0 if e.code in (0, None) else USAGE_ERROR
    except tuple(_EXITS) as e:
        label, code = next(_EXITS[c] for c in type(e).__mro__ if c in _EXITS)
        summary.update(status="error", error=str(e), exit_code=code)
        if getattr(e, "vertex", None) is not None:
            summary["vertex"] = e.vertex
        layer = getattr(e, "layer", None)
        if layer is not None:
            summary["layer"] = layer
            label = f"{label}: layer {layer}"
        failure = f"{label}: {e}\n"
    summary["timings"]["total_s"] = time.perf_counter() - t0
    _emit_summary(summary, getattr(args, "log", None))
    if failure:
        sys.stderr.write(failure)
    return code


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
