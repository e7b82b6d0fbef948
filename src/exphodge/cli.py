"""Command-line interface.

Exit codes: 0 success, 2 malformed input, 3 degenerate input under
--require-nondegenerate, 4 polytope not full-dimensional, 5 internal
integrity failure.  Every computation is exact and deterministic, so JSON
output is reproducible by construction, run to run, apart from the timing
field.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import curve as curve_mod
from .errors import (DegenerateInputError, ExpHodgeError, IntegrityError,
                     NotFullDimensionalError, ParseError)
from .laurent import LaurentPolynomial, format_laurent, parse_laurent
from .nondegen import is_nondegenerate
from .polytope import newton_polytope
from .spectrum import analyze, spectrum_euler, spectrum_rank
from .derham import betti_numbers


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exphodge",
        description="Exact Hodge-type spectra of exponentially twisted "
                    "de Rham cohomology on tori.")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("poly", help="Laurent polynomial, e.g. 'x + x^-1'")
    common.add_argument("--vars", default="", help="comma-separated variable names")
    common.add_argument("--json", action="store_true", help="machine-readable output")
    # each of these goes only on the subcommands that read it
    guard = argparse.ArgumentParser(add_help=False)
    guard.add_argument("--require-nondegenerate", action="store_true",
                       help="exit 3 when the input is degenerate")
    mode = argparse.ArgumentParser(add_help=False)
    mode.add_argument("--mode", choices=("euler", "rank", "both"), default="both")
    plot = argparse.ArgumentParser(add_help=False)
    plot.add_argument("--plot", default=None, metavar="FILE",
                      help="write an SVG (polytope for n<=2 plus spectrum bars)")

    for name, doc, flags in [
        ("analyze", "full report: polytope, nondegeneracy, Betti, spectra, checks",
         [guard, mode, plot]),
        ("spectrum", "Hodge spectrum only", [guard, mode]),
        ("nondegen", "nondegeneracy verdict", [guard]),
        ("volume", "Newton polytope summary and normalized volume", []),
        ("curve", "one-variable filtration comparison and duality", []),
        ("betti", "twisted de Rham Betti numbers", []),
    ]:
        sub.add_parser(name, parents=[common, *flags], help=doc)
    return parser


def _parse_input(args) -> LaurentPolynomial:
    names = tuple(v.strip() for v in args.vars.split(",") if v.strip())
    return parse_laurent(args.poly, names)


def _spectrum_json(f, mode):
    out = {}
    if mode in ("euler", "both"):
        out["euler"] = spectrum_euler(f).to_json()
    if mode in ("rank", "both"):
        out["rank"] = spectrum_rank(f).to_json()
    return out


def _fmt_spec(entries) -> str:
    return "{" + ", ".join(f"({e['lambda']}, {e['mult']})" for e in entries) + "}"


def _guard_degenerate(report, args):
    if args.require_nondegenerate and report.is_degenerate:
        raise DegenerateInputError("input is degenerate")


def run(argv=None, out=sys.stdout, err=sys.stderr) -> int:
    args = build_parser().parse_args(argv)
    try:
        f = _parse_input(args)
        if args.command == "analyze":
            report = analyze(f, mode=args.mode)
            _guard_degenerate(report.nondegeneracy, args)
            if args.plot:
                _write_svg(args.plot, report)
            if args.json:
                out.write(json.dumps(report.to_json(), indent=2) + "\n")
            else:
                _print_analysis(report, out)
        elif args.command == "spectrum":
            report = is_nondegenerate(f)
            _guard_degenerate(report, args)
            mode = args.mode
            if report.is_degenerate and mode != "rank":
                mode = "rank"
                err.write("note: degenerate input, combinatorial route suppressed\n")
            spec = _spectrum_json(f, mode)
            if args.json:
                out.write(json.dumps({"input": _input_json(f), "spectrum": spec}, indent=2) + "\n")
            else:
                for route, entries in spec.items():
                    out.write(f"{route}: {_fmt_spec(entries)}\n")
        elif args.command == "nondegen":
            report = is_nondegenerate(f)
            _guard_degenerate(report, args)
            if args.json:
                out.write(json.dumps({"input": _input_json(f),
                                      "nondegeneracy": report.to_json()}, indent=2) + "\n")
            else:
                line = report.verdict
                if report.witness is not None:
                    face = str(report.witness_face).replace(" ", "")
                    point = "(" + ",".join(str(w) for w in report.witness) + ")"
                    line += f", face {face}, witness {point}"
                    if report.witness_field != "QQ":
                        line += f" over {report.witness_field}"
                out.write(line + "\n")
        elif args.command == "volume":
            poly = newton_polytope(f)
            summary = poly.summary()
            summary["nvol"] = poly.normalized_volume()
            summary["origin_interior"] = poly.contains_origin_interior()
            if args.json:
                out.write(json.dumps({"input": _input_json(f), "polytope": summary},
                                     indent=2) + "\n")
            else:
                out.write(f"dim {summary['dim']}, nvol {summary['nvol']}, "
                          f"vertices {summary['vertices']}\n")
        elif args.command == "curve":
            if f.nvars != 1:
                raise ValueError("curve command needs a one-variable input")
            rep = curve_mod.compare_filtrations(f, spectrum_rank(f))
            if args.json:
                out.write(json.dumps({"input": _input_json(f), "curve": rep.to_json()},
                                     indent=2) + "\n")
            else:
                _print_curve(rep, out)
        elif args.command == "betti":
            b = betti_numbers(f)
            if args.json:
                out.write(json.dumps({"input": _input_json(f), "betti": b}, indent=2) + "\n")
            else:
                out.write(" ".join(str(x) for x in b) + "\n")
        return 0
    except ParseError as exc:
        err.write(f"error: {exc}\n")
        return 2
    except DegenerateInputError as exc:
        err.write(f"error: {exc}\n")
        return 3
    except NotFullDimensionalError as exc:
        err.write(f"error: {exc}\n")
        return 4
    except IntegrityError as exc:
        err.write(f"internal integrity failure: {exc}\n")
        return 5
    except (ExpHodgeError, ValueError) as exc:
        err.write(f"error: {exc}\n")
        return 2


def _input_json(f: LaurentPolynomial) -> dict:
    return {"poly": format_laurent(f), "vars": list(f.var_names), "n": f.nvars}


def _print_analysis(report, out) -> None:
    out.write(f"input: {format_laurent(report.f)}  (n = {report.f.nvars})\n")
    s = report.polytope.summary()
    out.write(f"polytope: dim {s['dim']}, nvol {report.nvol}, vertices {s['vertices']}\n")
    out.write(f"nondegeneracy: {report.nondegeneracy.verdict}"
              f"{' (certified)' if report.nondegeneracy.certified else ''}\n")
    if report.nondegeneracy.witness is not None:
        out.write(f"  witness {tuple(str(w) for w in report.nondegeneracy.witness)} "
                  f"on face {report.nondegeneracy.witness_face}\n")
    out.write(f"betti: {report.betti}\n")
    for route, spec in report.spectra.items():
        out.write(f"spectrum[{route}]: {spec}\n")
    for name, result in report.checks.items():
        out.write(f"check[{name}]: {result.status}\n")
    for w in report.warnings:
        out.write(f"warning: {w}\n")
    out.write(f"timing: {report.timing_ms} ms\n")


def _print_curve(rep, out) -> None:
    out.write("jump    twist  classical  compact  toric\n")
    for i, lam in enumerate(rep.jumps):
        out.write(f"{str(lam):7s} {rep.twist_dims[i]:5d}  {rep.deligne_dims[i]:9d}  "
                  f"{rep.compact_dims[i]:7d}  {rep.toric_dims[i]:5d}\n")
    out.write(f"dims agree: {rep.dims_agree}; subspaces agree: {rep.subspaces_agree}; "
              f"injective levels: {rep.deligne_injective}; duality: {rep.duality_ok}\n")


# ---------------------------------------------------------------------------
# SVG output (presentational only)
# ---------------------------------------------------------------------------

def _write_svg(path: str, report) -> None:
    poly = report.polytope
    parts = ['<svg xmlns="http://www.w3.org/2000/svg" width="640" height="320" '
             'viewBox="0 0 640 320">',
             '<rect width="640" height="320" fill="white"/>']
    if poly.nvars <= 2:
        verts = [(v[0], v[1] if len(v) > 1 else 0) for v in poly.vertices]
        xs = [v[0] for v in verts] + [0]
        ys = [v[1] for v in verts] + [0]
        span = max(max(xs) - min(xs), max(ys) - min(ys), 1)
        scale = 240 / span

        def px(v):
            return (40 + (v[0] - min(xs)) * scale, 280 - (v[1] - min(ys)) * scale)

        hull = _ccw_order(verts)
        pts = " ".join(f"{x:.1f},{y:.1f}" for x, y in (px(v) for v in hull))
        parts.append(f'<polygon points="{pts}" fill="#cfe3ff" stroke="#225" stroke-width="2"/>')
        for v in verts:
            x, y = px(v)
            parts.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="4" fill="#225"/>')
        ox, oy = px((0, 0))
        parts.append(f'<circle cx="{ox:.1f}" cy="{oy:.1f}" r="4" fill="#a22"/>')
    spec = report.spectra.get("rank") or report.spectra.get("euler")
    if spec is not None and spec.entries:
        bar_w = 280 / max(len(spec.entries), 1)
        max_m = max(m for _, m in spec.entries)
        for i, (lam, m) in enumerate(spec.entries):
            h = 200 * m / max_m
            x = 330 + i * bar_w
            parts.append(f'<rect x="{x:.1f}" y="{280 - h:.1f}" width="{bar_w * 0.8:.1f}" '
                         f'height="{h:.1f}" fill="#4a7"/>')
            parts.append(f'<text x="{x + bar_w * 0.4:.1f}" y="300" font-size="12" '
                         f'text-anchor="middle">{lam}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


def _ccw_order(verts):
    cx = sum(v[0] for v in verts) / len(verts)
    cy = sum(v[1] for v in verts) / len(verts)
    import math

    return sorted(verts, key=lambda v: math.atan2(v[1] - cy, v[0] - cx))


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
