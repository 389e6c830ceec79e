"""Command-line front end: analyze, verify, coulson, random.

Exit codes: 0 success / all checks passed; 1 verification or tolerance
failure, a spectrum the eigensolver rejects (one ``error:`` line on
stderr), or stdout closed before all output was written (a broken pipe);
2 usage or configuration error, including input that is not UTF-8 or does
not parse, read from a file or stdin alike.  No exit prints a traceback.
Human output uses 9 significant digits; --json emits full-precision JSON.
The NO_COLOR environment variable (or a non-tty stdout) disables styling.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys

from . import bounds as bounds_mod
from .digraph import Digraph, parse_edge_list, serialize_edge_list
from .errors import (
    DigraphValidationError,
    EdgeListParseError,
    EigensolverError,
    PurelyImaginaryEigenvalueError,
    UnknownCheckError,
)
from .oracle import (
    CHECK_NAMES,
    EXHAUSTIVE_MAX_N,
    RANDOM_MAX_N,
    Analysis,
    random_digraph,
    verify_all,
)
from .spectrum import COULSON_REL_TOL, REL_TOL_FLOOR, coulson_energy


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    return format(value, ".9g")


def _use_color() -> bool:
    return sys.stdout.isatty() and not os.environ.get("NO_COLOR")


def _bold(text: str) -> str:
    return f"\x1b[1m{text}\x1b[0m" if _use_color() else text


def build_analysis_document(d: Digraph, tol: float) -> Analysis:
    """The analysis the ``analyze`` command reports; its pieces are computed
    as the report reads them."""
    return Analysis(d, tol)


def _render_verdict(v) -> str:
    params = ", ".join(str(p) for p in v.params)
    head = f"{v.kind}({params})" if params else v.kind
    extra = f"  extra arcs: {list(v.extra_noncycle_arcs)}" if v.extra_noncycle_arcs else ""
    return f"{head}  equality={'yes' if v.predicted_equality else 'no'}{extra}"


def _render_analysis(doc: Analysis) -> str:
    d, prof, spec, rep = doc.d, doc.profile, doc.spectrum, doc.bounds
    lines = []
    lines.append(_bold("digraph") + f"   n={d.n}  arcs={d.arc_count}")
    if d.arc_count:
        lines.append("          " + " ".join(f"({i},{j})" for i, j in d.sorted_arcs))
    lines.append(_bold("profile") + f"   c2={list(prof.c2_seq)}  total={prof.c2_total}")
    lines.append(f"          t2={list(prof.t2_seq)}  sum_c2_sq={prof.sum_c2_sq}  sum_t2_sq={prof.sum_t2_sq}")
    lines.append(_bold("spectrum") + f"  rho={_fmt(spec.rho)}  energy={_fmt(spec.energy)}")
    for z in spec.eigenvalues:
        lines.append(f"          {z.real:+.9g} {z.imag:+.9g}i")
    if doc.coulson is not None:
        lines.append(f"          coulson integral = {_fmt(doc.coulson)}")
    lines.append(_bold("bounds"))
    lines.append(f"          rho lower:    walk_mean={_fmt(rep.rho_lower_walk_mean)}  "
                 f"walk_rms={_fmt(rep.rho_lower_walk_rms)}  walk_ratio={_fmt(rep.rho_lower_walk_ratio)}")
    lines.append(f"          energy upper: mcclelland={_fmt(rep.energy_upper_mcclelland)}  "
                 f"radius={_fmt(rep.energy_upper_radius)}")
    lines.append(f"                        walk_mean={_fmt(rep.energy_upper_walk_mean)}  "
                 f"walk_rms={_fmt(rep.energy_upper_walk_rms)}  walk_ratio={_fmt(rep.energy_upper_walk_ratio)}")
    lines.append(f"          walk_dominated={'yes' if rep.walk_dominated else 'no'}  "
                 f"chain_ok={'yes' if rep.chain_ok else 'no'}")
    lines.append(_bold("verdicts"))
    lines.append(f"          radius lower: {_render_verdict(doc.verdict_rho)}")
    lines.append(f"          energy upper: {_render_verdict(doc.verdict_energy)}")
    if doc.warnings:
        lines.append(_bold("warnings"))
        for w in doc.warnings:
            lines.append(f"          {w}")
    return "\n".join(lines)


def _load_digraph(path: str | None) -> Digraph | None:
    """The digraph in the edge-list file ``path`` (stdin for None or "-");
    None, after one ``error:`` line on stderr, when it cannot be read,
    decoded or parsed."""
    try:
        if path is None or path == "-":
            data = sys.stdin.buffer.read()
        else:
            with open(path, "rb") as fh:
                data = fh.read()
        return parse_edge_list(data.decode("utf-8"))
    except (EdgeListParseError, DigraphValidationError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _cmd_analyze(args) -> int:
    d = _load_digraph(args.input)
    if d is None:
        return 2
    doc = build_analysis_document(d, tol=args.tol)
    if args.json:
        print(json.dumps(doc.to_dict(), indent=2))
    else:
        print(_render_analysis(doc))
    return 0


def _cmd_verify(args) -> int:
    checks = args.checks.split(",") if args.checks is not None else None
    try:
        report = verify_all(
            args.n,
            checks=checks,
            mode=args.mode,
            count=args.count,
            p=args.p,
            seed=args.seed,
            tol=args.tol,
        )
    except (UnknownCheckError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(_bold(f"verify n={report.n}") + f"  mode={report.mode}  "
              f"digraphs={report.digraphs_checked}  elapsed={report.elapsed:.2f}s")
        for name, s in report.checks_run.items():
            line = f"  {name:32s} passed={s.passed}  failed={s.failed}"
            if s.skipped:
                line += f"  skipped={s.skipped}"
            print(line)
        if report.bound_inapplicable:
            print(f"  !! walk-ratio bound inapplicable on {len(report.bound_inapplicable)} digraph(s)")
        if report.violations:
            print(f"  {len(report.violations)} violation(s):")
            for v in report.violations[:50]:
                print(f"    {v.check}: lhs={_fmt(v.lhs)} rhs={_fmt(v.rhs)} gap={_fmt(v.gap)}")
                print("      " + v.digraph_text.replace("\n", " / "))
        else:
            print("  all checks passed")
    return 0 if report.ok else 1


def _cmd_coulson(args) -> int:
    d = _load_digraph(args.input)
    if d is None:
        return 2
    spec = Analysis(d).spectrum
    spectral = spec.energy
    try:
        integral = coulson_energy(spec, rel_tol=args.rel_tol)
    except PurelyImaginaryEigenvalueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    diff = abs(integral - spectral)
    print(f"integral  {_fmt(integral)}")
    print(f"energy    {_fmt(spectral)}")
    print(f"diff      {_fmt(diff)}")
    return 0 if diff <= args.rel_tol * max(1.0, spectral) else 1


def _cmd_random(args) -> int:
    try:
        d = random_digraph(args.n, args.p, args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(serialize_edge_list(d))
    return 0


def _checked_float(text: str, accept, expected: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan  # every accept() rejects nan, which float() also parses
    if not accept(value):
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
    return value


def _tol_arg(text: str) -> float:
    """argparse type of --tol: a tolerance in [0, 1); a huge one would
    overflow in the bound comparisons' tol * max(1, |values|)."""
    return _checked_float(text, lambda v: 0.0 <= v < 1.0, "a number in [0, 1)")


def _rel_tol_arg(text: str) -> float:
    """argparse type of --rel-tol: a relative tolerance in [REL_TOL_FLOOR, 1)."""
    return _checked_float(text, lambda v: REL_TOL_FLOOR <= v < 1.0,
                          f"a number in [{REL_TOL_FLOOR:g}, 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="digenergy",
        description="Digraph spectra, energy, walk-based spectral bounds, and their verification.",
    )
    parser.add_argument("--json", action="store_true", help="emit JSON instead of tables")
    parser.add_argument("--tol", type=_tol_arg, default=bounds_mod.DEFAULT_TOL,
                        help="comparison tolerance for bound orderings (default 1e-8)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="full analysis of one digraph")
    p_analyze.add_argument("input", nargs="?", default=None,
                           help="edge-list file (default: stdin, '-' for stdin)")
    p_analyze.set_defaults(func=_cmd_analyze)

    p_verify = sub.add_parser("verify", help="run verification checks over a digraph corpus")
    p_verify.add_argument("n", type=int, help=f"vertex count (exhaustive <= {EXHAUSTIVE_MAX_N}, "
                                              f"random <= {RANDOM_MAX_N})")
    p_verify.add_argument("--checks", default=None,
                          help="comma-separated check names (default: all); known: "
                               + ",".join(CHECK_NAMES))
    p_verify.add_argument("--mode", choices=["exhaustive", "random"], default="exhaustive")
    p_verify.add_argument("--count", type=int, default=1000, help="random mode: sample count")
    p_verify.add_argument("--p", type=float, default=0.5, help="random mode: arc probability")
    p_verify.add_argument("--seed", type=int, default=0, help="random mode: base seed")
    p_verify.set_defaults(func=_cmd_verify)

    p_coulson = sub.add_parser("coulson", help="energy via the Coulson-type integral")
    p_coulson.add_argument("input", nargs="?", default=None)
    p_coulson.add_argument("--rel-tol", dest="rel_tol", type=_rel_tol_arg, default=COULSON_REL_TOL)
    p_coulson.set_defaults(func=_cmd_coulson)

    p_random = sub.add_parser("random", help="emit a reproducible random digraph")
    p_random.add_argument("n", type=int)
    p_random.add_argument("p", type=float)
    p_random.add_argument("seed", type=int)
    p_random.set_defaults(func=_cmd_random)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return status
    except EigensolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The flush at exit would raise again: send what is left to devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def run() -> None:
    """The process entry of ``python -m digenergy`` and of the
    ``digenergy`` script: ``main`` on the command line, then exit with its
    status.

    Every module is imported by now, so ``gc.freeze()`` moves the objects
    the interpreter, numpy and the package have made so far (about 22,000)
    out of the collector's reach: the full collection at interpreter exit
    skips them, and the exit takes about 5 ms instead of 20 ms (2-vCPU
    x86_64 host, Python 3.11, numpy 2.4).  ``main`` does not do this
    itself, because tests and embedding callers call it in a process that
    goes on.
    """
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    run()
