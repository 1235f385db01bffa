"""Command-line interface for the C(2n,3) polynomial computations.

Subcommands: compute (A-polynomial), rm (Riley-Mednykh polynomial),
verify (seeded numeric representation checks), newton (Newton polygon).
Exit codes: 0 on success, 1 when a verification or cross-path check fails
or the reader closes stdout early, 2 on malformed usage, including
|n| > MAX_ABS_N and --samples > MAX_SAMPLES.
All output is deterministic for fixed flags and seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from .apoly import apoly_substitution, apoly_theorem, newton_polygon
from .laurent import LaurentPoly
from .repcheck import sample_unit_modulus, verify_family
from .rmpoly import rm_closed, rm_recursive

MAX_ABS_N = 100
MAX_SAMPLES = 1000


def _n_values(text: str) -> list[int]:
    """Parse '3' or an inclusive range '-3..3' into the list of n values."""
    raw = text.strip()
    try:
        if ".." in raw:
            lo_text, hi_text = raw.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
        else:
            lo = hi = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad n value or range {text!r}") from None
    if lo > hi:
        raise argparse.ArgumentTypeError(f"n range bounds out of order in {text!r}")
    if max(-lo, hi) > MAX_ABS_N:
        raise argparse.ArgumentTypeError(f"|n| must be at most {MAX_ABS_N} in {text!r}")
    return list(range(lo, hi + 1))


def _render(poly: LaurentPoly, fmt: str) -> str:
    if fmt == "json":
        return poly.to_json()
    if fmt == "latex":
        return poly.to_latex()
    return poly.to_text()


def _cmd_routes(args, out) -> int:
    """compute and rm: each n by the chosen route, or by both with their agreement.

    The route names are read from this module's globals when the command
    runs, so a rebound module attribute (a test double, a tracer) is the
    function that gets called.
    """
    if args.command == "compute":
        routes = {"theorem": apoly_theorem, "substitution": apoly_substitution}
    else:
        routes = {"closed": rm_closed, "recursive": rm_recursive}
    status = 0
    multi = len(args.n) > 1
    for n in args.n:
        if args.path != "both":
            label = f"n={n}: " if multi and args.format != "json" else ""
            out.write(label + _render(routes[args.path](n).poly, args.format) + "\n")
            continue
        polys = {path: route(n).poly for path, route in routes.items()}
        first, second = polys.values()
        agree = first == second
        # equal polynomials render to equal text, so an agreeing pair is rendered once
        text = _render(first, args.format)
        texts = dict(zip(polys, (text, text if agree else _render(second, args.format))))
        if args.format == "json":
            fields = "".join(f'"{path}":{body},' for path, body in texts.items())
            out.write(f'{{"n":{n},{fields}"paths_agree":{json.dumps(agree)}}}\n')
        else:
            label = f"n={n} " if multi else ""
            for path, body in texts.items():
                out.write(f"{label}{path}: {body}\n")
            out.write(f"{label}paths_agree: {'true' if agree else 'false'}\n")
        if not agree:
            print(f"paths disagree for n={n}", file=sys.stderr)
            status = 1
    return status


def _cmd_verify(args, out) -> int:
    """verify: one JSON document, each n's entry in its results written as soon as it is checked.

    The bytes are those of json.dumps of the whole document (tol is a
    float, which json writes as its repr), joined from each report's own
    to_json text; n = 0 has no reports and the status "degenerate".
    """
    samples = sample_unit_modulus(args.samples, args.seed)
    out.write(f'{{"seed":{args.seed},"samples":{args.samples},"tol":{args.tol!r},"results":[')
    status = 0
    for i, n in enumerate(args.n):
        reports = verify_family(n, samples, args.tol) if n else []
        ok = all(r.passed for r in reports)
        if not ok:
            status = 1
        verdict = "degenerate" if n == 0 else "passed" if ok else "failed"
        body = ",".join(r.to_json() for r in reports)
        out.write(f'{"," if i else ""}{{"n":{n},"status":"{verdict}","reports":[{body}]}}')
    out.write("]}\n")
    return status


def _cmd_newton(args, out) -> int:
    for n in args.n:
        out.write(newton_polygon(apoly_theorem(n)).to_json() + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="c2n3",
        description="Exact A-polynomials and Riley-Mednykh polynomials of the knots C(2n,3).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="A-polynomial A_2n(L, M)")
    compute.add_argument("--n", required=True, type=_n_values, metavar="N[..N]",
                         help="integer or inclusive range like -3..3")
    compute.add_argument("--path", choices=("theorem", "substitution", "both"),
                         default="theorem")
    compute.add_argument("--format", choices=("text", "latex", "json"), default="text")

    rm = sub.add_parser("rm", help="Riley-Mednykh polynomial P_2n(x, M)")
    rm.add_argument("--n", required=True, type=_n_values, metavar="N[..N]")
    rm.add_argument("--path", choices=("closed", "recursive", "both"), default="closed")
    rm.add_argument("--format", choices=("text", "latex", "json"), default="text")

    verify = sub.add_parser("verify", help="numeric representation checks on a seeded grid")
    verify.add_argument("--n", required=True, type=_n_values, metavar="N[..N]")
    verify.add_argument("--samples", type=int, default=20)
    verify.add_argument("--tol", type=float, default=1e-8)
    verify.add_argument("--seed", type=int, default=0)

    newton = sub.add_parser("newton", help="Newton polygon of A_2n")
    newton.add_argument("--n", required=True, type=_n_values, metavar="N[..N]")
    return parser


def _merge_n_flag(argv: list[str]) -> list[str]:
    """Join '--n VALUE' into '--n=VALUE' so ranges like -3..3 are not read as flags."""
    merged = []
    i = 0
    while i < len(argv):
        if argv[i] == "--n" and i + 1 < len(argv):
            merged.append(f"--n={argv[i + 1]}")
            i += 2
        else:
            merged.append(argv[i])
            i += 1
    return merged


# The one parser of this process, built by the first main call; parsing leaves it as it was.
_shared_parser = functools.cache(build_parser)


def main(argv=None, out=None) -> int:
    parser = _shared_parser()
    args = parser.parse_args(_merge_n_flag(sys.argv[1:] if argv is None else list(argv)))
    if args.command == "verify":
        if not 1 <= args.samples <= MAX_SAMPLES:
            parser.error(f"--samples must be between 1 and {MAX_SAMPLES}")
        if not (math.isfinite(args.tol) and args.tol > 0):
            parser.error("--tol must be a finite positive number")
    handlers = {
        "compute": _cmd_routes,
        "rm": _cmd_routes,
        "verify": _cmd_verify,
        "newton": _cmd_newton,
    }
    return handlers[args.command](args, out if out is not None else sys.stdout)


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (c2n3 ... | head): point it at devnull, so
        # that the flush at exit cannot fail again, and exit 1 with no traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    raise SystemExit(code)


if __name__ == "__main__":
    entry()
