"""Command-line interface.

Subcommands:

* ``generate`` -- export a shape (canonical text, CSV, or ASCII PLY), one
  x-block at a time, checked against its exact closed count.
* ``counts`` -- stream count-table rows (r, primitive, absentee, total,
  alpha) as CSV for a list or range of radii.
* ``verify`` -- run the self-check suites and the published-table replays.

Exit codes: 0 success, 1 verification failure, 2 invalid arguments,
3 materialization cap exceeded, 4 a shape's rows disagree with its exact
count (a fault in a builder; an --out file is neither written nor changed).
"""

from __future__ import annotations

import argparse
import os
import sys

from . import analysis, checks, circle, io, solid, sphere

# generate streams every shape in x-blocks, so for the three solid shapes
# this cap bounds time and output size, not memory: the completed solid at
# r = 1500 is 1.4e10 rows, over 1.5e11 bytes of text.  The solid count rows
# need the gap sweep, quadratic in the largest radius: about 0.6 s to
# r = 10^4 and 45-50 s to r = 10^5 on a 2-vCPU Xeon, the cap of both kinds.
SOLID_MATERIALIZE_CAP = 1500
COUNT_RADIUS_CAP = 100_000

SOLID_SHAPES = {"solid", "solid-absentees", "solid-complete"}
# Every shape generate exports: (canonical x-blocks, exact row count).  The
# circle is one block.
SHAPES = {
    "circle": (lambda r: [circle.circle_pixels(r)], circle.circle_count),
    "disc": (circle.disc_blocks, circle.disc_count),
    "disc-absentees": (circle.disc_absentee_blocks, circle.disc_absentee_count),
    "sphere": (sphere.sphere_blocks, sphere.sphere_surface_count),
    "sphere-absentees": (sphere.sphere_absentee_blocks, sphere.sphere_absentee_count),
    "sphere-complete": (sphere.completed_sphere_blocks, sphere.completed_sphere_count),
    "solid": (solid.union_blocks, solid.union_count),
    "solid-absentees": (solid.solid_absentee_blocks, solid.solid_absentee_count),
    "solid-complete": (solid.completed_solid_blocks, solid.completed_solid_count),
}


def _parse_radii(spec: str) -> list[int]:
    """Comma list of radii or "a..b[:step]" ranges; values may mix.  Each
    value must lie in 0..COUNT_RADIUS_CAP, checked before a range is
    expanded."""
    radii = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            raise ValueError("empty radius token")
        if ".." in token:
            lo_s, _, rest = token.partition("..")
            hi_s, _, step_s = rest.partition(":")
            lo, hi = int(lo_s), int(hi_s)
            step = int(step_s) if step_s else 1
            if step <= 0 or hi < lo:
                raise ValueError(f"bad range {token!r}")
        else:
            lo = hi = int(token)
            step = 1
        if lo < 0:
            raise ValueError("radii must be non-negative")
        if hi > COUNT_RADIUS_CAP:
            raise ValueError(f"counts support radii up to {COUNT_RADIUS_CAP}")
        radii.extend(range(lo, hi + 1, step))
    return radii


def cmd_generate(args) -> int:
    if args.radius < 0:
        print("error: radius must be non-negative", file=sys.stderr)
        return 2
    if args.shape in SOLID_SHAPES and args.radius > SOLID_MATERIALIZE_CAP:
        print(f"error: materializing {args.shape} beyond r={SOLID_MATERIALIZE_CAP} "
              "is capped; use the counts subcommand for large radii",
              file=sys.stderr)
        return 3
    blocks_of, count_of = SHAPES[args.shape]
    try:
        io.write_text(io.stream(blocks_of(args.radius), args.format,
                                count_of(args.radius)), args.out)
    except io.CountMismatch as exc:
        print(f"error: {args.shape} -r {args.radius}: {exc}", file=sys.stderr)
        return 4
    return 0


def cmd_counts(args) -> int:
    try:
        radii = _parse_radii(args.radii)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rows = (analysis.sphere_table(radii) if args.kind == "sphere"
            else analysis.solid_table(radii))
    lines = ["r,primitive,absentee,total,alpha"]
    for row in rows:
        lines.append(f"{row.r},{row.primitive},{row.absentee},{row.total},"
                     f"{analysis.alpha(row)}")
    io.write_text("\n".join(lines) + "\n", args.out)
    return 0


def cmd_verify(args) -> int:
    if args.max_r < 0:
        print("error: --max-r must be non-negative", file=sys.stderr)
        return 2
    results = checks.run(args.suite, args.max_r, long=args.long)
    for res in results:
        print(res.line())
    failed = [res for res in results if res.gating and not res.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed"
          + (f", {len(failed)} FAILED" if failed else ""))
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="voxsphere",
        description="Digital circles, spheres and solid spheres with exact "
                    "absentee-voxel accounting.")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="export a pixel or voxel set")
    g.add_argument("shape", choices=sorted(SHAPES))
    g.add_argument("--radius", "-r", type=int, required=True)
    g.add_argument("--format", choices=io.FORMATS, default="canonical-text")
    g.add_argument("--out", default=None,
                   help="output path (default: standard output)")
    g.set_defaults(func=cmd_generate)

    c = sub.add_parser("counts", help="emit count-table rows as CSV")
    c.add_argument("--kind", choices=["sphere", "solid"], required=True)
    c.add_argument("--radii", required=True,
                   help='comma list and/or ranges, e.g. "0..10,20..100:10"')
    c.add_argument("--out", default=None)
    c.set_defaults(func=cmd_counts)

    v = sub.add_parser("verify", help="run self-check suites")
    v.add_argument("--suite", choices=["disc", "sphere", "solid", "all"],
                   default="all")
    v.add_argument("--max-r", type=int, default=32)
    v.add_argument("--long", action="store_true",
                   help="replay the published tables over their full range")
    v.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # checked before any work: io.write_text would fail only at the end
    out = getattr(args, "out", None)
    if out is not None and (not out or out.endswith(os.sep) or os.path.isdir(out)):
        print(f"error: --out must name a file: {out!r}", file=sys.stderr)
        return 2
    if out is not None and not os.path.isdir(os.path.dirname(os.path.abspath(out))):
        print(f"error: no such directory for --out: {out}", file=sys.stderr)
        return 2
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
