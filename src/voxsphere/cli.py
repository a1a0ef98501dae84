"""Command-line interface.

Subcommands:

* ``generate`` -- materialize a shape and export it (canonical text, CSV,
  or ASCII PLY).
* ``counts`` -- stream count-table rows (r, primitive, absentee, total,
  alpha) as CSV for a list or range of radii.
* ``verify`` -- run the self-check suites and the published-table replays.

Exit codes: 0 success, 1 verification failure, 2 invalid arguments,
3 materialization cap exceeded.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import analysis, checks, circle, io, solid, sphere

# Materializing a solid beyond this radius needs gigabytes.  Counts stream.
# A hollow row costs O(r) and no sweep: `counts --kind sphere --radii
# 100000` takes about 0.35 s, start-up included.  The solid rows need the
# gap sweep, whose build is quadratic in the largest radius: about 0.6 s to
# r = 10^4 and 45-50 s to r = 10^5 on a 2-vCPU Xeon.  One cap serves both
# kinds: the largest radius whose solid build time is measured.
SOLID_MATERIALIZE_CAP = 1500
COUNT_RADIUS_CAP = 100_000

GENERATORS = {
    "circle": circle.circle_pixels,
    "disc": circle.disc_pixels,
    "disc-absentees": circle.disc_absentees,
    "sphere": sphere.sphere_voxels,
    "sphere-absentees": sphere.sphere_absentees,
    "sphere-complete": sphere.completed_sphere_voxels,
    "solid": solid.union_completed_spheres,
    "solid-absentees": solid.solid_absentee_voxels,
    "solid-complete": solid.completed_solid_voxels,
}
SOLID_SHAPES = {"solid", "solid-absentees", "solid-complete"}


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
    vox = GENERATORS[args.shape](args.radius)
    io.write_text(io.emit(vox, args.format), args.out)
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
    g.add_argument("shape", choices=sorted(GENERATORS))
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
    if out is not None and not os.path.isdir(os.path.dirname(os.path.abspath(out))):
        print(f"error: no such directory for --out: {out}", file=sys.stderr)
        return 2
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
