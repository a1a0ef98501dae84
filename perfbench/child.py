"""One benchmark operation in a fresh interpreter.

    python3 perfbench/child.py [--trace FILE] cli ARGS...
    python3 perfbench/child.py [--trace FILE] queries R1,R2,...

``cli`` runs the public command line (``voxsphere.cli.main``, the
``voxsphere`` console script) with ARGS.  ``queries`` calls
``analysis.sphere_count_row(r)`` and then ``analysis.solid_count_row(r)``
for each radius in the order given and prints one CSV line per row:
``kind,r,primitive,absentee,total``.

With ``--trace FILE`` the spans of ``spans.SPANS`` are recorded and written
to FILE as JSON when the operation ends; the program's output is unchanged.
"""

from __future__ import annotations

import json
import sys
import time


def _queries(analysis, spec: str) -> int:
    lines = []
    for r in (int(tok) for tok in spec.split(",")):
        for kind in ("sphere", "solid"):
            row = getattr(analysis, f"{kind}_count_row")(r)
            lines.append(f"{kind},{row.r},{row.primitive},{row.absentee},{row.total}")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def main(argv: list[str]) -> int:
    trace_path = None
    if argv[:1] == ["--trace"]:
        trace_path, argv = argv[1], argv[2:]
    mode, rest = argv[0], argv[1:]

    t0 = time.perf_counter()
    import voxsphere.analysis
    import voxsphere.cli
    import_s = time.perf_counter() - t0

    recorder = None
    if trace_path is not None:
        from spans import Recorder
        recorder = Recorder()
        recorder.install()
    try:
        if mode == "cli":
            return voxsphere.cli.main(rest)
        if mode == "queries":
            return _queries(voxsphere.analysis, rest[0])
        raise SystemExit(f"unknown mode {mode!r}")
    finally:
        if recorder is not None:
            record = recorder.summary()
            record["import_s"] = import_s
            with open(trace_path, "w") as fh:
                json.dump(record, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
