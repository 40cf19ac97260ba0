"""Start one ``repro`` CLI process for the benchmark, optionally traced.

Usage::

    python perfbench/entry.py --out STATE.json [--trace] -- serve --port 0 ...
    python perfbench/entry.py --out STATE.json -- cluster node --id n0 ...

Everything after ``--`` goes unchanged to :func:`repro.cli.main`, so the
process is the normal ``repro serve`` / ``repro cluster node``. Before
calling it, this script records every ``WalWriter`` the process creates
and, with ``--trace``, patches the layer boundaries with spans
(:func:`layers.install`). When ``main`` returns (SIGTERM stops both
commands cleanly) it writes ``--out``: the spans and counters, the
WAL writers' record and batch counts, and the process's peak RSS.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import common  # noqa: E402  (needs the path above)
from tracer import Tracer  # noqa: E402


def main(argv: list) -> int:
    split = argv.index("--")
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv[:split])

    from repro import cli
    from repro.cluster import wal

    tracer = Tracer()
    if args.trace:
        import layers

        layers.install(tracer, role="server")
    writers = []
    original_init = wal.WalWriter.__init__

    def recording_init(self, *a, **k):
        original_init(self, *a, **k)
        writers.append(self)

    wal.WalWriter.__init__ = recording_init
    try:
        return cli.main(argv[split + 1:])
    finally:
        tracer.dump(
            args.out,
            traced=args.trace,
            wal_records=sum(w.records_written for w in writers),
            wal_batches=sum(w.batches_written for w in writers),
            peak_rss_mb=common.peak_rss_mb("self"),
        )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
