"""The server process of the ``served_mix`` workload.

Builds a durable pgFMU engine (``repro.connect(path=...)``, fsync on), loads
its data, serves it with ``repro.serve`` and prints ``ready <port> <share>
<spent>``: the share of full host speed a ``speed.SpeedSampler`` measured
while it set up, and the seconds the sampler itself took.  It
then reads commands from standard input, one per line:

* ``sample`` starts a ``SpeedSampler`` in this process and answers
  ``sampling 0``; ``sampled`` stops it and answers ``sampled <samples>
  <share>``;
* ``trace`` installs the span wrappers (server and engine layers) and
  answers ``traced <wal bytes>``;
* ``stop`` writes the spans (if any) to ``--spans`` and answers
  ``stopped <wal bytes>``, then the process exits at once, without a
  graceful server shutdown, like a crash.  Every acknowledged commit was
  fsynced, so a reopened store must hold it.

Run by ``served.py``; not meant to be started by hand.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from common import use_checkout_sources
from speed import SpeedSampler


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--db", required=True)
    parser.add_argument("--storage", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args()
    setup_speed = SpeedSampler().start()
    use_checkout_sources()

    import repro
    from served import build_engine

    conn = repro.connect(path=args.db, storage_dir=args.storage, register_ml=False)
    build_engine(conn, args.seed, args.storage)
    server = repro.serve(conn.database)
    storage = conn.database.storage
    setup_speed.stop()
    _reply(f"ready {server.address[1]} {setup_speed.full_speed_share()!r} {setup_speed.spent!r}")

    tracer = None
    sampler = SpeedSampler()
    for line in sys.stdin:
        command = line.strip()
        if command == "sample":
            sampler.start()
            _reply("sampling 0")
        elif command == "sampled":
            sampler.stop()
            _reply(f"sampled {len(sampler.samples)} {sampler.full_speed_share()!r}")
        elif command == "trace":
            import spans

            tracer = spans.Tracer()
            spans.install_server(tracer)
            spans.install_engine(tracer)
            spans.wrap_udfs(tracer, conn.database)
            _reply(f"traced {storage.wal_size()}")
        elif command == "stop":
            break
    wal = storage.wal_size()
    if tracer is not None:
        with open(args.spans, "w") as out:
            json.dump({"spans": tracer.spans, "counts": dict(tracer.counts)}, out)
    _reply(f"stopped {wal}")
    os._exit(0)


def _reply(text: str) -> None:
    sys.stdout.write(text + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
