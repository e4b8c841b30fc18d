"""Launcher of one ``xring serve`` life for the service_mixed workload.

Runs the same ``serve_forever`` the ``xring serve`` command runs, on
port 0 (the bound address lands in ``<store>/address``).  With
``--spans FILE`` it first wraps the synthesis stages, the durable L2
store's ``get``/``put`` and the job store's ``append``, and writes the
spans to ``FILE`` once the server has drained after SIGTERM.

    python3 xringbench/server.py --store DIR --cache DIR [--spans FILE]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from harness import SRC, SYNTH_TARGETS, Spans, write_spans

#: Generous enough that the priming life can queue every primed job.
QUEUE_LIMIT = 256


def _l2_hit(args, kwargs, result) -> dict:
    return {"hit": result is not None}


def _append_attrs(args, kwargs, result) -> dict:
    record = args[1]
    return {
        "state": record.state,
        "bytes": len(json.dumps(record.to_line(), sort_keys=True)) + 1,
    }


SERVER_TARGETS = (
    ("repro.parallel.store", "PersistentStore.get", "l2.get", _l2_hit),
    ("repro.parallel.store", "PersistentStore.put", "l2.put"),
    ("repro.service.store", "JobStore.append", "jobstore.append", _append_attrs),
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", required=True)
    parser.add_argument("--cache", required=True)
    parser.add_argument("--spans", default="")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    from repro.service import ServiceConfig, serve_forever

    spans = None
    if args.spans:
        spans = Spans()
        spans.install(SYNTH_TARGETS + SERVER_TARGETS)
    config = ServiceConfig(
        port=0, store_dir=args.store, cache_dir=args.cache, queue_limit=QUEUE_LIMIT
    )
    report = serve_forever(config)
    if spans is not None:
        write_spans(Path(args.spans), spans.collect())
    return 0 if report.get("clean") else 1


if __name__ == "__main__":
    sys.exit(main())
