"""The study server of the ``service`` workload, as a child process.

``python -m perfbench.server '<json>'`` builds exactly the tiered store
``serve(store=<dir>)`` builds — a ``MemoryStore`` front over an fsyncing
``JSONDirectoryStore`` — with each tier and the tiered store wrapped in a
benchmark-side :class:`~perfbench.layers.TimingStore`, and passes it to
``serve(workers=...)``.  It prints its URL, serves until a line arrives
on stdin, then closes the server and prints its own layer numbers.
"""

from __future__ import annotations

import time

_CHILD_START = time.perf_counter()

import sys  # noqa: E402

from perfbench import common  # noqa: E402

URL_PREFIX = "PERFBENCH-URL "


def main() -> None:
    args = common.child_args()
    tracer = common.Tracer(args["trace"])
    from repro.api import JSONDirectoryStore, MemoryStore, TieredStore
    from repro.service import serve

    from perfbench.layers import TimingStore

    import_s = time.perf_counter() - _CHILD_START
    front = TimingStore(MemoryStore(), tracer, "store.front")
    back = TimingStore(JSONDirectoryStore(args["store_dir"]), tracer, "store.back")
    store = TimingStore(TieredStore(front, back), tracer, "store")
    server = serve(store=store, workers=args["workers"])
    try:
        print(URL_PREFIX + server.url, flush=True)
        sys.stdin.readline()
    finally:
        server.close(drain=True)
    common.emit_result(
        {
            "import_s": import_s,
            "peak_rss_mb": common.peak_rss_mb(),
            "store_layer": common.store_metrics(
                {"front": front.counts, "back": back.counts}, tracer.spans
            ),
            "self_times": tracer.self_times(),
            "spans": tracer.spans,
        }
    )


if __name__ == "__main__":
    main()
