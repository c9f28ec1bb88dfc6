"""Launch ``repro``'s experiment service for the benchmark.

Equivalent to ``repro serve --port 0`` with a serial daemon, plus:

* the bound URL is written to ``--url-file`` once the server is ready;
* with ``--trace-out``, the layer wrappers are installed before
  ``serve_forever()``; SIGUSR1 turns recording on, and the spans are
  written to that file when the server exits;
* SIGTERM stops the server cleanly.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import spans  # noqa: E402


def _interrupt(signum, frame) -> None:
    raise KeyboardInterrupt


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--store", required=True)
    parser.add_argument("--url-file", required=True)
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)

    from repro.service.api import ExperimentService

    tracer = spans.Tracer()
    if args.trace_out:
        tracer.install_service_layers()
        signal.signal(signal.SIGUSR1, lambda *_: tracer.enable())
    signal.signal(signal.SIGTERM, _interrupt)
    service = ExperimentService(args.store, port=0)
    tmp = f"{args.url_file}.tmp"
    with open(tmp, "w") as fh:
        fh.write(service.url + "\n")
    os.replace(tmp, args.url_file)
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        if args.trace_out:
            tracer.disable()
            tracer.dump(args.trace_out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
