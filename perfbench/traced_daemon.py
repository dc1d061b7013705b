"""``repro serve --shards 1 --port 0`` with the codec and inference calls
wrapped by the benchmark's tracer.

Run with ``src`` on ``PYTHONPATH``.  On SIGTERM the daemon drains as
usual; then this script prints one ``TRACE <json>`` line with the
per-span totals and exits with the daemon's code.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Tracer  # noqa: E402


def main() -> int:
    from repro.service import daemon
    from repro.service.inference import BatchedInferenceService

    tracer = Tracer()
    tracer.wrap(daemon, "encode_frame", "codec.encode")
    tracer.wrap(daemon, "decode_body", "codec.decode")
    tracer.wrap(BatchedInferenceService, "submit", "inference.submit")
    tracer.wrap(BatchedInferenceService, "flush", "inference.flush")
    try:
        code = daemon.serve_main(host="127.0.0.1", port=0, shards=1)
    finally:
        tracer.close()
    sys.stdout.write("TRACE " + json.dumps(tracer.summary()) + "\n")
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
