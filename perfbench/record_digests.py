"""Record the scan digests that worker.py compares each scan against.

    python3 perfbench/record_digests.py

Run it only at a commit whose scan outputs are trusted (the digests in
digests.json were recorded at the commit that defined this benchmark); a
change that alters scan outputs on purpose records them again and says why.
"""

from __future__ import annotations

import json
import sys

import worker


def main() -> None:
    sys.path.insert(0, str(worker.ROOT / "src"))
    digests = {}
    for name in worker.SCANS:
        state = worker.setup_scan(name, "0.0")
        worker.run_scan(state, worker.RefClock())
        if state["scan_error"]:
            raise SystemExit(f"{name}: scan failed with {state['scan_error']}")
        digests[name] = worker.scan_digest(state["report"])
    with open(worker.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
