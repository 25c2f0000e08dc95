"""One campaign of one workload, in a fresh interpreter.

``run.py`` starts this script once per measured campaign, with the
environment pinned (``REPRO_CACHE`` at a fresh directory,
``REPRO_PROCESSES`` set, every other ``REPRO_*`` variable removed), and
reads the JSON it writes to ``--out``::

    python3 paperbench/campaign.py WORKLOAD --workload-seed 1 --out FILE
        [--trace] [--setup-only] [--quick]

``--setup-only`` stops at the first point handed to the process pool, which
is where set-up ends; ``--trace`` installs the per-layer ledger first;
``--quick`` runs the workload at the self-check's shrunk scale.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import multiprocessing
import os
import sys
import time
import traceback

import ledger as layer_ledger
from workloads import QUICK_SCALE, WORKLOADS, claim_errors, seeded


class SetupDone(Exception):
    """Raised at the first pool submission of a ``--setup-only`` campaign."""


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--workload-seed", type=int, default=1)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)

    from repro.harness import backends
    from repro.harness.cache import get_cache

    if multiprocessing.get_start_method() != "fork":
        raise SystemExit("the ledger reaches pool workers only through fork")
    processes = int(os.environ["REPRO_PROCESSES"])
    ledger = layer_ledger.install() if args.trace else None

    first_submit: list[float] = []
    pool_run = backends.ProcessPoolBackend.run

    def probed_run(self, configs):
        if not first_submit:
            first_submit.append(time.monotonic())
            if args.setup_only:
                raise SetupDone
        return pool_run(self, configs)

    backends.ProcessPoolBackend.run = probed_run

    workload = WORKLOADS[args.workload]
    scale = seeded(QUICK_SCALE if args.quick else workload.scale, args.workload_seed)
    out: dict = {"attempted": workload.points(scale), "error": None}
    start = time.monotonic()
    try:
        figures, claims = workload.run(scale)
    except SetupDone:
        out["setup_end"] = first_submit[0]
    except Exception:  # reported as failed points, never as a crash
        out["error"] = traceback.format_exc()
    else:
        out["wall_s"] = time.monotonic() - start
        out["setup_end"] = first_submit[0]
        out["figures"] = [dataclasses.asdict(figure) for figure in figures]
        out["claim_errors"] = claim_errors(claims)
    if not args.setup_only:
        cache = get_cache()
        out["cache"] = {"hits": cache.hits, "misses": cache.misses}
    if ledger is not None:
        out["layers"] = layer_ledger.summarize(ledger, processes)
        out["points"] = ledger.points
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
