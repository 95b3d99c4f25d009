"""One benchmark job in a fresh process: set up scjarz, run CLI commands.

Set-up is the time from ``--spawned`` (the parent's CLOCK_MONOTONIC reading
just before it started this process) to a parsed RunConfig with its model
built, so it covers interpreter start, ``import scjarz`` and
``load_config``.  The job is every requested ``scjarz.cli.main`` call, up to
the point where their artifacts are written.  The result (timings, CPU
time, peak RSS, exit codes, the largest path/endpoint work mismatches) goes
to ``--result`` as JSON; with ``--trace`` the spans of the job are written
there as well.

    python3 bench/job.py --spawned T --config cfg.yaml --out DIR \
        --result res.json --src SRC [--trace spans.json] [--setup-only] \
        --cli jarzynski [--cli "gibbs --prefactor" ...]

``--src`` must be on PYTHONPATH; the job refuses an scjarz imported from
anywhere else.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


# acceptance criterion 5 checks |W - W_endpoint| <= 1e-6 (1 + |W|) for
# starts with |p|, |q| <= 1.2; the high-energy tail of a quadrature domain
# misses it by orders of magnitude at negligible thermal weight
BULK_BOX = 1.2


def _work_mismatch_probe(sink: dict):
    """Record max |W - W_endpoint| / (1 + |W|) of every pseudo-work batch,
    over all converged starts and over those inside the bulk box."""
    import numpy as np

    from scjarz import pseudowork
    from tracing import rebind

    original = pseudowork._pseudo_work_batch

    def probed(model, t_i, t_f, tp, tq, *args, **kwargs):
        out = original(model, t_i, t_f, tp, tq, *args, **kwargs)
        ok = out["status"] == 0
        rel = np.abs(out["W"] - out["W_endpoint"]) / (1.0 + np.abs(out["W"]))
        bulk = ok & (np.abs(tp) <= BULK_BOX) & (np.abs(tq) <= BULK_BOX)
        for key, sel in (("max_work_mismatch", ok),
                         ("bulk_work_mismatch", bulk)):
            if np.any(sel):
                sink[key] = max(sink.get(key, 0.0), float(np.max(rel[sel])))
        return out

    rebind(original, probed)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--trace", default=None)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--cli", action="append", default=[])
    args = parser.parse_args()

    import scjarz
    import scjarz.cli
    from scjarz.config import load_config

    load_config(args.config)
    ready = time.monotonic()
    if Path(args.src).resolve() not in Path(scjarz.__file__).resolve().parents:
        sys.exit(f"scjarz imported from {scjarz.__file__}, not from {args.src}")
    result = {"setup_s": ready - args.spawned}
    if args.setup_only:
        with open(args.result, "w") as fh:
            json.dump(result, fh)
        return

    mismatches: dict = {}
    _work_mismatch_probe(mismatches)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(job_id=Path(args.out).name)
        tracer.install()

    cpu0 = time.process_time()
    start = time.monotonic()
    root = tracer.open_root("cli.main") if tracer else None
    codes = []
    for command in args.cli:
        argv = command.split() + ["--config", args.config, "--out", args.out,
                                  "--threads", "1"]
        codes.append(scjarz.cli.main(argv))
    if tracer:
        tracer.close_root(root)
    end = time.monotonic()
    cpu1 = time.process_time()

    result.update({
        "job_s": end - start,
        "job_cpu_s": cpu1 - cpu0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "exit_codes": codes,
        "max_work_mismatch": mismatches.get("max_work_mismatch"),
        "bulk_work_mismatch": mismatches.get("bulk_work_mismatch"),
        "trace_missing": tracer.missing if tracer else [],
    })
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    if tracer:
        tracer.dump(args.trace)


if __name__ == "__main__":
    main()
