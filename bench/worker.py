"""One benchmark process: import projmonad, generate a workload's inputs,
run its ops back to back, then check the outputs.

Started by run.py in a fresh interpreter.  Prints `ready <monotonic time>`
once set-up is done, and one JSON report as its last line.  Exit code 2
means the program could not be imported from the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def timed_phase(rounds, seconds: float, max_ops: int | None, tracer, cache) -> dict:
    """Run whole rounds until the ops' time reaches `seconds` (or, when
    `max_ops` is given, until that many ops ran)."""
    latencies, kinds, outputs, errors = [], [], [], []
    ops_run = []
    hits = misses = 0
    elapsed = 0.0
    done = 0
    for rnd in rounds:
        if (elapsed >= seconds) if max_ops is None else (len(latencies) >= max_ops):
            break
        if rnd.prepare is not None:
            rnd.prepare()
        for op in rnd.ops:
            before = cache.cache_info()
            if tracer is not None:
                tracer.op = len(latencies)
                tracer.active = True
                root = tracer.begin("bench.op")
            t0 = time.perf_counter()
            try:
                result, err = op.run(), None
            except Exception as exc:  # an op that raises counts as failed
                result, err = None, f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.end(root)
                tracer.active = False
            after = cache.cache_info()
            hits += after.hits - before.hits
            misses += after.misses - before.misses
            parts = []
            if err is None:
                try:
                    parts = op.collect(result)
                except OSError as exc:
                    err = f"output missing: {exc}"
            latencies.append(dt)
            elapsed += dt
            kinds.append(op.kind)
            outputs.append(parts)
            errors.append(err)
            ops_run.append(op)
        done += 1
    return {"latencies": latencies, "kinds": kinds, "outputs": outputs, "errors": errors,
            "ops": ops_run, "rounds": done, "hits": hits, "misses": misses,
            "pool_exhausted": done == len(rounds) and (
                elapsed < seconds if max_ops is None else len(latencies) < max_ops)}


def check_and_digest(phase: dict) -> tuple[list[str | None], str]:
    """Check every op's output and hash all outputs in op order."""
    digest = hashlib.sha256()
    errors = list(phase["errors"])
    for i, (op, parts) in enumerate(zip(phase["ops"], phase["outputs"])):
        if errors[i] is None:
            try:
                errors[i] = op.check(parts)
            except Exception as exc:  # a malformed output fails its check
                errors[i] = f"check raised {type(exc).__name__}: {exc}"
        digest.update(f"op {i}\n".encode())
        for part in parts:
            digest.update(f"{len(part)}\n".encode())
            digest.update(part)
    return errors, digest.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", required=True, help="checkout holding src/projmonad")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True, help="work directory for input files")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--max-ops", type=int, help="run exactly this many ops (whole rounds)")
    ap.add_argument("--trace", metavar="SPANS_CSV",
                    help="trace the ops and write every span to this file")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    src = (Path(args.root) / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import projmonad
    except ImportError as exc:
        print(f"cannot import projmonad from {src}: {exc}", file=sys.stderr)
        return 2
    if src not in Path(projmonad.__file__).resolve().parents:
        print(f"projmonad imported from {projmonad.__file__}, not {src}", file=sys.stderr)
        return 2

    import numpy
    import workloads
    from projmonad import monad
    from tracing import Tracer

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    rounds = workloads.generate(args.workload, args.seed, workdir)
    print(f"ready {time.monotonic()}", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace is not None:
        tracer = Tracer()
        tracer.install()
    phase = timed_phase(rounds, args.seconds, args.max_ops, tracer, monad._sections_rank)
    errors, digest = check_and_digest(phase)
    failed = [(i, e) for i, e in enumerate(errors) if e is not None]
    for i, e in failed[:10]:
        print(f"op {i} ({phase['kinds'][i]}) failed: {e}", file=sys.stderr)
    report = {
        "ops": len(phase["latencies"]),
        "rounds": phase["rounds"],
        "pool_rounds": len(rounds),
        "pool_exhausted": phase["pool_exhausted"],
        "latencies": phase["latencies"],
        "kinds": phase["kinds"],
        "failed": len(failed),
        "digest": digest,
        "sections_rank": {"hits": phase["hits"], "misses": phase["misses"]},
        "numpy": numpy.__version__,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        report["trace"] = tracer.summary(report["ops"])
        tracer.write_spans(args.trace)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
