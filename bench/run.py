#!/usr/bin/env python3
"""projmonad benchmark.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Each run starts fresh interpreters
(worker.py) that import projmonad from the checkout's src/, generate the
workload's inputs from the seed, run its ops back to back in one thread
and check every output.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the workload
untraced and then traced on the same ops, and prints the per-layer
metrics and the tracing overhead; both runs must hash to the same output
digest.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  A full result file goes to
bench/results/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import jsonschema

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("p3_fp", "hilbert_q", "bott_grid", "group_action")
SETUP_SAMPLES = 5      # set-ups per untraced run (the worker's own included)
DEADLINE_S = 170.0     # the whole run, set-ups included
LARGE_ENTRIES = 10 ** 4  # rank calls on matrices this big or bigger count as large
# One client, one thread: numpy's BLAS pool is never used by the program's
# integer elimination, and starting it made set-up time swing with the load
# on the second core (user time exceeded wall time).
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = {"ops_per_s": "1/s", "op_s.p50": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics from the traced run, per op.  A `.share` is the
# inclusive time in a function (`.self_share`: a module's self time) over
# the traced op time; the seconds themselves are in the result file.
PER_LAYER = {
    "trace.overhead_ratio": "1",
    "linalg.self_share": "1",
    "linalg.rank.calls": "count",
    "linalg.rank.share": "1",
    "linalg.rank.fp.share": "1",
    "linalg.rank.q.share": "1",
    "linalg.rank.large.share": "1",
    "linalg.rank.small.share": "1",
    "linalg.rank.entries": "count",
    "linalg.rank.nnz": "count",
    "linalg.rref.calls": "count",
    "linalg.rref.share": "1",
    "linalg.kernel_basis.share": "1",
    "linalg.inverse.share": "1",
    "polymat.self_share": "1",
    "polymat.sections_matrix.calls": "count",
    "polymat.sections_matrix.share": "1",
    "polymat.compose.calls": "count",
    "polymat.compose.share": "1",
    "polymat.dual_hom.share": "1",
    "polymat.parse_poly.calls": "count",
    "polymat.parse_poly.share": "1",
    "monad.self_share": "1",
    "monad.parse_monad.share": "1",
    "monad.format_monad.share": "1",
    "monad.dualize.share": "1",
    "monad.hilbert_poly_of_cohomology.share": "1",
    "monad.window_twists": "count",
    "monad.window_retries": "count",
    "monad.sections_rank.hits": "count",
    "monad.sections_rank.misses": "count",
    "monad.sections_rank.hit_ratio": "1",
    "monad.sheaf_cohomology.share": "1",
    "autgroup.self_share": "1",
    "autgroup.act.share": "1",
    "autgroup.graded_inverse.calls": "count",
    "autgroup.graded_inverse.share": "1",
    "autgroup.induced_dual_element.share": "1",
    "autgroup.random_element.share": "1",
    "autgroup.parse_group_element.share": "1",
    "modp3.self_share": "1",
    "modp3.sample_wss_stats.share": "1",
    "modp3.sample.draws": "count",
    "modp3.sample.accept_ratio": "1",
    "modp3.wss_membership.share": "1",
    "hilbert.self_share": "1",
    "hilbert.interpolate.share": "1",
    "hilbert.bott_h.share": "1",
    "complexes.self_share": "1",
    "complexes.omega_resolution.share": "1",
    "cli.self_share": "1",
    "cli.run.share": "1",
}

# Layers each workload exists to exercise: the traced run fails if one of
# these records nothing, since the workload would then not measure it.
REQUIRED = {
    "p3_fp": ("linalg.rank.calls", "polymat.sections_matrix.calls", "monad.window_twists",
              "modp3.sample_wss_stats.calls", "modp3.wss_membership.calls",
              "autgroup.graded_inverse.calls", "polymat.compose.calls", "cli.run.calls"),
    "hilbert_q": ("linalg.rank.calls", "polymat.sections_matrix.calls",
                  "monad.window_twists", "hilbert.interpolate.calls",
                  "monad.parse_monad.calls", "cli.run.calls"),
    "bott_grid": ("linalg.rank.calls", "monad.sections_rank.hits",
                  "monad.sheaf_cohomology.calls", "polymat.dual_hom.calls",
                  "complexes.omega_resolution.calls", "hilbert.bott_h.calls"),
    "group_action": ("polymat.compose.calls", "polymat.parse_poly.calls",
                     "autgroup.act.calls", "autgroup.graded_inverse.calls",
                     "autgroup.induced_dual_element.calls",
                     "autgroup.parse_group_element.calls", "monad.dualize.calls",
                     "monad.parse_monad.calls", "monad.format_monad.calls",
                     "linalg.inverse.calls", "cli.run.calls"),
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


class Runner:
    """Starts workers, each in its own work directory, and cleans up."""

    def __init__(self, workload: str, seed: int, deadline: float):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.workdirs: list[Path] = []

    def worker(self, *extra: str) -> tuple[float, dict | None]:
        """Run one worker; return its set-up seconds and its report."""
        name = f"{self.workload}-{self.seed}-{os.getpid()}-{len(self.workdirs)}"
        workdir = HERE / "work" / name
        self.workdirs.append(workdir)
        cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
               "--workload", self.workload, "--seed", str(self.seed),
               "--workdir", str(workdir), *extra]
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                                env={**os.environ, **SINGLE_THREAD})
        try:
            out, _ = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker passed the {DEADLINE_S:.0f} s deadline") from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}")
        lines = out.splitlines()
        ready = [float(ln.split()[1]) for ln in lines if ln.startswith("ready ")]
        if not ready:
            raise BenchError("worker never finished set-up")
        report = json.loads(lines[-1]) if "--setup-only" not in extra else None
        return ready[0] - start, report

    def cleanup(self):
        for d in self.workdirs:
            shutil.rmtree(d, ignore_errors=True)


def end_to_end(report: dict, setups: list[float]) -> dict:
    lat = report["latencies"]
    good = report["ops"] - report["failed"]
    return {
        "ops_per_s": good / sum(lat),
        "op_s.p50": statistics.median(lat),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": report["peak_rss_kb"] / 1024.0,
    }


def layer_detail(traced: dict, untraced: dict) -> dict:
    """Every per-layer number of a traced run, per op (seconds as `.s`)."""
    tr = traced["trace"]
    n = traced["ops"]
    out = {"op.s": tr["op_seconds"] / n}
    for name, c in tr["calls"].items():
        out[f"{name}.calls"] = c / n
    for name, s in tr["seconds"].items():
        out[f"{name}.s"] = s / n
    for layer, s in tr["self_seconds"].items():
        out[f"{layer}.self_s"] = s / n
    rows = tr["rank_rows"]
    for label, keep in (("fp", lambda r: r["field"] == "fp"),
                        ("q", lambda r: r["field"] == "q"),
                        ("large", lambda r: r["rows"] * r["cols"] >= LARGE_ENTRIES),
                        ("small", lambda r: r["rows"] * r["cols"] < LARGE_ENTRIES)):
        out[f"linalg.rank.{label}.s"] = sum(r["seconds"] for r in rows if keep(r)) / n
    out["linalg.rank.entries"] = sum(r["rows"] * r["cols"] for r in rows) / n
    out["linalg.rank.nnz"] = sum(r["nnz"] for r in rows) / n
    out["monad.window_twists"] = tr["window_twists"] / n
    out["monad.window_retries"] = (
        tr["windows"] - tr["calls"].get("monad.hilbert_poly_of_cohomology", 0)) / n
    hits, misses = traced["sections_rank"]["hits"], traced["sections_rank"]["misses"]
    out["monad.sections_rank.hits"] = hits / n
    out["monad.sections_rank.misses"] = misses / n
    out["monad.sections_rank.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["modp3.sample.draws"] = tr["draws"] / n
    out["modp3.sample.accept_ratio"] = (
        tr["calls"].get("modp3.sample_wss_stats", 0) / tr["draws"] if tr["draws"] else 0.0)
    untraced_wall = sum(untraced["latencies"])
    out["trace.overhead_ratio"] = (sum(traced["latencies"]) - untraced_wall) / untraced_wall
    return out


def per_layer(detail: dict) -> dict:
    values = {}
    for name in PER_LAYER:
        if name.endswith("share"):
            values[name] = detail.get(name[:-len("share")] + "s", 0.0) / detail["op.s"]
        else:
            values[name] = detail.get(name, 0.0)
    return values


def metadata(args, report: dict) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "python": platform.python_version(), "numpy": report["numpy"],
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu, "git_commit": commit,
        "seed": args.seed, "seconds": args.seconds, "ops_per_run": report["ops"],
        "rounds": report["rounds"], "pool_rounds": report["pool_rounds"],
        "pool_exhausted": report["pool_exhausted"],
    }


def run(args, out_dir: Path) -> dict:
    if not (ROOT / "src" / "projmonad" / "__init__.py").is_file():
        raise BenchError(f"no projmonad sources under {ROOT / 'src'}")
    runner = Runner(args.workload, args.seed, time.monotonic() + DEADLINE_S)
    try:
        setup, untraced = runner.worker("--seconds", str(args.seconds))
        result = {"workload": args.workload, "trace": args.trace,
                  "digest": untraced["digest"], "attempted": untraced["ops"],
                  "failed": untraced["failed"], "sections_rank": untraced["sections_rank"]}
        if args.trace:
            spans = out_dir / f"{args.workload}-seed{args.seed}-spans.csv"
            _, traced = runner.worker("--max-ops", str(untraced["ops"]), "--trace", str(spans))
            detail = layer_detail(traced, untraced)
            missing = [k for k in REQUIRED[args.workload] if not detail.get(k)]
            if missing:
                raise BenchError(f"traced run recorded no work in {missing}")
            result.update(attempted=traced["ops"],
                          failed=max(traced["failed"], untraced["failed"]),
                          traced_digest=traced["digest"], layers=detail,
                          spans_file=str(spans.relative_to(ROOT)),
                          rank_table=[{"workload": args.workload, **r}
                                      for r in traced["trace"]["rank_rows"]])
            metrics = per_layer(detail)
            units = PER_LAYER
            digests_agree = traced["digest"] == untraced["digest"]
        else:
            setups = [setup] + [runner.worker("--setup-only")[0]
                                for _ in range(SETUP_SAMPLES - 1)]
            metrics = end_to_end(untraced, setups)
            units = END_TO_END
            lat = untraced["latencies"]
            # p90 only with at least ten samples beyond it
            p90 = statistics.quantiles(lat, n=10)[8] if len(lat) >= 100 else None
            result.update(setup_samples=setups, latencies=lat, kinds=untraced["kinds"],
                          op_s={"p50": statistics.median(lat), "p90": p90, "n": len(lat)})
            digests_agree = True
    finally:
        runner.cleanup()
    result["fail_ratio"] = result["failed"] / result["attempted"]
    result["correct"] = result["failed"] == 0 and digests_agree
    result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    result["meta"] = metadata(args, untraced)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="op time to measure; the run ends on the next round boundary")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    try:
        result = run(args, out_dir)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    schema = json.loads((HERE / "result.schema.json").read_text(encoding="utf-8"))
    jsonschema.validate(result, schema)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(f"{args.workload} seed {args.seed}: {result['attempted']} ops, "
          f"{result['failed']} failed, digest {result['digest'][:16]}, result in "
          f"{path.relative_to(ROOT)}")
    if not result["correct"]:
        print("outputs are NOT correct (see the messages above)", file=sys.stderr)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
