"""Byte identity of the benchmark's outputs.

Each case runs bench/worker.py in a fresh interpreter for a fixed number
of ops at seed 331 and compares the SHA-256 digest of all op outputs with
the digest the same ops produced before the coefficient representation
changed.  A refactor that changes any printed byte of any workload fails
here.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# workload, ops, digest of all outputs at seed 331
DIGESTS = [
    ("p3_fp", 20, "1ea45fe9bd83b23c828118c7c27d73e8576f3d8e76dc67a96b8b7d64d3155d1f"),
    ("hilbert_q", 8, "46f0069067768b4e7270cbf97a1d711620cc48a0660f1a69ba768b8035ae630e"),
    ("group_action", 48, "1301faf15f97da4476be27e2f726e842d9af14e02ab0a88e717a1a24f5d808ea"),
    ("bott_grid", 130, "9f67f40e29a8e224b36aa2e5bde95750cd2c3d4a1ea28ee4a5f3cd5dc8833fce"),
]


@pytest.mark.parametrize("workload, ops, digest", DIGESTS, ids=[w for w, _, _ in DIGESTS])
def test_worker_digest_is_unchanged(tmp_path, workload, ops, digest):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "worker.py"), "--root", str(ROOT),
         "--workload", workload, "--seed", "331", "--max-ops", str(ops),
         "--workdir", str(tmp_path)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert (report["ops"], report["failed"]) == (ops, 0), proc.stderr
    assert report["digest"] == digest
