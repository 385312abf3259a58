"""Shared helpers of the repo benchmark: import path, statistics, digests,
child-process lifetime, and the exact-repeat record.

Every benchmark file imports the program under test from the checkout's
``src/`` directory (the benchmark never installs it), so this module is
imported first and puts that directory on ``sys.path``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Where runs leave their exact-repeat records (answer digests, sim counts).
STATE_DIR = ROOT / ".perfbench_state"

if not (SRC / "repro").is_dir():
    # Measure the checkout's own program, never an installed copy.
    raise SystemExit(f"program sources not found under {SRC}")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))


def p50(values: Sequence[float]) -> float:
    return float(np.median(np.asarray(values, dtype=float))) if len(values) else 0.0


def mean(values: Sequence[float]) -> float:
    return float(np.mean(np.asarray(values, dtype=float))) if len(values) else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) if len(values) else 0.0


def min_samples(tail_pct: int) -> int:
    """Samples needed so at least 10 lie beyond the ``tail_pct`` percentile."""
    return int(math.ceil(10.0 / (1.0 - tail_pct / 100.0)))


def tail(values: Sequence[float], tail_pct: int) -> float:
    """Tail latency robust to stalled stretches of a noisy host.

    ``values`` are in time order.  They are cut into as many consecutive
    windows as still leave 10 samples beyond ``tail_pct`` in each; the
    result is the lowest of the windows' percentiles.  A shared host only
    ever adds latency (stolen or contended CPU), and its stalls come in
    episodes of seconds that can cover most of a run, so the least
    disturbed window is the steadiest estimate of the program's own tail;
    a change in the program moves every window, the lowest included.
    """
    windows = max(1, len(values) // min_samples(tail_pct))
    chunks = np.array_split(np.asarray(values, dtype=float), windows)
    return float(min(np.percentile(c, tail_pct) for c in chunks))


def digest(obj: Any) -> str:
    """SHA-256 of a JSON-able object (key-sorted, compact)."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def array_digest(arr: np.ndarray) -> str:
    """SHA-256 of an integer array's values (dtype- and layout-independent)."""
    return hashlib.sha256(np.ascontiguousarray(arr, dtype=np.int64).tobytes()).hexdigest()


def source_tree_digest() -> str:
    """Digest of the program and benchmark sources: keys the exact-repeat
    records, since either can legitimately change the answers."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + sorted(BENCH_DIR.glob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_repeat(workload: str, seed: int, record: Dict[str, Any]) -> List[str]:
    """Compare ``record`` with what an earlier run of the same source tree,
    workload and seed left behind; store the union.  Returns mismatches.

    The record holds values that must repeat exactly (answer digests,
    simulated counts); a difference is a defect, not noise.
    """
    STATE_DIR.mkdir(exist_ok=True)
    path = STATE_DIR / f"{workload}-seed{seed}-{source_tree_digest()}.json"
    previous: Dict[str, Any] = {}
    if path.exists():
        previous = json.loads(path.read_text())
    mismatches = [
        f"{key}: {previous[key]!r} before, {value!r} now"
        for key, value in record.items()
        if key in previous and previous[key] != value
    ]
    merged = {**previous, **record}
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(merged, sort_keys=True, indent=1))
    os.replace(tmp, path)
    return mismatches


def spawn(args: List[str], **kwargs: Any) -> subprocess.Popen:
    """Start a Python child running one of the benchmark's own scripts."""
    return subprocess.Popen(
        [sys.executable, *args],
        cwd=str(ROOT),
        stdout=subprocess.PIPE,
        text=True,
        **kwargs,
    )


def reap(proc: subprocess.Popen, timeout_s: float = 60.0) -> Tuple[int, float]:
    """Wait for ``proc`` and return ``(exit code, peak RSS in MB)``.

    The peak comes from the kernel's resource accounting of the exited
    child (``wait4``), i.e. it is read from outside the program.  A child
    still running after ``timeout_s`` is killed first.
    """
    end = time.monotonic() + timeout_s
    killed = False
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid == proc.pid:
            break
        if not killed and time.monotonic() > end:
            proc.kill()
            killed = True
        time.sleep(0.01)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def kill_quietly(proc: Optional[subprocess.Popen]) -> None:
    """Stop and reap a child that may still be running (cleanup path)."""
    if proc is None or proc.returncode is not None:
        return
    try:
        proc.send_signal(signal.SIGKILL)
    except ProcessLookupError:
        pass
    try:
        reap(proc, timeout_s=10.0)
    except ChildProcessError:
        pass


def emit(correct: bool, attempted: int, failed: int, metrics: Dict[str, Tuple[float, str]]) -> None:
    """Print the result line the benchmark contract requires (last line)."""
    doc = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(doc), flush=True)


def note(msg: str) -> None:
    print(msg, flush=True)

