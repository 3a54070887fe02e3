"""Fresh Python processes: the harness's workers and timed CLI probes."""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
TIMEOUT_S = 150


def python(args: list, env: dict) -> tuple[float, dict | None, str]:
    """Run ``python3 <args>``; (wall s, JSON of the last stdout line, stderr).

    The result is None when the process fails, times out (it is then
    killed and reaped) or prints no JSON.
    """
    t0 = time.time()
    try:
        proc = subprocess.run([sys.executable, *map(str, args)], env=env,
                              capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return time.time() - t0, None, f"timed out after {TIMEOUT_S} s"
    wall = time.time() - t0
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if proc.returncode != 0:
        result = None
    return wall, result, proc.stderr[-2000:]


def probe(args: list, env: dict, src: Path) -> tuple[float, dict | None, str]:
    """One ``probe.py`` process, timed from just before it is started.

    Its result gains ``setup_s`` (process start to parsed config),
    ``import_s`` (process start to imported CLI) and ``parse_s``.
    """
    t0 = time.time()
    wall, result, err = python([HERE / "probe.py", *args], env)
    if result is not None:
        if not Path(result["module"]).resolve().is_relative_to(src):
            return wall, None, f"metaline imported from {result['module']}"
        result["setup_s"] = result["t_parsed"] - t0
        result["import_s"] = result["t_import"] - t0
        result["parse_s"] = result["t_parsed"] - result["t_import"]
    return wall, result, err


def setup_probe(argv: list[str], env: dict, src: Path) -> dict:
    """A fresh process that stops once the config in ``argv`` is parsed."""
    _, result, err = probe(["--setup-only", *argv], env, src)
    if result is None:
        raise RuntimeError(f"set-up probe failed: {err}")
    return result
