"""One `eeqt` CLI subprocess, timed, with its own peak memory."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

CHILD_TIMEOUT_S = 150.0    # a CLI call that runs longer is killed and counted as failed


def cli_env(src: Path) -> dict:
    """The caller's environment with the checkout's sources first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    return env


class Child:
    """Outcome of one CLI subprocess."""

    def __init__(self, argv, cwd, env, stem):
        out_path, err_path = cwd / f"{stem}.stdout", cwd / f"{stem}.stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=cwd, env=env,
                                    stdout=out, stderr=err)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                # wait4 rather than wait: it also returns the child's own max RSS
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            self.wall_s = time.perf_counter() - start
        proc.returncode = self.exit_code = os.waitstatus_to_exitcode(status)
        self.max_rss_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
        self.stdout = out_path.read_text(errors="replace")
        self.stderr = err_path.read_text(errors="replace")
