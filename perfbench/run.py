#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see BENCH.md).

    python3 perfbench/run.py --workload corpus_audit --seed 1 --seconds 30 --trace 0

Builds the benchmark runner (its own cargo workspace, perfbench/) and
the shipped `webssari` binary that the serve_mix workload starts, then
runs the runner with the given arguments. Run it from the repository
root. Build output goes to standard error; the runner's last line of
standard output is the JSON result. The exit code is the runner's, or
1 when a build fails or the runner overruns its time limit.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The runner must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def build(env, *args):
    cmd = ["cargo", "build", "--release", "--offline", *args]
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode == 0


def main():
    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
        env["CARGO_TARGET_DIR"] = str(target)
    if not build(env, "--manifest-path", "perfbench/Cargo.toml"):
        print("perfbench: building the benchmark runner failed", file=sys.stderr)
        return 1
    if not build(env, "--bin", "webssari"):
        print("perfbench: building the webssari binary failed", file=sys.stderr)
        return 1
    release = target / "release"
    cmd = [str(release / "perfbench"), *sys.argv[1:], "--webssari", str(release / "webssari")]
    # A session of its own, so a timeout can stop the runner together
    # with the server it started.
    runner = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        return runner.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(runner.pid, signal.SIGKILL)
        runner.wait()
        print(f"perfbench: runner exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
