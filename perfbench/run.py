#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload node-busy --seed 1 --seconds 20 --trace 0

Run from the repository root. --trace 0 builds and runs the untraced
end-to-end runner (perfbench/cmd/e2e), --trace 1 the traced per-layer
runner (perfbench/cmd/traced); the two are separate binaries, so a
change that breaks one cannot stop the other from building. Build
outputs, the Go build cache and the traced run's spans all stay under
.bench_build/ in the repository root. The runner's standard output is
passed through; its last line is the result object. The exit code is
the runner's, or 1 when the build fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
# A run may take three minutes; the runner stops itself well before.
RUN_TIMEOUT_S = 175
# The first build compiles the standard library into an empty cache.
BUILD_TIMEOUT_S = 850


def go_env():
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOMODCACHE", "gomodcache"),
                     ("GOTMPDIR", "tmp"), ("XDG_CONFIG_HOME", "config")):
        env[key] = os.path.join(OUT, sub)
        os.makedirs(env[key], exist_ok=True)
    # The module has no dependencies outside the repository: never fetch.
    env.update(GOTOOLCHAIN="local", GOPROXY="off", GOWORK="off", GOFLAGS="")
    return env


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    a = p.parse_args()

    runner = "traced" if a.trace else "e2e"
    binary = os.path.join(OUT, "bin", runner)
    try:
        build = subprocess.run(["go", "build", "-o", binary, "./cmd/" + runner],
                               cwd=HERE, env=go_env(), stdout=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1

    argv = [binary, "--workload", a.workload, "--seed", str(a.seed),
            "--seconds", repr(a.seconds)]
    if a.trace:
        argv += ["--spans", os.path.join(OUT, "spans", f"{a.workload}-seed{a.seed}.jsonl")]
    proc = subprocess.Popen(argv, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {runner} exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
