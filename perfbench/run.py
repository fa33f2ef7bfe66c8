#!/usr/bin/env python3
"""Build and run the WCET-analysis benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <cold_analyse|module_edit|warm_serve>
                             --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package in release mode into $CARGO_TARGET_DIR
(default `.bench_build`), then runs it with a private work directory under
`.perfbench_work`.  The benchmark's last line of standard output is its JSON
result; a failed build, a wrong answer or a timeout exits non-zero without
one.  `--write-expected` with the default seed (1) rewrites
`perfbench/expected/<workload>.txt` instead of checking it.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["cold_analyse", "module_edit", "warm_serve"]
# One run must end within 180 s; leave the rest for the build check.
RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--write-expected", action="store_true")
    args = parser.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit(f"perfbench: build failed with code {build.returncode}")

    command = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work-dir", os.path.join(ROOT, ".perfbench_work"),
        "--expected-dir", os.path.join(HERE, "expected"),
    ]
    if args.write_expected:
        command.append("--write-expected")
    try:
        run = subprocess.run(command, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: no result within {RUN_TIMEOUT_S} s")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
