#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload ref_clean|ref_gray|fleet_churn \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/main.exe from source
with dune (release profile, shared cache off and TMPDIR under _build,
so nothing is written outside the checkout), then runs it with the same
arguments. Build output goes to stderr; the benchmark's last line of
stdout is its JSON result. The exit code is the benchmark's: 0 when
every output check passed. See perfbench/README.md for the workloads
and metrics.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")


def main():
    if not (
        os.path.isfile(os.path.join(ROOT, "dune-project"))
        and os.path.isdir(os.path.join(ROOT, "lib"))
    ):
        print(
            "perfbench: %s holds no stripe sources (dune-project and lib/ "
            "are missing)" % ROOT,
            file=sys.stderr,
        )
        return 2
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(ROOT, "_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--profile", "release",
         "./perfbench/main.exe"],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    return subprocess.run([EXE] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
