#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload profile --seed 1 --seconds 20 --trace 0

Every build product, the Go build cache, scratch files and results stay under
.bench_build/ in the checkout. The last line of standard output is the run's
JSON result; a failed build exits non-zero without printing one.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOMODCACHE": os.path.join(BUILD, "gopath", "pkg", "mod"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "GOENV": "off",
        "GOFLAGS": "",
        "GOPROXY": "off",
        "GOSUMDB": "off",
        "GOTOOLCHAIN": "local",
        "GOTELEMETRY": "off",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    return env


def build(env):
    bins = {
        "perfbench": (HERE, "."),
        "ccprofd": (ROOT, "./cmd/ccprofd"),
    }
    out = {}
    for name, (cwd, pkg) in bins.items():
        path = os.path.join(BUILD, "bin", name)
        proc = subprocess.run(["go", "build", "-o", path, pkg], cwd=cwd, env=env,
                              stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            sys.stderr.write("perfbench: building %s failed\n" % name)
            sys.exit(proc.returncode or 1)
        out[name] = path
    return out


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        sys.stderr.write("perfbench: %s holds no Go module to build\n" % ROOT)
        sys.exit(2)
    env = go_env()
    bins = build(env)
    argv = [bins["perfbench"], "-root", ROOT, "-ccprofd", bins["ccprofd"]] + sys.argv[1:]
    proc = subprocess.run(argv, cwd=ROOT, env=env)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
