#!/usr/bin/env python3
"""Build and run one workload of the replan-and-serve benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload zipf_faults --seed 3 --seconds 10 --trace 0

The script builds perfbench/cmd/perfbench from source with the Go toolchain
(build cache, module cache and binary all under .bench_build/perfbench),
runs it with the given arguments, and passes its output and exit code
through. The last line of standard output is the result JSON. It exits
non-zero without a result when the repository sources are missing, the
build fails, or the run fails its correctness gate.
"""

import hashlib
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def source_hash(root):
    """Hash the Go sources and module files the binary is built from."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith('.'))
        for name in sorted(filenames):
            if name.endswith('.go') or name in ('go.mod', 'go.sum'):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, 'rb') as f:
                    h.update(f.read())
    return h.hexdigest()


def commit_of(root, env):
    try:
        out = subprocess.run(['git', 'rev-parse', 'HEAD'], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return 'unknown'
    return out.stdout.strip() if out.returncode == 0 else 'unknown'


def main():
    root = os.getcwd()
    bench_dir = os.path.join(root, 'perfbench')
    if not os.path.isfile(os.path.join(root, 'go.mod')) or \
            not os.path.isdir(os.path.join(root, 'internal')):
        print('perfbench: run from the repository root; the module sources '
              '(go.mod, internal/) are not here', file=sys.stderr)
        return 2
    out_dir = os.path.join(root, '.bench_build', 'perfbench')
    os.makedirs(out_dir, exist_ok=True)
    env = dict(os.environ)
    env.update({
        'GOCACHE': os.path.join(out_dir, 'gocache'),
        'GOPATH': os.path.join(out_dir, 'gopath'),
        'GOMODCACHE': os.path.join(out_dir, 'gopath', 'pkg', 'mod'),
        'XDG_CONFIG_HOME': os.path.join(out_dir, 'config'),
        'GOTOOLCHAIN': 'local',
        'GOFLAGS': '',
        'GOWORK': 'off',
        'GOPROXY': 'off',
        'CGO_ENABLED': '0',
    })
    binary = os.path.join(out_dir, 'perfbench')
    try:
        build = subprocess.run(['go', 'build', '-o', binary, './cmd/perfbench'],
                               cwd=bench_dir, env=env, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print('perfbench: build timed out', file=sys.stderr)
        return 1
    if build.returncode != 0:
        print('perfbench: build failed', file=sys.stderr)
        return 1
    args = [binary] + sys.argv[1:] + [
        '--trace-dir', os.path.join(out_dir, 'traces'),
        '--commit', commit_of(root, env),
        '--source', source_hash(root),
    ]
    try:
        run = subprocess.run(args, cwd=root, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print('perfbench: run timed out', file=sys.stderr)
        return 1
    return run.returncode


if __name__ == '__main__':
    sys.exit(main())
