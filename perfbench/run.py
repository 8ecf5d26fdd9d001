#!/usr/bin/env python3
"""Build rrsim's benchmark program from this checkout and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--scale full|toy]

The program (perfbench/src) and the rrsim libraries it links are compiled
with CMake into .bench_build/perfbench at the checkout root; later runs
rebuild only what changed. The workload then runs in its own process and
prints its metrics as one JSON object on the last line of standard output.
Build output goes to standard error. Everything the run writes stays under
.bench_build: the workload's temporary inputs (removed when it exits) and,
with --trace 1, the span dump.
"""
import argparse
import fcntl
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / '.bench_build'
BUILD = WORK / 'perfbench'
WORKLOADS = ('paper_fig1', 'grid_windowed', 'swf_cbf', 'pdes_latency')


def pinned_checksum(workload, scale, seed):
    """The outcome checksum pinned for (workload, scale, seed), if any."""
    for line in (HERE / 'pins.txt').read_text().splitlines():
        fields = line.split('#', 1)[0].split()
        if len(fields) == 4 and fields[:3] == [workload, scale, str(seed)]:
            return fields[3]
    return None


def check_call(cmd):
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        sys.exit('error: %s failed with exit code %d'
                 % (' '.join(cmd), result.returncode))


def build():
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(BUILD / '.lock', 'w') as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD / 'Makefile').exists():
            check_call(['cmake', '-S', str(HERE), '-B', str(BUILD),
                        '-DCMAKE_BUILD_TYPE=Release'])
        check_call(['cmake', '--build', str(BUILD), '--target',
                    'rrsim_perfbench', '-j', str(min(4, os.cpu_count() or 1))])
    return BUILD / 'rrsim_perfbench'


def main():
    ap = argparse.ArgumentParser(description=__doc__.split('\n')[0])
    ap.add_argument('--workload', required=True, choices=WORKLOADS)
    ap.add_argument('--seed', required=True, type=int)
    ap.add_argument('--seconds', required=True, type=int)
    ap.add_argument('--trace', required=True, choices=('0', '1'))
    ap.add_argument('--scale', default='full', choices=('full', 'toy'))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error('--seed must be >= 0 and --seconds >= 1')

    binary = build()
    tmp = WORK / 'tmp'
    tmp.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), '--workload', args.workload, '--seed', str(args.seed),
           '--seconds', str(args.seconds), '--trace', args.trace,
           '--scale', args.scale, '--scratch', str(tmp)]
    pin = pinned_checksum(args.workload, args.scale, args.seed)
    if pin is not None:
        cmd += ['--expect-checksum', pin]
    if args.trace == '1':
        traces = WORK / 'traces'
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ['--trace-out', str(traces / ('%s-%s-seed%d.json' % (
            args.workload, args.scale, args.seed)))]
    # The library's own spill files (WindowSpool) go to $TMPDIR.
    env = dict(os.environ, TMPDIR=str(tmp))
    child = subprocess.Popen(cmd, env=env)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.terminate()
            child.wait()


if __name__ == '__main__':
    sys.exit(main())
