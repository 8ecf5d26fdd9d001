#!/usr/bin/env python3
"""Smoke test of the benchmark at toy scale.

    python3 perfbench/smoke.py

For every workload in BENCHMARK.json: an untraced run must print every
end-to-end metric, and two traced runs every per-layer metric, each with
the unit BENCHMARK.json gives; every run must be correct with no failed
run and match the checksum pinned for toy scale; and the two traced runs
must report identical counts. Exits 0 when all of that holds.
"""
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 1

# Per-layer metrics derived from host time; every other one is a count or
# a ratio of counts and must repeat exactly.
TIMED_UNITS = {'s', 'ns'}
TIMED_RATIOS = {'exec.idle_frac', 'exec.pdes_speedup_2w'}


def run(workload, trace):
    cmd = [sys.executable, str(HERE / 'run.py'), '--workload', workload,
           '--seed', str(SEED), '--seconds', '1', '--trace', str(trace),
           '--scale', 'toy']
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise AssertionError('%s exited %d: %s' % (' '.join(cmd),
                                                   proc.returncode,
                                                   proc.stderr[-2000:]))
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])['info'], json.loads(lines[-1])


def check(workload, trace, expected, problems):
    info, result = run(workload, trace)
    where = '%s trace=%d' % (workload, trace)
    if sorted(result) != ['attempted', 'correct', 'failed', 'metrics']:
        problems.append('%s: result keys %s' % (where, sorted(result)))
    if not result['correct'] or result['failed'] != 0:
        problems.append('%s: correct=%s failed=%s' % (
            where, result['correct'], result['failed']))
    if not info['pin_matched']:
        problems.append('%s: checksum %s does not match a toy-scale pin'
                        % (where, info['checksum']))
    got = {name: m['unit'] for name, m in result['metrics'].items()}
    want = {m['name']: m['unit'] for m in expected}
    if got != want:
        problems.append('%s: metrics differ from BENCHMARK.json: missing %s, '
                        'unexpected %s, unit mismatches %s' % (
                            where, sorted(set(want) - set(got)),
                            sorted(set(got) - set(want)),
                            sorted(n for n in set(got) & set(want)
                                   if got[n] != want[n])))
    return result['metrics']


def counts(metrics):
    return {name: m['value'] for name, m in metrics.items()
            if m['unit'] not in TIMED_UNITS and name not in TIMED_RATIOS}


def main():
    bench = json.loads((ROOT / 'BENCHMARK.json').read_text())
    problems = []
    for workload in (w['name'] for w in bench['workloads']):
        before = len(problems)
        check(workload, 0, bench['end_to_end'], problems)
        first = check(workload, 1, bench['per_layer'], problems)
        second = check(workload, 1, bench['per_layer'], problems)
        if counts(first) != counts(second):
            problems.append('%s: traced counts differ between two runs: %s'
                            % (workload, sorted(
                                k for k in counts(first)
                                if counts(first)[k] != counts(second).get(k))))
        print('%-14s %s' % (workload, 'ok' if len(problems) == before
                                  else 'FAILED'), flush=True)
    for p in problems:
        print('FAIL ' + p)
    return 1 if problems else 0


if __name__ == '__main__':
    sys.exit(main())
