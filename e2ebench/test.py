#!/usr/bin/env python3
"""Self-tests of the end-to-end benchmark. Run from the repository root:

    python3 e2ebench/test.py

Builds the benchmark through run.py, then checks that
  * every workload runs clean and prints every end-to-end metric,
    non-zero, in its declared unit;
  * a traced run passes its own check that tracing leaves every
    virtual-clock metric unchanged, and prints every per-layer metric;
  * a planted payload mismatch makes the run fail: correct is false,
    failed > 0 and the exit code is non-zero;
  * the load generator reproduces bench_fig9_compare's RAIZN points
    exactly.
Exits non-zero on the first failed check.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]
WORKLOADS = ["raizn-partial-verify", "raizn-fullstripe",
             "raizn-degraded-rebuild", "mdraid-overwrite"]

# bench_fig9_compare, RAIZN column: 1M "write" and 64K "randread" MiB/s.
FIG9_WRITE_1M = 3998
FIG9_RANDREAD_64K = 13340


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(*args):
    res = subprocess.run(RUN + list(args), capture_output=True, text=True,
                         cwd=ROOT)
    last = res.stdout.strip().splitlines()[-1] if res.stdout.strip() else ""
    try:
        result = json.loads(last)
    except ValueError:
        result = None
    return res, result


def check(cond, what, res=None):
    if not cond:
        print(f"FAIL: {what}")
        if res is not None:
            print(res.stdout[-3000:])
            print(res.stderr[-3000:])
        sys.exit(1)
    print(f"ok: {what}")


def test_workloads(s):
    for w in WORKLOADS:
        res, r = run("--workload", w, "--seed", "7", "--seconds", "0",
                     "--trace", "0")
        check(res.returncode == 0 and r and r["correct"] and
              r["failed"] == 0 and r["attempted"] > 0,
              f"{w}: untraced run is correct", res)
        for m in s["end_to_end"]:
            got = r["metrics"].get(m["name"])
            check(got is not None and got["unit"] == m["unit"] and
                  got["value"] > 0,
                  f"{w}: {m['name']} reported in {m['unit']}, non-zero", res)


def test_traced(s):
    layers = {}
    for w in WORKLOADS:
        res, r = run("--workload", w, "--seed", "7", "--seconds", "0",
                     "--trace", "1")
        check(res.returncode == 0 and r and r["correct"],
              f"{w}: traced run matches the untraced virtual clock", res)
        names = {m["name"] for m in s["per_layer"]}
        check(set(r["metrics"]) == names,
              f"{w}: every per-layer metric reported", res)
        layers[w] = {k: v["value"] for k, v in r["metrics"].items()}
    check(layers["raizn-fullstripe"]["raizn.pp_log_bytes_per_user_byte"]
          < 0.01, "raizn-fullstripe: no partial-parity log")
    check(layers["raizn-partial-verify"]["raizn.pp_log_bytes_per_user_byte"]
          > 0.5, "raizn-partial-verify: partial-parity log in use")
    check(layers["mdraid-overwrite"]["conv.gc_page_copies_per_user_page"]
          > 0, "mdraid-overwrite: FTL garbage collection runs")
    check(layers["raizn-degraded-rebuild"]
          ["raizn.reconstructed_sectors_per_read"] > 0,
          "raizn-degraded-rebuild: degraded reads reconstruct")


def test_planted_mismatch():
    for w in ["raizn-partial-verify", "raizn-degraded-rebuild"]:
        res, r = run("--workload", w, "--seed", "7", "--seconds", "0",
                     "--trace", "0", "--plant-mismatch")
        check(res.returncode != 0 and r is not None and not r["correct"]
              and r["failed"] > 0,
              f"{w}: a planted payload mismatch fails the run", res)


def test_fidelity():
    binary = os.path.join(ROOT, ".bench_build", "e2ebench", "e2ebench")
    res = subprocess.run([binary, "--fidelity"], capture_output=True,
                         text=True)
    words = res.stdout.split()
    got = dict(zip(words[2::2], words[3::2]))
    check(res.returncode == 0 and
          got.get("write_1m_mib_s") == str(FIG9_WRITE_1M) and
          got.get("randread_64k_mib_s") == str(FIG9_RANDREAD_64K),
          "load generator reproduces fig9's RAIZN 1M write and 64K "
          "randread", res)


def main():
    s = spec()
    test_workloads(s)
    test_fidelity()
    test_planted_mismatch()
    test_traced(s)
    print("all benchmark self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
