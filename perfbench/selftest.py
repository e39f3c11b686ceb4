#!/usr/bin/env python3
"""Self-test of the repo benchmark. Run from the root of a checkout:

    python3 perfbench/selftest.py              # check everything
    python3 perfbench/selftest.py --write-spec # regenerate BENCHMARK.json

Runs every workload very briefly, traced and untraced, and checks that the
result line has the contract's shape and every metric BENCHMARK.json names,
with its unit, and that each is printed with its sample count. Then checks
that a deliberately wrong expected size fails the correctness check (exit 1,
"correct": false), that BENCHMARK.json matches the tables in
perfbench/spec.ml, and that a directory holding only the benchmark fails
without printing a result.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

RUN = [sys.executable, "perfbench/run.py"]
failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def bench(*args, cwd=None):
    p = subprocess.run(RUN + list(args), capture_output=True, text=True, cwd=cwd, timeout=900)
    lines = p.stdout.strip().splitlines()
    return p.returncode, lines, p.stderr


def spec():
    code, lines, err = bench("--spec")
    if code != 0:
        sys.exit("main.exe --spec failed:\n" + err)
    return json.loads(lines[-1])


def main():
    if sys.argv[1:] == ["--write-spec"]:
        with open("BENCHMARK.json", "w") as f:
            json.dump(spec(), f, indent=2)
            f.write("\n")
        return 0
    with open("BENCHMARK.json") as f:
        committed = json.load(f)
    check(committed == spec(), "BENCHMARK.json matches perfbench/spec.ml")
    sets = {0: committed["end_to_end"], 1: committed["per_layer"]}
    for wl in [w["name"] for w in committed["workloads"]]:
        for trace in (0, 1):
            code, lines, err = bench("--workload", wl, "--seed", "7", "--seconds", "1",
                                     "--trace", str(trace))
            tag = f"{wl} --trace {trace}"
            check(code == 0, f"{tag}: exit 0" + ("" if code == 0 else f" (got {code}: {err[-300:]})"))
            try:
                res = json.loads(lines[-1])
            except (ValueError, IndexError):
                check(False, f"{tag}: last line is JSON")
                continue
            check(sorted(res) == ["attempted", "correct", "failed", "metrics"], f"{tag}: result keys")
            check(res["correct"] is True and res["attempted"] >= 1 and res["failed"] == 0,
                  f"{tag}: correct, attempted >= 1, failed == 0")
            want = {m["name"]: m["unit"] for m in sets[trace]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == want, f"{tag}: every metric, with its unit")
            shown = {}
            for line in lines:
                mm = re.match(r"metric (\S+)\s+\S+ (\S+) \(n=(\d+)\)", line)
                if mm:
                    shown[mm.group(1)] = mm.group(2)
            check(shown == want, f"{tag}: every metric printed with unit and sample count")
            check(any(l.startswith("record {") for l in lines), f"{tag}: reproducibility record")
    for wl in ("list-churn", "netkv-steady"):
        code, lines, _ = bench("--workload", wl, "--seed", "7", "--seconds", "0.5", "--trace", "0",
                               "--expect-size-skew", "1")
        res = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
        check(code == 1 and res.get("correct") is False
              and any(l.startswith("CHECK FAILED") and "expected" in l for l in lines),
              f"{wl}: a wrong expected size fails the check")
    os.makedirs(".bench_build", exist_ok=True)
    with tempfile.TemporaryDirectory(dir=".bench_build") as bare:
        shutil.copy("BENCHMARK.json", bare)
        shutil.copytree("perfbench", os.path.join(bare, "perfbench"))
        code, lines, _ = bench("--workload", "list-churn", "--seed", "1", "--seconds", "1",
                               "--trace", "0", cwd=bare)
        check(code != 0 and not any(l.startswith("{") for l in lines),
              "without the program's sources: nonzero exit, no result")
    print("selftest: %d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
