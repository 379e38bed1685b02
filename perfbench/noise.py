#!/usr/bin/env python3
"""Run the benchmark repeatedly and tabulate its run-to-run spread.

    python3 perfbench/noise.py run --out runs.jsonl --workloads scan-table7,check-128 \
        --seeds 1-10 [--same-seed 7 --repeats 5] [--seconds 10]
    python3 perfbench/noise.py table runs.jsonl

`run` appends one JSON record per run: workload, seed, whether the run
is a same-seed repeat, the end-to-end metrics (host-normalised) and the
raw values the run printed beside them. `table` prints, per workload and
timing metric, the inter-quartile range over the median (Python's
`statistics.quantiles(n=4)`) of raw and of normalised values, cross-seed
and same-seed runs apart, as a markdown table. Run it from the checkout
root; it uses the command in BENCHMARK.json.
"""

import json
import statistics
import subprocess
import sys
import time

TIMINGS = ["setup_s", "images_per_s", "cpu_ms_per_image", "latency_p50_ms"]


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(command, workload, seed, seconds):
    started = time.time()
    out = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=False)
    wall = time.time() - started
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({out.returncode}):\n{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    raw, host = {}, {}
    for line in lines:
        if line.startswith("diagnostic "):
            name, _, rest = line[len("diagnostic "):].partition(" = ")
            group, _, short = name.partition(".")
            if group in ("raw", "host"):
                (raw if group == "raw" else host)[short] = float(rest.split()[0])
    return {"workload": workload, "seed": seed, "wall_s": wall, "correct": result["correct"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}, "raw": raw,
            "host": host}


def run(args):
    opts = dict(zip(args[::2], args[1::2]))
    spec = json.load(open("BENCHMARK.json"))
    seconds = int(opts.get("--seconds", spec["run_seconds"]))
    plan = [(s, False) for s in parse_seeds(opts["--seeds"])] if "--seeds" in opts else []
    if "--same-seed" in opts:
        plan += [(int(opts["--same-seed"]), True)] * int(opts.get("--repeats", "5"))
    with open(opts["--out"], "a") as out:
        for workload in opts["--workloads"].split(","):
            for seed, repeat in plan:
                record = one_run(spec["command"], workload, seed, seconds)
                record["same_seed"] = repeat
                out.write(json.dumps(record) + "\n")
                out.flush()
                print(workload, seed, "repeat" if repeat else "",
                      " ".join(f"{k}={v:.4g}" for k, v in record["metrics"].items()),
                      f"({record['wall_s']:.1f} s)", file=sys.stderr)


def spread(values):
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def table(path):
    records = [json.loads(line) for line in open(path)]
    print("| workload | metric | runs | median (norm.) | IQR/median raw | IQR/median norm. |"
          " same-seed runs | same-seed raw | same-seed norm. |")
    print("|---|---|---|---|---|---|---|---|---|")
    for workload in dict.fromkeys(r["workload"] for r in records):
        rows = [r for r in records if r["workload"] == workload]
        cross = [r for r in rows if not r.get("same_seed")]
        same = [r for r in rows if r.get("same_seed")]
        for metric in TIMINGS + ["peak_rss_mb", "verdict_accuracy"]:
            def cells(group):
                norm = [r["metrics"][metric] for r in group]
                raw = [r["raw"][metric] for r in group if metric in r["raw"]]
                return norm, (spread(raw) if raw else float("nan")), spread(norm)
            norm, raw_c, norm_c = cells(cross)
            _, raw_s, norm_s = cells(same)
            fmt = lambda x: "—" if x != x else f"{x:.3f}"
            print(f"| {workload} | {metric} | {len(cross)} | {statistics.median(norm) if norm else float('nan'):.4g} |"
                  f" {fmt(raw_c)} | {fmt(norm_c)} | {len(same)} | {fmt(raw_s)} | {fmt(norm_s)} |")


if __name__ == "__main__":
    if len(sys.argv) >= 3 and sys.argv[1] == "run":
        run(sys.argv[2:])
    elif len(sys.argv) == 3 and sys.argv[1] == "table":
        table(sys.argv[2])
    else:
        raise SystemExit(__doc__)
