"""Benchmark of ``mprabi run``, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  NAME is one of the workloads in
``workloads.py``, or ``all`` to run each in turn.  Every run of the program is
``python3 -m mprabi.cli run`` in a fresh child process (closed loop, one client:
the next run starts when the previous one has exited), and every run's
trajectory is checked against the reference of ``reference.py``; a run that
exits nonzero or misses the check counts as failed and its timing is dropped.

--trace 0 measures the end-to-end metrics: wall time and peak RSS of each run,
the set-up time of fresh processes that stop before the first step, and
accuracy.  --trace 1 alternates untraced runs with traced ones (``child.py
traced``) and reduces the traced runs' spans to the per-layer metrics.  The
metric names and units printed on the last line come from BENCHMARK.json.

Each run writes a results file (machine facts, config, fingerprint and every
sample) to ``.bench_out/`` in the checkout; a traced run adds the span dump of
one traced process beside it, one span per line.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(ROOT / "src"))

from child import LAYERS, SAMPLE_SPAN  # noqa: E402
from reference import Reference, Trajectory  # noqa: E402
from workloads import WORKLOADS, make_config, n_steps  # noqa: E402

#: a child still running after this many seconds is killed and counts as failed
CHILD_TIMEOUT = 60.0


class Child:
    """One finished child process: exit code, output, wall time and peak RSS."""

    def __init__(self, args, cwd: Path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        with open(cwd / "stdout.txt", "wb") as out, open(cwd / "stderr.txt", "wb") as err:
            self.t_spawn = time.perf_counter()
            proc = subprocess.Popen(args, cwd=cwd, env=env, stdout=out, stderr=err)
            killer = threading.Timer(CHILD_TIMEOUT, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            self.t_exit = time.perf_counter()
        proc.returncode = self.returncode = os.waitstatus_to_exitcode(status)
        self.wall = self.t_exit - self.t_spawn
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.stdout = (cwd / "stdout.txt").read_text(errors="replace")
        self.stderr = (cwd / "stderr.txt").read_text(errors="replace").strip()


def run_program(cfg_path: Path, ref: Reference, work: Path, traced: bool) -> dict:
    """One ``mprabi run`` (traced or not) with its output checked."""
    outdir = Path(tempfile.mkdtemp(dir=work))
    try:
        if traced:
            args = [sys.executable, str(BENCH / "child.py"), "traced", str(cfg_path),
                    str(outdir), str(outdir / "spans.json")]
        else:
            args = [sys.executable, "-m", "mprabi.cli", "run", str(cfg_path),
                    "--output-dir", str(outdir)]
        child = Child(args, outdir)
        run = {"wall_s": child.wall, "rss_mb": child.rss_mb}
        csvs = sorted(outdir.glob("*.csv"))
        if child.returncode != 0:
            run["problems"] = [f"exit code {child.returncode}: {child.stderr[-500:]}"]
        elif len(csvs) != 1:
            run["problems"] = [f"expected one trajectory CSV, found {len(csvs)}"]
        else:
            traj = Trajectory.read(csvs[0])
            run["problems"], run["w_err_max"], run["norm_drift_max"] = ref.check(traj)
            run["fingerprint"] = {
                "samples": int(traj.w.size),
                "final_w": float(traj.w[-1]),
                "norm_drift_max": run["norm_drift_max"],
                "csv_bytes": traj.csv_bytes,
                "csv_sha256": traj.sha256,
            }
            if traced:
                with open(outdir / "spans.json", encoding="utf-8") as handle:
                    dump = json.load(handle)
                dump["spans"].append([0, -1, "process", child.t_spawn, child.t_exit])
                run["dump"] = dump
        run["ok"] = not run["problems"]
        return run
    finally:
        shutil.rmtree(outdir, ignore_errors=True)


def summarize(values: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples beyond it
    when that percentile lies above the median (n >= 20)."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n}
    if n >= 20:
        out[f"p{100 * (n - 10) // n}"] = ordered[n - 11]
    return out


def reduce_spans(dump: dict, cfg: dict, fingerprint: dict) -> dict:
    """Per-layer figures of one traced run, keyed as in BENCHMARK.json."""
    spans = dump["spans"]
    total = defaultdict(float)
    self_time = defaultdict(float)
    calls = defaultdict(int, dump["counts"])
    name_of = {span_id: name for span_id, _, name, _, _ in spans}
    for span_id, parent, name, start, end in spans:
        total[name] += end - start
        self_time[name] += end - start
        calls[name] += 1
        if parent in name_of:
            self_time[name_of[parent]] -= end - start
    figures = {}
    for name in set(total) | set(calls):
        figures[f"{name}.s"] = total[name]
        figures[f"{name}.self_s"] = self_time[name]
        figures[f"{name}.calls"] = calls[name]
    figures.update({
        "cli.import_s": total["cli.import"],
        "dynamics.evolve_numeric.us_per_step":
            1e6 * self_time["dynamics.evolve_numeric"] / n_steps(cfg),
        "dynamics.evolve_numeric.us_per_sample":
            1e6 * total[SAMPLE_SPAN] / calls[SAMPLE_SPAN] if calls[SAMPLE_SPAN] else 0.0,
        "runner.format_csv.us_per_row":
            1e6 * total["runner.format_csv"] / fingerprint["samples"],
        "runner.csv_bytes": fingerprint["csv_bytes"],
        "trace.wall_s": total["process"],
        "trace.span_self_sum_s": sum(self_time.values()),
    })
    return figures


def layer_value(figures: dict, name: str) -> float:
    """A per-layer figure; a layer function that never ran has 0 calls and 0 s."""
    if name in figures:
        return figures[name]
    base, _, kind = name.rpartition(".")
    if kind in ("s", "self_s", "calls") and base.split(".")[0] in LAYERS:
        return 0
    raise KeyError(f"no per-layer figure named {name!r}")


def measure(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    """All runs of one workload for one seed; returns the results record."""
    workload = WORKLOADS[name]
    cfg = make_config(workload, ROOT / "configs", seed)
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        cfg_path = work / f"{name}.json"
        cfg_path.write_text(json.dumps(cfg, indent=1) + "\n", encoding="utf-8")
        facts_child = Child([sys.executable, str(BENCH / "child.py"), "facts"], work)
        if facts_child.returncode != 0:
            raise RuntimeError(f"facts child failed: {facts_child.stderr}")
        facts = json.loads(facts_child.stdout)
        facts["git_commit"] = git_commit()
        ref = Reference(cfg)

        def setup_wall() -> float:
            child = Child([sys.executable, str(BENCH / "child.py"), "setup", str(cfg_path)],
                          work)
            if child.returncode != 0:
                raise RuntimeError(f"set-up child failed: {child.stderr}")
            return child.wall

        # untimed first set-up: compiles bytecode and fills the file cache
        setup_wall()
        # set-up and program runs alternate, so that both see the same
        # spells of load from other tenants of the machine
        setup_walls, runs, traced_runs = [], [], []
        measured = 0.0
        while measured < seconds or not runs or (trace and not traced_runs):
            if trace:
                traced = len(traced_runs) < len(runs)
                run = run_program(cfg_path, ref, work, traced)
                (traced_runs if traced else runs).append(run)
            else:
                setup_walls.append(setup_wall())
                measured += setup_walls[-1]
                run = run_program(cfg_path, ref, work, traced=False)
                runs.append(run)
            measured += run["wall_s"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = runs + traced_runs
    ok_runs = [r for r in runs if r["ok"]]
    ok_traced = [r for r in traced_runs if r["ok"]]
    record = {
        "workload": name, "seed": seed, "trace": int(trace), "seconds": seconds,
        "config": cfg, "facts": facts,
        "attempted": len(attempted),
        "failed": sum(not r["ok"] for r in attempted),
        "problems": [p for r in attempted for p in r["problems"]],
        "fingerprint": next((r["fingerprint"] for r in attempted if r["ok"]), None),
        "csv_variants": len({r["fingerprint"]["csv_sha256"]
                             for r in attempted if r["ok"]}),
    }
    if not ok_runs or (trace and not ok_traced):
        return record
    walls = [r["wall_s"] for r in ok_runs]
    record["samples"] = {"wall_s": walls, "rss_mb": [r["rss_mb"] for r in ok_runs],
                         "setup_s": setup_walls}
    record["summary"] = {"wall_s": summarize(walls)}
    wall = statistics.median(walls)
    everything = {
        "wall_s": wall,
        "periods_per_s": cfg["t_end"] / wall,
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in ok_runs),
        "w_err_max": max(r["w_err_max"] for r in ok_runs + ok_traced),
        "norm_drift_max": max(r["norm_drift_max"] for r in ok_runs + ok_traced),
        "fail_frac": record["failed"] / record["attempted"],
    }
    if setup_walls:
        everything["setup_s"] = statistics.median(setup_walls)
        record["summary"]["setup_s"] = summarize(setup_walls)
    if trace:
        per_run = [reduce_spans(r["dump"], cfg, r["fingerprint"]) for r in ok_traced]
        for key in set().union(*per_run):
            everything[key] = statistics.median(layer_value(f, key) for f in per_run)
        everything["trace.overhead_s"] = everything["trace.wall_s"] - wall
        record["samples"]["traced_wall_s"] = [r["wall_s"] for r in ok_traced]
        first = ok_traced[0]["dump"]
        t0 = min(s[3] for s in first["spans"])
        record["span_counts"] = first["counts"]
        record["spans"] = [[i, p, n, a - t0, b - t0] for i, p, n, a, b in first["spans"]]
    wanted = spec["per_layer" if trace else "end_to_end"]
    record["everything"] = everything
    record["metrics"] = {
        m["name"]: {"value": layer_value(everything, m["name"]), "unit": m["unit"]}
        for m in wanted
    }
    return record


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return out.stdout.strip() or None


#: figures printed beside the metrics of BENCHMARK.json; they are gated by the
#: reference check and the failure count rather than bounded
GATES = {"w_err_max": "1", "norm_drift_max": "1", "fail_frac": "1"}


def report(record: dict, spec: dict) -> None:
    """Human-readable table of one workload's figures."""
    print(f"== {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"runs {record['attempted']} ({record['failed']} failed)")
    for problem in record["problems"][:5]:
        print(f"   problem: {problem}")
    if "everything" not in record:
        return
    figures = record["everything"]
    if record["trace"]:
        for name in sorted(record["metrics"]):
            m = record["metrics"][name]
            print(f"   {name:40s} {m['value']:.6g} {m['unit']}")
        print(f"   span self times sum to {figures['trace.span_self_sum_s']:.4f} s of "
              f"traced wall {figures['trace.wall_s']:.4f} s; untraced wall "
              f"{figures['wall_s']:.4f} s, so tracing costs {figures['trace.overhead_s']:.4f} s")
        return
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]} | GATES
    for name, unit in units.items():
        line = f"   {name:16s} {figures[name]:.6g} {unit}"
        summary = record["summary"].get(name)
        if summary:
            tail = [f"{k} {v:.6g} {unit}" for k, v in summary.items() if k.startswith("p")]
            line += f"  (median of n={summary['n']}{'; ' + tail[0] if tail else ''})"
        print(line)
    print(f"   fingerprint {json.dumps(record['fingerprint'])}")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    missing = [p for p in [ROOT / "src" / "mprabi" / "cli.py"]
               + [ROOT / "configs" / WORKLOADS[n].config for n in names] if not p.is_file()]
    if missing:
        print(f"error: not a mprabi checkout, missing {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2

    records = []
    for name in names:
        record = measure(name, args.seed, args.seconds, bool(args.trace), spec)
        path = OUT / f"{name}-seed{args.seed}-trace{args.trace}.json"
        spans = record.pop("spans", None)
        if spans is not None:
            # one span per line: id, parent, name, start and end in seconds
            # from the process spawn
            dump = path.with_suffix(".spans.jsonl")
            dump.write_text("".join(json.dumps(span) + "\n" for span in spans),
                            encoding="utf-8")
            record["span_dump"] = dump.name
        path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        report(record, spec)
        print(f"   results {path.relative_to(ROOT)}")
        if "metrics" not in record:
            print(f"error: no run of {name} passed", file=sys.stderr)
            return 1
        records.append(record)

    metrics = {
        (key if len(records) == 1 else f"{r['workload']}.{key}"): value
        for r in records for key, value in r["metrics"].items()
    }
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
