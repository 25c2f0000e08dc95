"""Paper-reproduction benchmark: end-to-end metrics and a per-layer ledger.

Run from the root of a checkout::

    python3 paperbench/run.py --workload headline-8x8 --seed 1 --seconds 50 --trace 0
    python3 paperbench/run.py --workload all --trace 0
    python3 paperbench/run.py --self-check
    python3 paperbench/run.py --record-reference

Every campaign runs in a fresh interpreter (``campaign.py``) with a cold
sweep cache in a temporary directory under ``.bench_out/``, which is
removed afterwards. ``--trace 0`` prints the end-to-end metrics; ``--trace
1`` runs the campaign untraced and then traced, checks that both give the
same outputs, and prints the per-layer metrics. The last line of standard
output is one JSON object; the full record of the run is written to
``.bench_out/``. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
REFERENCE = HERE / "reference.json"

WORKLOADS = ("headline-8x8", "thresholds-4x4")
#: Pool size of every campaign, fixed so the host cannot change a workload.
PROCESSES = 2
#: Timed set-up probes per run (after one untimed one that fills the
#: bytecode cache); the run reports their median.
SETUP_PROBES = 5
#: Campaigns a run makes at least. One ``headline-8x8`` campaign takes
#: about half a run, and host speed drifts over that long, so its runs
#: report the median of two.
MIN_CAMPAIGNS = {"headline-8x8": 2}
#: Every run ends within this many seconds of starting.
RUN_BUDGET_S = 170.0
#: Interval between resident-set samples of a running campaign.
RSS_SAMPLE_S = 0.2
PAGE_KIB = os.sysconf("SC_PAGE_SIZE") // 1024

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "completed_frac": "frac",
    "avg_savings_err_x": "x",
    "zero_load_latency_err_pct": "pp",
}
PER_LAYER_UNITS = {
    "router.step_s": "s",
    "router.steps": "count",
    "controller.close_window_s": "s",
    "controller.windows": "count",
    "dvs.transitions": "count",
    "engine.self_s": "s",
    "engine.cycles_stepped": "count",
    "engine.cycles_skipped": "count",
    "engine.cycles_per_s": "1/s",
    "traffic.injections_s": "s",
    "traffic.packets": "count",
    "observers.hooks_s": "s",
    "runner.build_s": "s",
    "runner.simulate_s": "s",
    "runner.points": "count",
    "runner.unpooled_points": "count",
    "backends.idle_frac": "frac",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.load_s": "s",
    "cache.store_s": "s",
    "trace.overhead_x": "x",
}


class CheckoutError(Exception):
    """The benchmark is not running from the root of a repro checkout."""


class RunError(Exception):
    """A run produced no campaign to measure (it crashed or overran)."""


def campaign_env(cache_dir: Path) -> dict[str, str]:
    """The host environment with every ``REPRO_*`` setting pinned."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        REPRO_CACHE=str(cache_dir),
        REPRO_PROCESSES=str(PROCESSES),
    )
    return env


def group_rss_kib(pgid: int) -> int:
    """Resident set of every process in process group *pgid*, in KiB."""
    total = 0
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            with open(f"/proc/{entry.name}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
            if int(fields[2]) != pgid:
                continue
            with open(f"/proc/{entry.name}/statm", encoding="ascii") as handle:
                total += int(handle.read().split()[1]) * PAGE_KIB
        except (OSError, IndexError, ValueError):
            continue  # the process ended while being read
    return total


def _stop_group(proc: subprocess.Popen, deadline: float) -> None:
    """Kill what is left of *proc*'s process group and wait for it to end."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def campaign(workload: str, workload_seed: int, deadline: float, *,
             trace: bool = False, setup_only: bool = False,
             quick: bool = False) -> dict:
    """Run ``campaign.py`` once and return its record.

    ``setup_s`` is measured here, from just before the interpreter starts
    to the child's first pool submission (both on the system-wide
    monotonic clock). ``peak_rss_mib`` is the largest sampled sum of the
    resident sets of the campaign's process and its pool workers. A
    campaign that crashes or overruns *deadline* returns a record with
    ``error`` set.
    """
    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="campaign-", dir=OUT_DIR))
    try:
        out = work / "result.json"
        command = [sys.executable, str(HERE / "campaign.py"), workload,
                   "--workload-seed", str(workload_seed), "--out", str(out)]
        command += [flag for flag, on in (("--trace", trace),
                                          ("--setup-only", setup_only),
                                          ("--quick", quick)) if on]
        peak_kib = 0
        with open(work / "log.txt", "wb") as log:
            started = time.monotonic()
            proc = subprocess.Popen(command, env=campaign_env(work / "cache"),
                                    cwd=ROOT, start_new_session=True,
                                    stdout=log, stderr=subprocess.STDOUT)
            try:
                while proc.poll() is None:
                    if time.monotonic() > deadline:
                        return {"error": "campaign overran the run's time budget"}
                    if not setup_only:
                        peak_kib = max(peak_kib, group_rss_kib(proc.pid))
                    try:
                        proc.wait(timeout=RSS_SAMPLE_S)
                    except subprocess.TimeoutExpired:
                        pass
            finally:
                _stop_group(proc, deadline + 5.0)
        if proc.returncode != 0 or not out.is_file():
            tail = (work / "log.txt").read_text(errors="replace")[-2000:]
            return {"error": f"campaign exited with {proc.returncode}: {tail}"}
        record = json.loads(out.read_text(encoding="utf-8"))
        if "setup_end" in record:
            record["setup_s"] = record["setup_end"] - started
        record["peak_rss_mib"] = peak_kib / 1024.0
        return record
    finally:
        shutil.rmtree(work, ignore_errors=True)


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def digest(figure: dict) -> str:
    """Digest of a figure's rows and the unrounded values behind them."""
    canonical = json.dumps({"rows": figure["rows"], "raw": figure["raw"]},
                           sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def digests(record: dict) -> dict[str, str]:
    return {figure["name"]: digest(figure) for figure in record["figures"]}


def failed_points(record: dict, expected: dict[str, str]) -> int:
    """Points of a finished campaign that are missing or differ from *expected*.

    A campaign that returned fewer points than it attempted, or another
    set of figures, fails every point. Figures reporting the same points
    share a group, so one wrong group is charged once.
    """
    figures = record["figures"]
    if sum({f["group"]: f["points"] for f in figures}.values()) != record["attempted"]:
        return record["attempted"]
    if set(expected) != {f["name"] for f in figures}:
        return record["attempted"]
    wrong = {f["group"]: f["points"] for f in figures
             if expected[f["name"]] != digest(f)}
    return sum(wrong.values())


def perturbation_caught(record: dict, seed: int) -> bool:
    """Whether the check flags a copy of *record* with one row changed.

    The seed picks the figure, row and cell; a number is increased by 1,
    a label gets a suffix.
    """
    rng = random.Random(seed)
    figures = json.loads(json.dumps(record["figures"]))
    figure = rng.choice(figures)
    row = rng.choice(figure["rows"])
    column = rng.randrange(len(row))
    cell = row[column]
    row[column] = cell + 1 if isinstance(cell, (int, float)) else f"{cell}?"
    perturbed = dict(record, figures=figures)
    return failed_points(perturbed, digests(record)) > 0


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def _checked(records: list[dict], reference: dict | None, seed: int) -> dict:
    """``attempted``/``failed``/``caught`` of a run's campaigns.

    Without a reference (a non-default workload seed, or the self-check)
    every campaign must equal the run's first one.
    """
    first = records[0]
    if first.get("error") is not None:
        raise RunError(first["error"])
    expected = reference if reference is not None else digests(first)
    points = first["attempted"]
    return {
        "attempted": points * len(records),
        "failed": sum(points if r.get("error") is not None
                      else failed_points(r, expected) for r in records),
        "caught": perturbation_caught(first, seed),
    }


def run_end_to_end(workload: str, *, seed: int, workload_seed: int,
                   seconds: int, deadline: float, quick: bool,
                   reference: dict | None) -> tuple[dict, dict]:
    """Set-up probes, then cold campaigns until *seconds* is used up."""
    started = time.monotonic()
    setups = []
    for probe in range(SETUP_PROBES + 1):
        record = campaign(workload, workload_seed, deadline, setup_only=True,
                          quick=quick)
        if "setup_s" not in record:
            raise RunError(f"set-up probe failed: {record.get('error')}")
        if probe:
            setups.append(record["setup_s"])

    records = []
    while True:
        record = campaign(workload, workload_seed, deadline, quick=quick)
        records.append(record)
        if record.get("error") is not None:
            break
        # Start another campaign only if it should end within --seconds.
        if (len(records) >= MIN_CAMPAIGNS.get(workload, 1)
                and time.monotonic() - started + record["wall_s"] > seconds):
            break
    summary = _checked(records, reference, seed)
    good = [r for r in records if r.get("error") is None]
    setups += [r["setup_s"] for r in good]
    summary["metrics"] = {
        "wall_s": statistics.median(r["wall_s"] for r in good),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in good),
        "completed_frac": 1.0 - summary["failed"] / summary["attempted"],
        **good[0]["claim_errors"],
    }
    return summary, {"setup_s": setups, "campaigns": records}


def run_traced(workload: str, *, seed: int, workload_seed: int, seconds: int,
               deadline: float, quick: bool,
               reference: dict | None) -> tuple[dict, dict]:
    """An untraced and a traced campaign; per-layer metrics of the second.

    Always exactly these two campaigns, whatever *seconds* says.
    """
    plain = campaign(workload, workload_seed, deadline, quick=quick)
    traced = campaign(workload, workload_seed, deadline, trace=True, quick=quick)
    if traced.get("error") is not None:
        raise RunError(traced["error"])
    summary = _checked([plain, traced], reference, seed)
    summary["metrics"] = {
        **traced["layers"],
        "cache.hits": traced["cache"]["hits"],
        "cache.misses": traced["cache"]["misses"],
        "trace.overhead_x": traced["wall_s"] / plain["wall_s"],
    }
    return summary, {"campaigns": [plain, traced]}


def measure(workload: str, *, seed: int, workload_seed: int, seconds: int,
            trace: bool, quick: bool = False,
            reference: dict | None = None) -> tuple[dict, dict]:
    """One benchmark run: the result line's fields and the full record."""
    runner = run_traced if trace else run_end_to_end
    summary, record = runner(
        workload, seed=seed, workload_seed=workload_seed, seconds=seconds,
        deadline=time.monotonic() + RUN_BUDGET_S, quick=quick,
        reference=reference,
    )
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    result = {
        "correct": summary["failed"] == 0 and summary["caught"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": summary["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }
    return result, record


def reference_for(workload: str, workload_seed: int) -> dict | None:
    """Recorded digests for *workload*, which exist for the default seed."""
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    if workload_seed != reference["workload_seed"]:
        return None
    return reference["digests"][workload]


def check_checkout() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise CheckoutError(f"{ROOT} holds no repro sources under src/")


# ---------------------------------------------------------------------------
# Maintenance modes
# ---------------------------------------------------------------------------


def record_reference(workload_seed: int) -> int:
    """Record each workload's output digests at *workload_seed*."""
    deadline = time.monotonic() + 3 * RUN_BUDGET_S
    table = {}
    for workload in WORKLOADS:
        record = campaign(workload, workload_seed, deadline)
        if record.get("error") is not None:
            print(record["error"], file=sys.stderr)
            return 1
        table[workload] = digests(record)
    REFERENCE.write_text(json.dumps(
        {"workload_seed": workload_seed, "digests": table}, indent=2,
        sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE}")
    return 0


def self_check() -> int:
    """Run every workload shrunk, both ways, and check the benchmark itself.

    Asserts that each run emits every metric ``BENCHMARK.json`` names, with
    its unit; that traced and untraced outputs agree; and that a perturbed
    reference row is caught.
    """
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            try:
                result, record = measure(workload, seed=1, workload_seed=1,
                                         seconds=1, trace=trace, quick=True)
            except RunError as exc:
                problems.append(f"{workload} {key}: {exc}")
                continue
            want = {m["name"]: m["unit"] for m in declared[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{workload} {key}: metrics {got} != {want}")
            if not result["correct"]:
                problems.append(f"{workload} {key}: not correct: "
                                f"{json.dumps(result)[:500]}")
            first = record["campaigns"][0]
            for figure_seed in range(3):
                if not perturbation_caught(first, figure_seed):
                    problems.append(f"{workload}: perturbed row {figure_seed} missed")
            print(f"{workload} trace={int(trace)}: {len(got)} metrics, "
                  f"{result['attempted']} points, {result['failed']} failed",
                  flush=True)
    for problem in problems:
        print("FAIL", problem)
    print("self-check", "failed" if problems else "passed")
    return 1 if problems else 0


def run_and_record(workload: str, args: argparse.Namespace) -> dict:
    """Measure one workload, write its full record, return its result line."""
    result, record = measure(
        workload, seed=args.seed, workload_seed=args.workload_seed,
        seconds=args.seconds, trace=bool(args.trace),
        reference=reference_for(workload, args.workload_seed),
    )
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(
        json.dumps({"args": vars(args), "result": result, **record}),
        encoding="utf-8")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"),
                        help="'all' runs every workload and prints a table")
    parser.add_argument("--seed", type=int, default=1,
                        help="picks the row the output check perturbs to "
                        "prove it can fail; see README.md")
    parser.add_argument("--workload-seed", type=int, default=1,
                        help="traffic seed of every simulated point "
                        "(outputs are checked against the reference at 1)")
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    try:
        check_checkout()
    except CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.self_check:
        return self_check()
    if args.record_reference:
        return record_reference(args.workload_seed)
    if args.workload is None:
        parser.error("--workload is required")

    try:
        if args.workload != "all":
            print(json.dumps(run_and_record(args.workload, args)))
            return 0
        correct = True
        for workload in WORKLOADS:
            result = run_and_record(workload, args)
            correct = correct and result["correct"]
            print(f"{workload}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for name, metric in result["metrics"].items():
                print(f"  {name:<28} {metric['value']:>14.6g} {metric['unit']}",
                      flush=True)
        return 0 if correct else 1
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
