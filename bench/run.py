"""The resilink benchmark: seeded workloads run through the real CLI.

    python3 bench/run.py --workload build-sparse --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1

Each workload generates its inputs from ``--seed`` (set-up, timed several
times), then runs its CLI commands closed loop with one client: every
command is its own child process, started only after the previous one
exited, so a command's time is what a user waits for. Passes repeat while
``--seconds`` allows, and at least once. Every command's exit code,
stderr and outputs are checked; a failed check is counted and the run
still reports its timings. Each timing is reported at a reference CPU
speed measured by a probe loop around it (see ``probe``), with the plain
wall time printed beside it.

With ``--trace 1`` the run alternates an untraced pass with a traced one
(see ``tracing.py``) and reports per-layer metrics plus the tracing
overhead. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import generate
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACER = Path(__file__).resolve().parent / "tracing.py"
N_INPUT_EVENTS = generate.N_EOR + generate.N_CH
UC6_RADIUS_KM = 1.0
# Each run must end within 180 s; a child still running at this point is killed.
RUN_DEADLINE_S = 170.0

E2E_UNITS = {"command_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


class SetupError(Exception):
    """Set-up could not produce the workload's inputs."""


@dataclass
class Command:
    label: str  # names the per-command timing, e.g. "pipeline" -> pipeline_s
    argv: list[str]  # resilink arguments
    outputs: list[Path]  # removed before each run, so a stale file cannot pass a check
    check: Callable[[], list[str]]


@dataclass
class Outcome:
    wall_s: float
    maxrss_kb: int
    problems: list[str]
    layers: dict[str, float] | None = None


@dataclass
class Stats:
    """Everything a run measured."""

    setup_s: list[float] = field(default_factory=list)
    passes: list[dict[str, Outcome]] = field(default_factory=list)
    traced: list[dict[str, Outcome]] = field(default_factory=list)
    # Reference speed over measured speed (see probe()): one factor for the
    # set-ups, and one per pass, which scales a wall time to the reference.
    setup_factor: float = 1.0
    passes_factor: list[float] = field(default_factory=list)
    traced_factor: list[float] = field(default_factory=list)

    def setup_scaled_s(self) -> list[float]:
        return [s * self.setup_factor for s in self.setup_s]

    def passes_scaled_s(self, label: str | None = None) -> list[float]:
        """Each untraced pass's time, or one command's, at the reference speed."""
        return [(pass_wall(p) if label is None else p[label].wall_s) * f
                for p, f in zip(self.passes, self.passes_factor)]

    def traced_scaled_s(self) -> list[float]:
        return [pass_wall(p) * f for p, f in zip(self.traced, self.traced_factor)]

    def outcomes(self) -> list[Outcome]:
        return [o for p in self.passes + self.traced for o in p.values()]


class Runner:
    """Starts resilink commands as child processes, one at a time, against a deadline."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        # A fixed hash seed keeps set and dict iteration order, and with it
        # the program's work, the same from one child to the next.
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self.n = 0

    def run(self, argv: list[str], traced: bool = False) -> Outcome:
        self.n += 1
        log = self.workdir / f"cmd{self.n}.log"
        spans = self.workdir / f"cmd{self.n}.spans.json"
        if traced:
            run_id = f"{self.workdir.name}/cmd{self.n}"
            cmd = [sys.executable, str(TRACER), str(spans), run_id, "--", *argv]
        else:
            cmd = [sys.executable, "-m", "resilink.cli", *argv]
        with log.open("wb") as out:
            started = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.workdir, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=subprocess.STDOUT)
            watchdog = threading.Timer(max(0.0, self.deadline - started), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no child running
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - started
        # wait4 reaped the child; record its status so Popen does not wait again.
        proc.returncode = os.waitstatus_to_exitcode(status)
        text = log.read_text(encoding="utf-8", errors="replace")
        problems = []
        if proc.returncode != 0:
            problems.append(f"exit code {proc.returncode}: {text.strip()[-300:]}")
        if "Traceback (most recent call last)" in text:
            problems.append("traceback on stderr")
        layers = None
        if traced and proc.returncode == 0:
            doc = json.loads(spans.read_text(encoding="utf-8"))
            layers = tracing.command_layers(doc, started, wall)
        return Outcome(wall, usage.ru_maxrss, problems, layers)


# ---------------------------------------------------------------------------
# Workloads. Each set-up writes its inputs into ``d`` and returns the
# commands to time. Sizes are for a 2-CPU machine.


def _truth(corpus: generate.Corpus, d: Path) -> dict:
    truth = generate.truth_doc(corpus)
    (d / "truth.json").write_text(json.dumps(truth), encoding="utf-8")
    return truth


def setup_build_sparse(d: Path, seed: int, runner: Runner) -> list[Command]:
    """`resilink pipeline` on raw sources: 200 cities, 140 days, 30 % city strings miss."""
    corpus = generate.make_corpus(seed, n_cities=200, n_days=140, miss_share=0.3,
                                  n_decoys=0, adversarial=False)
    gazetteer = generate.write_gazetteer(corpus.world, d)
    eor, ch = generate.write_sources(corpus, d)
    config = generate.write_config(gazetteer, d)
    truth = _truth(corpus, d)
    out = d / "out"

    def check() -> list[str]:
        return (
            checks.check_counts(out / "counts.json", generate.N_EOR, generate.N_CH,
                                len(truth["planted_pairs"]))
            + checks.check_pairs(out / "pairs.csv", truth, checks.ch_points(out / "ch.enriched.json"))
            + checks.check_cities(out / "eor.enriched.json", out / "ch.enriched.json", truth)
        )

    argv = ["pipeline", "--config", str(config), "--eor-input", str(eor),
            "--ch-input", str(ch), "--ch-format", "csv", "--outdir", str(out)]
    return [Command("pipeline", argv, [out], check)]


def setup_integrate_dense(d: Path, seed: int, runner: Runner) -> list[Command]:
    """`resilink integrate` on enriched JSON: 10 cities over 100 days, one adversarial pair."""
    corpus = generate.make_corpus(seed, n_cities=10, n_days=100, miss_share=0.0,
                                  n_decoys=40, adversarial=True)
    eor, ch = generate.write_enriched(corpus, d)
    truth = _truth(corpus, d)
    nt, pairs, counts = d / "integrated.nt", d / "pairs.csv", d / "counts.json"

    def check() -> list[str]:
        return (
            checks.check_counts(counts, generate.N_EOR, generate.N_CH, None)
            + checks.check_pairs(pairs, truth, checks.ch_points(ch))
        )

    argv = ["integrate", "--eor", str(eor), "--ch", str(ch), "--out", str(nt),
            "--pairs", str(pairs), "--counts", str(counts)]
    return [Command("integrate", argv, [nt, pairs, counts], check)]


def setup_reports(d: Path, seed: int, runner: Runner) -> list[Command]:
    """uc2 then uc6 over the build-sparse corpus, integrated by the program during set-up."""
    corpus = generate.make_corpus(seed, n_cities=200, n_days=140, miss_share=0.3,
                                  n_decoys=0, adversarial=False)
    eor, ch = generate.write_enriched(corpus, d)
    shelters = generate.write_shelters(corpus, seed, d)
    truth = _truth(corpus, d)
    nt = d / "integrated.nt"
    made = runner.run(["integrate", "--eor", str(eor), "--ch", str(ch), "--out", str(nt)])
    if made.problems:
        raise SetupError(f"integrate during set-up failed: {'; '.join(made.problems)}")

    uc2 = d / "uc2.csv"
    gaps, grid = d / "gaps.geojson", d / "uc6_grid.csv"
    points = {
        f"{checks.EVENT_NS}{e.dataset}/{e.id}": (e.lat, e.lon) for e in corpus.eor + corpus.ch
    }
    shelter_points = np.loadtxt(shelters, delimiter=",", skiprows=1, usecols=(1, 2), ndmin=2)
    n_aggregates = generate.N_EOR + generate.N_CH - len(truth["planted_pairs"])

    def check_uc6() -> list[str]:
        return checks.check_uc6(gaps, grid, nt, points, shelter_points, UC6_RADIUS_KM,
                                n_aggregates)

    return [
        Command("report_uc2", ["report", "uc2", "--input", str(nt), "--keyword",
                               generate.UC2_KEYWORD, "--out", str(uc2)],
                [uc2], lambda: checks.check_uc2(uc2, truth)),
        Command("report_uc6", ["report", "uc6", "--input", str(nt), "--shelters", str(shelters),
                               "--radius-km", str(UC6_RADIUS_KM), "--out-geojson", str(gaps),
                               "--out", str(grid)],
                [gaps, grid], check_uc6),
    ]


# Workload -> (set-up, how many times a run repeats it for setup_s). The
# reports set-up also runs `integrate` (~3 s), so it is repeated only
# twice, to keep a run under 40 s.
WORKLOADS = {
    "build-sparse": (setup_build_sparse, 3),
    "integrate-dense": (setup_integrate_dense, 3),
    "reports": (setup_reports, 2),
}


# ---------------------------------------------------------------------------
# Running and reporting


def _remove(path: Path) -> None:
    if path.is_dir():
        shutil.rmtree(path)
    elif path.exists():
        path.unlink()


# The speed probe. The CPU speed of a shared VM drifts by up to 1.8x in
# phases that last a minute or more, longer than a run, so a plain wall
# time partly tells which phase a run fell into. A fixed pure-Python loop,
# timed right before and right after an interval, measures the speed
# around it; dividing by it takes out much of the phase (bench/README.md
# has the measurements). The loop is the benchmark's own code, so a
# change to the program cannot move it.
PROBE_S = 1.0
REFERENCE_LOOP_S = 0.020  # seconds per probe loop that the scaled times refer to


def _probe_loop() -> int:
    s = 0
    for i in range(200_000):
        s += i * i % 7
    return s


def probe() -> float:
    """Mean seconds per probe loop over PROBE_S seconds."""
    n, started = 0, time.perf_counter()
    while True:
        _probe_loop()
        n += 1
        elapsed = time.perf_counter() - started
        if elapsed >= PROBE_S:
            return elapsed / n


def speed_factor(before: float, after: float) -> float:
    """Scales a wall time measured between two probes to the reference speed."""
    return REFERENCE_LOOP_S / ((before + after) / 2)


def run_pass(commands: list[Command], runner: Runner, traced: bool) -> dict[str, Outcome]:
    results = {}
    for c in commands:
        for p in c.outputs:
            _remove(p)
        outcome = runner.run(c.argv, traced=traced)
        if not outcome.problems:
            try:
                outcome.problems = c.check()
            except Exception as exc:  # malformed output is a failed check, not a failed run
                outcome.problems = [f"output check raised {exc!r}"]
        results[c.label] = outcome
    return results


def pass_wall(p: dict[str, Outcome]) -> float:
    return sum(o.wall_s for o in p.values())


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> Stats:
    stats = Stats()
    runner = Runner(workdir, time.perf_counter() + RUN_DEADLINE_S)
    setup, repeats = WORKLOADS[workload]
    commands: list[Command] = []
    speed = probe()
    for k in range(1 if trace else repeats):
        d = workdir / f"setup{k}"
        if k:
            _remove(workdir / f"setup{k - 1}")
        d.mkdir()
        started = time.perf_counter()
        commands = setup(d, seed, runner)
        stats.setup_s.append(time.perf_counter() - started)
    after = probe()
    stats.setup_factor = speed_factor(speed, after)
    speed = after

    def timed_pass(traced: bool) -> None:
        nonlocal speed
        done = run_pass(commands, runner, traced)
        after = probe()
        (stats.traced if traced else stats.passes).append(done)
        (stats.traced_factor if traced else stats.passes_factor).append(
            speed_factor(speed, after))
        speed = after

    started = time.perf_counter()
    while True:
        timed_pass(traced=False)
        if trace:
            timed_pass(traced=True)
        last = pass_wall(stats.passes[-1]) + (pass_wall(stats.traced[-1]) if trace else 0.0)
        now = time.perf_counter()
        if now - started + last > seconds or now > runner.deadline:
            return stats


def highest_percentile(n: int) -> float | None:
    """The highest of p90/p95/p99 with at least ten samples beyond it."""
    supported = [p for p in (90, 95, 99) if n * (1 - p / 100) >= 10]
    return supported[-1] if supported else None


def describe(name: str, values: list[float], unit: str) -> str:
    line = f"  {name:<16} median {statistics.median(values):10.4f} {unit:<4} n={len(values)}"
    p = highest_percentile(len(values))
    if p is None:
        return line + " (too few samples for a percentile above the median)"
    return line + f" p{p} {float(np.percentile(values, p)):.4f} {unit}"


def end_to_end(stats: Stats, labels: list[str]) -> tuple[dict[str, float], list[str]]:
    """Timings at the reference speed, with the plain wall times beside them."""
    command_s = stats.passes_scaled_s()
    metrics = {
        "command_s": statistics.median(command_s),
        "peak_rss_mb": max(o.maxrss_kb for p in stats.passes for o in p.values()) / 1024.0,
        "setup_s": statistics.median(stats.setup_scaled_s()),
    }
    lines = [describe("setup_s", stats.setup_scaled_s(), "s"),
             describe("setup_wall_s", stats.setup_s, "s")]
    for label in labels:
        lines.append(describe(f"{label}_s", stats.passes_scaled_s(label), "s"))
        lines.append(describe(f"{label}_wall_s", [p[label].wall_s for p in stats.passes], "s"))
    lines.append(describe("command_s", command_s, "s"))
    lines.append(describe("command_wall_s", [pass_wall(p) for p in stats.passes], "s"))
    lines.append(describe("events_per_s", [N_INPUT_EVENTS / c for c in command_s], "1/s"))
    lines.append(f"  {'peak_rss_mb':<16} {metrics['peak_rss_mb']:.1f} MB (largest timed child)")
    return metrics, lines


def per_layer(stats: Stats) -> tuple[dict[str, float], list[str]]:
    layers = [tracing.pass_layers([o.layers for o in p.values()]) for p in stats.traced
              if all(o.layers is not None for o in p.values())]
    if not layers:
        return {name: 0.0 for name in tracing.PER_LAYER_UNITS}, ["  no traced pass completed"]
    metrics = {name: statistics.median(run[name] for run in layers)
               for name in tracing.PER_LAYER_UNITS}
    metrics["trace.overhead_s"] = (statistics.median(stats.traced_scaled_s())
                                   - statistics.median(stats.passes_scaled_s()))
    lines = [f"  {name:<32} {value:14.4f} {tracing.PER_LAYER_UNITS[name]}"
             for name, value in metrics.items()]
    return metrics, lines


def report(workload: str, seed: int, trace: bool, stats: Stats, labels: list[str]) -> dict:
    outcomes = stats.outcomes()
    failed = [o for o in outcomes if o.problems]
    print(f"workload {workload}, seed {seed}: closed loop, one client, "
          f"{len(stats.passes)} untraced and {len(stats.traced)} traced passes")
    for o in failed:
        for problem in o.problems:
            print(f"  FAILED: {problem}")
    e2e, lines = end_to_end(stats, labels)
    print("\n".join(lines))
    print(f"  {'failed_ratio':<16} {len(failed) / len(outcomes):.4f} ratio "
          f"({len(failed)} of {len(outcomes)} commands failed)")
    if trace:
        metrics, lines = per_layer(stats)
        print("\n".join(lines))
        units = tracing.PER_LAYER_UNITS
    else:
        metrics, units = e2e, E2E_UNITS
    return {
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = WORK / f"{workload}-s{seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        stats = measure(workload, seed, seconds, trace, workdir)
        labels = list(stats.passes[0])
        return report(workload, seed, trace, stats, labels)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "resilink" / "cli.py").is_file():
        print(f"bench: no resilink sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        try:
            result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        except SetupError as exc:
            print(f"bench: {workload}: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
