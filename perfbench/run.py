"""End-to-end benchmark of the EBBIOT reproduction.

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads (see README.md):

* ``node_replay`` - one replay process loads the exported four-site fleet
  from disk and runs it window by window through
  ``EbbiotPipeline.process_frame_events``;
* ``live_dense`` / ``live_sparse`` - ``python -m repro.serving --serve``
  (process hub, one shard worker) fed over two TCP connections by this
  process, a closed-loop generator on one thread.

With ``--trace 0`` the last stdout line is a JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of
a separate traced run.  Every output is checked; the exit code is 1 when a
check fails.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3

#: EBBI windows sampled per recording for the raw/filtered frame checks.
SAMPLED_WINDOWS = 4

#: Whole-run watchdog, below the 180 s a run may take.
WATCHDOG_S = 170

_children: List = []


def _latency_metrics(latencies_s) -> Dict[str, float]:
    if len(latencies_s) < 200:
        raise RuntimeError(
            f"only {len(latencies_s)} latency samples; p95 needs >= 10 beyond it"
        )
    import numpy as np

    p50, p95 = np.percentile(latencies_s, [50, 95]) * 1e3
    return {"frame_latency_p50_ms": float(p50), "frame_latency_p95_ms": float(p95)}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


# -- node_replay -----------------------------------------------------------------------


def _start_replay(work: Path) -> tuple:
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "replay_node.py"), str(work / "dataset"), str(work)],
        cwd=ROOT,
        env=_env(),
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    _children.append(proc)
    line = proc.stdout.readline().strip()
    if line != "ready":
        raise RuntimeError(f"replay process did not get ready: {line!r}")
    return time.perf_counter() - started, proc


def _command(proc, line: str, reply: str) -> None:
    proc.stdin.write(line + "\n")
    proc.stdin.flush()
    if reply:
        got = proc.stdout.readline().strip()
        if got != reply:
            raise RuntimeError(f"replay process answered {got!r} to {line!r}")


def run_node(recordings, seed: int, seconds: float, work: Path) -> dict:
    import numpy as np

    import checks
    from procstat import cpu_seconds, peak_rss_mib

    rng = np.random.default_rng(seed)
    samples = {
        r.name: sorted(int(k) for k in rng.choice(r.num_windows, SAMPLED_WINDOWS, replace=False))
        for r in recordings
    }
    (work / "samples.json").write_text(json.dumps(samples))

    setups = []
    for attempt in range(SETUPS):
        elapsed, proc = _start_replay(work)
        setups.append(elapsed)
        if attempt < SETUPS - 1:
            _command(proc, "quit", "")
            proc.wait(timeout=30)
    cpu_before = cpu_seconds([proc.pid])
    _command(proc, f"go {seconds}", "done")
    cpu_s = cpu_seconds([proc.pid]) - cpu_before
    rss = peak_rss_mib([proc.pid])
    _command(proc, "dump", "dumped")
    proc.wait(timeout=30)

    outputs = json.loads((work / "outputs.json").read_text())
    durations = np.load(work / "durations.npy")
    ebbi = np.load(work / "ebbi_samples.npz")

    problems = []
    failed = outputs["mismatched"]
    for recording in recordings:
        frames = outputs["recordings"][recording.name]
        window_problems = checks.check_windows(recording, frames)
        if window_problems:
            failed += recording.num_windows * outputs["rounds"]
        problems += window_problems
        bounds = recording.window_bounds()
        for k in samples[recording.name]:
            problems += checks.check_ebbi(
                recording.events[bounds[k] : bounds[k + 1]],
                ebbi[f"{recording.name}/{k}/raw"],
                ebbi[f"{recording.name}/{k}/filtered"],
                f"{recording.name} window {k}",
            )
    problems += checks.check_quality(recordings, outputs["recordings"])
    if outputs["mismatched"]:
        problems.append(f"{outputs['mismatched']} windows differ from the first round")

    events = outputs["events"]
    metrics = {
        "setup_s": statistics.median(setups),
        "events_per_s": events / outputs["wall_s"],
        **_latency_metrics(durations.tolist()),
        "cpu_s_per_mevent": cpu_s / (events / 1e6),
        "peak_rss_mib": rss,
    }
    precision, recall = checks.pooled_quality(recordings, outputs["recordings"])
    info = {"rounds": outputs["rounds"], "setups_s": setups,
            "precision": precision, "recall": recall}
    return {"metrics": metrics, "attempted": outputs["windows"], "failed": failed,
            "problems": problems, "info": info}


# -- live ------------------------------------------------------------------------------


def expected_live_frames(recordings) -> Dict[str, list]:
    """Batch replay of every window with the server's default config."""
    from repro.core.config import EbbiotConfig
    from repro.core.pipeline import EbbiotPipeline

    import checks
    from layers import windows_of

    expected = {}
    for recording in recordings:
        pipeline = EbbiotPipeline(EbbiotConfig())
        expected[recording.name] = [
            {
                "num_events": len(events),
                "tracks": checks.canonical_tracks(
                    pipeline.process_frame_events(events, t0, t1, k).tracks
                ),
            }
            for k, (events, t0, t1) in enumerate(windows_of(recording.events, recording.num_windows))
        ]
    return expected


async def live_session(workload, recordings, seconds: float, work: Path, setups: int) -> dict:
    """Start the server ``setups`` times, load the last one, stop it cleanly."""
    import inputs
    import live

    setup_times = []
    for attempt in range(setups):
        server = live.Server(ROOT, work / "server.log")
        _children.append(server)
        elapsed, connections, slack = await live.setup_once(server, recordings, workload)
        setup_times.append(elapsed)
        if attempt < setups - 1:
            for connection in connections:
                await connection.close()
            await live.scrape_when_idle(server.port)
            server.stop()
    for recording in recordings:
        inputs.windows_closed_after(recording, slack)
    cpu_before = server.cpu_seconds()
    generator_before = sum(os.times()[:2])
    started, wall = await live.run_rounds(connections, seconds)
    generator_cpu = sum(os.times()[:2]) - generator_before
    cpu_s = server.cpu_seconds() - cpu_before
    rss = server.peak_rss_mib()
    samples = await live.scrape_when_idle(server.port)
    server.stop()
    return {
        "setups_s": setup_times,
        "started": started,
        "generator_cpu_s": generator_cpu,
        "wall_s": wall,
        "cpu_s": cpu_s,
        "rss_mib": rss,
        "rounds": [r for c in connections for r in c.rounds],
        "samples": samples,
        "slack_us": slack,
    }


def check_live(session: dict, recordings, expected) -> tuple:
    """(attempted windows, failed windows, problems) of a live session."""
    import checks

    attempted = failed = 0
    ingested = 0
    problems = []
    for result in session["rounds"]:
        recording = recordings[result.recording]
        want = expected[recording.name]
        frames = [json.loads(line) for line in result.frame_lines]
        attempted += len(want)
        failures = checks.live_window_failures(frames, want, result.sensor_id)
        failed += len(failures)
        problems += list(failures.values())
        if result.error:
            problems.append(f"{result.sensor_id}: {result.error}")
        problems += checks.check_event_total(frames, result.events_sent, result.sensor_id)
        ingested += sum(frame.get("num_events", 0) for frame in frames)
    events_sent = sum(r.events_sent for r in session["rounds"])
    problems += checks.check_counters(session["samples"], events_sent, ingested)
    return attempted, failed, problems


def full_load(session: dict) -> tuple:
    """Events completed and latency samples while every connection streamed.

    Connections end their last round at different times; the tail in which
    only some still stream would lighten the load by a varying amount, so
    throughput and latency are taken up to the first connection's finish.
    """
    finished: Dict[int, float] = {}
    for result in session["rounds"]:
        finished[result.slot] = max(finished.get(result.slot, 0.0), result.finished_at)
    cut = min(finished.values())
    events = 0
    latencies = []
    for result in session["rounds"]:
        for line, at in zip(result.frame_lines, result.frame_times):
            if at <= cut:
                events += json.loads(line)["num_events"]
        latencies += [s for s, at in zip(result.latencies_s, result.latency_times) if at <= cut]
    return events, cut - session["started"], latencies


def run_live(workload, recordings, seconds: float, work: Path) -> dict:
    import inputs

    for recording in recordings:
        inputs.encode_batches(recording)
    expected = expected_live_frames(recordings)
    session = asyncio.run(live_session(workload, recordings, seconds, work, SETUPS))
    attempted, failed, problems = check_live(session, recordings, expected)
    events, wall, latencies = full_load(session)
    sent = sum(r.events_sent for r in session["rounds"])
    metrics = {
        "setup_s": statistics.median(session["setups_s"]),
        "events_per_s": events / wall,
        **_latency_metrics(latencies),
        "cpu_s_per_mevent": session["cpu_s"] / (sent / 1e6),
        "peak_rss_mib": session["rss_mib"],
    }
    info = {"rounds": len(session["rounds"]), "setups_s": session["setups_s"],
            "full_load_s": wall, "timed_s": session["wall_s"],
            "generator_cpu_s": session["generator_cpu_s"]}
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "problems": problems, "info": info}


# -- traced run ------------------------------------------------------------------------


def run_traced(workload, recordings, seconds: float, work: Path) -> dict:
    """Per-layer metrics: in-process traced passes, then one live session."""
    import inputs
    import layers
    from repro.core.config import EbbiotConfig

    load_s, loaded = layers.load_dataset(work / "dataset")
    if workload.name == "node_replay":
        configs = [EbbiotConfig(roe_boxes=list(entry.roe_boxes)) for entry in loaded]
    else:
        configs = [EbbiotConfig() for _ in loaded]
    core, core_identity, tracks, same = layers.core_pass(recordings, configs)
    for recording in recordings:
        inputs.encode_batches(recording)
    expected = expected_live_frames(recordings)
    session = asyncio.run(live_session(workload, recordings, seconds, work, 1))
    serving, serving_identity, per_window_ms = layers.serving_pass(
        recordings, session["slack_us"]
    )
    attempted, failed, problems = check_live(session, recordings, expected)
    if not same:
        problems.append("traced pipeline output differs from the plain pipeline's")
    for identity in (core_identity, serving_identity):
        if identity["unattributed_s"] < 0:
            problems.append(f"stage times exceed wall time: {identity}")
    events = sum(r.events_sent for r in session["rounds"])
    _, _, latencies = full_load(session)
    live_p50_ms = statistics.median(latencies) * 1e3
    samples = session["samples"]
    busy = [v for (name, _), v in samples.items() if name == "repro_shard_busy_fraction"]
    metrics = {
        "events.io.load_s": load_s,
        **core,
        **serving,
        "serving.aioserver.send_blocked_s_per_mevent": sum(
            r.blocked_s for r in session["rounds"]
        ) / (events / 1e6),
        "serving.process_hub.shard_busy_fraction": sum(busy) / len(busy),
        "serving.process_hub.server_latency_p50_ms": layers.histogram_quantile(
            samples, "repro_sensor_frame_latency_seconds", 0.5
        ) * 1e3,
        "serving.hops_unattributed_ms_per_frame": live_p50_ms - per_window_ms,
        **layers.evaluation_metrics(recordings, tracks),
    }
    info = {"core_identity": core_identity, "serving_identity": serving_identity,
            "live_p50_ms": live_p50_ms}
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "problems": problems, "info": info}


# -- entry point -----------------------------------------------------------------------


def _cleanup() -> None:
    """Stop every process this run started that is still alive."""
    for child in _children:
        if isinstance(child, subprocess.Popen):
            if child.poll() is None:
                child.kill()
                child.wait()
        elif child.proc is not None and child.proc.poll() is None:
            child.kill()


def _watchdog(signum, frame):
    raise TimeoutError(f"run exceeded {WATCHDOG_S} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    import inputs

    if args.workload not in inputs.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = inputs.WORKLOADS[args.workload]

    signal.signal(signal.SIGALRM, _watchdog)
    signal.alarm(WATCHDOG_S)
    work = ROOT / ".perfbench_work" / str(os.getpid())
    try:
        work.mkdir(parents=True)
        recordings = inputs.export(
            workload, inputs.render(workload, args.seed), work / "dataset"
        )
        if args.trace:
            result = run_traced(workload, recordings, args.seconds, work)
        elif workload.name == "node_replay":
            result = run_node(recordings, args.seed, args.seconds, work)
        else:
            result = run_live(workload, recordings, args.seconds, work)
    finally:
        signal.alarm(0)
        _cleanup()
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".perfbench_work").rmdir()
        except OSError:
            pass

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({"workload": workload.name, "seed": args.seed,
                      "inputs": inputs.describe(recordings), **result["info"]}),
          file=sys.stderr)
    correct = not result["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": result["metrics"][name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
