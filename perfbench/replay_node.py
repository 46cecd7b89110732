"""The node_replay process: one single-threaded sensor node replaying from disk.

Run by ``run.py`` as ``python replay_node.py DATASET_DIR OUT_DIR`` with the
repository's ``src`` on ``PYTHONPATH``.  It speaks a line protocol on
stdin/stdout so the benchmark can time set-up and read ``/proc`` at the
phase edges:

* set-up: load the manifest and every recording from disk, build one
  overlap-tracker pipeline per recording, then print ``ready``;
* ``go SECONDS``: replay whole rounds (every recording, window by window,
  through ``EbbiotPipeline.process_frame_events``) until SECONDS have
  passed, then print ``done``;
* ``dump``: write the per-window timings and outputs to OUT_DIR, print
  ``dumped`` and exit.  Any other line exits at once.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def main() -> int:
    dataset_dir, out_dir = Path(sys.argv[1]), Path(sys.argv[2])
    from repro.core.pipeline import EbbiotPipeline
    from repro.runtime.scenes import jobs_from_manifest

    jobs = jobs_from_manifest(dataset_dir)
    work = []
    for job in jobs:
        pipeline = EbbiotPipeline(job.config)
        index = job.stream.frame_index(
            pipeline.config.frame_duration_us, align_to_zero=True
        )
        windows = [
            (
                index.events[index.splits[k] : index.splits[k + 1]],
                int(index.starts[k]),
                int(index.ends[k]),
            )
            for k in range(index.num_frames)
        ]
        work.append((job.name, job.config, pipeline, windows))
    print("ready", flush=True)

    command = sys.stdin.readline().split()
    if not command or command[0] != "go":
        return 0
    seconds = float(command[1])
    clock = time.perf_counter
    durations = []
    first_round = {name: [] for name, _, _, _ in work}
    mismatched = 0
    rounds = 0
    events = 0
    started = clock()
    while True:
        for name, _, pipeline, windows in work:
            pipeline.reset()
            reference = first_round[name] if rounds else None
            for k, (window, t_start, t_end) in enumerate(windows):
                before = clock()
                frame = pipeline.process_frame_events(window, t_start, t_end, k)
                durations.append(clock() - before)
                events += frame.num_events
                if reference is None:
                    first_round[name].append(frame)
                elif (
                    frame.num_events != reference[k].num_events
                    or frame.tracks != reference[k].tracks
                ):
                    mismatched += 1
        rounds += 1
        if clock() - started >= seconds:
            break
    wall = clock() - started
    print("done", flush=True)

    command = sys.stdin.readline().split()
    if not command or command[0] != "dump":
        return 0
    samples = json.loads((out_dir / "samples.json").read_text())
    import numpy as np

    sampled = {}
    for name, config, _, windows in work:
        # A fresh pipeline that keeps its frames: the EBBI stages do not
        # depend on tracker state, so sampled windows can be rebuilt alone.
        keeper = EbbiotPipeline(config, keep_frames=True)
        for k in samples.get(name, []):
            window, t_start, t_end = windows[k]
            ebbi = keeper.process_frame_events(window, t_start, t_end, k).ebbi
            sampled[f"{name}/{k}/raw"] = np.asarray(ebbi.raw)
            sampled[f"{name}/{k}/filtered"] = np.asarray(ebbi.filtered)
    np.savez(out_dir / "ebbi_samples.npz", **sampled)
    np.save(out_dir / "durations.npy", np.asarray(durations, dtype=np.float64))
    outputs = {
        "wall_s": wall,
        "rounds": rounds,
        "events": events,
        "windows": len(durations),
        "mismatched": mismatched,
        "recordings": {
            name: [
                {
                    "frame_index": frame.frame_index,
                    "t_start_us": frame.t_start_us,
                    "t_end_us": frame.t_end_us,
                    "num_events": frame.num_events,
                    "tracks": [track.to_dict() for track in frame.tracks],
                }
                for frame in frames
            ]
            for name, frames in first_round.items()
        },
    }
    (out_dir / "outputs.json").write_text(json.dumps(outputs))
    print("dumped", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
