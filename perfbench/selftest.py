"""Self-test of the output checks: each passes on a correct output and fails
on a deliberately corrupted copy of it.

    python3 perfbench/selftest.py

Run from the repository root; exits 1 if any check misses its corruption
(or flags a correct output).
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
from repro.core.config import EbbiotConfig  # noqa: E402
from repro.core.pipeline import EbbiotPipeline  # noqa: E402
from repro.datasets.synthetic import ENG_LIKE_SPEC  # noqa: E402
from repro.runtime.scenes import build_scene_recordings  # noqa: E402

from layers import windows_of  # noqa: E402

_results = []


def expect(name: str, problems, should_fail: bool) -> None:
    ok = bool(problems) == should_fail
    _results.append(ok)
    verdict = "ok  " if ok else "MISS"
    state = "corrupted" if should_fail else "correct"
    print(f"{verdict} {name} ({state}): {problems[:1] if problems else 'no problem'}")


def main() -> int:
    rendered = build_scene_recordings(1, duration_s=2.0, base_seed=3, site_specs=[ENG_LIKE_SPEC])[0]
    recording = inputs.Recording(
        name=rendered.name,
        events=rendered.stream.events.copy(),
        ground_truth=list(rendered.annotations.frames),
        roe_boxes=list(rendered.roe_boxes()),
    )
    config = EbbiotConfig(roe_boxes=recording.roe_boxes)
    windows = windows_of(recording.events, recording.num_windows)

    # EBBI: raw and filtered frames of the busiest window.
    busiest = max(range(len(windows)), key=lambda k: len(windows[k][0]))
    events, t0, t1 = windows[busiest]
    ebbi = EbbiotPipeline(config, keep_frames=True).process_frame_events(events, t0, t1).ebbi
    raw, filtered = np.array(ebbi.raw), np.array(ebbi.filtered)
    expect("raw/filtered EBBI", checks.check_ebbi(events, raw, filtered, "w"), False)
    bad_raw = raw.copy()
    bad_raw[0, 0] ^= 1
    expect("raw EBBI, one pixel flipped", checks.check_ebbi(events, bad_raw, filtered, "w"), True)
    bad_filtered = filtered.copy()
    y, x = np.argwhere(raw == 1)[0]
    bad_filtered[y, x] ^= 1
    expect(
        "filtered EBBI, one pixel flipped",
        checks.check_ebbi(events, raw, bad_filtered, "w"),
        True,
    )

    # Windows and quality over a whole replay.
    pipeline = EbbiotPipeline(config)
    frames = []
    for k, (window, t_start, t_end) in enumerate(windows):
        frame = pipeline.process_frame_events(window, t_start, t_end, k)
        frames.append(
            {
                "frame_index": k,
                "num_events": frame.num_events,
                "tracks": checks.canonical_tracks(frame.tracks),
            }
        )
    expect("windows", checks.check_windows(recording, frames), False)
    expect("windows, last one missing", checks.check_windows(recording, frames[:-1]), True)
    moved = copy.deepcopy(frames)
    moved[3]["num_events"] += 1
    moved[4]["num_events"] -= 1
    expect("windows, one event moved", checks.check_windows(recording, moved), True)

    outputs = {recording.name: frames}
    expect("quality", checks.check_quality([recording], outputs), False)
    shifted = copy.deepcopy(frames)
    for frame in shifted:
        for track in frame["tracks"]:
            track["y"] += 60.0
    expect("quality, boxes shifted", checks.check_quality([recording], {recording.name: shifted}), True)

    # Live frames: the same replay as the server would send it.
    sensor = "ENG#c0r0"
    expected = [{"num_events": f["num_events"], "tracks": f["tracks"]} for f in frames]
    live = [dict(f, sensor_id=sensor, type="frame") for f in frames]
    expect("live frames", list(checks.live_window_failures(live, expected, sensor).values()), False)
    expect(
        "live frames, one missing",
        list(checks.live_window_failures(live[:5] + live[6:], expected, sensor).values()),
        True,
    )
    expect(
        "live frames, one duplicated",
        list(checks.live_window_failures(live + [live[7]], expected, sensor).values()),
        True,
    )
    swapped = live[:]
    swapped[2], swapped[3] = swapped[3], swapped[2]
    expect(
        "live frames, two swapped",
        list(checks.live_window_failures(swapped, expected, sensor).values()),
        True,
    )
    tracked = next(k for k, f in enumerate(frames) if f["tracks"])
    mismatched = copy.deepcopy(live)
    mismatched[tracked]["tracks"][0]["x"] += 1.0
    expect(
        "live frames, one track moved",
        list(checks.live_window_failures(mismatched, expected, sensor).values()),
        True,
    )

    sent = recording.num_events
    expect("live event total", checks.check_event_total(live, sent, sensor), False)
    expect("live event total, one short", checks.check_event_total(live, sent + 1, sensor), True)

    def samples(received, late=0.0, shed=0.0):
        labels = (("sensor", sensor),)
        return {
            ("repro_sensor_events_received_total", labels): float(received),
            ("repro_sensor_late_events", labels): float(late),
            ("repro_sensor_dropped_events_total", labels): float(shed),
            ("repro_sensor_dropped_batches_total", labels): 0.0,
        }

    expect("counters", checks.check_counters(samples(sent), sent, sent), False)
    expect("counters, late events", checks.check_counters(samples(sent, late=5), sent, sent - 5), True)
    expect("counters, shed events", checks.check_counters(samples(sent, shed=5), sent, sent - 5), True)
    expect("counters, unbalanced", checks.check_counters(samples(sent), sent, sent - 1), True)

    missed = _results.count(False)
    print(f"{len(_results) - missed}/{len(_results)} checks behaved")
    return 1 if missed else 0


if __name__ == "__main__":
    raise SystemExit(main())
