"""Output checks computed apart from the program, with plain NumPy.

Each check returns a list of problems (empty when the output is right).
``selftest.py`` shows that every check fails on a corrupted copy of a
correct output.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence

import numpy as np

#: IoU at which a track box counts as a hit in the quality check.
QUALITY_IOU = 0.3

#: Pooled floors for node_replay.  Over seeds 0-19 the lowest pooled values
#: were precision 0.47 and recall 0.60 (README); boxes that miss their
#: objects score near 0.
PRECISION_FLOOR = 0.3
RECALL_FLOOR = 0.4


def raw_ebbi(events: np.ndarray, width: int, height: int) -> np.ndarray:
    """1 where at least one event fell on the pixel, else 0."""
    frame = np.zeros((height, width), dtype=np.uint8)
    frame[events["y"], events["x"]] = 1
    return frame


def majority_3x3(raw: np.ndarray) -> np.ndarray:
    """Zero-padded 3x3 majority: 1 where more than 4 of the 9 pixels are 1."""
    padded = np.pad(raw.astype(np.int32), 1)
    height, width = raw.shape
    total = sum(
        padded[dy : dy + height, dx : dx + width] for dy in range(3) for dx in range(3)
    )
    return (total > 4).astype(np.uint8)


def check_ebbi(events, raw, filtered, where: str) -> List[str]:
    """The pipeline's raw and filtered EBBI of one window."""
    height, width = raw.shape
    expected_raw = raw_ebbi(events, width, height)
    problems = []
    if not np.array_equal(np.asarray(raw, dtype=np.uint8), expected_raw):
        problems.append(f"{where}: raw EBBI differs from '1 where >=1 event'")
    if not np.array_equal(np.asarray(filtered, dtype=np.uint8), majority_3x3(expected_raw)):
        problems.append(f"{where}: filtered EBBI differs from the 3x3 majority")
    return problems


def check_windows(recording, frames: Sequence[dict]) -> List[str]:
    """ceil(span / tF) windows whose event counts cover the recording."""
    problems = []
    name = recording.name
    if len(frames) != recording.num_windows:
        problems.append(
            f"{name}: {len(frames)} windows, expected {recording.num_windows}"
        )
    if [frame["frame_index"] for frame in frames] != list(range(len(frames))):
        problems.append(f"{name}: window indices are not 0..n-1")
    counts = [frame["num_events"] for frame in frames]
    if sum(counts) != recording.num_events:
        problems.append(
            f"{name}: windows hold {sum(counts)} events, recording has "
            f"{recording.num_events}"
        )
    expected = np.diff(recording.window_bounds()).tolist()
    if len(counts) == len(expected) and counts != expected:
        problems.append(f"{name}: per-window event counts differ from the recording's")
    return problems


def _iou(a: Sequence[float], b: Sequence[float]) -> float:
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    iw = min(ax + aw, bx + bw) - max(ax, bx)
    ih = min(ay + ah, by + bh) - max(ay, by)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    return inter / (aw * ah + bw * bh - inter)


def pooled_hits(recording, frames: Sequence[dict]) -> Dict[str, int]:
    """Greedy IoU matching of each ground-truth instant to its window's tracks.

    The window of a ground-truth instant is the one containing it; within
    it, pairs are taken by descending IoU, each box at most once.
    """
    by_index = {frame["frame_index"]: frame for frame in frames}
    hits = tracks = truths = 0
    for instant in recording.ground_truth:
        frame = by_index.get(instant.t_us // 66_000)
        boxes = [
            (t["x"], t["y"], t["width"], t["height"]) for t in (frame or {}).get("tracks", [])
        ]
        truth = [(b.box.x, b.box.y, b.box.width, b.box.height) for b in instant.boxes]
        pairs = sorted(
            ((_iou(p, q), i, j) for i, p in enumerate(boxes) for j, q in enumerate(truth)),
            reverse=True,
        )
        used_p, used_q = set(), set()
        for overlap, i, j in pairs:
            if overlap < QUALITY_IOU:
                break
            if i in used_p or j in used_q:
                continue
            used_p.add(i)
            used_q.add(j)
        hits += len(used_p)
        tracks += len(boxes)
        truths += len(truth)
    return {"hits": hits, "tracks": tracks, "truths": truths}


def pooled_quality(recordings, outputs: Dict[str, Sequence[dict]]) -> tuple:
    """Pooled (precision, recall) of the tracks against the simulator's boxes."""
    totals = {"hits": 0, "tracks": 0, "truths": 0}
    for recording in recordings:
        for key, value in pooled_hits(recording, outputs[recording.name]).items():
            totals[key] += value
    return (
        totals["hits"] / max(totals["tracks"], 1),
        totals["hits"] / max(totals["truths"], 1),
    )


def check_quality(recordings, outputs: Dict[str, Sequence[dict]]) -> List[str]:
    """Pooled precision and recall stay above their floors."""
    precision, recall = pooled_quality(recordings, outputs)
    problems = []
    if precision < PRECISION_FLOOR:
        problems.append(f"pooled precision {precision:.3f} < floor {PRECISION_FLOOR}")
    if recall < RECALL_FLOOR:
        problems.append(f"pooled recall {recall:.3f} < floor {RECALL_FLOOR}")
    return problems


def live_window_failures(
    frames: Sequence[dict], expected: Sequence[dict], sensor_id: str
) -> Dict[int, str]:
    """The failed windows of one live round, each with its problem.

    A window fails when its frame is missing, duplicated, out of order,
    tagged with another sensor, or differs from batch replay (event count
    or tracks).  Frames for windows that should not exist fail under their
    own index.
    """
    failures: Dict[int, str] = {}
    first: Dict[int, dict] = {}
    for position, frame in enumerate(frames):
        index = frame.get("frame_index")
        if index in first:
            failures[index] = f"{sensor_id}: window {index} arrived more than once"
        elif not 0 <= index < len(expected):
            failures[index] = f"{sensor_id}: unexpected window {index}"
        elif index != position:
            failures[index] = f"{sensor_id}: window {index} arrived at position {position}"
        elif frame.get("sensor_id") != sensor_id:
            failures[index] = f"{sensor_id}: window {index} tagged {frame.get('sensor_id')}"
        first.setdefault(index, frame)
    for index, want in enumerate(expected):
        if index in failures:
            continue
        got = first.get(index)
        if got is None:
            failures[index] = f"{sensor_id}: window {index} missing"
        elif got.get("num_events") != want["num_events"]:
            failures[index] = (
                f"{sensor_id}: window {index} has {got.get('num_events')} events, "
                f"expected {want['num_events']}"
            )
        elif got.get("tracks") != want["tracks"]:
            failures[index] = f"{sensor_id}: window {index} tracks differ from batch replay"
    return failures


def check_event_total(frames: Sequence[dict], events_sent: int, sensor_id: str) -> List[str]:
    """The ``num_events`` of a round's frames sum to the events sent."""
    total = sum(frame.get("num_events", 0) for frame in frames)
    if total != events_sent:
        return [f"{sensor_id}: frames hold {total} events, {events_sent} were sent"]
    return []


def canonical_tracks(tracks) -> list:
    """Track observations as they look after a JSON round trip."""
    return json.loads(json.dumps([track.to_dict() for track in tracks]))


def check_counters(samples: Dict, events_sent: int, ingested: int) -> List[str]:
    """received = ingested + late + shed + dropped, every term but ingested 0."""

    def total(name: str) -> float:
        return sum(v for (metric, _), v in samples.items() if metric == name)

    received = total("repro_sensor_events_received_total")
    late = total("repro_sensor_late_events")
    shed = total("repro_sensor_dropped_events_total")
    dropped_batches = total("repro_sensor_dropped_batches_total")
    problems = []
    if received != events_sent:
        problems.append(f"server received {received:.0f} events, generator sent {events_sent}")
    if received != ingested + late + shed:
        problems.append(
            f"received {received:.0f} != ingested {ingested} + late {late:.0f} "
            f"+ shed {shed:.0f}"
        )
    if late or shed or dropped_batches:
        problems.append(
            f"late {late:.0f}, shed {shed:.0f} events, dropped {dropped_batches:.0f} batches"
        )
    return problems
