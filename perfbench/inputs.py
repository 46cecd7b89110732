"""Seeded inputs for the three workloads.

Every input is a function of the workload name and ``--seed``: the
recordings are rendered with :mod:`repro.runtime.scenes`, written to disk
with :func:`repro.datasets.recorded.export_fleet`, and (for the wire) cut
into fixed-span batches that are JSONL-encoded once, before anything is
timed.  The system under test only ever sees the exported files (node
replay) or the pre-encoded bytes (live).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.datasets.annotations import RecordingAnnotations
from repro.datasets.recorded import export_fleet
from repro.datasets.synthetic import ENG_LIKE_SPEC, LT4_LIKE_SPEC
from repro.runtime.scenes import (
    CROSSING_SPEC,
    RAIN_LIKE_SPEC,
    build_scene_recordings,
)
from repro.events.stream import EventStream
from repro.serving.protocol import encode_message, events_message
from repro.simulation.ground_truth import GroundTruthFrame

#: EBBI window length (the paper's tF = 66 ms); the server advertises the
#: same value in ``welcome`` and the benchmark checks that it does.
FRAME_US = 66_000

#: Sensor seconds rendered per recording (before tiling).
RENDER_SECONDS = 4.0

#: Stream-time span of one live ``events`` batch: 4 batches per window.
BATCH_US = 16_500


@dataclass(frozen=True)
class Workload:
    """One workload: which sites, how long, how they reach the system."""

    name: str
    sites: Tuple
    #: Copies of each rendered recording laid end to end (see :func:`tile`).
    tiles: Tuple[int, ...]
    #: Recording indices each connection streams, one recording per round,
    #: cycling.  Used by the live workloads, and by node_replay's traced run.
    connections: Tuple[Tuple[int, ...], ...]
    #: Windows each connection keeps closed-but-unanswered: the smallest
    #: number at which throughput stops rising (more only adds queueing).
    in_flight: int


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "node_replay",
            (ENG_LIKE_SPEC, LT4_LIKE_SPEC, RAIN_LIKE_SPEC, CROSSING_SPEC),
            tiles=(1, 1, 1, 1),
            connections=((0, 2), (1, 3)),
            in_flight=2,
        ),
        Workload(
            "live_dense",
            (RAIN_LIKE_SPEC, ENG_LIKE_SPEC),
            tiles=(3, 6),
            connections=((0,), (1,)),
            in_flight=2,
        ),
        Workload(
            "live_sparse",
            (LT4_LIKE_SPEC,) * 4,
            tiles=(10, 10, 10, 10),
            connections=((0, 2), (1, 3)),
            in_flight=4,
        ),
    )
}


@dataclass
class Recording:
    """One rendered recording, as the checks and the generator need it."""

    name: str
    events: np.ndarray
    ground_truth: list
    roe_boxes: list
    #: Pre-encoded ``events`` lines and each line's event count (filled by
    #: :func:`encode_batches`).
    lines: List[bytes] = field(default_factory=list)
    line_events: List[int] = field(default_factory=list)
    #: Cumulative number of windows the server may close once line ``i``
    #: has been written (filled by :func:`windows_closed_after`).
    closed_after: List[int] = field(default_factory=list)

    @property
    def num_events(self) -> int:
        return len(self.events)

    @property
    def num_windows(self) -> int:
        """ceil(span / tF) windows, the span counted from t = 0."""
        if len(self.events) == 0:
            return 0
        return math.ceil((int(self.events["t"][-1]) + 1) / FRAME_US)

    def window_bounds(self) -> np.ndarray:
        """Split points of the events over the windows ``[k tF, (k+1) tF)``."""
        edges = FRAME_US * np.arange(self.num_windows + 1, dtype=np.int64)
        return np.searchsorted(self.events["t"], edges, side="left")


def render(workload: Workload, seed: int) -> list:
    """Render the workload's recordings for ``seed`` (deterministic)."""
    return build_scene_recordings(
        len(workload.sites),
        duration_s=RENDER_SECONDS,
        base_seed=seed,
        site_specs=workload.sites,
    )


def tile(rendered, copies: int):
    """``copies`` of a recording end to end, each shifted by whole windows.

    Copy ``k`` starts at ``k * n * tF`` for a recording of ``n`` windows,
    so every copy is framed into the same windows as the original.  The
    live workloads use this to make rounds long (few sessions per run)
    without rendering for longer.
    """
    if copies == 1:
        return rendered
    events = rendered.stream.events
    period = math.ceil((int(events["t"][-1]) + 1) / FRAME_US) * FRAME_US
    shifted = []
    frames = []
    for k in range(copies):
        part = events.copy()
        part["t"] += k * period
        shifted.append(part)
        frames += [
            GroundTruthFrame(t_us=frame.t_us + k * period, boxes=list(frame.boxes))
            for frame in rendered.annotations.frames
        ]
    stream = EventStream(np.concatenate(shifted), rendered.stream.width, rendered.stream.height)
    annotations = RecordingAnnotations(
        frames=frames, annotation_interval_us=rendered.annotations.annotation_interval_us
    )
    return replace(rendered, result=replace(rendered.result, stream=stream),
                   annotations=annotations)


def export(workload: Workload, rendered, directory: Path) -> List[Recording]:
    """Write the (tiled) fleet to disk; return the benchmark's own view."""
    fleet = [tile(recording, copies) for recording, copies in zip(rendered, workload.tiles)]
    export_fleet(fleet, directory, format="npz")
    return [
        Recording(
            name=recording.name,
            events=recording.stream.events.copy(),
            ground_truth=list(recording.annotations.frames),
            roe_boxes=list(recording.roe_boxes()),
        )
        for recording in fleet
    ]


def encode_batches(recording: Recording) -> None:
    """Cut the recording into :data:`BATCH_US` spans and JSONL-encode each one."""
    t = recording.events["t"]
    edges = np.arange(0, int(t[-1]) + BATCH_US + 1, BATCH_US, dtype=np.int64)
    bounds = np.searchsorted(t, edges, side="left")
    recording.lines = []
    recording.line_events = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi > lo:
            batch = recording.events[lo:hi]
            recording.lines.append(encode_message(events_message(batch)))
            recording.line_events.append(int(hi - lo))


def windows_closed_after(recording: Recording, reorder_slack_us: int) -> None:
    """Windows the server's watermark lets it close after each line.

    The watermark trails the largest timestamp seen by the reorder slack,
    and a window ``[s, e)`` closes once ``e <= watermark``; the windows
    left open after the last line are closed by ``finish``.
    """
    t = recording.events["t"]
    ends = np.cumsum(recording.line_events) - 1
    watermark = t[ends].astype(np.int64) - reorder_slack_us
    closed = np.maximum(watermark, 0) // FRAME_US
    recording.closed_after = [min(int(c), recording.num_windows) for c in closed]


def describe(recordings: Sequence[Recording]) -> dict:
    """Per-recording input statistics, printed with every run."""
    return {
        recording.name: {
            "events": recording.num_events,
            "windows": recording.num_windows,
            "batches": len(recording.lines),
        }
        for recording in recordings
    }
