"""The live workloads: the ``--serve`` server in its own processes, driven by
a closed-loop generator over TCP.

The generator is this process, with one thread running one asyncio loop.
Each of its connections streams one recording per round (a fresh sensor id
and ``hello`` per round, so every round sends the same pre-encoded bytes)
and keeps at most the workload's ``in_flight`` windows in flight: it writes
the next batch only while fewer windows than that have been closed by its
batches but not yet answered with a ``frame``.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from inputs import FRAME_US
from procstat import cpu_seconds, descendants, peak_rss_mib
from repro.obs.metrics import parse_prometheus_text
from repro.serving.protocol import encode_message, hello_message

#: The system under test: the process-per-shard hub with one shard worker
#: behind the default asyncio front door, on an ephemeral port.
SERVER_ARGS = (
    "-m",
    "repro.serving",
    "--serve",
    "--hub",
    "process",
    "--workers",
    "1",
    "--port",
    "0",
)

#: A round that sees no frame for this long is abandoned as failed.
STALL_TIMEOUT_S = 30.0

_FRAME_PREFIX = b'{"type":"frame"'


@dataclass
class RoundResult:
    """What one connection saw while streaming one recording once."""

    recording: int
    slot: int
    sensor_id: str
    frame_lines: List[bytes] = field(default_factory=list)
    frame_times: List[float] = field(default_factory=list)
    latencies_s: List[float] = field(default_factory=list)
    latency_times: List[float] = field(default_factory=list)
    finished_at: float = 0.0
    error: Optional[str] = None
    events_sent: int = 0
    blocked_s: float = 0.0


class Server:
    """One ``python -m repro.serving --serve`` process tree."""

    def __init__(self, root: Path, log_path: Path) -> None:
        self.root = root
        self.log_path = log_path
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        with open(self.log_path, "ab") as log:
            self.proc = subprocess.Popen(
                [sys.executable, *SERVER_ARGS],
                cwd=self.root,
                env=env,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE,
                stderr=log,
            )
        line = self.proc.stdout.readline().decode()
        if "listening on" not in line:
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.split("listening on ")[1].split()[0].rsplit(":", 1)[1])

    def cpu_seconds(self) -> float:
        """utime + stime of the server and every process below it."""
        return cpu_seconds(descendants(self.proc.pid))

    def peak_rss_mib(self) -> float:
        """Summed VmHWM of the server and every process below it."""
        return peak_rss_mib(descendants(self.proc.pid))

    def stop(self) -> None:
        """SIGINT, then wait; a server still up after 20 s is killed."""
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=20.0)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("server did not stop within 20 s of SIGINT")
        finally:
            self.proc.stdout.close()

    def kill(self) -> None:
        """Kill the whole tree (used only when something already went wrong)."""
        if self.proc is None:
            return
        for pid in reversed(descendants(self.proc.pid)):
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        self.proc.wait()


async def scrape(port: int) -> Dict:
    """One ``metrics`` round trip on a monitoring connection."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port, limit=1 << 26)
    try:
        writer.write(encode_message({"type": "metrics"}))
        await writer.drain()
        reply = json.loads(await asyncio.wait_for(reader.readline(), 30.0))
    finally:
        writer.close()
        await writer.wait_closed()
    return parse_prometheus_text(reply["exposition"])


def registered_sensors(samples: Dict) -> float:
    return sum(v for (name, _), v in samples.items() if name == "repro_shard_sensors")


async def scrape_when_idle(port: int, timeout_s: float = 20.0) -> Dict:
    """Scrape until no sensor is registered; the server may then be stopped."""
    deadline = time.perf_counter() + timeout_s
    while True:
        samples = await scrape(port)
        if registered_sensors(samples) == 0:
            return samples
        if time.perf_counter() > deadline:
            raise RuntimeError("sensors still registered after their connections closed")
        await asyncio.sleep(0.02)


class Connection:
    """One generator connection: a sensor per round, closed loop."""

    def __init__(self, port: int, recordings, slot: int, plan: Sequence[int], in_flight: int):
        self.port = port
        self.in_flight = in_flight
        self.recordings = recordings
        self.slot = slot
        self.plan = plan
        self.rounds: List[RoundResult] = []
        self._reader = None
        self._writer = None
        self._result: Optional[RoundResult] = None

    async def open(self) -> dict:
        """Connect and say ``hello`` for the next round; returns ``welcome``."""
        index = self.plan[len(self.rounds) % len(self.plan)]
        sensor_id = f"{self.recordings[index].name}#c{self.slot}r{len(self.rounds)}"
        self._result = RoundResult(recording=index, slot=self.slot, sensor_id=sensor_id)
        self._reader, self._writer = await asyncio.open_connection(
            "127.0.0.1", self.port, limit=1 << 26
        )
        # With no write buffer, drain() returns once the kernel has every byte.
        self._writer.transport.set_write_buffer_limits(high=0)
        self._writer.write(encode_message(hello_message(sensor_id)))
        await self._writer.drain()
        welcome = json.loads(await asyncio.wait_for(self._reader.readline(), 30.0))
        if welcome.get("type") != "welcome":
            raise RuntimeError(f"{sensor_id}: expected welcome, got {welcome}")
        return welcome

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._writer = None

    async def stream(self) -> RoundResult:
        """Send the opened round's recording, collect its frames, close."""
        result = self._result
        recording = self.recordings[result.recording]
        reader, writer = self._reader, self._writer
        clock = time.perf_counter
        sent_at: List[float] = []
        answered = [0]
        progress = asyncio.Event()

        async def read_replies() -> None:
            while True:
                line = await reader.readline()
                if not line:
                    raise RuntimeError("connection closed before summary")
                now = clock()
                if line.startswith(_FRAME_PREFIX):
                    index = len(result.frame_lines)
                    result.frame_lines.append(line)
                    result.frame_times.append(now)
                    if index < len(sent_at):
                        result.latencies_s.append(now - sent_at[index])
                        result.latency_times.append(now)
                    answered[0] += 1
                    progress.set()
                    continue
                message = json.loads(line)
                if message.get("type") == "summary":
                    result.finished_at = now
                    return
                raise RuntimeError(f"unexpected reply {message}")

        replies = asyncio.ensure_future(read_replies())
        try:
            for line, count, closed in zip(
                recording.lines, recording.line_events, recording.closed_after
            ):
                while len(sent_at) - answered[0] >= self.in_flight:
                    progress.clear()
                    await asyncio.wait_for(progress.wait(), STALL_TIMEOUT_S)
                    if replies.done():
                        replies.result()
                writer.write(line)
                written = clock()
                await writer.drain()
                now = clock()
                result.blocked_s += now - written
                result.events_sent += count
                sent_at.extend([now] * (closed - len(sent_at)))
            writer.write(encode_message({"type": "finish"}))
            await writer.drain()
            await asyncio.wait_for(replies, STALL_TIMEOUT_S)
        except (asyncio.TimeoutError, RuntimeError, ConnectionError, OSError) as error:
            result.error = f"{type(error).__name__}: {error}"
            replies.cancel()
        finally:
            await self.close()
        result.finished_at = result.finished_at or clock()
        self.rounds.append(result)
        return result


async def run_rounds(connections: Sequence[Connection], seconds: float) -> Tuple[float, float]:
    """Every connection streams whole rounds until ``seconds`` have passed.

    The first round's connection is already open (its ``hello`` counted as
    set-up).  Returns the clock at the first batch and the wall time from
    there to the last summary.
    """
    started = time.perf_counter()

    async def loop(connection: Connection) -> None:
        while True:
            await connection.stream()
            if time.perf_counter() - started >= seconds:
                return
            await connection.open()

    await asyncio.gather(*(loop(connection) for connection in connections))
    return started, time.perf_counter() - started


async def setup_once(server: Server, recordings, workload) -> Tuple[float, List[Connection], int]:
    """Start a server and say ``hello`` on every connection.

    Returns (set-up seconds, open connections, the advertised reorder slack).
    """
    started = time.perf_counter()
    server.start()  # blocks the loop, which has nothing else to run yet
    connections = [
        Connection(server.port, recordings, slot, plan, workload.in_flight)
        for slot, plan in enumerate(workload.connections)
    ]
    welcomes = await asyncio.gather(*(c.open() for c in connections))
    elapsed = time.perf_counter() - started
    slacks = {w["reorder_slack_us"] for w in welcomes}
    frames = {w["frame_duration_us"] for w in welcomes}
    if len(slacks) != 1 or frames != {FRAME_US}:
        raise RuntimeError(f"unexpected welcome parameters: {welcomes}")
    return elapsed, connections, slacks.pop()
