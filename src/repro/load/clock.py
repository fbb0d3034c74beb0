"""Virtual time for the load harness' deterministic fast path.

The open-loop driver, the resilience layer and the fault injector all
take injectable ``clock``/``sleeper`` callables.  :class:`VirtualClock`
implements both over a simulated timeline: ``sleep`` advances time
instead of blocking, so a 60-second scenario replays in milliseconds
and — because nothing depends on the host's scheduler — every latency,
deadline breach, shed decision and breaker transition is bit-for-bit
reproducible from the seed.

Under a virtual clock the real model forward costs zero *virtual*
time, so the scenarios wrap each service in a
:class:`~repro.deploy.ModeledLatencyService` whose sleeper is
:meth:`VirtualClock.advance`: every call charges a seeded modeled
service duration to the timeline.  Queueing collapse then emerges from
arithmetic (modeled service time > arrival interval) exactly as it
does from wall-clock physics.
"""

from __future__ import annotations

from typing import List


class VirtualClock:
    """A monotonic simulated clock; callable like ``time.perf_counter``.

    ``sleep`` advances the timeline (never blocks) and records every
    requested delay, so scheduler tests can assert the exact waits the
    open-loop driver asked for.
    """

    def __init__(self, start: float = 0.0):
        self._now = float(start)
        self.sleeps: List[float] = []

    def __call__(self) -> float:
        return self._now

    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def sleep(self, seconds: float) -> None:
        """Advance time by ``seconds`` (negative requests are a no-op)."""
        self.sleeps.append(float(seconds))
        if seconds > 0:
            self._now += float(seconds)

    def advance(self, seconds: float) -> None:
        """Move time forward without recording a sleep."""
        if seconds < 0:
            raise ValueError("cannot advance a monotonic clock backwards")
        self._now += float(seconds)


#: Default service-time multiplier per simulator weather code
#: (0 clear, 1 cloudy, 2 rain, 3 storm).  Bad weather slows the whole
#: fulfilment path — couriers confirm late, map services degrade — so
#: the modeled serving cost inflates with it.
WEATHER_SERVICE_SLOWDOWN = {0: 1.0, 1: 1.05, 2: 1.35, 3: 2.0}
