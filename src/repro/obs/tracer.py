"""The near-zero-overhead tracing facade.

Instrumented classes all carry a ``_tracer = None`` **class attribute**;
hook sites read it into a local and emit only when it is not ``None``::

    tracer = self._tracer
    if tracer is not None:
        tracer.emit(self.kernel.now_fs, "psm.transition", self.name, ...)

With tracing disabled that is a single attribute load and an identity
test — cheap enough that the pinned goldens stay bit-identical and the
simulation-speed benchmarks move by well under the 2% budget.  Crucially
the hooks never attach signal observers: ``Bus._update_level`` changes
behaviour when its level signal grows observers, so observer-based
tracing could never be a no-op.

Events are buffered in memory as lightweight :class:`TraceEvent` records
and serialized by a sink (:mod:`repro.obs.sinks`) after the run ends.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional

from repro.obs.events import expand_event_filter

__all__ = ["TraceEvent", "Tracer"]


class TraceEvent:
    """One recorded event: envelope (time, kind, source) plus payload."""

    __slots__ = ("t_fs", "kind", "source", "fields")

    def __init__(
        self, t_fs: int, kind: str, source: str, fields: Dict[str, Any]
    ) -> None:
        self.t_fs = t_fs
        self.kind = kind
        self.source = source
        self.fields = fields

    def to_dict(self) -> Dict[str, Any]:
        """Flat mapping a sink writes (envelope merged with payload)."""
        data: Dict[str, Any] = {
            "t_fs": int(self.t_fs), "kind": self.kind, "source": self.source,
        }
        data.update(self.fields)
        return data

    def __repr__(self) -> str:
        return (
            f"TraceEvent(t_fs={int(self.t_fs)}, kind={self.kind!r}, "
            f"source={self.source!r}, fields={self.fields!r})"
        )


class Tracer:
    """Collects structured events emitted by instrumentation hooks.

    ``events`` optionally restricts recording to a set of event kinds
    and/or categories (see :mod:`repro.obs.events`); the filter is
    expanded to a frozenset of full kinds at construction so ``emit``
    pays one set-membership test at most.
    """

    __slots__ = ("events", "_filter")

    def __init__(self, events: Optional[Iterable[str]] = None) -> None:
        self.events: List[TraceEvent] = []
        self._filter = expand_event_filter(events)

    def emit(self, t_fs: int, kind: str, source: str, /, **fields: Any) -> None:
        # Envelope params are positional-only: payload fields may legally be
        # called "source" (psm.transition) without colliding.
        if self._filter is not None and kind not in self._filter:
            return
        self.events.append(TraceEvent(t_fs, kind, source, fields))

    def __len__(self) -> int:
        return len(self.events)

    def to_dicts(self) -> List[Dict[str, Any]]:
        return [event.to_dict() for event in self.events]
