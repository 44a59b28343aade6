"""The chaos harness's mutant: a transport whose receiver keeps duplicates.

The reliable transport drops every copy of a frame after the first by
its sequence number. :func:`broken_transport` patches
:meth:`~repro.runtime.network.Network.send` in-process so that each of
those copies — a duplicate the medium created, or a retransmission that
got through as well — instead reaches the application as a second
message on the channel, queued behind the first at its own arrival
time. The harness must catch that (a ``DIVERGED`` final state) and
shrink it.

The patch lives in this process only, so a sweep under it runs at
``jobs=1``.
"""

from __future__ import annotations

import contextlib
from unittest import mock

from repro.runtime.network import Network
from repro.runtime.transport import ReliableTransport


@contextlib.contextmanager
def broken_transport():
    """Within the block, every send leaks its duplicate copies."""
    arrivals: list[float] = []
    attempt = ReliableTransport._attempt
    send = Network.send

    def recording_attempt(self, *args):
        copies = attempt(self, *args)
        arrivals.extend(copies)
        return copies

    def leaky_send(
        self, src, dst, value, send_time, lane="p2p", piggyback=None
    ):
        arrivals.clear()
        message = send(self, src, dst, value, send_time, lane, piggyback)
        channel = self._channel((src, dst, lane))
        for extra in sorted(arrivals)[1:]:
            arrival = max(extra, channel.last_arrival)
            channel.last_arrival = arrival
            copy = message._replace(
                message_id=next(self._ids),
                arrival_time=arrival,
                piggyback=dict(message.piggyback),
            )
            channel.log.append(copy)
            if self.on_enqueue is not None:
                self.on_enqueue(copy)
        return message

    with mock.patch.object(
        ReliableTransport, "_attempt", recording_attempt
    ), mock.patch.object(Network, "send", leaky_send):
        yield
