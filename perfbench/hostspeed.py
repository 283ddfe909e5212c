"""The host's speed, measured next to every timed interval.

The benchmark runs on shared hosts whose speed drifts by 20-40 % over
seconds to minutes: the same simulation takes longer while other work
on the machine competes for its cores and caches.  Each wall-clock
metric therefore divides out the host's speed at the moment it was
measured.  Right before every timed interval the benchmark times one
**burst** of fixed reference work — a small discrete-event simulation
written here, in plain Python (a heap of timed callbacks, method calls
on a few objects, dict stores, byte slicing and ``struct`` packing,
the same kinds of work the program does) — and scales the interval by
``REFERENCE_S / burst``.  A scaled interval is in **reference
seconds**: the wall time the interval would have taken on a host that
runs the burst in ``REFERENCE_S``.

The burst uses no code of the program, so a change to the program
cannot speed it up or slow it down; it only moves with the host.
"""

import heapq
import struct
import time

#: Wall seconds of one burst on the host the bounds of BENCHMARK.json
#: were set on (a shared 2-vCPU x86-64 container, CPython 3), so that a
#: reference second is about one wall second there.
REFERENCE_S = 0.0088

#: Requests one burst simulates.
_REQUESTS = 6000

_PAYLOAD = bytes(512)


class _Node:
    def __init__(self, loop, ident):
        self.loop = loop
        self.ident = ident
        self.store = {}
        self.count = 0

    def receive(self, key, payload):
        self.count += 1
        self.store[key] = payload
        if self.count & 3:
            self.loop.after(7 + self.count % 13, self.reply, key)

    def reply(self, key):
        self.loop.sent.append(struct.pack(
            "!HHI", self.ident, len(self.store[key]), self.count))


class _Loop:
    def __init__(self):
        self.now = 0
        self.heap = []
        self.seq = 0
        self.sent = []

    def after(self, delay, fn, *args):
        self.seq += 1
        heapq.heappush(self.heap, (self.now + delay, self.seq, fn, args))

    def run(self, limit):
        heap = self.heap
        while heap and self.seq < limit:
            self.now, _, fn, args = heapq.heappop(heap)
            fn(*args)


def _burst():
    loop = _Loop()
    nodes = [_Node(loop, ident) for ident in range(8)]

    def request(index):
        nodes[index % 8].receive(f"k{index * 7919 % 2000}",
                                 _PAYLOAD[:64 + index % 400])
        loop.after(3 + index % 5, request, index + 1)

    loop.after(0, request, 0)
    loop.run(_REQUESTS)
    sent = len(loop.sent)
    # The pending callbacks hold ``request``, which holds the loop:
    # break the cycle so the burst leaves no garbage for the collector.
    loop.heap.clear()
    return sent


def burst_s():
    """Wall seconds one burst of reference work takes now."""
    start = time.perf_counter()
    _burst()
    return time.perf_counter() - start


def scaled(wall_s, burst):
    """``wall_s`` in reference seconds, given the burst timed next to it."""
    return wall_s * REFERENCE_S / burst
