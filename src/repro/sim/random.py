"""Named, independently seeded random streams.

Experiments need several sources of randomness (overlay wiring, latency
jitter, client arrivals, fault injection, ...) that must not interfere: adding
one draw to the jitter stream must not change which messages the fault
injector drops. We derive one ``random.Random`` per *named stream* from the
root seed by hashing ``(root_seed, name)`` with SHA-256, which gives stable,
well-separated child seeds across Python versions and platforms.
"""

import hashlib
import random


def stream_seed(root_seed, name):
    """Derive a deterministic 64-bit child seed for stream ``name``."""
    data = "{}/{}".format(root_seed, name).encode("utf-8")
    digest = hashlib.sha256(data).digest()
    return int.from_bytes(digest[:8], "big")


def make_stream(root_seed, name):
    """Return a ``random.Random`` seeded for the given named stream."""
    return random.Random(stream_seed(root_seed, name))


class CountingStream(random.Random):
    """A named-stream RNG that counts its raw draws.

    Seeded exactly as :func:`make_stream` seeds a plain stream, and counts
    every entry point a draw can funnel through: ``random()``
    (uniform/expovariate/gauss/...) and ``getrandbits()``
    (randrange/choice/shuffle/sample via ``_randbelow``). The counter
    never touches generator state, so a counted stream yields the
    bit-identical sequence a plain one yields — which is what lets the
    race auditor diff draw counts between paired runs without perturbing
    either run.
    """

    def __init__(self, root_seed, name):
        super().__init__(stream_seed(root_seed, name))
        self.stream_name = name
        self.draws = 0

    def random(self):
        self.draws += 1
        return super().random()

    def getrandbits(self, k):
        self.draws += 1
        return super().getrandbits(k)
