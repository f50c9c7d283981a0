"""Deterministic, named random-number streams.

The stochastic elements of the machine model -- the switch's adaptive
route choice and route jitter, and the fault runtime's loss and
corruption dice -- each draw from their own named stream, so that adding
randomness to one component never perturbs another and whole-simulation
results are reproducible from a single seed.

A stream is PCG64 (XSL-RR 128/64) seeded through a SeedSequence, written
in plain Python and draw-exact with ``numpy.random.default_rng(
SeedSequence(entropy=seed, spawn_key=(crc32(key),)))``: the same values,
call for call, for the two draws the model makes (:meth:`Pcg64.integers`
and :meth:`Pcg64.random`).  It never imports ``numpy.random``, so a run
that draws nothing pays nothing for it.
"""

from __future__ import annotations

import zlib

__all__ = ["RngRegistry", "Pcg64"]

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1

# SeedSequence's hash constants (numpy/random/bit_generator.pyx).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4

# PCG_DEFAULT_MULTIPLIER_128 (numpy/random/src/pcg64/pcg64.h).
_PCG_MULT = (2549297995355413924 << 64) | 4865540595714422341


def _words(n: int) -> list[int]:
    """``n`` as little-endian 32-bit words (``[0]`` for zero)."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    out = [n & _M32]
    n >>= 32
    while n:
        out.append(n & _M32)
        n >>= 32
    return out


def _seed_state(entropy: int, spawn_key: tuple[int, ...]) -> list[int]:
    """``SeedSequence(entropy, spawn_key=...).generate_state(4, uint64)``."""
    run = _words(entropy)
    spawn = [w for k in spawn_key for w in _words(k)]
    if spawn and len(run) < _POOL_SIZE:
        run += [0] * (_POOL_SIZE - len(run))
    data = run + spawn

    h = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal h
        value ^= h
        h = (h * _MULT_A) & _M32
        value = (value * h) & _M32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
        return r ^ (r >> 16)

    pool = [hashmix(data[i] if i < len(data) else 0)
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in data[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    hb = _INIT_B
    state32 = []
    for i in range(8):  # 4 uint64 = 8 uint32, cycling the pool
        v = pool[i % _POOL_SIZE] ^ hb
        hb = (hb * _MULT_B) & _M32
        v = (v * hb) & _M32
        state32.append(v ^ (v >> 16))
    return [state32[i] | (state32[i + 1] << 32) for i in range(0, 8, 2)]


class Pcg64:
    """One PCG64 stream, draw-exact with numpy's ``Generator(PCG64)``.

    Like numpy's bit generator it keeps the unused high half of a 64-bit
    output for the next 32-bit draw; :meth:`random` neither uses nor
    clears that half.
    """

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, entropy: int, spawn_key: tuple[int, ...]) -> None:
        s0, s1, i0, i1 = _seed_state(entropy, spawn_key)
        # pcg_setseq_128_srandom_r with initstate s0:s1, initseq i0:i1.
        self._inc = ((((i0 << 64) | i1) << 1) | 1) & _M128
        self._state = (self._inc + ((s0 << 64) | s1)) & _M128
        self._state = (self._state * _PCG_MULT + self._inc) & _M128
        #: Buffered high 32 bits of the last split output, or None.
        self._half: int | None = None

    def _next64(self) -> int:
        s = (self._state * _PCG_MULT + self._inc) & _M128
        self._state = s
        x = ((s >> 64) ^ s) & _M64
        rot = s >> 122
        return ((x >> rot) | (x << (64 - rot))) & _M64

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        x = self._next64()
        self._half = x >> 32
        return x & _M32

    def integers(self, low: int, high: int) -> int:
        """A uniform integer in ``[low, high)`` (numpy's ``integers``
        for a range below 2**32, by Lemire's bounded method)."""
        rng = high - low - 1
        if rng == 0:
            return low
        if not 0 < rng < _M32:
            raise ValueError(f"unsupported range [{low}, {high})")
        excl = rng + 1
        m = self._next32() * excl
        if (m & _M32) < excl:
            threshold = (_M32 - rng) % excl
            while (m & _M32) < threshold:
                m = self._next32() * excl
        return low + (m >> 32)

    def random(self) -> float:
        """A uniform float in ``[0, 1)`` with 53 random bits."""
        # _next64 inlined: the fault dice draw this once per packet.
        s = (self._state * _PCG_MULT + self._inc) & _M128
        self._state = s
        x = ((s >> 64) ^ s) & _M64
        rot = s >> 122
        x = ((x >> rot) | (x << (64 - rot))) & _M64
        return (x >> 11) * (1.0 / 9007199254740992.0)


class RngRegistry:
    """Factory of independent :class:`Pcg64` streams.

    Each stream is keyed by a string; the per-stream seed is derived from
    the registry seed and a CRC of the key, so streams are stable across
    runs and independent of creation order.
    """

    def __init__(self, seed: int = 0xC0FFEE) -> None:
        self.seed = int(seed)
        self._streams: dict[str, Pcg64] = {}

    def stream(self, key: str) -> Pcg64:
        """Return (creating on first use) the stream for ``key``."""
        gen = self._streams.get(key)
        if gen is None:
            sub = zlib.crc32(key.encode("utf-8")) & 0xFFFFFFFF
            gen = Pcg64(self.seed, (sub,))
            self._streams[key] = gen
        return gen

    def reset(self) -> None:
        """Forget all streams; next use re-creates them from scratch."""
        self._streams.clear()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<RngRegistry seed={self.seed:#x} streams={len(self._streams)}>"
