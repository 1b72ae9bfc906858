"""Deterministic synthetic input data for the benchmark workloads.

The paper feeds its tasks camera images, audio frames and sensor readings
from the simulation testbed.  We generate equivalents with a fixed-seed
linear congruential generator so every experiment is bit-for-bit
reproducible without external data files.
"""

from __future__ import annotations

_LCG_A = 1103515245
_LCG_C = 12345
_LCG_M = 2**31


def lcg_sequence(seed: int, count: int, low: int = 0, high: int = 255) -> list[int]:
    """*count* pseudo-random integers in ``[low, high]`` from a fixed seed."""
    if high < low:
        raise ValueError(f"empty range [{low}, {high}]")
    span = high - low + 1
    state = seed & (_LCG_M - 1)
    values: list[int] = []
    for _ in range(count):
        state = (_LCG_A * state + _LCG_C) % _LCG_M
        values.append(low + (state >> 16) % span)
    return values


def synthetic_image(width: int, height: int, seed: int = 7) -> list[int]:
    """A grayscale test image: smooth gradient + blocky object + noise.

    Row-major ``width*height`` pixel values in [0, 255].  The embedded
    rectangle gives the edge detector genuine edges to find.
    """
    noise = lcg_sequence(seed, width * height, 0, 24)
    pixels: list[int] = []
    for y in range(height):
        for x in range(width):
            value = (x * 9 + y * 5) % 160
            inside = width // 4 <= x < 3 * width // 4 and height // 4 <= y < 3 * height // 4
            if inside:
                value = min(255, value + 80)
            value = min(255, value + noise[y * width + x])
            pixels.append(value)
    return pixels


def pcm_frame(count: int, seed: int = 21) -> list[int]:
    """Synthetic 16-bit PCM audio: two tones plus noise, integer samples."""
    noise = lcg_sequence(seed, count, -512, 512)
    samples: list[int] = []
    phase1 = 0
    phase2 = 0
    for i in range(count):
        # Integer triangle waves avoid floating point entirely.
        phase1 = (phase1 + 1500) % 20000
        phase2 = (phase2 + 4100) % 16000
        tri1 = abs(phase1 - 10000) - 5000
        tri2 = (abs(phase2 - 8000) - 4000) // 2
        samples.append(max(-32768, min(32767, tri1 + tri2 + noise[i])))
    return samples


def sensor_readings(count: int, seed: int = 3) -> list[int]:
    """Simulated range-sensor sweep for the mobile-robot task."""
    noise = lcg_sequence(seed, count, -40, 40)
    return [max(0, 1000 + ((i * 137) % 700) - 350 + noise[i]) for i in range(count)]


def dct_coefficients(count: int, seed: int = 17) -> list[int]:
    """Sparse DCT coefficient blocks like a real MPEG-2 macroblock.

    Low-frequency coefficients are large, high-frequency ones mostly zero.
    """
    noise = lcg_sequence(seed, count, -64, 64)
    coefficients: list[int] = []
    for i in range(count):
        position = i % 64
        row, col = divmod(position, 8)
        if row + col == 0:
            coefficients.append(800 + noise[i])
        elif row + col <= 3:
            coefficients.append(noise[i] * 3)
        elif row + col <= 5 and noise[i] % 3 == 0:
            coefficients.append(noise[i])
        else:
            coefficients.append(0)
    return coefficients


# ----------------------------------------------------------------------
# Fixed-point trigonometry tables (Q12), integer-only.
# ----------------------------------------------------------------------
def q12_cos_table(count: int, period: int) -> list[int]:
    """``round(cos(2*pi*k/period) * 4096)`` for k in [0, count).

    Computed with an integer-friendly Taylor-free method: we evaluate the
    cosine via Python floats once at table-build time (tables are inputs,
    not program arithmetic, matching constant ROM tables in the original
    benchmarks).
    """
    import math

    return [round(math.cos(2.0 * math.pi * k / period) * 4096) for k in range(count)]


def q12_sin_table(count: int, period: int) -> list[int]:
    """``round(sin(2*pi*k/period) * 4096)`` for k in [0, count)."""
    import math

    return [round(math.sin(2.0 * math.pi * k / period) * 4096) for k in range(count)]


def bit_reverse_table(size: int) -> list[int]:
    """Bit-reversal permutation indices for a power-of-two FFT size."""
    bits = size.bit_length() - 1
    if 1 << bits != size:
        raise ValueError(f"size must be a power of two, got {size}")
    table = []
    for i in range(size):
        reversed_index = 0
        for bit in range(bits):
            if i & (1 << bit):
                reversed_index |= 1 << (bits - 1 - bit)
        table.append(reversed_index)
    return table
