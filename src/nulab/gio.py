"""graph6/sparse6 codecs and JSON-Lines report emission.

The codecs follow the published nauty format description bit for bit
(including sparse6's corner-case padding when n is a power of two).
graph6 covers simple graphs; sparse6 is the multigraph wire format.
Records are written one JSON object per line by write_record, with every
integer and rational serialized as an exact string ("p/q" in lowest
terms for a non-integer).
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Mapping, TextIO

from .errors import LoopRejected, MalformedGraph6, MalformedSparse6, SinkWriteError
from .graph import MultiGraph

_GRAPH6_HEADER = ">>graph6<<"
_SPARSE6_HEADER = ">>sparse6<<"
# The largest vertex count a 4-word N(n) holds.  A sparse6 line may name
# any count in a few bytes, and each vertex costs memory before the
# first edge is read, so larger counts are refused.
MAX_SPARSE6_N = 258047


def _data(line: str, err, offset0: int) -> list[int]:
    vals = []
    for i, ch in enumerate(line):
        o = ord(ch)
        if not (63 <= o <= 126):
            raise err(f"invalid character {ch!r}", offset0 + i)
        vals.append(o - 63)
    return vals


def _parse_n(vals: list[int], err, offset0: int) -> tuple[int, int]:
    """Decode N(n); returns (n, number of words consumed)."""
    if not vals:
        raise err("empty encoding", offset0)
    if vals[0] != 63:
        return vals[0], 1
    if len(vals) >= 2 and vals[1] == 63:
        if len(vals) < 8:
            raise err("truncated 8-word vertex count", offset0 + len(vals))
        n = 0
        for w in vals[2:8]:
            n = (n << 6) | w
        return n, 8
    if len(vals) < 4:
        raise err("truncated 4-word vertex count", offset0 + len(vals))
    n = (vals[1] << 12) | (vals[2] << 6) | vals[3]
    return n, 4


def _emit_n(n: int) -> str:
    if n <= 62:
        return chr(n + 63)
    if n <= MAX_SPARSE6_N:
        return chr(126) + "".join(
            chr(((n >> s) & 63) + 63) for s in (12, 6, 0)
        )
    return (
        chr(126)
        + chr(126)
        + "".join(chr(((n >> s) & 63) + 63) for s in (30, 24, 18, 12, 6, 0))
    )


def parse_graph6(line: str) -> MultiGraph:
    """Decode a graph6 line (simple graphs)."""
    line = line.strip()
    offset0 = 0
    if line.startswith(_GRAPH6_HEADER):
        offset0 = len(_GRAPH6_HEADER)
        line = line[offset0:]
    vals = _data(line, MalformedGraph6, offset0)
    n, used = _parse_n(vals, MalformedGraph6, offset0)
    body = vals[used:]
    need_bits = n * (n - 1) // 2
    need_words = (need_bits + 5) // 6
    if len(body) != need_words:
        raise MalformedGraph6(
            f"expected {need_words} adjacency words for n={n}, got {len(body)}",
            offset0 + used,
        )
    bits = []
    for w in body:
        bits.extend((w >> s) & 1 for s in (5, 4, 3, 2, 1, 0))
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.append((i, j))
            idx += 1
    if any(bits[need_bits:]):
        raise MalformedGraph6("nonzero padding bits", offset0 + used + need_words - 1)
    return MultiGraph(n, edges)


def _bit_width(n: int) -> int:
    k = 1
    while (1 << k) < n:
        k += 1
    return k


def parse_sparse6(line: str) -> MultiGraph:
    """Decode a sparse6 line (loopless multigraphs; loops rejected)."""
    line = line.strip()
    offset0 = 0
    if line.startswith(_SPARSE6_HEADER):
        offset0 = len(_SPARSE6_HEADER)
        line = line[offset0:]
    if not line.startswith(":"):
        raise MalformedSparse6("missing ':' prefix", offset0)
    vals = _data(line[1:], MalformedSparse6, offset0 + 1)
    n, used = _parse_n(vals, MalformedSparse6, offset0 + 1)
    if n > MAX_SPARSE6_N:
        raise MalformedSparse6(f"vertex count {n} exceeds {MAX_SPARSE6_N}", offset0 + 1)
    body = vals[used:]
    bits: list[int] = []
    for w in body:
        bits.extend((w >> s) & 1 for s in (5, 4, 3, 2, 1, 0))
    if n == 0:
        return MultiGraph(0, [])
    k = _bit_width(n)
    edges = []
    v = 0
    i = 0
    while i + k < len(bits):
        b = bits[i]
        x = 0
        for j in range(k):
            x = (x << 1) | bits[i + 1 + j]
        i += k + 1
        if b:
            v += 1
        if x >= n or v >= n:
            break
        if x > v:
            v = x
        elif x == v:
            raise LoopRejected(f"sparse6 encoding contains a loop at vertex {v}")
        else:
            edges.append((x, v))
    return MultiGraph(n, edges)


def emit_sparse6(g: MultiGraph) -> str:
    """Encode a loopless multigraph as a sparse6 line (no trailing newline)."""
    n = g.n
    out = ":" + _emit_n(n)
    if n == 0:
        return out
    k = _bit_width(n)
    bits: list[int] = []

    def enc(x: int) -> None:
        bits.extend((x >> s) & 1 for s in range(k - 1, -1, -1))

    v = 0
    ordered = sorted(g.edges, key=lambda e: (e[1], e[0]))
    for u, w in ordered:
        if w == v:
            bits.append(0)
            enc(u)
        elif w == v + 1:
            v += 1
            bits.append(1)
            enc(u)
        else:
            v = w
            bits.append(1)
            enc(w)
            bits.append(0)
            enc(u)
    if k < 6 and n == (1 << k) and (-len(bits)) % 6 >= k and v < n - 1:
        bits.append(0)
    while len(bits) % 6:
        bits.append(1)
    for i in range(0, len(bits), 6):
        w = 0
        for b in bits[i : i + 6]:
            w = (w << 1) | b
        out += chr(w + 63)
    return out


# ---------------------------------------------------------------------------
# records


def serialize_rational(x) -> str:
    """Exact fraction string, lowest terms, positive denominator."""
    f = Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def _jsonable(value):
    """value with every int and Fraction, at any depth, as its exact string
    and every mapping key as a string (see write_record)."""
    kind = type(value)
    if kind is dict:
        return {str(k): _jsonable(v) for k, v in value.items()}
    if kind is list or kind is tuple:
        return [_jsonable(v) for v in value]
    if kind is int:
        return str(value)
    if kind is str or kind is bool or value is None:
        return value
    if kind is Fraction:
        return serialize_rational(value)
    return _jsonable_any(value)


def _jsonable_any(value):
    """_jsonable for values of any other type: subclasses, other mappings
    and sequences."""
    if isinstance(value, Fraction):
        return serialize_rational(value)
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return serialize_rational(value)
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def write_record(sink: TextIO, record: Any) -> None:
    """Write one record (a mapping) as a JSON line.  Every
    integer and rational becomes an exact string; booleans, strings and
    None stay as they are."""
    try:
        sink.write(json.dumps(_jsonable(record), sort_keys=True) + "\n")
    except OSError as exc:
        raise SinkWriteError(str(exc)) from exc
