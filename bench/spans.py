"""Span recorder and the wrappers that time calls into each lcdshare layer.

Nothing under src/ is instrumented: `traced()` replaces each listed
function at every module attribute that binds it (so `scheme.is_lcd`
and `codes.is_lcd` are both wrapped), and puts the originals back on
exit.  `ring` is not wrapped: it is only called per element inside
elimination, so its cost lands in the `linalg` self times.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time
from collections import Counter

# layer -> functions wrapped in it; "matmul" is the `@` operator of
# RVector and RMatrix, "residues" the SplitMix64 method.
LAYERS = {
    "rng": ["residues"],
    "linalg": [
        "unit_rank",
        "is_full_row_rank",
        "right_inverse",
        "select_independent_rows",
        "solve_unique",
        "left_null_vector",
        "matmul",
    ],
    "codes": [
        "is_lcd",
        "is_codeword",
        "encode",
        "random_lcd_code",
        "parity_check_from_generator",
    ],
    "scheme": ["deal", "deal_one", "recover", "verify_share"],
    "io_formats": [
        "read_code",
        "read_shares",
        "read_secret",
        "write_code",
        "write_shares",
        "write_secret",
        "write_deal_record",
    ],
    "analysis": ["table_row", "render_text"],
    "cli": ["gen-code", "check", "deal", "recover", "verify", "analyze"],
}

EXTRA_METRICS = {
    "rng.draws": "count",
    "codes.is_lcd.per_share": "ratio",
    "scheme.recover.refused": "count",
    "scheme.recover.refused_ratio": "ratio",
    "io_formats.bytes_read": "bytes",
    "io_formats.bytes_written": "bytes",
    "trace.overhead_ratio": "ratio",
}


def per_layer_names() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    names = {}
    for layer, functions in LAYERS.items():
        names[f"{layer}.self_s"] = "s"
        for fn in functions:
            names[f"{layer}.{fn}.calls"] = "count"
            names[f"{layer}.{fn}.self_s"] = "s"
    names.update(EXTRA_METRICS)
    return names


class Recorder:
    """Spans kept in memory as [name, start, end, parent index]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def self_times(self) -> dict[str, list]:
        """name -> [calls, self seconds]; self time is a span's duration
        minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = {}
        for (name, start, end, _), covered in zip(self.spans, child):
            entry = out.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += end - start - covered
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            for i, (name, start, end, parent) in enumerate(self.spans):
                handle.write(
                    json.dumps({"id": i, "name": name, "start": start,
                                "end": end, "parent": parent}) + "\n"
                )


def _size(target) -> int:
    return os.path.getsize(target) if isinstance(target, (str, os.PathLike)) else 0


def _wrap(rec: Recorder, name: str, fn, before=None, after=None, on_error=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before:
            before(args, kwargs)
        index = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            if on_error:
                on_error(exc)
            raise
        finally:
            rec.close(index)
        if after:
            after(args, kwargs, result)
        return result

    return wrapper


@contextlib.contextmanager
def traced(rec: Recorder):
    """Wrap every listed function for the duration of the block."""
    import lcdshare
    from lcdshare import cli, errors, linalg, rng

    modules = [m for n, m in sys.modules.items()
               if n == "lcdshare" or n.startswith("lcdshare.")]
    patched = []  # (owner, attribute, original)
    c = rec.counters

    def refused(exc):
        if isinstance(exc, errors.NotEnoughIndependentShares):
            c["refused"] += 1

    hooks = {
        "scheme.deal": dict(after=lambda a, k, r: c.update(shares_dealt=len(r[0]))),
        "scheme.recover": dict(on_error=refused),
    }
    for fn in LAYERS["io_formats"]:
        if fn.startswith("read_"):
            hook = dict(before=lambda a, k: c.update(bytes_read=_size(a[0])))
        else:
            hook = dict(after=lambda a, k, r: c.update(bytes_written=_size(a[0])))
        hooks[f"io_formats.{fn}"] = hook

    def patch_everywhere(original, wrapper):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    patched.append((module, attr, original))
                    setattr(module, attr, wrapper)

    for layer, functions in LAYERS.items():
        if layer in ("rng", "cli"):
            continue
        module = getattr(lcdshare, layer)
        for fn in functions:
            if fn == "matmul":
                continue
            name = f"{layer}.{fn}"
            original = getattr(module, fn)
            patch_everywhere(original, _wrap(rec, name, original, **hooks.get(name, {})))

    for cls in (linalg.RVector, linalg.RMatrix):
        patched.append((cls, "__matmul__", cls.__matmul__))
        cls.__matmul__ = _wrap(rec, "linalg.matmul", cls.__matmul__)

    original_residues = rng.SplitMix64.residues
    patched.append((rng.SplitMix64, "residues", original_residues))
    rng.SplitMix64.residues = _wrap(
        rec, "rng.residues", original_residues,
        before=lambda a, k: c.update(draws=a[1] if len(a) > 1 else k["count"]),
    )

    original_main = cli.main

    @functools.wraps(original_main)
    def main(argv=None):
        index = rec.open(f"cli.{argv[0] if argv else '?'}")
        try:
            return original_main(argv)
        finally:
            rec.close(index)

    patch_everywhere(original_main, main)
    try:
        yield rec
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


def layer_metrics(rec: Recorder, overhead_ratio: float) -> dict[str, float]:
    """Per-layer metric values from a finished traced run."""
    times = rec.self_times()
    c = rec.counters
    values: dict[str, float] = {}
    for layer, functions in LAYERS.items():
        values[f"{layer}.self_s"] = sum(
            v[1] for n, v in times.items() if n.startswith(layer + ".")
        )
        for fn in functions:
            calls, self_s = times.get(f"{layer}.{fn}", (0, 0.0))
            values[f"{layer}.{fn}.calls"] = calls
            values[f"{layer}.{fn}.self_s"] = self_s
    recovers = values["scheme.recover.calls"]
    values.update({
        "rng.draws": c["draws"],
        "codes.is_lcd.per_share": values["codes.is_lcd.calls"] / max(1, c["shares_dealt"]),
        "scheme.recover.refused": c["refused"],
        "scheme.recover.refused_ratio": c["refused"] / recovers if recovers else 0.0,
        "io_formats.bytes_read": c["bytes_read"],
        "io_formats.bytes_written": c["bytes_written"],
        "trace.overhead_ratio": overhead_ratio,
    })
    return values
