"""In-memory span tracer for the traced benchmark run.

The tracer patches the module attributes each caller looks up (for example
``codonmachine.sim.decode_tape``, which ``sim.step`` calls through its module
globals) with timing wrappers, and restores them on ``uninstall``. Nothing
under ``src/`` knows about it. A wrapped name that a later version renames or
removes is skipped and listed in ``missing``; its metrics then read 0.

Per span name it keeps call counts, inclusive time and self time (duration
minus the time covered by wrapped children). Individual spans (id, parent,
name, start, end) are kept in memory up to a cap and written out at the end.

Reverse lookups (``Codec.symbol_name`` and ``state_name``) run once per tape
cell, so a timing wrapper on them would cost more than the lookup and swamp
every span around it. They are never timed in place. ``record_lookups``
instead swaps in wrappers that only keep each call's arguments, for one
round, and ``replay_lookups`` then times exactly those calls in a tight loop.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from functools import partial

# (attribute path under the package, span name). One function reached through
# several module namespaces gets one wrapper per namespace, all under one name.
PATCHES = (
    ("sim.run", "sim.run"),
    ("sim.step", "sim.step"),
    ("oracle.mech_step", "sim.step"),
    ("sim.apply_trna", "sim.apply"),
    ("sim.new_sim", "sim.new_sim"),
    ("oracle.new_sim", "sim.new_sim"),
    ("sim.decode_tape", "tape.decode"),
    ("oracle.decode_tape", "tape.decode"),
    ("tape.decode_tape", "tape.decode"),
    ("sim.grow", "tape.grow"),
    ("sim.encode_tape", "tape.encode"),
    ("sim.compile_ruleset", "trna.compile"),
    ("codec.build_codec", "codec.build"),
    ("codec.parse_codec_overrides", "codec.build"),
    ("machine.parse_machine_spec", "machine.parse"),
    ("machine.parse_fsm_spec", "machine.parse"),
    ("oracle.bisimulate", "oracle.bisim"),
    ("oracle.tm_step", "oracle.tm_step"),
    ("oracle.tm_run", "oracle.tm_run"),
    ("fsm.fsm_run", "fsm.run"),
    ("fsm.compile_fsm", "fsm.compile"),
    ("fsm.fsm_oracle", "fsm.oracle"),
)

LOOKUPS = ("codec.Codec.symbol_name", "codec.Codec.state_name")

# sim.step durations are also kept per job tag, when called from sim.run.
STEP_SAMPLE_PARENT = "sim.run"
MAX_SPANS = 50_000
MAX_STEP_SAMPLES = 200_000

clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.active = True
        self.tag: str | None = None
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.decoded_cells = 0
        self.step_samples: dict[str, list[float]] = defaultdict(list)
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.spans_dropped = 0
        self.missing: list[str] = []
        # (lookup function, id of its codec) -> (codec, codons looked up)
        self.lookups: dict[tuple[object, int], tuple[object, list[str]]] = {}
        # open spans: [child seconds, name, span id]
        self._stack: list[list] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    def install(self, package) -> None:
        """Wrap every PATCHES attribute with a timing wrapper."""
        for path, name in PATCHES:
            self._patch(package, path, partial(self._wrap, name))

    def record_lookups(self, package) -> None:
        """Wrap the LOOKUPS attributes with wrappers that keep their
        arguments for ``replay_lookups``; ``uninstall`` removes them."""
        self.lookups.clear()
        for path in LOOKUPS:
            self._patch(package, path, self._record)

    def lookup_calls(self) -> int:
        return sum(len(codons) for _, codons in self.lookups.values())

    def replay_lookups(self) -> float:
        """Seconds to repeat every recorded reverse lookup."""
        t0 = clock()
        for (fn, _), (codec, codons) in self.lookups.items():
            for codon in codons:
                fn(codec, codon)
        return clock() - t0

    def _patch(self, package, path: str, make_wrapper) -> None:
        *owner_path, attr = path.split(".")
        owner = package
        for part in owner_path:
            owner = getattr(owner, part, None)
        fn = getattr(owner, attr, None) if owner is not None else None
        if not callable(fn):
            if path not in self.missing:
                self.missing.append(path)
            return
        self._patched.append((owner, attr, fn))
        setattr(owner, attr, make_wrapper(fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    @contextmanager
    def paused(self):
        self.active, was = False, self.active
        try:
            yield
        finally:
            self.active = was

    def snapshot(self) -> dict[str, float]:
        """Flat copy of the counters, for per-round differences."""
        snap = {f"calls:{k}": v for k, v in self.calls.items()}
        snap.update({f"total:{k}": v for k, v in self.total.items()})
        snap.update({f"self:{k}": v for k, v in self.self_time.items()})
        snap["cells:tape.decode"] = self.decoded_cells
        return snap

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps({"spans": len(self.spans),
                                "dropped": self.spans_dropped,
                                "missing": self.missing}) + "\n")
            for sid, parent, name, start, end in self.spans:
                f.write(json.dumps([sid, parent, name, start, end]) + "\n")

    def _record(self, fn):
        tracer = self

        def wrapper(codec, codon):
            if tracer.active:
                key = (fn, id(codec))
                if key not in tracer.lookups:
                    tracer.lookups[key] = (codec, [])
                tracer.lookups[key][1].append(codon)
            return fn(codec, codon)

        return wrapper

    def _wrap(self, name: str, fn):
        tracer = self
        is_decode = name == "tape.decode"
        is_step = name == "sim.step"

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else None
            tracer._next_id += 1
            frame = [0.0, name, tracer._next_id]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                tracer.calls[name] += 1
                tracer.total[name] += dur
                tracer.self_time[name] += dur - frame[0]
                if parent is not None:
                    parent[0] += dur
                if is_decode and args:
                    tracer.decoded_cells += len(getattr(args[0], "symbol_cells", ()))
                if (is_step and tracer.tag and parent is not None
                        and parent[1] == STEP_SAMPLE_PARENT):
                    samples = tracer.step_samples[tracer.tag]
                    if len(samples) < MAX_STEP_SAMPLES:
                        samples.append(dur)
                if len(tracer.spans) < MAX_SPANS:
                    tracer.spans.append(
                        (frame[2], parent[2] if parent else None, name, start, end))
                else:
                    tracer.spans_dropped += 1

        return wrapper
