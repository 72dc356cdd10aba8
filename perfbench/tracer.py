"""Spans around zlab's public and layer-boundary functions, installed from outside.

A wrapper replaces a function at every place it is looked up: the attribute
of each loaded ``zlab`` module that holds it (for example
``zlab.zariski.solve_gram_system`` and ``zlab.chambers.is_negative_definite``)
and, for methods, the class attribute.  Each call records one span
``[name, start, end, parent, op, ok, info]``; spans stay in memory until the
run ends.  Self time is a span's duration minus the durations of its direct
children; calls are strictly nested because the benchmark runs one thread.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute or Class.method, span name, info taken from the call)
TARGETS = [
    ("zlab.lattice", "signature", "lattice.signature", "len_arg0"),
    ("zlab.lattice", "is_negative_definite", "lattice.is_negative_definite", "result_bool"),
    ("zlab.lattice", "gram_matrix", "lattice.gram_matrix", "len_arg0"),
    ("zlab.lattice", "solve_gram_system", "lattice.solve_gram_system", "len_arg0"),
    ("zlab.lattice", "solve_symmetric", "lattice.solve_symmetric", None),
    ("zlab.lattice", "invert_matrix", "lattice.invert_matrix", None),
    ("zlab.lattice", "squarefree_split", "lattice.squarefree_split", "bits_arg0"),
    ("zlab.lattice", "sqrt_fraction", "lattice.sqrt_fraction", None),
    ("zlab.surface", "SurfaceModel.curve_pairings", "surface.curve_pairings", None),
    ("zlab.surface", "is_nef", "surface.is_nef", None),
    ("zlab.surface", "del_pezzo", "surface.del_pezzo", None),
    ("zlab.surface", "exceptional_classes", "surface.exceptional_classes", None),
    ("zlab.zariski", "zariski_decompose", "zariski.zariski_decompose", "class_key"),
    ("zlab.zariski", "ZariskiDecomposition.__post_init__", "zariski.invariant_check", None),
    ("zlab.zariski", "chamber_of", "zariski.chamber_of", None),
    ("zlab.chambers", "enumerate_chambers", "chambers.enumerate_chambers", None),
    ("zlab.chambers", "construct_nef_with_null", "chambers.construct_nef_with_null", None),
    ("zlab.volume", "vol", "volume.vol", None),
    ("zlab.volume", "volume_polynomial", "volume.volume_polynomial", None),
    ("zlab.raywalk", "destabilizing_numbers", "raywalk.destabilizing_numbers", "len_segments"),
    ("zlab.raywalk", "stable_base_locus", "raywalk.stable_base_locus", None),
    ("zlab.weyl", "reflect", "weyl.reflect", None),
    ("zlab.weyl", "weyl_orbit", "weyl.weyl_orbit", "len_result"),
    ("zlab.weyl", "weyl_group_order", "weyl.weyl_group_order", None),
    ("zlab.cutkosky", "volume_L_eps", "cutkosky.volume_L_eps", None),
    ("zlab.cutkosky", "volume_closed_form", "cutkosky.volume_closed_form", None),
    ("zlab.cutkosky", "sigma_eps", "cutkosky.sigma_eps", None),
    ("zlab.cutkosky", "h0_section_count", "cutkosky.h0_section_count", None),
    ("zlab.cli", "main", "cli.main", None),
]

MODULES = ("lattice", "surface", "zariski", "chambers", "volume", "raywalk", "weyl", "cutkosky", "cli", "op")

# Spans per function reported as {calls, self_s}; the rest of the catalogue below.
CALLS_AND_SELF = (
    "surface.curve_pairings", "lattice.gram_matrix", "lattice.signature",
    "lattice.solve_gram_system", "lattice.invert_matrix", "lattice.squarefree_split",
    "zariski.zariski_decompose", "chambers.construct_nef_with_null", "volume.vol",
    "raywalk.destabilizing_numbers", "weyl.reflect",
)
SELF_ONLY = (
    "surface.is_nef", "surface.del_pezzo", "surface.exceptional_classes",
    "lattice.solve_symmetric", "zariski.invariant_check", "chambers.enumerate_chambers",
    "volume.volume_polynomial", "weyl.weyl_orbit", "weyl.weyl_group_order",
    "cutkosky.volume_L_eps", "cutkosky.volume_closed_form",
)


def _info(kind, args, result):
    if kind == "len_arg0":
        return len(args[0])
    if kind == "bits_arg0":
        return int(args[0]).bit_length()
    if kind == "class_key":
        return repr(args[1].coords)
    if kind == "result_bool":
        return bool(result)
    if kind == "len_segments":
        return len(result.segments)
    if kind == "len_result":
        return len(result)
    return None


class Tracer:
    """Holds the spans of one process; ``op`` tags spans with the current op id."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1

    def wrap(self, name: str, fn, info_kind):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, True, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[5] = False
                if info_kind in ("len_arg0", "bits_arg0", "class_key"):
                    record[6] = _info(info_kind, args, None)
                raise
            finally:
                record[2] = perf_counter()
                stack.pop()
            if info_kind is not None:
                record[6] = _info(info_kind, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target whose module is loaded, wherever zlab looks it up."""
        zlab_modules = [m for n, m in list(sys.modules.items()) if n == "zlab" or n.startswith("zlab.")]
        for module_name, attr, name, info_kind in TARGETS:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, method, self.wrap(name, cls.__dict__[method], info_kind))
                continue
            original = getattr(module, attr)
            traced = self.wrap(name, original, info_kind)
            for m in zlab_modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, traced)

    def begin_op(self, op_id: int, kind: str) -> int:
        self.op = op_id
        self.stack.append(len(self.spans))
        self.spans.append([f"op.{kind}", perf_counter(), 0.0, -1, op_id, True, None])
        return self.stack[-1]

    def end_op(self, ok: bool) -> None:
        record = self.spans[self.stack.pop()]
        record[2] = perf_counter()
        record[5] = ok

    def adopt(self, child_spans: list, parent: int) -> None:
        """Append spans recorded by a child process under the span ``parent``."""
        offset = len(self.spans)
        for record in child_spans:
            record = list(record)
            record[3] = parent if record[3] < 0 else record[3] + offset
            record[4] = self.spans[parent][4]
            self.spans.append(record)


def write_spans(path, spans: list) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"fields": ["name", "start", "end", "parent", "op", "ok", "info"], "spans": spans}, handle)


def self_times(spans: list) -> list[float]:
    child = [0.0] * len(spans)
    for record in spans:
        if record[3] >= 0:
            child[record[3]] += record[2] - record[1]
    return [(r[2] - r[1]) - c for r, c in zip(spans, child)]


def _ancestor_named(spans, index, name) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def per_layer_metrics(spans: list, n_ops: int, extra: dict) -> dict:
    """Every per-layer metric of the catalogue, as {name: (value, unit)}."""
    selfs = self_times(spans)
    calls: dict = defaultdict(int)
    self_s: dict = defaultdict(float)
    total_s: dict = defaultdict(float)
    by_name: dict = defaultdict(list)
    module_self: dict = defaultdict(float)
    for i, (record, own) in enumerate(zip(spans, selfs)):
        name = record[0]
        calls[name] += 1
        self_s[name] += own
        total_s[name] += record[2] - record[1]
        by_name[name].append(i)
        if record[4] >= 0:
            module_self[name.split(".")[0]] += own

    def ratio(num, den):
        return num / den if den else 0.0

    def parent_name(i):
        p = spans[i][3]
        return spans[p][0] if p >= 0 else None

    out: dict = {}
    for name in CALLS_AND_SELF:
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_s"] = (self_s[name], "s")
    for name in SELF_ONLY:
        out[f"{name}.self_s"] = (self_s[name], "s")
    for name in ("lattice.gram_matrix", "lattice.signature"):
        out[f"{name}.dim_max"] = (max((spans[i][6] or 0 for i in by_name[name]), default=0), "count")
    out["lattice.squarefree_split.radicand_bits_max"] = (
        max((spans[i][6] or 0 for i in by_name["lattice.squarefree_split"]), default=0), "bits")
    out["lattice.sqrt_fraction.calls"] = (calls["lattice.sqrt_fraction"], "count")
    out["cutkosky.squarefree_per_op"] = (ratio(calls["lattice.squarefree_split"], n_ops), "ratio")

    decompositions = by_name["zariski.zariski_decompose"]
    rounds = [i for i in by_name["lattice.solve_gram_system"] if parent_name(i) == "zariski.zariski_decompose"]
    out["zariski.rounds_per_call"] = (ratio(len(rounds), len(decompositions)), "ratio")
    out["zariski.support_max"] = (max((spans[i][6] or 0 for i in rounds), default=0), "count")
    seen: set = set()
    repeats = 0
    for i in decompositions:
        key = spans[i][6]
        repeats += key in seen
        seen.add(key)
    out["zariski.repeat_ratio"] = (ratio(repeats, len(decompositions)), "ratio")

    nodes = [i for i in by_name["lattice.is_negative_definite"] if parent_name(i) == "chambers.enumerate_chambers"]
    out["chambers.dfs_nodes"] = (len(nodes), "count")
    out["chambers.nd_pass_ratio"] = (ratio(sum(bool(spans[i][6]) for i in nodes), len(nodes)), "ratio")
    builds = [i for i in by_name["chambers.construct_nef_with_null"] if parent_name(i) == "chambers.enumerate_chambers"]
    out["chambers.realizable_ratio"] = (ratio(sum(spans[i][5] for i in builds), len(builds)), "ratio")

    walks = by_name["raywalk.destabilizing_numbers"]
    walk_solves = sum(
        _ancestor_named(spans, i, "raywalk.destabilizing_numbers") for i in by_name["lattice.solve_gram_system"]
    )
    finished = [i for i in walks if spans[i][5]]
    out["raywalk.solves_per_walk"] = (ratio(walk_solves, len(walks)), "ratio")
    out["raywalk.segments_per_walk"] = (ratio(sum(spans[i][6] for i in finished), len(finished)), "ratio")
    out["weyl.orbit_states"] = (sum(spans[i][6] or 0 for i in by_name["weyl.weyl_orbit"] if spans[i][5]), "count")

    out["cli.main.self_s"] = (self_s["cli.main"], "s")
    out["cli.main.total_s"] = (total_s["cli.main"], "s")
    out["cli.interpreter_s"] = (extra.get("interpreter_s", 0.0), "s")
    out["cli.import_s"] = (statistics.median(extra["import_s"]) if extra.get("import_s") else 0.0, "s")

    for module in MODULES:
        out[f"layer.{module}.self_s"] = (module_self[module], "s")
    out["trace.self_sum_s"] = (sum(module_self[m] for m in MODULES), "s")
    out["trace.ops_per_s"] = (ratio(n_ops, extra["loop_s"]), "1/s")
    out["trace.spans"] = (len(spans), "count")
    return out
