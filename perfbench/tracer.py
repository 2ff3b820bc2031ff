"""Spans around the public functions of each freerep module, from outside.

The tracer replaces a function or method by a wrapper that times it and
counts its work, and puts the original back on `uninstall`.  A name bound
by `from .groups import normal_closure` is a separate binding in the
importing module, so every freerep module that holds the same object is
rebound too.

Self time of a span is its duration minus the durations of the spans it
called directly.  Spans are kept in memory and written once, at the end.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
from collections import defaultdict
from time import perf_counter

# span name -> (module, attribute) pairs; "Class.method" names a method.
# Each span but the ".other" ones reports its self time as <span>_s.
SPANS = {
    "cli.parse": [("cli", "parse_group_spec")],
    "constructors.build": [("constructors", name) for name in (
        "cyclic", "dihedral", "direct_product", "dicyclic",
        "generalized_quaternion", "semidirect_cyclic", "sd", "sl2",
        "binary_polyhedral")],
    "quaternions.group": [("quaternions", name) for name in (
        "finite_quaternion_group", "identify_so3_image")],
    "groups.validate": [("groups", "Group.__init__")],
    "groups.orders": [("groups", "Group.element_orders")],
    "groups.conjugacy": [("groups", "Group.conjugacy_classes")],
    "groups.closure": [("groups", "mulclose"), ("groups", "subgroup_generated")],
    "groups.normal_closure": [("groups", "normal_closure")],
    "groups.subgroups": [("groups", name) for name in (
        "cyclic_subgroups", "all_subgroups", "normal_subgroups")],
    "groups.sylow": [("groups", "sylow_subgroup"), ("groups", "sylow_conjugates")],
    "groups.isomorphism": [("groups", "is_isomorphic")],
    "groups.quotient": [("groups", "quotient_group")],
    "groups.as_group": [("groups", "Subgroup.as_group")],
    "groups.other": [("groups", name) for name in (
        "normalizer", "centralizer", "center", "commutator_subgroup",
        "commutator_of_subgroup", "derived_series", "perfect_core",
        "generating_sequence", "count_nth_roots", "Subgroup.is_normal")],
    "classify.odd_core": [("classify", "odd_core")],
    "classify.verdict": [("classify", "is_freely_representable")],
    "classify.other": [("classify", name) for name in (
        "classify", "sylow_profile", "cycloidal_type", "mcc_subgroup",
        "is_semiprime_cyclic")],
    "normrel.search": [("normrel", "find_norm_relation")],
    "normrel.verify": [("normrel", "NormRelationCertificate.verify")],
    "cyclotomic.arith": [("cyclotomic", "CyclotomicNumber." + name) for name in (
        "__add__", "__sub__", "__neg__", "__mul__", "inverse", "lift")],
    "represent.build": [("represent", name) for name in (
        "build_free_representation", "scalar_representation",
        "induced_representation", "quaternion_embedding_rep",
        "tensor_product_rep", "transport", "restrict", "prime_order_hull")],
    "represent.validate": [("represent", "Representation.validate")],
    "represent.verify_free": [("represent", "verify_free")],
    "sl2census.census": [("sl2census", "census_report")],
}

# Spans too frequent to keep one record each: only their totals are kept.
AGGREGATED = {"cyclotomic.arith"}

# counter -> (module, attribute): calls counted, not timed.
CALL_COUNTS = {
    "quaternions.mul_calls": ("quaternions", "Quaternion.__mul__"),
    "represent.matmul_calls": ("represent", "RepMatrix.__mul__"),
    "represent.det_calls": ("represent", "RepMatrix.det"),
    "cyclotomic.mul_calls": ("cyclotomic", "CyclotomicNumber.__mul__"),
    "cyclotomic.inverse_calls": ("cyclotomic", "CyclotomicNumber.inverse"),
    "groups.closure_calls": ("groups", "mulclose"),
    "groups.normal_closure_calls": ("groups", "normal_closure"),
    "groups.isomorphism_calls": ("groups", "is_isomorphic"),
}


def _table_cells(result, args, kwargs):
    return result.order ** 2


def _validated_cells(result, args, kwargs):
    return args[0].order ** 2 if kwargs.get("validate", True) else 0


def _found(result, args, kwargs):
    return len(result)


def _ideal_rows(result, args, kwargs):
    return result.ideal_dimension


# counter -> (span, size of one outermost call of that span): work counts.
SIZE_COUNTS = {
    "constructors.table_cells": ("constructors.build", _table_cells),
    "groups.validated_cells": ("groups.validate", _validated_cells),
    "groups.subgroups_found": ("groups.subgroups", _found),
    "normrel.ideal_rows": ("normrel.search", _ideal_rows),
}

ROOT = "cli"


def _resolve(module: str, attribute: str):
    """(owner, name, original) for a module function or a class method,
    or None when the program no longer defines it."""
    owner = importlib.import_module("freerep." + module)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    original = vars(owner).get(name) if owner is not None else None
    return None if original is None else (owner, name, original)


class Tracer:
    """Installs timing wrappers, collects spans, and restores the program."""

    def __init__(self):
        self.stack = []  # open frames: [span name, time in child spans, span id]
        self.spans = []  # (id, parent id, name, start, end) of each recorded span
        self._ids = itertools.count()
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._saved = []  # (owner, name, original), in the order replaced
        self.missing = []  # targets the program does not define

    # -- install / uninstall ---------------------------------------------

    def install(self) -> None:
        wrappers = {}  # id(original) -> (owner, name, original, wrapper)
        for span, targets in SPANS.items():
            sizer = next(((c, f) for c, (sp, f) in SIZE_COUNTS.items() if sp == span), None)
            for target in targets:
                found = self._find(target)
                if found:
                    counter = next((c for c, t in CALL_COUNTS.items() if t == target), None)
                    wrappers[id(found[2])] = (*found, self._timed(found[2], span, counter, sizer))
        for counter, target in CALL_COUNTS.items():
            found = self._find(target)
            if found and id(found[2]) not in wrappers:
                wrappers[id(found[2])] = (*found, self._counted(found[2], counter))
        for owner, name, original, wrapper in wrappers.values():
            self._replace(owner, name, wrapper)
            if not isinstance(owner, type):
                self._rebind_imports(original, wrapper)

    def _find(self, target):
        found = _resolve(*target)
        if found is None:
            self.missing.append(".".join(target))
        return found

    def _replace(self, owner, name, value) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _rebind_imports(self, original, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "freerep":
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._replace(mod, name, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    # -- wrappers -----------------------------------------------------------

    def _timed(self, fn, span, counter, sizer):
        stack, self_s, counts, spans = self.stack, self.self_s, self.counts, self.spans
        ids = self._ids
        keep = span not in AGGREGATED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [span, 0.0, next(ids)]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                self_s[span] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                if keep:
                    spans.append((frame[2], parent and parent[2], span, start, end))
            if counter is not None:
                counts[counter] += 1
            if sizer is not None and (parent is None or parent[0] != span):
                counts[sizer[0]] += sizer[1](result, args, kwargs)
            return result

        return traced

    def _counted(self, fn, counter):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return counted

    # -- the root span around one CLI call -----------------------------------

    def call(self, fn, *args):
        """Run fn(*args) as the root span of one CLI call."""
        return self._timed(fn, ROOT, None, None)(*args)

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer self times (s), work counts, and trace coverage."""
        s = self.self_s
        out = {span + "_s": s[span] for span in SPANS if not span.endswith(".other")}
        out["cli.report_s"] = s[ROOT]
        out["classify.self_s"] = sum(v for k, v in s.items() if k.startswith("classify."))
        for counter in (*CALL_COUNTS, *SIZE_COUNTS):
            out[counter] = self.counts[counter]
        wall = sum(end - start for _, _, name, start, end in self.spans if name == ROOT)
        out["trace.coverage"] = 1.0 - s[ROOT] / wall if wall else 0.0
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "self_s": self.self_s,
                       "counts": self.counts, "missing": self.missing}, fh)
