"""Replay a JSONL trace export as rendered span trees.

``repro trace <export.jsonl>`` loads every span line, groups them by
``trace_id``, reconstructs the parent/child tree, and prints one tree
per trace plus a per-layer attribution table.  Attribution uses *self
time* — a span's duration minus the summed durations of its direct
children (clamped at zero, since children on other machines/processes
overlap their parent only approximately) — so the table answers "where
did this request's milliseconds actually go" per layer (front /
service / worker / pipeline / solver / explore).

Spans exported by several processes land in one file in arrival order;
the renderer orders siblings by wall-clock ``start_ns``, which is good
enough across machines sharing a clock (the single-host cluster case).
Corrupt lines are counted and skipped, never fatal.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro import jsonl

__all__ = ["load_spans", "build_traces", "render_trace", "render_file"]


def load_spans(path: str) -> Tuple[List[Dict[str, Any]], int]:
    """Parse a JSONL export; returns (spans, corrupt line count)."""
    objs, corrupt = jsonl.read(path)
    spans = [span for span in objs if span.get("trace_id")
             and span.get("span_id") and span.get("name")]
    return spans, corrupt + len(objs) - len(spans)


class TraceTree:
    """One trace's spans, indexed for tree walking."""

    def __init__(self, trace_id: str,
                 spans: List[Dict[str, Any]]) -> None:
        self.trace_id = trace_id
        self.spans = spans
        self.by_id = {s["span_id"]: s for s in spans}
        self.children: Dict[Optional[str], List[Dict[str, Any]]] = {}
        for span in spans:
            parent = span.get("parent_id")
            # A parent that never arrived (unsampled, dropped from a
            # ring, or exported elsewhere) orphans the span to a root.
            if parent is not None and parent not in self.by_id:
                parent = None
            self.children.setdefault(parent, []).append(span)
        for siblings in self.children.values():
            siblings.sort(key=lambda s: (s.get("start_ns", 0),
                                         s.get("span_id", "")))

    @property
    def roots(self) -> List[Dict[str, Any]]:
        return self.children.get(None, [])

    @property
    def start_ns(self) -> int:
        return min((s.get("start_ns", 0) for s in self.spans),
                   default=0)

    def total_ms(self) -> float:
        return sum(s.get("dur_ns", 0) for s in self.roots) / 1e6

    def self_ms(self, span: Dict[str, Any]) -> float:
        kids = self.children.get(span["span_id"], [])
        child_ns = sum(k.get("dur_ns", 0) for k in kids)
        return max(0, span.get("dur_ns", 0) - child_ns) / 1e6

    def layer_attribution(self) -> Dict[str, Dict[str, float]]:
        """Per-layer {self_ms, spans} over the whole trace."""
        out: Dict[str, Dict[str, float]] = {}
        for span in self.spans:
            layer = span.get("layer") or "app"
            entry = out.setdefault(layer, {"self_ms": 0.0, "spans": 0})
            entry["self_ms"] += self.self_ms(span)
            entry["spans"] += 1
        return out


def build_traces(spans: Iterable[Dict[str, Any]]) -> List[TraceTree]:
    """Group spans into traces, most recently started first."""
    grouped: Dict[str, List[Dict[str, Any]]] = {}
    for span in spans:
        grouped.setdefault(str(span["trace_id"]), []).append(span)
    trees = [TraceTree(trace_id, group)
             for trace_id, group in grouped.items()]
    trees.sort(key=lambda t: t.start_ns, reverse=True)
    return trees


def _attr_text(span: Dict[str, Any]) -> str:
    attrs = span.get("attrs") or {}
    if not attrs:
        return ""
    inner = " ".join(f"{k}={attrs[k]}" for k in sorted(attrs))
    return f"  [{inner}]"


def render_trace(tree: TraceTree, max_depth: int = 32) -> str:
    """One trace as an indented tree plus its layer table."""
    lines = [f"trace {tree.trace_id}  "
             f"({len(tree.spans)} spans, {tree.total_ms():.1f} ms)"]

    def walk(span: Dict[str, Any], depth: int) -> None:
        dur_ms = span.get("dur_ns", 0) / 1e6
        marker = " !" if span.get("status") == "error" else ""
        lines.append(f"{'  ' * depth}- {span.get('name')} "
                     f"({span.get('layer', 'app')}) "
                     f"{dur_ms:.2f} ms{marker}{_attr_text(span)}")
        if depth < max_depth:
            for child in tree.children.get(span["span_id"], []):
                walk(child, depth + 1)

    for root in tree.roots:
        walk(root, 1)
    attribution = tree.layer_attribution()
    if attribution:
        lines.append("  per-layer self time:")
        total = sum(e["self_ms"] for e in attribution.values()) or 1.0
        for layer, entry in sorted(attribution.items(),
                                   key=lambda kv: -kv[1]["self_ms"]):
            share = 100.0 * entry["self_ms"] / total
            lines.append(f"    {layer:10s} {entry['self_ms']:10.2f} ms "
                         f"({share:5.1f}%)  "
                         f"{int(entry['spans'])} spans")
    return "\n".join(lines)


def render_file(path: str, trace_id: Optional[str] = None,
                limit: int = 0) -> Tuple[str, int]:
    """Render an export file; returns (text, trace count rendered)."""
    spans, corrupt = load_spans(path)
    trees = build_traces(spans)
    if trace_id:
        trees = [t for t in trees if t.trace_id.startswith(trace_id)]
    if limit > 0:
        trees = trees[:limit]
    blocks = [render_trace(tree) for tree in trees]
    if corrupt:
        blocks.append(f"({corrupt} corrupt line"
                      f"{'s' if corrupt != 1 else ''} skipped)")
    return "\n\n".join(blocks), len(trees)
