#!/usr/bin/env python3
"""Generate docs/api.md from the public API's docstrings.

Walks the packages' ``__all__`` exports (plus the flow/reporting entry
points), pulls signatures and first docstring paragraphs, and writes a
browsable reference.  Run after API changes:

    python tools/gen_api_docs.py
"""

from __future__ import annotations

import ast
import importlib
import inspect
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "src"))

SECTIONS = [
    ("Top level", "repro"),
    ("CDFG", "repro.cdfg"),
    ("Partitioning", "repro.partition"),
    ("Modules & timing", "repro.modules"),
    ("ILP substrate", "repro.ilp"),
    ("Graph algorithms", "repro.graphs"),
    ("Scheduling", "repro.scheduling"),
    ("Pass pipeline", "repro.pipeline"),
    ("Core synthesis", "repro.core"),
    ("RTL generation", "repro.rtl"),
    ("Simulation", "repro.sim"),
    ("Reporting", "repro.reporting"),
    ("Benchmark designs", "repro.designs"),
    ("Design-space explorer", "repro.explore"),
    ("Synthesis service", "repro.service"),
    ("Cluster tier", "repro.cluster"),
    ("Checking & fuzzing", "repro.check"),
    ("Serialization", "repro.io_json"),
    ("Durable JSONL files", "repro.jsonl"),
]


#: Hand-authored markdown injected after a module's intro paragraph —
#: for narrative that docstring-harvesting can't express (worked
#: examples, tables).
EXTRAS = {
    "repro.pipeline": """\
### Scheduler backends

Every scheduler the flows can drive is an entry in the backend
registry; registered names are automatically valid
`SynthesisOptions.scheduler` values, `repro synthesize --scheduler` /
`repro explore --schedulers` choices, explorer-axis values, and
differential-oracle participants.  Built-ins:

| name | flows | description |
|---|---|---|
| `list` | simple, connection-first | priority list scheduling on a (step, round) heap (Figure 3.4) |
| `postpone` | connection-first | list scheduling with iterative postponement rounds |
| `modulo` | simple, connection-first | IMS modulo placement at II=L, legalized by list scheduling |
| `fds` | schedule-first | time-constrained force-directed scheduling (Section 5.2) |

`list`, `postpone` and `modulo` all run the one engine,
`repro.scheduling.ListScheduler`.  `heap` is a deprecated alias of
`list`: it resolves with a diagnostics warning and shares `list`'s
cache keys.

Registering a third-party backend:

```python
from repro.pipeline import register_scheduler

def my_backend(graph, timing, rate, resources, hooks_factory,
               budget, diagnostics):
    # hooks_factory() yields fresh IoHooks per scheduling attempt;
    # consult hooks.can_schedule / hooks.commit for every I/O op
    # placement and return a finished repro.scheduling.base.Schedule.
    ...

register_scheduler("mine", my_backend,
                   flows=("simple", "connection-first"),
                   description="my experimental scheduler")
```

`repro.synthesize(..., scheduler="mine")` then drives it; its results
face the same `ResourceTable` pin accounting and the same one
design-rule check (`result.check`, `CheckError` on a violation) as the
built-ins.  The flow decides the calling convention: the simple and
connection-first flows call every backend as above, and the
schedule-first flow always drives the built-in `fds` entry as
`factory(graph, timing, rate, pipe_length, budget, diagnostics)`.
""",
}


class _Named:
    """A parameter default that prints as a bare name."""

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:
        return self.name


def first_paragraph(obj) -> str:
    doc = inspect.getdoc(obj) or ""
    return doc.split("\n\n")[0].replace("\n", " ").strip()


def unquoted(annotation):
    """A quoted forward reference (``-> "Cdfg"``) reads ``"'Cdfg'"``
    under ``from __future__ import annotations``; return it as
    ``'Cdfg'``, so it prints in one pair of quotes like every other
    annotation."""
    if isinstance(annotation, str):
        try:
            inner = ast.literal_eval(annotation)
        except (ValueError, SyntaxError):
            return annotation
        if isinstance(inner, str):
            return inner
    return annotation


def signature_of(obj) -> str:
    try:
        signature = inspect.signature(obj)
    except (TypeError, ValueError):
        return ""
    # A function default prints with its address, which changes on
    # every run; print its qualified name instead.
    parameters = [
        p.replace(annotation=unquoted(p.annotation),
                  default=_Named(p.default.__qualname__)
                  if inspect.isroutine(p.default) else p.default)
        for p in signature.parameters.values()]
    return str(signature.replace(
        parameters=parameters,
        return_annotation=unquoted(signature.return_annotation)))


def public_names(module) -> list:
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in dir(module) if not n.startswith("_")]
    return names


def exported_classes() -> set:
    """Every class some section documents under its own heading."""
    out = set()
    for _title, module_name in SECTIONS:
        module = importlib.import_module(module_name)
        for name in public_names(module):
            obj = getattr(module, name, None)
            if inspect.isclass(obj):
                out.add(obj)
    return out


def listed(cls, name: str, meth, exported: set) -> bool:
    """Whether ``cls``'s entry lists its attribute ``name``: a method
    of its own, or one it inherits from a ``repro`` base that has no
    entry of its own.  A function stored as a class attribute (a
    dataclass field's default) is not a method."""
    owner = next(c for c in cls.__mro__ if name in vars(c))
    if meth.__qualname__.split(".")[0] != owner.__name__:
        return False
    return owner is cls or (
        owner.__module__.split(".")[0] == "repro"
        and owner not in exported)


def describe(module, exported: set) -> list:
    lines = []
    for name in public_names(module):
        obj = getattr(module, name, None)
        if obj is None:
            continue
        summary = first_paragraph(obj)
        if inspect.isclass(obj):
            lines.append(f"### `{name}`\n\n{summary}\n")
            for meth_name, meth in sorted(
                    inspect.getmembers(obj, inspect.isfunction)):
                if meth_name.startswith("_") \
                        or not listed(obj, meth_name, meth, exported):
                    continue
                lines.append(f"- `{meth_name}{signature_of(meth)}` — "
                             f"{first_paragraph(meth)}")
            lines.append("")
        elif inspect.isfunction(obj):
            lines.append(f"### `{name}{signature_of(obj)}`\n\n"
                         f"{summary}\n")
        elif not inspect.ismodule(obj):
            lines.append(f"### `{name}`\n\n{summary or repr(obj)}\n")
    return lines


def main() -> None:
    out = ["# API reference",
           "",
           "Generated by `tools/gen_api_docs.py` — do not edit by "
           "hand.",
           ""]
    exported = exported_classes()
    for title, module_name in SECTIONS:
        module = importlib.import_module(module_name)
        out.append(f"## {title} (`{module_name}`)")
        out.append("")
        intro = first_paragraph(module)
        if intro:
            out.append(intro)
            out.append("")
        if module_name in EXTRAS:
            out.append(EXTRAS[module_name])
        out.extend(describe(module, exported))
        out.append("")
    target = pathlib.Path(__file__).parent.parent / "docs" / "api.md"
    target.write_text("\n".join(out) + "\n")
    print(f"wrote {target} ({len(out)} blocks)")


if __name__ == "__main__":
    main()
