"""Resolve request payloads into content-addressed sweep jobs.

The service speaks the same job language as the design-space explorer:
a request names a design (a built-in from the catalog, or an inline
``{"graph": ..., "partitioning": ...}`` in :mod:`repro.io_json` form)
plus sweep parameters, and this module materializes it through
:class:`repro.explore.spec.SweepSpec` into :class:`SweepJob`\\ s.  That
reuse is what makes request coalescing sound — a ``/v1/synthesize``
request, a ``/v1/sweep`` point, and a CLI ``repro explore`` point with
the same content all hash to the same :func:`repro.explore.keys.job_key`
and therefore share one solve and one cache entry.

Each fixed built-in name's :class:`DesignSpace` is built once per
process, on first use, and shared read-only after that: its graph's
memos (the canonical form that keys hash, the pruning bounds) then hit
on every later request.  No solve mutates a graph, so sharing one is
safe.  Other ``ar-stacked-N`` names and inline designs are built
afresh on every call.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Tuple, Union

from repro.errors import ReproError
from repro.explore.spec import (DesignSpace, KNOWN_AXES, SweepJob,
                                SweepSpec)
from repro.io_json import graph_from_dict, partitioning_from_dict

#: Built-in design names -> DesignSpace factory kwargs.  Mirrors the
#: CLI catalog; the elliptic designs pin their resource vectors per
#: rate, matching the published experiments.
_BUILTINS = ("ar-simple", "ar-general", "ar-general-bidir",
             "ar-stacked-2", "ar-stacked-4",
             "elliptic", "elliptic-bidir", "fir", "dct")

#: One shared space per ``_BUILTINS`` name, built on first use.
_SPACES: Dict[str, DesignSpace] = {}


def design_space(design: Union[str, Mapping[str, Any]]) -> DesignSpace:
    """A :class:`DesignSpace` for a built-in name or an inline design."""
    if isinstance(design, str):
        space = _SPACES.get(design)
        if space is None:
            space = _builtin_space(design)
            if design in _BUILTINS:
                # Racing builders all get the one space stored first.
                space = _SPACES.setdefault(design, space)
        return space
    if isinstance(design, Mapping):
        try:
            graph = graph_from_dict(design["graph"])
            partitioning = partitioning_from_dict(design["partitioning"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ReproError(
                f"inline design needs 'graph' and 'partitioning' in "
                f"repro.io_json form: {exc}") from exc
        timing = design.get("timing", "ar")
        return DesignSpace(name=str(design.get("name", "inline")),
                           graph=graph, partitioning=partitioning,
                           timing=timing)
    raise ReproError(
        f"design must be a built-in name or an inline design object, "
        f"got {type(design).__name__}")


def _builtin_space(name: str) -> DesignSpace:
    from repro.designs import (AR_GENERAL_PINS_BIDIR,
                               AR_GENERAL_PINS_UNIDIR, AR_SIMPLE_PINS,
                               DCT_PINS, ELLIPTIC_PINS_BIDIR,
                               ELLIPTIC_PINS_UNIDIR, FIR_PINS,
                               ar_general_design,
                               ar_simple_design, ar_stacked_design,
                               ar_stacked_pins, dct_design,
                               elliptic_design, elliptic_resources,
                               fir_design)
    if name == "ar-simple":
        return DesignSpace(name=name, graph=ar_simple_design(),
                           partitioning=AR_SIMPLE_PINS, timing="ar")
    if name.startswith("ar-stacked-"):
        try:
            copies = int(name[len("ar-stacked-"):])
        except ValueError:
            copies = 0
        if copies >= 1:
            return DesignSpace(name=name,
                               graph=ar_stacked_design(copies),
                               partitioning=ar_stacked_pins(copies),
                               timing="ar")
    if name == "ar-general":
        return DesignSpace(name=name, graph=ar_general_design(),
                           partitioning=AR_GENERAL_PINS_UNIDIR,
                           timing="ar")
    if name == "ar-general-bidir":
        return DesignSpace(name=name, graph=ar_general_design(),
                           partitioning=AR_GENERAL_PINS_BIDIR,
                           timing="ar")
    if name == "elliptic":
        return DesignSpace(name=name, graph=elliptic_design(),
                           partitioning=ELLIPTIC_PINS_UNIDIR,
                           timing="elliptic",
                           resources_for=elliptic_resources)
    if name == "elliptic-bidir":
        return DesignSpace(name=name, graph=elliptic_design(),
                           partitioning=ELLIPTIC_PINS_BIDIR,
                           timing="elliptic",
                           resources_for=elliptic_resources)
    if name == "fir":
        return DesignSpace(name=name, graph=fir_design(),
                           partitioning=FIR_PINS, timing="ar")
    if name == "dct":
        return DesignSpace(name=name, graph=dct_design(),
                           partitioning=DCT_PINS, timing="ar")
    raise ReproError(
        f"unknown design {name!r}; expected one of "
        f"{sorted(_BUILTINS)} or an inline design object")


# ---------------------------------------------------------------------
def request_params(body: Mapping[str, Any]) -> Dict[str, Any]:
    """Sweep parameters from a request body's top-level fields."""
    params = {axis: body[axis] for axis in KNOWN_AXES if axis in body}
    extra = body.get("options")
    if extra is not None:
        if not isinstance(extra, Mapping):
            raise ReproError("'options' must be an object")
        for name, value in extra.items():
            if name not in KNOWN_AXES:
                raise ReproError(
                    f"unknown option {name!r}; expected one of "
                    f"{sorted(KNOWN_AXES)}")
            params.setdefault(name, value)
    return params


def synthesize_job(body: Mapping[str, Any]) -> Tuple[DesignSpace,
                                                     SweepJob]:
    """Materialize one ``/v1/synthesize`` request into a job."""
    if "design" not in body:
        raise ReproError("request body needs a 'design' field")
    space = design_space(body["design"])
    spec = SweepSpec(base=request_params(body))
    jobs = spec.expand(space)
    return space, jobs[0]


def sweep_jobs(body: Mapping[str, Any]) -> Tuple[DesignSpace, SweepSpec,
                                                 List[SweepJob]]:
    """Materialize a ``/v1/sweep`` request into its point jobs."""
    if "design" not in body:
        raise ReproError("request body needs a 'design' field")
    space = design_space(body["design"])
    axes = body.get("axes") or {}
    points = body.get("points") or ()
    if not isinstance(axes, Mapping):
        raise ReproError("'axes' must be an object of value lists")
    spec = SweepSpec(axes=axes, points=points,
                     base=request_params(body))
    jobs = spec.expand(space)
    if not jobs:
        raise ReproError("sweep expands to zero points")
    return space, spec, jobs
