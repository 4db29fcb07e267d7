"""Name-based registry of tree edit distance algorithms.

The experiments, the CLI, and the public API refer to algorithms by name
(``"rted"``, ``"zhang-l"``, ...).  The registry maps those names to factory
functions so that new algorithms (or configured GTED variants) can be plugged
in without touching the call sites.

Factories may accept an ``engine`` keyword (see
:func:`repro.algorithms.base.resolve_engine`) selecting the execution
backend: ``engine="auto"`` is each name's production default (the iterative
``spf`` executor for every GTED/RTED variant, the dedicated Zhang–Shasha
tables for ``zhang-l``/``zhang-r``), while ``engine="spf"`` /
``engine="recursive"`` force the iterative single-path executor or the
recursive cross-check oracle for the algorithm's strategy.  Unknown engine
names raise :class:`~repro.exceptions.UnknownEngineError` — there is no
silent fallback — and names with a single implementation (e.g. ``simple``)
reject explicit engine selection the same way.

``auto`` here always means the literal algorithm — the experiments time
and count each algorithm through this registry.  Only the API's
:func:`repro.api.compute` goes further and runs small unit-cost ``rted``
pairs through the small-pair program.
"""

from __future__ import annotations

import inspect
from typing import Callable, Dict, List, Optional

from ..exceptions import UnknownAlgorithmError, UnknownEngineError
from .base import ENGINE_AUTO, ENGINE_NATIVE, ENGINE_RECURSIVE, TEDAlgorithm, resolve_engine
from .workspace import TedWorkspace, WorkspaceTED
from .demaine import DemaineTED
from .gted import GTED
from .klein import KleinTED
from .rted import RTED
from .simple import SimpleTED
from .strategies import (
    HeavyFStrategy,
    HeavyGStrategy,
    HeavyLargerStrategy,
    LeftFStrategy,
    LeftGStrategy,
    RightFStrategy,
    RightGStrategy,
)
from .zhang_shasha import ZhangShashaRightTED, ZhangShashaTED


def _zhang_l(engine: str = ENGINE_AUTO, workspace=None) -> TEDAlgorithm:
    if engine == ENGINE_AUTO:
        return ZhangShashaTED()
    return GTED(LeftFStrategy(), name=f"Zhang-L[{engine}]", engine=engine, workspace=workspace)


def _zhang_r(engine: str = ENGINE_AUTO, workspace=None) -> TEDAlgorithm:
    if engine == ENGINE_AUTO:
        return ZhangShashaRightTED()
    return GTED(RightFStrategy(), name=f"Zhang-R[{engine}]", engine=engine, workspace=workspace)


def _klein(engine: str = ENGINE_AUTO, workspace=None) -> TEDAlgorithm:
    if engine == ENGINE_AUTO:
        return KleinTED()
    return GTED(HeavyFStrategy(), name=f"Klein-H[{engine}]", engine=engine, workspace=workspace)


def _demaine(engine: str = ENGINE_AUTO, workspace=None) -> TEDAlgorithm:
    if engine == ENGINE_AUTO:
        return DemaineTED()
    return GTED(
        HeavyLargerStrategy(), name=f"Demaine-H[{engine}]", engine=engine, workspace=workspace
    )


_FACTORIES: Dict[str, Callable[..., TEDAlgorithm]] = {
    "rted": lambda engine=ENGINE_AUTO, workspace=None: RTED(
        engine=engine, workspace=workspace
    ),
    "zhang-l": _zhang_l,
    "zhang-r": _zhang_r,
    "klein-h": _klein,
    "demaine-h": _demaine,
    "simple": SimpleTED,
    # GTED variants that decompose the right-hand tree; mostly of interest for
    # experimentation with the strategy space.
    "gted-left-g": lambda engine=ENGINE_AUTO, workspace=None: GTED(
        LeftGStrategy(), name="GTED(left-G)", engine=engine, workspace=workspace
    ),
    "gted-right-g": lambda engine=ENGINE_AUTO, workspace=None: GTED(
        RightGStrategy(), name="GTED(right-G)", engine=engine, workspace=workspace
    ),
    "gted-heavy-g": lambda engine=ENGINE_AUTO, workspace=None: GTED(
        HeavyGStrategy(), name="GTED(heavy-G)", engine=engine, workspace=workspace
    ),
}

_ALIASES: Dict[str, str] = {
    "zhang": "zhang-l",
    "zhang-shasha": "zhang-l",
    "zs": "zhang-l",
    "klein": "klein-h",
    "demaine": "demaine-h",
    "robust": "rted",
    "apted": "rted",
    "reference": "simple",
    "oracle": "simple",
}

#: The five algorithms compared throughout the paper's experiments, in the
#: order used by the figures and tables.
PAPER_ALGORITHMS: List[str] = ["zhang-l", "zhang-r", "klein-h", "demaine-h", "rted"]


def available_algorithms() -> List[str]:
    """Sorted list of canonical algorithm names."""
    return sorted(_FACTORIES)


def make_algorithm(
    name: str, engine: Optional[str] = None, workspace=None
) -> TEDAlgorithm:
    """Instantiate an algorithm by (case-insensitive) name or alias.

    ``engine`` selects the execution backend for names that support several
    (``"auto"``, ``"recursive"``, ``"spf"``, ``"native"``); ``None`` is
    equivalent to ``"auto"`` and always valid.  ``"auto"`` runs the named
    algorithm as written (``rted`` computes Algorithm 2's strategy and runs
    it on ``spf``, whatever the pair size); the small-pair shortcut of
    :func:`repro.api.compute` is deliberately not applied here.
    ``"native"`` is the ``spf`` executor with the optional compiled backend
    (:mod:`repro.algorithms.native`) opted in: it implies a workspace (one
    is created when none is passed, so the compiled small-pair kernel has
    its dispatch layer) and silently degrades to the stock NumPy/Python
    kernels when no compiled provider is available or ``RTED_NO_NATIVE=1``
    is set — the engine name itself is always valid.

    ``workspace`` (a :class:`~repro.algorithms.workspace.TedWorkspace`)
    enables the amortized batch path: factories that support it receive the
    workspace for their ``spf`` contexts, and the returned algorithm is
    wrapped in :class:`~repro.algorithms.workspace.WorkspaceTED`, whose
    unit-cost small-pair fast path short-circuits matching pairs.  The
    ``recursive`` engine and the ``simple`` oracle are exempt — they stay
    pure reference implementations.

    Every algorithm the registry produces supports τ-bounded computation,
    ``compute(..., cutoff=τ)`` (see
    :meth:`~repro.algorithms.base.TEDAlgorithm.compute`): exact sub-cutoff
    results, :class:`~repro.algorithms.base.BoundedResult` sentinels
    otherwise — including the workspace fast path and both engines (the
    oracles never abort mid-computation; they apply the final check only).
    """
    key = name.strip().lower()
    key = _ALIASES.get(key, key)
    factory = _FACTORIES.get(key)
    if factory is None:
        raise UnknownAlgorithmError(
            f"unknown algorithm {name!r}; available: {', '.join(available_algorithms())}"
        )
    # Validate the engine *before* instantiating anything so an unknown
    # selector always surfaces as UnknownEngineError, never as a silently
    # ignored keyword.
    resolved = resolve_engine(engine)
    parameters = inspect.signature(factory).parameters
    if resolved == ENGINE_RECURSIVE or key == "simple":
        workspace = None  # oracles never run amortized
    elif (
        resolved == ENGINE_NATIVE
        and workspace is None
        and "workspace" in parameters
    ):
        # The compiled small-pair path dispatches through the workspace
        # layer, so ``native`` implies one.
        workspace = TedWorkspace()
    if "engine" in parameters:
        if workspace is not None and "workspace" in parameters:
            algorithm = factory(engine=resolved, workspace=workspace)
        else:
            algorithm = factory(engine=resolved)
    else:
        if resolved != ENGINE_AUTO:
            raise UnknownEngineError(
                f"algorithm {name!r} has a single implementation; "
                f"engine selection is not supported (got engine={engine!r})"
            )
        algorithm = factory()
    if workspace is not None:
        algorithm = WorkspaceTED(
            algorithm, workspace, use_native=resolved == ENGINE_NATIVE
        )
    return algorithm


def register_algorithm(name: str, factory: Callable[..., TEDAlgorithm]) -> None:
    """Register a custom algorithm factory under ``name`` (lower-cased).

    The factory may be zero-argument or accept an ``engine`` keyword; only
    factories with an ``engine`` parameter participate in engine selection.
    """
    _FACTORIES[name.strip().lower()] = factory
