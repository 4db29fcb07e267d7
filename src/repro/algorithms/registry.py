"""Name-based registry of tree edit distance algorithms.

The experiments, the CLI, and the public API refer to algorithms by name
(``"rted"``, ``"zhang-l"``, ...).  The registry maps those names to factory
functions so that new algorithms (or configured GTED variants) can be plugged
in without touching the call sites.

Factories may accept an ``engine`` keyword (see
:func:`repro.algorithms.base.resolve_engine`) selecting the execution
backend: ``engine="auto"`` is each name's production default, the iterative
``spf`` executor for every GTED/RTED variant — ``zhang-l``/``zhang-r``
included, which are GTED with the left/right-path strategy of the left-hand
tree — while ``engine="spf"`` / ``engine="recursive"`` force the iterative
single-path executor or the recursive cross-check oracle for the
algorithm's strategy.  Unknown engine names raise
:class:`~repro.exceptions.UnknownEngineError` — there is no silent
fallback — and names with a single implementation (e.g. ``simple``) reject
explicit engine selection the same way.

``auto`` here always means the literal algorithm — the experiments time
and count each algorithm through this registry.  Only the API's
:func:`repro.api.compute` goes further and runs small unit-cost ``rted``
pairs through the small-pair program.
"""

from __future__ import annotations

import inspect
from typing import Callable, Dict, List, Optional, Tuple

from ..exceptions import UnknownAlgorithmError, UnknownEngineError
from .base import ENGINE_AUTO, ENGINE_NATIVE, ENGINE_RECURSIVE, TEDAlgorithm, resolve_engine
from .workspace import TedWorkspace, WorkspaceTED
from .gted import GTED
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


def _paper_gted(strategy_type: type, label: str) -> Callable[..., TEDAlgorithm]:
    """Factory of a paper algorithm that is GTED with a fixed path strategy.

    ``auto`` builds ``GTED(strategy)`` named ``label``; an explicit engine
    appends ``[<engine>]`` to the name and passes the workspace through.
    """

    def factory(engine: str = ENGINE_AUTO, workspace=None) -> TEDAlgorithm:
        if engine == ENGINE_AUTO:
            return GTED(strategy_type(), name=label)
        return GTED(
            strategy_type(), name=f"{label}[{engine}]", engine=engine, workspace=workspace
        )

    return factory


_FACTORIES: Dict[str, Callable[..., TEDAlgorithm]] = {
    "rted": lambda engine=ENGINE_AUTO, workspace=None: RTED(
        engine=engine, workspace=workspace
    ),
    # Zhang & Shasha [SIAM J. Comput. 1989]: left (right) paths of the
    # left-hand tree, the classic keyroot program and its mirror.
    "zhang-l": _paper_gted(LeftFStrategy, "Zhang-L"),
    "zhang-r": _paper_gted(RightFStrategy, "Zhang-R"),
    # Klein [ESA 1998]: heavy paths of the left-hand tree, O(n³ log n).
    "klein-h": _paper_gted(HeavyFStrategy, "Klein-H"),
    # Demaine et al. [TALG 2009]: heavy paths of the larger subtree, O(n³).
    "demaine-h": _paper_gted(HeavyLargerStrategy, "Demaine-H"),
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


def _factory_keywords(factory: Callable[..., TEDAlgorithm]) -> Tuple[bool, bool]:
    """Whether ``factory`` accepts the ``engine`` / ``workspace`` keywords."""
    parameters = inspect.signature(factory).parameters
    return "engine" in parameters, "workspace" in parameters


#: :func:`_factory_keywords` of every registered factory, resolved once at
#: registration so :func:`make_algorithm` never inspects a signature.
_KEYWORDS: Dict[str, Tuple[bool, bool]] = {
    name: _factory_keywords(factory) for name, factory in _FACTORIES.items()
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


def canonical_algorithm(name: str) -> str:
    """The registry key of ``name``: lower-cased, stripped, aliases resolved.

    Unknown names come back normalized but unresolved; :func:`make_algorithm`
    rejects them (the CLI's ``--algorithm`` choices do the same).
    """
    key = name.strip().lower()
    return _ALIASES.get(key, key)


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
    ``"native"`` is the ``spf`` executor with a workspace: one is created
    when none is passed, so small unit-cost pairs take the small-pair
    program (the C kernel when a compiler is present, spf's scalar region
    kernel otherwise) — the engine name itself is always valid.

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
    key = canonical_algorithm(name)
    factory = _FACTORIES.get(key)
    if factory is None:
        raise UnknownAlgorithmError(
            f"unknown algorithm {name!r}; available: {', '.join(available_algorithms())}"
        )
    # Validate the engine *before* instantiating anything so an unknown
    # selector always surfaces as UnknownEngineError, never as a silently
    # ignored keyword.
    resolved = resolve_engine(engine)
    takes_engine, takes_workspace = _KEYWORDS[key]
    if resolved == ENGINE_RECURSIVE or key == "simple":
        workspace = None  # oracles never run amortized
    elif resolved == ENGINE_NATIVE and workspace is None and takes_workspace:
        # ``native`` is ``spf`` with a workspace.
        workspace = TedWorkspace()
    if takes_engine:
        if workspace is not None and takes_workspace:
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
        algorithm = WorkspaceTED(algorithm, workspace)
    return algorithm


def register_algorithm(name: str, factory: Callable[..., TEDAlgorithm]) -> None:
    """Register a custom algorithm factory under ``name`` (lower-cased).

    The factory may be zero-argument or accept an ``engine`` keyword; only
    factories with an ``engine`` parameter participate in engine selection.
    Its signature is read once, here, not on every :func:`make_algorithm`.
    """
    key = name.strip().lower()
    _FACTORIES[key] = factory
    _KEYWORDS[key] = _factory_keywords(factory)
