"""Estimator registry: estimation methods addressable by name.

Every estimation method in :mod:`repro.estimation` registers itself under a
short, stable name (``"gravity"``, ``"bayesian"``, ``"vardi"``, ...), which
lets runners, sweeps and configuration files compose method sets without
importing — or even knowing about — the concrete classes:

* :func:`register` — class decorator used by the method modules;
* :func:`get_estimator` — instantiate a method by name with keyword
  parameters forwarded to its constructor;
* :func:`available_estimators` — the sorted tuple of registered names.

Adding a new estimator therefore takes three steps: subclass
:class:`~repro.estimation.base.Estimator`, decorate it with
``@register()``, and import the module from :mod:`repro.estimation` so
registration runs.  Nothing in the experiment runners needs to change; the
new method automatically shows up in :func:`available_estimators`,
:func:`repro.evaluation.experiments.method_comparison` (via custom specs)
and the :func:`repro.evaluation.experiments.registry_specs` rows.
"""

from __future__ import annotations

from typing import Callable, Optional, Type

from repro.errors import EstimationError
from repro.estimation.base import Estimator

__all__ = ["register", "get_estimator", "available_estimators"]

_REGISTRY: dict[str, Type[Estimator]] = {}


def register(name: Optional[str] = None) -> Callable[[Type[Estimator]], Type[Estimator]]:
    """Class decorator registering an :class:`Estimator` subclass by name.

    Parameters
    ----------
    name:
        Registry key; defaults to the class's ``name`` attribute.  Names
        must be unique — re-registering a different class under an existing
        name raises :class:`~repro.errors.EstimationError` (re-importing the
        same class is a no-op, so module reloads stay safe).
    """

    def decorator(cls: Type[Estimator]) -> Type[Estimator]:
        if not (isinstance(cls, type) and issubclass(cls, Estimator)):
            raise EstimationError(f"only Estimator subclasses can be registered, got {cls!r}")
        key = name if name is not None else getattr(cls, "name", None)
        if not key or not isinstance(key, str):
            raise EstimationError(f"estimator {cls.__name__} has no usable registry name")
        existing = _REGISTRY.get(key)
        if existing is not None and existing is not cls:
            raise EstimationError(
                f"estimator name {key!r} already registered by {existing.__name__}"
            )
        _REGISTRY[key] = cls
        return cls

    return decorator


def _ensure_registered() -> None:
    """Import the estimation package so every method module has registered."""
    import repro.estimation  # noqa: F401  (import side effect: registration)


def available_estimators() -> tuple[str, ...]:
    """Sorted names of every registered estimation method."""
    _ensure_registered()
    return tuple(sorted(_REGISTRY))


def get_estimator(name: str, **params) -> Estimator:
    """Instantiate the estimator registered under ``name``.

    Keyword arguments are forwarded to the estimator's constructor, so
    ``get_estimator("bayesian", regularization=100.0, prior="wcb")`` is
    equivalent to constructing the class directly.
    """
    _ensure_registered()
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise EstimationError(
            f"unknown estimator {name!r}; available: {', '.join(available_estimators())}"
        ) from None
    return cls(**params)
