"""Name-based policy registry and the policy → batch-kernel association.

Scenarios refer to policies by name so that experiment configurations remain
declarative and serialisable.  :func:`create_policy` resolves a name and builds
the policy from a :class:`repro.algorithms.base.PolicyContext`.

The built-in names match the algorithm labels of the paper:

``exp3``, ``block_exp3``, ``hybrid_block_exp3``, ``smart_exp3``,
``smart_exp3_no_reset``, ``greedy``, ``full_information``, ``centralized``,
``fixed_random``.

Execution backends that batch policies across devices resolve the batched
kernel for a policy instance through :func:`kernel_for_policy`; policies
without a registered kernel (or subclasses that override the per-slot
interface) fall back to the per-device scalar path, which stays bit-exact
with the reference backend.
"""

from __future__ import annotations

from typing import Callable

from repro.algorithms.base import Policy, PolicyContext
from repro.algorithms.block_exp3 import BlockEXP3Policy, HybridBlockEXP3Policy
from repro.algorithms.centralized import CentralizedPolicy
from repro.algorithms.exp3 import EXP3Policy
from repro.algorithms.fixed_random import FixedRandomPolicy
from repro.algorithms.full_information import FullInformationPolicy
from repro.algorithms.greedy import GreedyPolicy
from repro.core.config import SmartEXP3Config
from repro.core.smart_exp3 import SmartEXP3Policy

PolicyFactory = Callable[..., Policy]

_REGISTRY: dict[str, PolicyFactory] = {}


def register_policy(name: str, factory: PolicyFactory, overwrite: bool = False) -> None:
    """Register a policy factory under ``name``.

    ``factory`` must accept a :class:`PolicyContext` as its first positional
    argument, plus arbitrary keyword arguments.
    """
    if not name:
        raise ValueError("policy name must be non-empty")
    if name in _REGISTRY and not overwrite:
        raise ValueError(f"policy {name!r} is already registered")
    _REGISTRY[name] = factory


def available_policies() -> tuple[str, ...]:
    """Names of all registered policies, sorted."""
    return tuple(sorted(_REGISTRY))


def create_policy(name: str, context: PolicyContext, **kwargs) -> Policy:
    """Instantiate the policy registered under ``name``."""
    if name not in _REGISTRY:
        raise KeyError(
            f"unknown policy {name!r}; available: {', '.join(available_policies())}"
        )
    return _REGISTRY[name](context, **kwargs)


#: Policy class → BatchKernel class.  Populated by
#: :mod:`repro.algorithms.kernels` on import; kept here so backends have one
#: lookup point for both policies and kernels.
_KERNELS: dict[type, type] = {}

#: Class-dict entries a subclass may define without invalidating an
#: ancestor's kernel: construction and interpreter boilerplate only — any
#: method or property override could change per-slot behaviour the kernel
#: does not know about.  ``__slotnames__`` is the cache ``copyreg`` adds to
#: a class the first time one of its instances is pickled (a checkpoint's
#: scalar rows, for one).
_KERNEL_NEUTRAL_ATTRIBUTES = frozenset(
    {
        "__init__",
        "__slotnames__",
        "__doc__",
        "__module__",
        "__qualname__",
        "__annotations__",
        "__dict__",
        "__weakref__",
        "__slots__",
        "__firstlineno__",
        "__static_attributes__",
        "__abstractmethods__",
        "_abc_impl",
        "__parameters__",
    }
)


def register_policy_kernel(
    policy_type: type, kernel_cls: type, overwrite: bool = False
) -> None:
    """Associate a batched execution kernel with a policy class.

    The kernel applies to ``policy_type`` and to subclasses that do not
    override any per-slot behaviour (e.g. the Block EXP3 variants, which only
    restrict the Smart EXP3 configuration in ``__init__``).
    """
    if policy_type in _KERNELS and not overwrite:
        raise ValueError(f"a kernel is already registered for {policy_type.__name__}")
    _KERNELS[policy_type] = kernel_cls


def kernel_for_policy(policy: Policy) -> type | None:
    """The batched kernel class for ``policy``, or ``None`` (scalar fallback).

    Resolution walks the MRO so Smart EXP3 variants share one kernel, but a
    subclass that defines *anything* beyond ``__init__`` between itself and
    the registered ancestor gets no kernel: even a private helper override
    (``_gamma``, ``_choose_learned``, ...) could change per-slot behaviour
    the batch layer knows nothing about, and only the per-device path is
    guaranteed correct then.  The Block EXP3 variants qualify — they only
    restrict the configuration in ``__init__``.
    """
    mro = type(policy).__mro__
    for depth, klass in enumerate(mro):
        kernel_cls = _KERNELS.get(klass)
        if kernel_cls is None:
            continue
        for intermediate in mro[:depth]:
            if any(
                name not in _KERNEL_NEUTRAL_ATTRIBUTES
                for name in vars(intermediate)
            ):
                return None
        return kernel_cls
    return None


def _make_smart_exp3(context: PolicyContext, **kwargs) -> SmartEXP3Policy:
    config = kwargs.pop("config", None)
    if config is None and kwargs:
        config = SmartEXP3Config(**kwargs)
    elif kwargs:
        config = config.replace(**kwargs)
    return SmartEXP3Policy(context, config)


def _make_smart_exp3_no_reset(context: PolicyContext, **kwargs) -> SmartEXP3Policy:
    config = kwargs.pop("config", None)
    if config is None:
        config = SmartEXP3Config.without_reset()
    config = config.replace(enable_reset=False, **kwargs)
    return SmartEXP3Policy(context, config)


register_policy("exp3", lambda context, **kwargs: EXP3Policy(context, **kwargs))
register_policy("block_exp3", lambda context, **kwargs: BlockEXP3Policy(context, **kwargs))
register_policy(
    "hybrid_block_exp3", lambda context, **kwargs: HybridBlockEXP3Policy(context, **kwargs)
)
register_policy("smart_exp3", _make_smart_exp3)
register_policy("smart_exp3_no_reset", _make_smart_exp3_no_reset)
register_policy("greedy", lambda context, **kwargs: GreedyPolicy(context, **kwargs))
register_policy(
    "full_information", lambda context, **kwargs: FullInformationPolicy(context, **kwargs)
)
register_policy("centralized", lambda context, **kwargs: CentralizedPolicy(context, **kwargs))
register_policy("fixed_random", lambda context, **kwargs: FixedRandomPolicy(context, **kwargs))
