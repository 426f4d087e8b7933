"""Robust nonlinear pricing: distribution-free profit guarantees,
Bayes-optimal screening menus, surplus functionals, and frontier /
boundary certificates.

The package root re-exports every name in each submodule's ``__all__``."""

__version__ = "0.1.0"

from .distributions import *  # noqa: F401,F403
from .technology import *  # noqa: F401,F403
from .mechanisms import *  # noqa: F401,F403
from .screening import *  # noqa: F401,F403
from .functionals import *  # noqa: F401,F403
from .guarantees import *  # noqa: F401,F403
from .quadrature import *  # noqa: F401,F403
