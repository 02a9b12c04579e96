"""senslab: Monte Carlo measurement of how far statistical estimators move
when an adversary replaces a bounded fraction of the sample.

The public names are each module's ``__all__``, re-exported here."""

from .adversaries import *  # noqa: F401,F403
from .analysis import *  # noqa: F401,F403
from .bernoulli import *  # noqa: F401,F403
from .core import *  # noqa: F401,F403
from .estimators import *  # noqa: F401,F403
from .harness import *  # noqa: F401,F403

__version__ = "0.1.0"
