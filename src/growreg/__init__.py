"""Growing-L2 pruning lab.

Small trainable networks with exact gradients, two penalty-ramp pruning
schedules, the one-shot baselines they are compared against, and a
closed-form quadratic oracle validating the equilibrium theory the
schedules rely on. The Python API is the submodules: import
``growreg.harness``, ``growreg.quadratic`` and the rest directly.
"""

__version__ = "0.1.0"
