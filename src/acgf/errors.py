"""Exception types shared across the package.

Two failure families matter to callers: bad configuration or usage
(rejected before/without computing) and numerical failure during a run.
The CLI maps them to exit codes 2 and 1 respectively.
"""


class ConfigError(Exception):
    """Invalid configuration, arguments, or precondition violation."""


def at_path(path, build, *args, **kwargs):
    """build(*args, **kwargs); a ConfigError it raises is prefixed by the field or flag ``path``."""
    try:
        return build(*args, **kwargs)
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from None


class SolverError(Exception):
    """Numerical failure while running (NaN objective, bad state)."""


class NonconvergenceError(SolverError):
    """Inner solver exhausted its iteration budget.

    Carries the last certified gradient-norm residual and, when raised
    from a time loop, the step index where it happened.
    """

    def __init__(self, message, residual=None, step=None):
        super().__init__(message)
        self.residual = residual
        self.step = step
