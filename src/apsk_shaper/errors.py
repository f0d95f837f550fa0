"""Exception types and the CLI exit-code contract."""


class DomainError(ValueError):
    """Invalid argument, configuration value, or constellation file."""


class EstimatorError(RuntimeError):
    """An estimate violates a bound it must satisfy.

    For quadrature that is an estimator bug; for Monte Carlo it can also be
    sampling noise from too few samples, and the message then gives the
    standard error and the sample count.
    """


class ContractError(RuntimeError):
    """A validated design inequality failed during a convergence audit."""


EXIT_OK = 0
EXIT_USAGE = 2
EXIT_ESTIMATOR = 3
EXIT_CONTRACT = 4
