"""Exception hierarchy shared across the package."""


class HyperflowError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(HyperflowError):
    """Malformed argument text (a number, a measure, an order or a
    precision), a program file that is not UTF-8, programs whose declared
    state spaces differ, several initial split-states for `attack`, or a
    missing corpus directory."""


# -- probability core ---------------------------------------------------

class NegativeWeight(HyperflowError):
    """A distribution weight or conditioning weight was negative."""


class WeightOverflow(HyperflowError):
    """Distribution weights sum to more than one."""


class ZeroWeight(HyperflowError):
    """Normalisation of a zero-weight distribution was requested."""


class ZeroCondition(HyperflowError):
    """Conditioning on an event of probability zero (impossible observation)."""


# -- language -----------------------------------------------------------

class HprogSyntaxError(HyperflowError):
    def __init__(self, message, line, col):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class UnknownAgent(HyperflowError):
    """View projection was asked for an agent that no annotation mentions."""


# -- evaluation ---------------------------------------------------------

class EvalError(HyperflowError):
    """Runtime failure while evaluating a program."""


class DistNotOneSumming(EvalError):
    """A distribution expression evaluated to weights not summing to one."""


class UnsupportedConstruct(HyperflowError):
    """A backend was given a program shape it deliberately does not handle."""


# -- linear programming -------------------------------------------------

class LpError(HyperflowError):
    pass


class Unbounded(LpError):
    """Objective can be improved without limit."""


class Infeasible(LpError):
    """No point satisfies the constraints (used by solve_max)."""


# -- refinement / attack ------------------------------------------------

class DomainMismatch(HyperflowError):
    """Two hyper-distributions range over different declared state spaces."""


class NotRefinementMatrix(HyperflowError):
    """Matrix is not non-negative with one-summing columns."""


class NotSeparable(HyperflowError):
    """Internal inconsistency: separation requested but none exists."""


class VertexBudgetExceeded(HyperflowError):
    """Enumerating simple-matrix vertices would exceed the configured cap."""


class PreconditionViolated(HyperflowError):
    """Caller invoked an operation outside its stated precondition."""


class InternalError(HyperflowError):
    """Invariant the implementation relies on failed; indicates a bug."""
