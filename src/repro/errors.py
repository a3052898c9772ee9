"""Exception hierarchy for the repro package.

All library errors derive from :class:`ReproError` so callers can catch a
single base class at API boundaries.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SchemaError(ReproError):
    """Raised for malformed schemas or references to unknown tables/columns."""


class PlanError(ReproError):
    """Raised when a logical or physical plan is structurally invalid."""


class ExpressionError(ReproError):
    """Raised when an expression references unknown columns or mixes types."""


class TrainingError(ReproError):
    """Raised when model training receives invalid data or parameters."""


class CompilationError(ReproError):
    """Raised when compiling a tree model to native code fails."""


class FeatureError(ReproError):
    """Raised when feature computation encounters an unknown operator stage."""


class CardinalityError(ReproError):
    """Raised when a cardinality model cannot evaluate a plan node."""


class WorkloadError(ReproError):
    """Raised by query generation when constraints cannot be satisfied."""


class ConfigurationError(ReproError):
    """Raised when a component receives an invalid parameter value."""


class CheckError(ReproError):
    """Raised when a static-analysis check cannot run (as opposed to a
    check that runs and reports findings)."""


class ServingError(ReproError):
    """Base class for errors raised by the online prediction service."""


class ModelNotFoundError(ServingError):
    """Raised when the model registry has no entry for a name/version."""


class QueueFullError(ServingError):
    """Raised when the prediction queue rejects a request (admission
    control): the service is overloaded and degrades by shedding load
    instead of growing an unbounded backlog."""


class LoadShedError(QueueFullError):
    """Raised when the load-shedding policy rejects a request because
    the queue depth crossed the shed watermark (the queue is not yet
    full, but accepting more work would push queued requests past
    their deadlines)."""


class RequestTimeoutError(ServingError):
    """Raised when a prediction request exceeds its per-request deadline."""


class DeadlineExceeded(RequestTimeoutError):
    """Raised when a request's deadline expired *before* evaluation:
    the request was shed from the queue instead of being evaluated
    late. Distinct from :class:`RequestTimeoutError` (the caller gave
    up waiting) so clients can tell "never ran" from "ran too long"."""


class NonFinitePredictionError(ServingError):
    """Raised when a serving backend produces NaN or infinite raw
    scores. An artifact failure, not a load decision: the degradation
    chain catches it, trips the breaker, and falls through to the next
    rung instead of answering with garbage."""


class ServiceClosedError(ServingError):
    """Raised when a request reaches a service or batcher that has
    been closed — including requests that were still queued when the
    shutdown drain ran (they fail fast instead of blocking forever)."""


class InstanceNotFoundError(ServingError, SchemaError):
    """Raised when the serving layer cannot resolve a database
    instance name (the serving analogue of an unknown model).

    Also a :class:`SchemaError`: resolving an unknown instance name is
    an unknown-schema reference, and pre-existing callers catch it as
    such; new code can be precise and map it to a 404."""


class InjectedFaultError(ReproError):
    """Raised by the fault-injection framework at an armed site.

    Never raised in production operation — only when a
    :class:`~repro.faults.FaultPlan` is installed (chaos tests,
    ``repro-t3 serve --chaos``). Components treat it like the real
    failure it simulates."""
