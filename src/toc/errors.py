"""Exception types shared across the toolchain."""


class TocError(Exception):
    """Base class for every error raised by this package.

    A subclass exists only where a caller tells it apart: it maps to a
    rejection reason, decides a retry, or is reported by name.  A malformed
    record value is a ValueError, which the record reader names by line.
    """


# --- records ---


class EmptyRationaleError(TocError, ValueError):
    """A rationale was empty where a non-empty one is required."""


class ReservedTagError(TocError, ValueError):
    """A rationale holds a tag that delimits the blocks of the training target."""


class RecordError(TocError):
    """A record file line is malformed or conflicts with an earlier line."""


# --- cue tree ---


class EmptySelectionError(TocError):
    """No leaves were selected."""


# --- configuration ---


class ConfigError(TocError):
    """Configuration is missing or inconsistent."""


# --- gateway ---


class GatewayError(TocError):
    """A model call failed: a timeout, a refused or broken connection, a status
    other than 200, 401 and 403, a malformed reply, or a mock-table miss.

    It fails one request, not the run, and the gateway retries it.
    """


class AuthError(ConfigError):
    """Credential missing or rejected by the backend; it stops the run, never retried."""


class ParseError(TocError):
    """A backend reply did not match the strict format the prompt demands."""


# --- pipelines ---


class EmptyCaptionError(TocError):
    """A captioning call returned empty text."""


class StepCountMismatchError(TocError):
    """Rationale step markers do not match the number of localization steps."""


# --- numeric values ---


class RangeError(TocError, ValueError):
    """A number or count is outside its allowed range."""


class NonFiniteError(TocError, ValueError):
    """A computation produced or received a non-finite value."""


# --- cli ---


class UsageError(TocError):
    """Command line was malformed."""
