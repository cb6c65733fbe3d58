"""Exception types shared across the toolchain."""


class TocError(Exception):
    """Base class for every error raised by this package.

    The errors that also derive from ValueError reject a malformed input
    value; raised while a record is read, they name the record's line.
    """


# --- record and clip-sequence validation ---


class EmptyError(TocError):
    """An operation received an empty collection it cannot work with."""


class OverlapError(TocError):
    """Clip time spans overlap."""


class GapError(TocError):
    """Clip indices are not a contiguous 0..N-1 run."""


class EmptyRationaleError(TocError):
    """A rationale was empty where a non-empty one is required."""


class RecordError(TocError):
    """A record file line is malformed or conflicts with an earlier line."""


# --- segmentation ---


class EmptyInputError(TocError, ValueError):
    """Shot input holds no shots."""


class DimensionMismatchError(TocError, ValueError):
    """Embedding vectors disagree in dimension or count."""


class ZeroVectorError(TocError, ValueError):
    """An embedding has a zero or overflowing norm, so it has no direction."""


# --- cue tree ---


class InvalidSizeError(TocError):
    """Requested tree size is not a positive integer."""


class EmptySelectionError(TocError):
    """No leaves were selected."""


class OutOfRangeError(TocError):
    """A leaf index falls outside 0..N-1."""


# --- gateway ---


class GatewayError(TocError):
    """Base class for chat-backend failures."""


class AuthError(GatewayError):
    """Credential missing or rejected by the backend."""


class BackendUnavailableError(GatewayError):
    """Backend could not serve the request, including after retries."""


class GatewayTimeoutError(GatewayError):
    """Every attempt timed out."""


class UnboundPlaceholderError(TocError):
    """A prompt template placeholder was left unbound."""


class ParseError(TocError):
    """A backend reply did not match the strict format the prompt demands."""


# --- pipelines ---


class EmptyCaptionError(TocError):
    """A captioning call returned empty text."""


class InsufficientCuesError(TocError):
    """The final cue was judged insufficient to answer the question."""


class StepCountMismatchError(TocError):
    """Rationale step markers do not match the number of localization steps."""


class ReservedTagError(TocError):
    """A rationale holds a tag that delimits the blocks of the training target."""


class NonMultipleChoiceError(TocError):
    """Demand estimation only accepts multiple-choice questions."""


class InvalidBandError(TocError):
    """Difficulty band bounds are not an increasing pair."""


# --- reward engine ---


class RangeError(TocError, ValueError):
    """A numeric argument is outside its allowed range."""


class GroupTooSmallError(TocError, ValueError):
    """Advantage normalization needs at least two responses."""


class MisalignedSequencesError(TocError, ValueError):
    """Log-probability sequences do not line up."""


class NonFiniteError(TocError, ValueError):
    """A computation produced or received a non-finite value."""


# --- cli ---


class ConfigError(TocError):
    """Configuration is missing or inconsistent."""


class UsageError(TocError):
    """Command line was malformed."""
