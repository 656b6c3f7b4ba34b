"""Exception hierarchy.

Every error carries a short machine-readable ``kind`` so the CLI can emit
uniform ``error: <kind>: <detail>`` lines.
"""


def shown_path(path: str) -> str:
    """``path`` as the head of an error line: as given when every character prints,
    else its ``repr``, so that a line break or an undecodable byte cannot split the line."""
    return path if path.isprintable() else repr(path)


class SeknowError(Exception):
    """Base class for all domain errors raised by this package."""

    kind = "error"

    @property
    def detail(self) -> str:
        return str(self.args[0]) if self.args else ""


class LoadError(SeknowError):
    """A source file failed to parse, violated its schema, or disagrees with a file
    loaded before it."""

    kind = "load"

    def __init__(self, detail: str, *, file: str, line: int | None = None):
        where = f":{line}: " if line is not None else ": "
        super().__init__(shown_path(file) + where + detail)
        self.file = file
        self.line = line


class DomainNotFoundError(SeknowError):
    kind = "domain-not-found"


class ConfigError(SeknowError):
    kind = "config"


class IndexingError(SeknowError):
    """Topic extraction failed for a document (e.g. no usable tokens)."""

    kind = "indexing"


class ParseError(SeknowError):
    """A belief span failed to parse; ``offset`` is the byte offset."""

    kind = "parse"

    def __init__(self, detail: str, offset: int = 0):
        super().__init__(f"{detail} (byte offset {offset})")
        self.offset = offset


class QueryError(SeknowError):
    kind = "query"


class OracleError(SeknowError):
    kind = "oracle"


class TemplateError(SeknowError):
    kind = "template"


class CorruptionError(SeknowError):
    kind = "corruption"


class GenerationError(SeknowError):
    kind = "generation"


class MetricError(SeknowError):
    kind = "metric"


class EvaluationError(SeknowError):
    kind = "evaluation"
