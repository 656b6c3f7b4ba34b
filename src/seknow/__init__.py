"""Semi-structured knowledge management engine for task-oriented dialog.

Fuses a structured entity database with free-text documents, tracks an
extended belief state as a parsable text span, runs exact and fuzzy
knowledge operations against the fused base, and evaluates both the
intermediate knowledge management and the end-to-end dialog quality.

The supported interface is the ``seknow`` command line and the submodules
(``seknow.kb``, ``seknow.knowops``, ``seknow.metrics``, ...); import each
name from the module that defines it.
"""

__version__ = "0.1.0"
