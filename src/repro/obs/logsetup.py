"""Stdlib logging for the ``repro`` logger hierarchy.

Every module logs through ``logging.getLogger("repro.<module>")``
(via :func:`get_logger`), so one call to :func:`configure_logging`
controls the whole flow.  The format includes the logger name, which
doubles as the stage taxonomy (``repro.core.synthesizer``,
``repro.service.jobs``, ...).

Degradation-chain warnings include the active span id (when a tracer
is installed) so a log line can be joined against ``trace.jsonl``.
"""

from __future__ import annotations

import logging

_FORMAT = "%(asctime)s %(levelname)-7s %(name)s: %(message)s"

#: Accepted ``--log-level`` values.
LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL")


def get_logger(name: str) -> logging.Logger:
    """A logger under the ``repro`` hierarchy.

    ``name`` may be a module ``__name__`` (already rooted at ``repro``)
    or a bare suffix like ``"core.synthesizer"``.
    """
    if not name.startswith("repro"):
        name = f"repro.{name}"
    return logging.getLogger(name)


def configure_logging(level: str = "WARNING") -> logging.Logger:
    """Attach one stream handler to the ``repro`` root logger.

    Idempotent: repeated calls update the level instead of stacking
    handlers, so tests and nested CLI invocations stay clean.
    """
    if level.upper() not in LOG_LEVELS:
        raise ValueError(
            f"unknown log level {level!r}; allowed: {', '.join(LOG_LEVELS)}"
        )
    root = logging.getLogger("repro")
    root.setLevel(level.upper())
    if not any(
        isinstance(h, logging.StreamHandler)
        and getattr(h, "_repro_handler", False)
        for h in root.handlers
    ):
        handler = logging.StreamHandler()
        handler.setFormatter(logging.Formatter(_FORMAT))
        handler._repro_handler = True  # type: ignore[attr-defined]
        root.addHandler(handler)
    root.propagate = False
    return root
