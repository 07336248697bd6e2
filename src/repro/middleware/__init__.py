"""Desktop-grid middleware simulators: BOINC and XtremWeb-HEP.

The paper's simulator "models two middleware which represent two
different approaches for handling hosts volatility": BOINC relies on
task replication, a validation quorum and a one-day result deadline
(``delay_bound``), while XtremWeb-HEP detects worker failures through
heartbeats and reissues lost tasks (§1, §4.1.3).  Both are implemented
here over the shared :class:`~repro.middleware.base.DGServer` dispatch
machinery, with the exact standard parameters the paper lists.
"""

from repro.middleware.base import DGServer, ServerObserver, ServerStats, TaskState
from repro.middleware.boinc import BoincConfig, BoincServer
from repro.middleware.xwhep import XWHepConfig, XWHepServer

__all__ = [
    "DGServer",
    "ServerObserver",
    "ServerStats",
    "TaskState",
    "BoincConfig",
    "BoincServer",
    "XWHepConfig",
    "XWHepServer",
    "MIDDLEWARE_NAMES",
    "make_server",
]

MIDDLEWARE_NAMES = ("boinc", "xwhep")

_SERVER_CLASSES = {"boinc": BoincServer, "xwhep": XWHepServer}


def resolve_server(kind):
    """The server class for a middleware name (a dict lookup)."""
    try:
        return _SERVER_CLASSES[kind.lower()]
    except KeyError:
        raise ValueError(f"unknown middleware {kind!r}; expected one of "
                         f"{MIDDLEWARE_NAMES}") from None


def make_server(kind, sim, pool, config=None, name=None):
    """Factory: build a BOINC or XWHEP server by name."""
    cls = resolve_server(kind)
    return cls(sim, pool, config=config, name=name or kind.lower())
