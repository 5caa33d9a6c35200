"""Protocol microbenchmark: building and sizing wire messages.

Every message a daemon or client sends is built once and sized once
(``estimate_size``), so both sit on the per-message path.  One
``op`` here builds and sizes the message mix of one hot-jobs operation
— Locate, Redirect, Stat/StatAck, Open/OpenAck, Read/ReadAck and
Close/CloseAck — with the field values those messages carry on a 4096-
server namespace.  ``messages_per_sec`` counts messages built and sized.
"""

from __future__ import annotations

from repro.cluster import protocol as pr

from . import best_rate

PATH = "/store/data/run00042/file0001234.root"
CLIENT = "client00017"
SERVER = "srv01234"


def _one_op(i: int) -> int:
    """Build and size one op's messages; returns the byte total."""
    size = pr.estimate_size
    total = size(
        pr.Locate(
            req_id=i,
            reply_to=CLIENT,
            path=PATH,
            mode="r",
            create=False,
            refresh=False,
            avoid=(),
            client_site="",
        )
    )
    total += size(pr.Redirect(i, PATH, target=SERVER, target_role="server", pending=False))
    total += size(pr.Stat(i, CLIENT, PATH))
    total += size(pr.StatAck(i, True, 4096))
    total += size(pr.Open(i, CLIENT, PATH, "r", False))
    total += size(pr.OpenAck(i, 7, 4096))
    total += size(pr.Read(i, CLIENT, 7, 0, 64))
    total += size(pr.ReadAck(i, b"\x00" * 64))
    total += size(pr.Close(i, CLIENT, 7))
    total += size(pr.CloseAck(i))
    return total


#: Messages built and sized by one :func:`_one_op`.
MESSAGES_PER_OP = 10


def run_messages(n_ops: int = 40_000) -> int:
    """Build and size *n_ops* ops' messages; returns the message count."""
    for i in range(n_ops):
        _one_op(i)
    return n_ops * MESSAGES_PER_OP


def run_suite(*, scale: int = 1, repeats: int = 3) -> dict[str, float]:
    n_ops = 40_000 // scale
    return {
        "messages_per_sec": round(best_rate(lambda: run_messages(n_ops), repeats=repeats), 1),
    }
