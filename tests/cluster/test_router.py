"""PacketRouter control-plane handling, driven without a selector thread."""

import pytest

from repro.cluster.router import PacketRouter, _Conn
from repro.mp.channels.wire import DEAD, GO, HELLO, FrameReader


class FakeSock:
    """A worker socket that accepts everything, or fails every send."""

    def __init__(self, fail: bool = False) -> None:
        self.fail = fail
        self.sent = bytearray()
        self.closed = False

    def send(self, data) -> int:
        if self.fail:
            raise ConnectionResetError("worker went away")
        self.sent += data
        return len(data)

    def close(self) -> None:
        self.closed = True


def frames(sock: FakeSock) -> list[tuple[int, int]]:
    return [(ftype, arg) for ftype, arg, _body in FrameReader().feed(bytes(sock.sent))]


@pytest.fixture
def router():
    r = PacketRouter(3)
    yield r
    r.stop()


def hello(router, rank: int, sock: FakeSock) -> _Conn:
    conn = _Conn(sock)
    router._conns[sock] = conn
    router._dispatch(conn, HELLO, rank, b"")
    return conn


def test_go_broadcast_survives_a_send_that_closes_its_conn(router):
    """A send failing during the GO broadcast closes that conn, which drops
    it from the rank table the broadcast is walking."""
    ok0, dying, ok2 = FakeSock(), FakeSock(fail=True), FakeSock()
    hello(router, 0, ok0)
    hello(router, 1, dying)
    hello(router, 2, ok2)  # the last HELLO triggers GO
    assert router.all_connected
    assert dying.closed
    assert 1 not in router._by_rank
    assert router.dead_snapshot() == {1}
    for sock in (ok0, ok2):
        assert sorted(frames(sock)) == sorted([(GO, 3), (DEAD, 1)])
