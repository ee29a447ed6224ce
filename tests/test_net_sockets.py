"""Tests for the AF_UNIX-style local socket model and permission bits."""

import weakref

import pytest

from repro.errors import ConnectionRefused, PermissionDenied, SimError
from repro.net import Credentials, LocalSocketHub
from repro.sim import Simulator

NORNS_GID = 500
NORNS_USER_GID = 501


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def hub(sim):
    return LocalSocketHub(sim, node="node0")


def connect(sim, hub, path, creds):
    """Run a connect to completion and return the client channel."""
    return sim.run(hub.connect(path, creds))


class TestPermissions:
    def test_owner_may_connect(self, sim, hub):
        owner = Credentials(uid=100, gid=NORNS_GID)
        hub.listen("/run/urd.ctl", owner, mode=0o600)
        ch = connect(sim, hub, "/run/urd.ctl", owner)
        assert ch is not None

    def test_group_member_may_connect_with_group_bit(self, sim, hub):
        owner = Credentials(uid=0, gid=NORNS_GID)
        hub.listen("/run/urd.ctl", owner, mode=0o660)
        member = Credentials(uid=1000, gid=42, groups=frozenset({NORNS_GID}))
        assert connect(sim, hub, "/run/urd.ctl", member) is not None

    def test_non_member_denied_on_control_socket(self, sim, hub):
        # The paper's norns vs norns-user split: a user process must not
        # reach the control socket.
        owner = Credentials(uid=0, gid=NORNS_GID)
        hub.listen("/run/urd.ctl", owner, mode=0o660)
        user = Credentials(uid=1000, gid=NORNS_USER_GID)
        with pytest.raises(PermissionDenied):
            connect(sim, hub, "/run/urd.ctl", user)

    def test_user_socket_admits_norns_user_group(self, sim, hub):
        owner = Credentials(uid=0, gid=NORNS_USER_GID)
        hub.listen("/run/urd.usr", owner, mode=0o660)
        user = Credentials(uid=1000, gid=7, groups=frozenset({NORNS_USER_GID}))
        assert connect(sim, hub, "/run/urd.usr", user) is not None

    def test_root_always_connects(self, sim, hub):
        owner = Credentials(uid=100, gid=NORNS_GID)
        hub.listen("/run/urd.ctl", owner, mode=0o600)
        assert connect(sim, hub, "/run/urd.ctl", Credentials.root()) is not None

    def test_world_writable_admits_anyone(self, sim, hub):
        owner = Credentials(uid=0, gid=0)
        hub.listen("/tmp/open.sock", owner, mode=0o666)
        anyone = Credentials(uid=4242, gid=4242)
        assert connect(sim, hub, "/tmp/open.sock", anyone) is not None

    def test_owner_without_write_bit_denied(self, sim, hub):
        owner = Credentials(uid=100, gid=NORNS_GID)
        hub.listen("/run/urd.ctl", owner, mode=0o440)
        with pytest.raises(PermissionDenied):
            connect(sim, hub, "/run/urd.ctl", owner)


class TestLifecycle:
    def test_connect_unbound_path_refused(self, sim, hub):
        with pytest.raises(ConnectionRefused):
            connect(sim, hub, "/nope", Credentials.root())

    def test_double_bind_rejected(self, sim, hub):
        hub.listen("/run/urd.ctl", Credentials.root())
        with pytest.raises(SimError):
            hub.listen("/run/urd.ctl", Credentials.root())

    def test_unlink_allows_rebind_and_refuses_connect(self, sim, hub):
        hub.listen("/run/urd.ctl", Credentials.root())
        hub.unlink("/run/urd.ctl")
        with pytest.raises(ConnectionRefused):
            connect(sim, hub, "/run/urd.ctl", Credentials.root())
        hub.listen("/run/urd.ctl", Credentials.root())  # rebind OK


class TestChannel:
    def test_request_response_roundtrip(self, sim, hub):
        owner = Credentials.root()
        lst = hub.listen("/svc", owner, mode=0o666)
        log = []

        def server():
            ch = yield lst.accept()
            msg = yield ch.recv()
            yield ch.send(b"pong:" + msg)

        def client():
            ch = yield hub.connect("/svc", owner)
            yield ch.send(b"ping")
            reply = yield ch.recv()
            log.append(reply)

        sim.process(server())
        p = sim.process(client())
        sim.run(p)
        assert log == [b"pong:ping"]

    def test_messages_take_ipc_latency(self, sim):
        hub = LocalSocketHub(sim, ipc_latency=1e-3)
        lst = hub.listen("/svc", Credentials.root(), mode=0o666)
        stamps = []

        def server():
            ch = yield lst.accept()
            yield ch.recv()
            stamps.append(sim.now)

        def client():
            ch = yield hub.connect("/svc", Credentials.root())
            yield ch.send(b"x")

        sim.process(server())
        sim.process(client())
        sim.run()
        # connect (1ms) + send (1ms) = 2ms.
        assert stamps[0] == pytest.approx(2e-3)

    def test_sender_gets_none_and_a_closed_peer_drops_the_hop(self, sim,
                                                               hub):
        lst = hub.listen("/svc", Credentials.root(), mode=0o666)
        got, ends = [], []

        def server():
            ch = yield lst.accept()
            ends.append(ch)
            # Closes after the client sent, before its hop lands.
            yield sim.timeout(hub.ipc_latency / 2)
            ch.close()

        def client():
            ch = yield hub.connect("/svc", Credentials.root())
            got.append((yield ch.send(b"x")))

        sim.process(server())
        sim.process(client())
        sim.run()
        assert got == [None]
        assert len(ends[0]._inbox) == 0

    def test_negative_latency_is_refused(self, sim):
        hub = LocalSocketHub(sim, ipc_latency=-1e-6)
        hub.listen("/svc", Credentials.root(), mode=0o666)
        with pytest.raises(SimError, match="negative IPC latency"):
            hub.connect("/svc", Credentials.root())

    def test_close_delivers_eof(self, sim, hub):
        lst = hub.listen("/svc", Credentials.root(), mode=0o666)
        got = []

        def server():
            ch = yield lst.accept()
            msg = yield ch.recv()
            got.append(msg)

        def client():
            ch = yield hub.connect("/svc", Credentials.root())
            ch.close()

        sim.process(server())
        sim.process(client())
        sim.run()
        assert got == [None]

    def test_send_after_peer_close_fails(self, sim, hub):
        lst = hub.listen("/svc", Credentials.root(), mode=0o666)
        outcome = []

        def server():
            ch = yield lst.accept()
            ch.close()

        def client():
            ch = yield hub.connect("/svc", Credentials.root())
            yield sim.timeout(1)  # let the server close first
            try:
                yield ch.send(b"late")
            except ConnectionRefused:
                outcome.append("refused")

        sim.process(server())
        sim.process(client())
        sim.run()
        assert outcome == ["refused"]

    def test_closed_pair_is_freed_without_collector(self, sim, hub,
                                                    no_collector):
        """The second close unlinks the two ends, so a finished
        connection is reclaimed by reference counting.  ``Channel`` has
        no ``__weakref__`` slot: a payload left unread in the server's
        inbox stands in for it."""
        class Payload:
            pass

        lst = hub.listen("/svc", Credentials.root(), mode=0o666)
        seen, ends = [], []

        def server():
            ch = yield lst.accept()
            ends.append(ch)
            yield sim.timeout(1)          # never reads, then hangs up
            ch.close()

        def client():
            ch = yield hub.connect("/svc", Credentials.root())
            ends.append(ch)
            payload = Payload()
            seen.append(weakref.ref(payload))
            yield ch.send(payload)
            ch.close()

        sim.process(server())
        sim.process(client())
        sim.run()
        assert seen[0]() is not None
        assert [ch.closed for ch in ends] == [True, True]
        assert [ch.peer for ch in ends] == [None, None]
        with pytest.raises(ConnectionRefused):
            sim.run(ends[0].send(b"late"))
        ends.clear()
        assert seen[0]() is None

    def test_many_clients_one_listener(self, sim, hub):
        lst = hub.listen("/svc", Credentials.root(), mode=0o666)
        served = []

        def server():
            while len(served) < 5:
                ch = yield lst.accept()
                msg = yield ch.recv()
                served.append(msg)

        def client(i):
            ch = yield hub.connect("/svc", Credentials.root())
            yield ch.send(i)

        sim.process(server())
        for i in range(5):
            sim.process(client(i))
        sim.run()
        assert sorted(served) == [0, 1, 2, 3, 4]
