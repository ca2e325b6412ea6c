from repro.cpu.config import default_ports
from repro.cpu.ports import PortSet


def make_ports():
    return PortSet(default_ports(), frozenset({"div"}))


def issue(ports, now, op_cls, latency):
    """Find a port and commit to it, as the core's dispatch does."""
    port = ports.find(now, op_cls)
    if port is not None:
        port.issue(now, op_cls, latency)
    return port


def test_class_routing():
    ports = make_ports()
    port = issue(ports, 0, "load", 4)
    assert port.name in ("p2", "p3")
    port = issue(ports, 0, "div", 24)
    assert port.name == "p0"


def test_one_issue_per_port_per_cycle():
    ports = make_ports()
    first = issue(ports, 0, "load", 4)
    second = issue(ports, 0, "load", 4)
    third = issue(ports, 0, "load", 4)
    assert first and second
    assert first.name != second.name
    assert third is None  # both load ports used this cycle
    ports.new_cycle()
    assert issue(ports, 1, "load", 4) is not None


def test_find_does_not_take_the_port():
    ports = make_ports()
    assert ports.find(0, "div").name == "p0"
    assert ports.find(0, "div").name == "p0"
    assert ports.port_named("p0").stats.issued == 0
    assert issue(ports, 0, "div", 24).name == "p0"
    assert ports.find(0, "div") is None


def test_non_pipelined_divider_occupies_port():
    ports = make_ports()
    assert issue(ports, 0, "div", 24) is not None
    ports.new_cycle()
    assert issue(ports, 1, "div", 24) is None   # busy until 24
    ports.new_cycle()
    assert issue(ports, 24, "div", 24) is not None


def test_pipelined_ops_do_not_occupy():
    ports = make_ports()
    assert issue(ports, 0, "mul", 3) is not None
    ports.new_cycle()
    assert issue(ports, 1, "mul", 3) is not None


def test_alu_falls_back_across_ports():
    ports = make_ports()
    names = set()
    for _ in range(4):
        port = issue(ports, 0, "alu", 1)
        assert port is not None
        names.add(port.name)
    assert names == {"p0", "p1", "p5", "p6"}
    assert issue(ports, 0, "alu", 1) is None


def test_divider_blocks_alu_on_port0_only():
    ports = make_ports()
    issue(ports, 0, "div", 24)
    ports.new_cycle()
    # p0 is busy, but p1/p5/p6 still take ALU ops.
    assert issue(ports, 1, "alu", 1).name != "p0"


def test_contention_stat_counts():
    ports = make_ports()
    issue(ports, 0, "div", 24)
    ports.new_cycle()
    issue(ports, 1, "div", 24)
    assert ports.port_named("p0").stats.contended == 1


def test_contended_counts_attempts_not_cycles():
    ports = make_ports()
    issue(ports, 0, "div", 24)
    ports.new_cycle()
    # Two ready divides in one cycle: two contended attempts.
    assert ports.find(1, "div") is None
    assert ports.find(1, "div") is None
    # An ALU op passing over the busy p0 on its way to p1 counts too.
    assert issue(ports, 1, "alu", 1).name == "p1"
    p0 = ports.port_named("p0")
    assert p0.stats.contended == 3
    assert ports.contention_report()["p0"] == (1, 3)


def test_port_taken_this_cycle_is_not_contended():
    ports = make_ports()
    issue(ports, 0, "div", 24)
    # p0 issued this cycle: skipped without a contended count.
    assert ports.find(0, "div") is None
    assert ports.port_named("p0").stats.contended == 0


def test_unknown_class_returns_none():
    ports = make_ports()
    assert issue(ports, 0, "warp", 1) is None


def test_contention_report_shape():
    ports = make_ports()
    issue(ports, 0, "mul", 3)
    report = ports.contention_report()
    assert report["p1"][0] == 1
