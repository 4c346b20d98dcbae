"""One world, one set of seams.

``SDComplex`` and ``CsSystem`` resolve their stats registry, tracer and
fault injector once (``Seams.of``) and hand the value down; every
component they build must hold the world's three objects — not a
fresh registry or a null tracer or injector of its own.  Lint rule R008
checks the threading statically; this checks it at runtime, over a
world with every kind of component built.
"""

from repro.common.seams import Seams
from repro.common.stats import StatsRegistry
from repro.cs.system import CsSystem
from repro.faults.injector import NULL_INJECTOR, FaultInjector, FaultPlan
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.replication import ReplicationConfig
from repro.sd.complex import SDComplex

#: The attribute names a component binds its seams under.
SEAM_ATTRS = {"stats": "stats", "tracer": "tracer",
              "injector": "injector", "_injector": "injector"}


def assert_holds(world, component, name):
    held = {attr: getattr(component, attr) for attr in SEAM_ATTRS
            if hasattr(component, attr)}
    assert "tracer" in held, f"{name} binds no tracer"
    for attr, value in held.items():
        expected = getattr(world, SEAM_ATTRS[attr])
        assert value is expected, f"{name}.{attr} is not the world's"


def world_seams():
    return StatsRegistry(), Tracer(), FaultInjector(FaultPlan(seed=0))


def test_sd_complex_hands_every_component_its_seams():
    stats, tracer, injector = world_seams()
    sd = SDComplex(n_data_pages=64, stats=stats, tracer=tracer,
                   injector=injector, restart_mode="instant",
                   replicate=ReplicationConfig())
    assert sd.seams == (stats, tracer, injector)
    instances = [sd.add_instance(system_id) for system_id in (1, 2)]
    standbys = [sd.replication.add_standby(system_id)
                for system_id in (9, 10)]
    s1 = instances[0]
    txn = s1.begin()
    for _ in range(4):
        page_id = s1.allocate_page(txn)
        s1.insert(txn, page_id, b"v0")
    s1.commit(txn)
    sd.crash_instance(1)
    sd.restart_instance(1)
    manager = sd.instant[1]
    assert manager.pending, "the instant restart must still be in flight"

    components = {"disk": sd.disk, "network": sd.network, "glm": sd.glm,
                  "commit_lsn": sd.commit_lsn, "instant": manager,
                  "replication": sd.replication}
    for instance in instances:
        sid = instance.system_id
        components.update({f"instance{sid}": instance,
                           f"instance{sid}.log": instance.log,
                           f"instance{sid}.pool": instance.pool})
    for standby in standbys:
        sid = standby.system_id
        components.update({f"standby{sid}": standby,
                           f"standby{sid}.cache": standby._cache,
                           f"standby{sid}.cache.log": standby._cache.log,
                           f"standby{sid}.disk": standby.disk})
        assert standby.replica_logs(), "the standby absorbed no stream"
        for log in standby.replica_logs():
            components[f"standby{sid}.replica{log.system_id}"] = log
    for name, component in components.items():
        assert_holds(sd, component, name)
    # Enabled injectors report into the world they were handed to.
    assert injector.stats is stats and injector.tracer is tracer


def test_cs_system_hands_every_component_its_seams():
    stats, tracer, injector = world_seams()
    cs = CsSystem(n_data_pages=64, stats=stats, tracer=tracer,
                  injector=injector)
    clients = [cs.add_client(client_id) for client_id in (1, 2)]
    server = cs.server
    assert server.seams is cs.seams
    components = {"network": cs.network, "server": server,
                  "server.disk": server.disk, "server.log": server.log,
                  "server.pool": server.pool, "server.glm": server.glm,
                  "commit_lsn": cs.commit_lsn}
    for client in clients:
        components[f"client{client.client_id}"] = client
        components[f"client{client.client_id}.log"] = client.log
    for name, component in components.items():
        assert_holds(cs, component, name)
    assert injector.stats is stats and injector.tracer is tracer


def test_bare_seams_are_fresh_and_silent():
    one, two = Seams.of(), Seams.of()
    assert one.stats is not two.stats
    assert one.tracer is NULL_TRACER and one.injector is NULL_INJECTOR
