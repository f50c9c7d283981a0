"""The wire stream of a putv and a getv, packet by packet.

Strided transfers ride the put/get packets: a putv's data packets are
``MSG_PUT`` DATA packets, a getv's requests ``GET_REQ`` control packets
and its replies ``MSG_GET_REP`` DATA packets, each carrying the runs it
covers in ``info["runs"]`` at a 16-byte descriptor apiece.  This pins
every packet either adapter serializes in one 2-node job -- virtual
time, kind, message type, header and payload bytes, runs, source and
destination -- so a change to how runs are cut into packets, to their
wire cost or to the origin and target charges shows up here.  The
stream was recorded when strided transfers still had packet kinds of
their own (``"putv"``, ``"getv_rep"``, ``"getv_req"``, written here as
the put/get kinds that replaced them): folding them into put and get
moved no packet.  Packet uids are left out: nothing reads them.
"""

from repro.machine import Cluster
from repro.machine.memory import OFFSET_BITS
from repro.machine.packet import Packet
from repro.obs import ObsSpec

#: Addresses are pinned as offsets within their allocation.
_MASK = (1 << OFFSET_BITS) - 1

#: (tgt offset, org offset, nbytes): 4000 bytes in three runs, a
#: multi-packet putv whose runs straddle packets.  Small enough for the
#: origin counter to fire when the call copies the data.
PUT_RUNS = ((0, 0, 1500), (2000, 1500, 700), (3000, 2200, 1800))
#: Runs of a getv that needs two request packets (40 runs to one).
NGET = 45

EXPECTED = [
    (25.67666666666667, 'barrier', None, 48, 0, None, 0, 1),
    (25.67666666666667, 'barrier', None, 48, 0, None, 1, 0),
    (53.32222222222222, 'ack', None, 16, 0, None, 1, 0),
    (53.32222222222222, 'ack', None, 16, 0, None, 0, 1),
    (88.4085380116959, 'data', 'put', 64, 960, ((0, 960),), 0, 1),
    (98.46076023391811, 'data', 'put', 80, 944, ((960, 540), (2000, 404)),
     0, 1),
    (108.51298245614032, 'data', 'put', 80, 944,
     ((2404, 296), (3000, 648)), 0, 1),
    (118.56520467836253, 'data', 'put', 64, 960, ((3648, 960),), 0, 1),
    (121.79076023391809, 'data', 'put', 64, 192, ((4608, 192),), 0, 1),
    (133.40520467836257, 'ack', None, 16, 0, None, 1, 0),
    (140.23152046783625, 'ack', None, 16, 0, None, 1, 0),
    (147.01573099415205, 'ack', None, 16, 0, None, 1, 0),
    (153.79994152046785, 'ack', None, 16, 0, None, 1, 0),
    (160.62625730994154, 'ack', None, 16, 0, None, 1, 0),
    (163.1159649122807, 'cmpl', None, 48, 0, None, 1, 0),
    (178.4159649122807, 'barrier', None, 48, 0, None, 1, 0),
    (190.7615204678363, 'ack', None, 16, 0, None, 0, 1),
    (195.1615204678363, 'ack', None, 16, 0, None, 0, 1),
    (219.43485380116965, 'get_req', None, 688, 0,
     ((0, 0, 24), (40, 24, 24), (80, 48, 24), (120, 72, 24),
      (160, 96, 24), (200, 120, 24), (240, 144, 24), (280, 168, 24),
      (320, 192, 24), (360, 216, 24), (400, 240, 24), (440, 264, 24),
      (480, 288, 24), (520, 312, 24), (560, 336, 24), (600, 360, 24),
      (640, 384, 24), (680, 408, 24), (720, 432, 24), (760, 456, 24),
      (800, 480, 24), (840, 504, 24), (880, 528, 24), (920, 552, 24),
      (960, 576, 24), (1000, 600, 24), (1040, 624, 24), (1080, 648, 24),
      (1120, 672, 24), (1160, 696, 24), (1200, 720, 24), (1240, 744, 24),
      (1280, 768, 24), (1320, 792, 24), (1360, 816, 24), (1400, 840, 24),
      (1440, 864, 24), (1480, 888, 24), (1520, 912, 24),
      (1560, 936, 24)),
     0, 1),
    (221.52263157894745, 'get_req', None, 128, 0,
     ((1600, 960, 24), (1640, 984, 24), (1680, 1008, 24),
      (1720, 1032, 24), (1760, 1056, 24)),
     0, 1),
    (258.458187134503, 'ack', None, 16, 0, None, 1, 0),
    (262.458187134503, 'ack', None, 16, 0, None, 1, 0),
    (280.40228070175453, 'data', 'get_rep', 432, 576,
     ((0, 24), (24, 24), (48, 24), (72, 24), (96, 24), (120, 24),
      (144, 24), (168, 24), (192, 24), (216, 24), (240, 24), (264, 24),
      (288, 24), (312, 24), (336, 24), (360, 24), (384, 24), (408, 24),
      (432, 24), (456, 24), (480, 24), (504, 24), (528, 24), (552, 24)),
     1, 0),
    (287.4678362573101, 'data', 'get_rep', 304, 384,
     ((576, 24), (600, 24), (624, 24), (648, 24), (672, 24), (696, 24),
      (720, 24), (744, 24), (768, 24), (792, 24), (816, 24), (840, 24),
      (864, 24), (888, 24), (912, 24), (936, 24)),
     1, 0),
    (290.62228070175456, 'data', 'get_rep', 128, 120,
     ((960, 24), (984, 24), (1008, 24), (1032, 24), (1056, 24)), 1, 0),
    (325.1145029239767, 'ack', None, 16, 0, None, 0, 1),
    (330.93029239766093, 'ack', None, 16, 0, None, 0, 1),
    (336.2408187134504, 'ack', None, 16, 0, None, 0, 1),
    (352.84105263157903, 'barrier', None, 48, 0, None, 0, 1),
    (368.14105263157904, 'barrier', None, 48, 0, None, 0, 1),
    (380.4866081871346, 'ack', None, 16, 0, None, 1, 0),
    (384.4866081871346, 'ack', None, 16, 0, None, 1, 0),
    (400.07105263157905, 'barrier', None, 48, 0, None, 1, 0),
]


def _wire_fields(self):
    fields = _trace_fields(self)
    runs = self.info.get("runs")
    fields["wire"] = (
        self.kind, self.info.get("mtype"), self.header_bytes,
        len(self.payload),
        None if runs is None
        else tuple(tuple(a & _MASK for a in run[:-1]) + (run[-1],)
                   for run in runs))
    return fields


_trace_fields = Packet.trace_fields


def _main(task):
    lapi = task.lapi
    mem = task.memory
    src = mem.malloc(4096)
    dst = mem.malloc(8192)
    tgt = lapi.counter()
    mem.write(src, bytes((task.rank * 7 + i) % 251 for i in range(4096)))
    yield from lapi.gfence()
    if task.rank == 0:
        org = lapi.counter()
        cmpl = lapi.counter()
        yield from lapi.putv(1, [(dst + t, src + o, n)
                                 for t, o, n in PUT_RUNS],
                             tgt_cntr=tgt.id, org_cntr=org,
                             cmpl_cntr=cmpl)
        yield from lapi.waitcntr(cmpl, 1)
        got = lapi.counter()
        yield from lapi.getv(1, [(src + 40 * i, dst + 24 * i, 24)
                                 for i in range(NGET)], org_cntr=got)
        yield from lapi.waitcntr(got, 1)
    else:
        yield from lapi.waitcntr(tgt, 1)
    yield from lapi.gfence()
    return mem.read(dst, 8192)


def test_strided_wire_stream_is_pinned(monkeypatch):
    monkeypatch.setattr(Packet, "trace_fields", _wire_fields)
    cluster = Cluster(nnodes=2, seed=1, obs=ObsSpec({"trace"}))
    origin, target = cluster.run_job(_main, stacks=("lapi",))
    stream = [(r.time, *r.fields["wire"], r.fields["src"],
               r.fields["dst"])
              for r in cluster.trace.by_category("tx")]
    assert stream == EXPECTED
    assert cluster.sim.now == 426.6243859649124
    # The runs landed: rank 1's putv runs, rank 0's gathered getv runs.
    sent = bytes(i % 251 for i in range(4096))
    for t, o, n in PUT_RUNS:
        assert target[t:t + n] == sent[o:o + n]
    remote = bytes((7 + i) % 251 for i in range(4096))
    for i in range(NGET):
        assert origin[24 * i:24 * i + 24] == remote[40 * i:40 * i + 24]
