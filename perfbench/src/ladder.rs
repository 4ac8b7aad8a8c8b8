//! The layer ladder: isolated, fixed-work timings of each layer's public
//! functions, with inputs shaped like the workload they accompany. Every
//! timing is the fastest of [`BLOCKS`] blocks of fixed work, divided by
//! the block's operation count, so host contention cannot lower it.

use std::hint::black_box;
use std::time::Instant;

use lossless_cc::{Dcqcn, DcqcnConfig, IbCc, IbCcConfig, Timely, TimelyConfig};
use lossless_flowctl::cbfc::{CbfcConfig, CbfcReceiver, CbfcSender};
use lossless_flowctl::pfc::{PfcConfig, PfcIngress};
use lossless_flowctl::{Rate, SimDuration, SimTime};
use lossless_netsim::cchooks::{CcEvent, RateController};
use lossless_netsim::config::DetectorKind;
use lossless_netsim::event::{Event, EventQueue};
use lossless_netsim::packet::{FlowId, Packet, PacketPool};
use lossless_netsim::routing::Routing;
use lossless_netsim::topology::{fat_tree, FatTree, NodeId};
use lossless_workloads::{mpi_io, EmpiricalCdf, PoissonArrivals};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tcd_core::baseline::RedConfig;
use tcd_core::detector::DequeueContext;
use tcd_core::CodePoint;
use tcd_repro::scenarios::{default_config, workload, Network};

use crate::workloads::Workload;

/// Blocks per timing; the fastest one is reported.
const BLOCKS: usize = 5;

/// The workloads' link rate and per-hop propagation delay.
const RATE_GBPS: u64 = 40;
const DELAY_US: u64 = 4;

/// Nanoseconds per operation of the fastest of [`BLOCKS`] runs of
/// `block`, which performs `ops` operations.
fn per_op_ns(ops: u64, mut block: impl FnMut()) -> f64 {
    let mut best = f64::MAX;
    for _ in 0..BLOCKS {
        let t = Instant::now();
        block();
        best = best.min(t.elapsed().as_nanos() as f64 / ops as f64);
    }
    best
}

/// Seconds of the fastest of [`BLOCKS`] calls of `f`.
fn fastest_s<T>(mut f: impl FnMut() -> T) -> f64 {
    per_op_ns(1, || {
        black_box(f());
    }) / 1e9
}

/// SplitMix64 step, driving every synthetic input stream.
fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn fabric(w: Workload) -> FatTree {
    let k = if w.network() == Network::Ib { 8 } else { 6 };
    fat_tree(
        k,
        Rate::from_gbps(RATE_GBPS),
        SimDuration::from_us(DELAY_US),
    )
}

/// Event-queue hold model: a steady pending set of `pending` events;
/// each operation pops the earliest and schedules a replacement at a
/// log-uniform delay of ~1 ns .. ~4 µs (serialization through CC timers).
pub fn event_hold_ns(pending: usize) -> f64 {
    const OPS: u64 = 200_000;
    let mut rng = 7u64;
    let mut delay = move || SimDuration::from_ps(1u64 << (10 + splitmix(&mut rng) % 13));
    let mut q = EventQueue::new();
    for i in 0..pending.max(1) {
        let node = NodeId(i as u32);
        q.schedule(SimTime::ZERO + delay(), Event::PortTx { node, port: 0 });
    }
    per_op_ns(OPS, || {
        for _ in 0..OPS {
            let Some((now, ev)) = q.pop() else { break };
            q.schedule(now + delay(), ev);
        }
    })
}

/// One `PacketPool::boxed` + `recycle` cycle of a 1000-byte data packet.
pub fn pool_cycle_ns() -> f64 {
    const OPS: u64 = 1_000_000;
    let mut pool = PacketPool::new();
    per_op_ns(OPS, || {
        for i in 0..OPS {
            let (src, dst) = (NodeId(0), NodeId(1));
            let pkt = Packet::data(
                FlowId(i as u32 % 64),
                src,
                dst,
                1000,
                0,
                i * 1000,
                false,
                CodePoint::Capable,
            );
            let boxed = pool.boxed(pkt);
            pool.recycle(black_box(boxed));
        }
    })
}

/// `Routing::out_port` at every switch of the workload's fabric, toward
/// every host, with the workload's discipline (ECMP on CEE, D-mod-k on
/// InfiniBand).
pub fn routing_out_port_ns(w: Workload) -> f64 {
    const OPS: u64 = 1_000_000;
    let ft = fabric(w);
    let routing = Routing::new(&ft.topo, w.network().routing());
    let switches: Vec<NodeId> = [&ft.edges, &ft.aggs, &ft.cores]
        .into_iter()
        .flatten()
        .copied()
        .collect();
    per_op_ns(OPS, || {
        for i in 0..OPS as usize {
            let node = switches[i % switches.len()];
            let dst = ft.hosts[(i / switches.len()) % ft.hosts.len()];
            black_box(routing.out_port(node, dst, FlowId(i as u32)));
        }
    })
}

/// `(fat_tree, Routing::new)` build times of the workload's fabric, s.
pub fn fabric_build_s(w: Workload) -> (f64, f64) {
    let topo_s = fastest_s(|| fabric(w));
    let ft = fabric(w);
    let routing_s = fastest_s(|| Routing::new(&ft.topo, w.network().routing()));
    (topo_s, routing_s)
}

/// Flow generation per flow: one Poisson arrival plus one size sample
/// from the workload's size distribution.
pub fn flowgen_ns(w: Workload) -> f64 {
    const OPS: u64 = 200_000;
    let cdf: EmpiricalCdf = match w {
        Workload::CeeHadoopIncast => workload::Workload::Hadoop.cdf(),
        Workload::CeeWebsearchTimely => workload::Workload::WebSearch.cdf(),
        Workload::IbHpcDmodk => mpi_io::mpi_message_cdf(),
    };
    let rate = Rate::from_gbps(RATE_GBPS);
    let mut arrivals = PoissonArrivals::for_load(0.6, rate, cdf.mean(), SimTime::ZERO);
    let mut rng = StdRng::seed_from_u64(1);
    per_op_ns(OPS, || {
        for _ in 0..OPS {
            black_box(arrivals.next_arrival(&mut rng));
            black_box(cdf.sample(&mut rng));
        }
    })
}

/// One `PfcIngress::on_enqueue` + `on_dequeue` pair of 1000-byte
/// packets, with the buffer swinging across XOFF and XON so every cycle
/// emits a PAUSE and a RESUME.
pub fn pfc_ingress_ns() -> f64 {
    let cfg = PfcConfig::paper_simulation();
    let mut ingress = PfcIngress::new(cfg);
    let burst = 400u64; // 400 KB: above the 320 KB XOFF threshold
    const CYCLES: u64 = 2_500;
    per_op_ns(CYCLES * burst, || {
        for _ in 0..CYCLES {
            for _ in 0..burst {
                black_box(ingress.on_enqueue(1000));
            }
            for _ in 0..burst {
                black_box(ingress.on_dequeue(1000));
            }
        }
    })
}

/// One CBFC credit-ledger cycle per 1000-byte packet: the sender checks
/// and spends credit, the receiver buffers and frees the packet, and
/// every fourth packet an FCCL update returns credit to the sender.
pub fn cbfc_credit_ns() -> f64 {
    const OPS: u64 = 1_000_000;
    let cfg = CbfcConfig::paper_simulation();
    let mut tx = CbfcSender::new(cfg);
    let mut rx = CbfcReceiver::new(cfg);
    per_op_ns(OPS, || {
        for i in 0..OPS {
            if tx.can_send(1000) {
                tx.on_send(1000);
                rx.on_packet_received(1000);
                rx.on_buffer_freed(1000);
            } else {
                tx.note_credit_stall();
            }
            if i % 4 == 3 {
                tx.on_fccl(rx.fccl());
            }
        }
        black_box(tx.available_blocks());
    })
}

/// `CongestionDetector::on_dequeue` per packet over an ON/OFF stream
/// (a pause/resume pair every 16 dequeues, queue depth sweeping 0-400 KB),
/// for the detector `kind`.
pub fn detector_ns(kind: DetectorKind) -> f64 {
    const OPS: u64 = 1_000_000;
    let mut d = kind.build(7);
    let mut i = 0u64;
    per_op_ns(OPS, || {
        for _ in 0..OPS {
            i += 1;
            let now = SimTime::from_ns(i * 200);
            if i.is_multiple_of(16) {
                d.on_pause(now);
                d.on_resume(now + SimDuration::from_ns(100));
            }
            let ctx = DequeueContext {
                now,
                queue_bytes: (i * 997) % 400_000,
                delayed_by_fc: false,
            };
            black_box(d.on_dequeue(&ctx));
        }
    })
}

/// `(TCD, RED, FECN)` per-dequeue times; TCD is the workload's own
/// detector (TCD with RED legacy marking on CEE, with FECN on IB).
pub fn detectors_ns(w: Workload) -> (f64, f64, f64) {
    let tcd = default_config(w.network(), true, SimTime::MAX).detector;
    let red = DetectorKind::EcnRed(RedConfig::dcqcn_40g());
    let fecn = DetectorKind::IbFecn {
        threshold_bytes: 50 * 1024,
    };
    (detector_ns(tcd), detector_ns(red), detector_ns(fecn))
}

/// `RateController::on_event` per packet for `cc`: a `Sent` event every
/// 200 ns (a 1000-byte packet at 40 Gbps), an ACK per packet when
/// `per_ack`, a CE/UE feedback every 25 packets otherwise, and every
/// timer the controller asks for delivered when due.
pub fn cc_ns(mut cc: Box<dyn RateController>, per_ack: bool) -> f64 {
    const OPS: u64 = 500_000;
    let mut now = SimTime::ZERO;
    let mut timers: Vec<(u32, SimTime)> = Vec::new();
    let arm = |timers: &mut Vec<(u32, SimTime)>, now: SimTime, act: lossless_netsim::CcAction| {
        for (id, after) in act.timers {
            timers.retain(|t| t.0 != id);
            timers.push((id, now + after));
        }
    };
    let act = cc.start(now, Rate::from_gbps(RATE_GBPS));
    arm(&mut timers, now, act);
    let mut rng = 11u64;
    let mut i = 0u64;
    per_op_ns(OPS, || {
        for _ in 0..OPS {
            i += 1;
            now += SimDuration::from_ns(200);
            let act = cc.on_event(now, CcEvent::Sent { bytes: 1000 });
            arm(&mut timers, now, act);
            let r = splitmix(&mut rng);
            let code = if r.is_multiple_of(3) {
                CodePoint::CongestionEncountered
            } else {
                CodePoint::UndeterminedEncountered
            };
            let ev = if per_ack {
                let rtt = SimDuration::from_ns(10_000 + r % 40_000);
                Some(CcEvent::Ack {
                    rtt,
                    code,
                    bytes: 1000,
                    int: Vec::new(),
                })
            } else {
                i.is_multiple_of(25).then_some(CcEvent::Feedback { code })
            };
            if let Some(ev) = ev {
                let act = cc.on_event(now, ev);
                arm(&mut timers, now, act);
            }
            while let Some(pos) = timers.iter().position(|t| t.1 <= now) {
                let (id, _) = timers.swap_remove(pos);
                let act = cc.on_event(now, CcEvent::Timer { id });
                arm(&mut timers, now, act);
            }
        }
        black_box(cc.rate());
    })
}

/// `(DCQCN, TIMELY, IB CC)` per-packet times, each TCD-aware as in the
/// workloads.
pub fn ccs_ns() -> (f64, f64, f64) {
    (
        cc_ns(Box::new(Dcqcn::new(DcqcnConfig::tcd())), false),
        cc_ns(Box::new(Timely::new(TimelyConfig::tcd())), true),
        cc_ns(Box::new(IbCc::new(IbCcConfig::tcd())), false),
    )
}
