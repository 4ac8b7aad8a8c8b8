//! The two kinds of run: untraced (end-to-end metrics) and traced
//! (per-layer metrics).
//!
//! Both start from the batch's references: every instance built and run
//! once through the figure binaries' own entry point. Each timed
//! repetition — build a ready simulator, run it to completion — is one
//! operation; it passes when its [`Outcome`] (fingerprint, event count,
//! completion, stop time, forwarded packets) equals its instance's
//! reference, and a failed repetition's timings are dropped. For the two pinned seeds the references themselves must match
//! [`crate::pins`].

use std::time::{Duration, Instant};

use lossless_flowctl::SimTime;
use lossless_netsim::Simulator;
use lossless_obs::prof::{ProfConfig, ProfSummary};
use lossless_obs::ObsLevel;

use crate::ladder;
use crate::pins::pinned;
use crate::procfs;
use crate::workloads::{batch_digest, Outcome, Workload};

/// Rounds over the batch made even when `--seconds` is already spent.
const MIN_ROUNDS: usize = 3;

/// A run's result: what the last line of stdout reports.
pub struct Report {
    /// References match their pins (where pinned) and no repetition failed.
    pub correct: bool,
    /// Repetitions attempted.
    pub attempted: usize,
    /// Repetitions whose outcome differed from the reference.
    pub failed: usize,
    /// `(name, value, unit)`.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    /// The one-line JSON object the benchmark prints last.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// One workload's batch for one `--seed`, with its references.
struct Batch {
    w: Workload,
    seeds: Vec<u64>,
    refs: Vec<Outcome>,
    /// Every reference completed and matches its pin (when pinned).
    refs_ok: bool,
    attempted: usize,
    failed: usize,
}

/// Simulated-time slices a run phase is timed in. A slice lasts a few
/// milliseconds of wall time, short enough that one repetition or another
/// usually runs it while the host is quiet.
const SLICES: u64 = 256;

/// Set-ups timed back to back before each repetition; see
/// [`Batch::setup_burst`].
const SETUP_BURST: usize = 21;

/// Timings of one passing repetition.
struct Rep {
    /// Wall time of each slice of the run phase.
    slices: Vec<f64>,
    /// CPU time of the whole run phase.
    cpu_s: f64,
}

/// One instance's timings over all its passing repetitions.
#[derive(Default)]
struct Timings {
    /// Set-ups of every burst whose repetition passed.
    setups: Vec<f64>,
    /// Per slice, the fastest repetition's wall time.
    fastest: Vec<f64>,
    /// Run-phase CPU and wall time summed over all repetitions.
    cpu_s: f64,
    wall_s: f64,
}

impl Timings {
    fn add(&mut self, rep: &Rep) {
        if self.fastest.is_empty() {
            self.fastest = rep.slices.clone();
        }
        for (best, &s) in self.fastest.iter_mut().zip(&rep.slices) {
            *best = best.min(s);
        }
        self.cpu_s += rep.cpu_s;
        self.wall_s += rep.slices.iter().sum::<f64>();
    }

    /// The run phase with every slice at its fastest.
    fn run_s(&self) -> f64 {
        self.fastest.iter().sum()
    }

    /// The fastest set-up (0 when none passed).
    fn setup_s(&self) -> f64 {
        self.setups.iter().copied().reduce(f64::min).unwrap_or(0.0)
    }
}

impl Batch {
    fn new(w: Workload, seed: u64) -> Batch {
        let seeds = w.instance_seeds(seed);
        let refs: Vec<Outcome> = seeds.iter().map(|&s| w.production(s)).collect();
        let pin_ok = pinned(w.name(), seed).is_none_or(|pin| pin == batch_digest(&refs));
        let refs_ok = pin_ok && refs.iter().all(|r| r.complete);
        Batch {
            w,
            seeds,
            refs,
            refs_ok,
            attempted: 0,
            failed: 0,
        }
    }

    /// Build instance `i` [`SETUP_BURST`] times in a row and return each
    /// set-up time. Whether the build is right is checked by the
    /// repetition that follows the burst: the build is deterministic.
    fn setup_burst(&self, i: usize) -> Vec<f64> {
        let mut times = Vec::with_capacity(SETUP_BURST);
        for _ in 0..SETUP_BURST {
            let t = Instant::now();
            let sim = self.w.build(self.seeds[i], ObsLevel::Default);
            times.push(t.elapsed().as_secs_f64());
            drop(sim);
        }
        times
    }

    /// Build and run instance `i` at observability level `obs`, with the
    /// profiler armed when `prof` is given. The run phase is timed in
    /// [`SLICES`] equal slices of the reference's simulated duration:
    /// `run_until` each slice boundary, then `run_until_all_complete`.
    /// Returns the timings (`None` when the outcome differs from the
    /// reference) and the finished simulator.
    fn repetition(
        &mut self,
        i: usize,
        obs: ObsLevel,
        prof: Option<ProfConfig>,
    ) -> (Option<Rep>, Simulator) {
        let want = self.refs[i];
        let mut sim = self.w.build(self.seeds[i], obs);
        if let Some(cfg) = prof {
            sim.enable_profiler(cfg);
        }
        let c0 = procfs::cpu_seconds();
        let mut slices = Vec::with_capacity(SLICES as usize);
        let mut t = Instant::now();
        for j in 1..SLICES {
            sim.run_until(SimTime::from_ps(want.end.as_ps() / SLICES * j));
            slices.push(t.elapsed().as_secs_f64());
            t = Instant::now();
        }
        let complete = sim.run_until_all_complete();
        slices.push(t.elapsed().as_secs_f64());
        let cpu_s = procfs::cpu_seconds() - c0;
        self.attempted += 1;
        let ok = Outcome::of(&sim, complete) == want;
        if !ok {
            self.failed += 1;
        }
        let rep = ok.then_some(Rep { slices, cpu_s });
        (rep, sim)
    }

    fn report(&self, metrics: Vec<(&'static str, f64, &'static str)>) -> Report {
        Report {
            correct: self.refs_ok && self.failed == 0,
            attempted: self.attempted,
            failed: self.failed,
            metrics,
        }
    }
}

/// Whether another round of `round` duration still ends before
/// `deadline`.
fn fits(deadline: Instant, round: Duration) -> bool {
    Instant::now() + round <= deadline
}

/// The untraced run: rounds over the batch until `deadline`. Its
/// metrics:
///
/// * `setup_s` — the batch's set-up time. Before each repetition its
///   instance is set up [`SETUP_BURST`] times; per instance the fastest
///   set-up counts. As with the run phase's slices, contention can only
///   raise a set-up's time, and with bursts spread over the whole run some
///   set-up runs while the host is quiet. (The median of a run's set-ups
///   follows the host's speed, which drifts by 1.5x within a minute);
/// * `run_s_per_mpkt` — the batch's run-phase wall time, per instance
///   with each slice at its fastest repetition, per million packets the
///   batch's switches forward. Instances differ in simulated work from
///   seed to seed (heavy-tailed flow sizes); per forwarded packet, the
///   time is steady across seeds, and fusing or splitting events does not
///   change the divisor;
/// * `cpu_s_per_mpkt` — the same times the CPU time charged per second
///   of wall time over every repetition's run phase (1 for one thread);
/// * `peak_rss_mb` — the process's peak resident set.
pub fn end_to_end(w: Workload, seed: u64, deadline: Instant) -> Report {
    let mut b = Batch::new(w, seed);
    let mut timings: Vec<Timings> = (0..b.seeds.len()).map(|_| Timings::default()).collect();
    let mut rounds = 0;
    let mut slowest_round = Duration::ZERO;
    while rounds < MIN_ROUNDS || fits(deadline, slowest_round) {
        let t = Instant::now();
        for (i, timing) in timings.iter_mut().enumerate() {
            let setups = b.setup_burst(i);
            if let (Some(rep), _) = b.repetition(i, ObsLevel::Default, None) {
                timing.setups.extend(setups);
                timing.add(&rep);
            }
        }
        slowest_round = slowest_round.max(t.elapsed());
        rounds += 1;
    }
    let setup_s: f64 = timings.iter().map(Timings::setup_s).sum();
    let run_s: f64 = timings.iter().map(Timings::run_s).sum();
    let cpu: f64 = timings.iter().map(|t| t.cpu_s).sum();
    let wall: f64 = timings.iter().map(|t| t.wall_s).sum();
    let mpkt = b.refs.iter().map(|r| r.forwarded).sum::<u64>() as f64 / 1e6;
    println!(
        "# {} seed {seed}: {} instances x {rounds} rounds, {} events, {mpkt:.3} Mpkt forwarded, run {run_s:.4} s, cpu/wall {:.4}",
        w.name(),
        b.seeds.len(),
        b.refs.iter().map(|r| r.events).sum::<u64>(),
        cpu / wall
    );
    b.report(vec![
        ("setup_s", setup_s, "s"),
        ("run_s_per_mpkt", run_s / mpkt, "s/Mpkt"),
        ("cpu_s_per_mpkt", run_s / mpkt * cpu / wall, "s/Mpkt"),
        ("peak_rss_mb", procfs::peak_rss_mb(), "MiB"),
    ])
}

/// Profiler settings of the traced run: the engine's default span
/// sampling, with a dense queue-occupancy timeline so the pending-set
/// peak near the start of a run is seen.
fn prof_config() -> ProfConfig {
    ProfConfig {
        tick_every: 1024,
        max_ticks: 1 << 16,
        ..ProfConfig::default()
    }
}

/// Per-layer quantities read from the traced pass over the batch.
#[derive(Default)]
struct Traced {
    events: u64,
    /// Per event kind / node class: summed sampled ns and sample count.
    kinds: Vec<(String, u64, u64)>,
    classes: Vec<(String, u64, u64)>,
    pending_max: u64,
    overflow_max: u64,
    pool_hit: u64,
    pool_miss: u64,
    pause_frames: u64,
    credit_stalls: u64,
    ce_marks: u64,
    ue_marks: u64,
    cc_events: u64,
}

fn accumulate(into: &mut Vec<(String, u64, u64)>, name: &str, total_ns: u64, samples: u64) {
    match into.iter_mut().find(|e| e.0 == name) {
        Some(e) => {
            e.1 += total_ns;
            e.2 += samples;
        }
        None => into.push((name.to_string(), total_ns, samples)),
    }
}

impl Traced {
    fn add(&mut self, sim: &Simulator, prof: &ProfSummary) {
        self.events += sim.trace.events;
        for k in &prof.per_kind {
            accumulate(&mut self.kinds, &k.name, k.total_ns, k.samples);
        }
        for c in &prof.per_class {
            accumulate(&mut self.classes, &c.name, c.total_ns, c.samples);
        }
        for t in &prof.ticks {
            self.pending_max = self.pending_max.max(t.queue_len);
            self.overflow_max = self.overflow_max.max(t.queue_overflow);
        }
        if let Some(last) = prof.ticks.last() {
            self.pool_hit += last.pool_hit;
            self.pool_miss += last.pool_miss;
        }
        let reg = sim.obs_registry();
        self.pause_frames += sim.trace.pause_frames;
        self.credit_stalls += reg.counter_total("cbfc.credit_stall");
        self.ce_marks += reg.counter_total("mark.ce");
        self.ue_marks += reg.counter_total("mark.ue");
        self.cc_events += [
            "cc.event.feedback",
            "cc.event.ack",
            "cc.event.timer",
            "cc.event.sent",
        ]
        .iter()
        .map(|n| reg.counter_total(n))
        .sum::<u64>();
    }

    /// Mean sampled span of dispatch kind `name`, ns (0 if never sampled).
    fn kind_ns(&self, name: &str) -> f64 {
        let full = format!("engine.dispatch.{name}");
        self.kinds
            .iter()
            .find(|k| k.0 == full)
            .map_or(0.0, |k| k.1 as f64 / k.2.max(1) as f64)
    }

    /// Share of sampled dispatch time spent in node class `name`.
    fn class_share(&self, name: &str) -> f64 {
        let total: u64 = self.classes.iter().map(|c| c.1).sum();
        let mine = self.classes.iter().find(|c| c.0 == name).map_or(0, |c| c.1);
        mine as f64 / total.max(1) as f64
    }
}

/// Seconds kept for the ladder at the end of a traced run.
const LADDER_RESERVE: Duration = Duration::from_secs(4);

/// The traced run. One profiled pass and one `ObsLevel::Off` pass over
/// the whole batch give the per-layer counts and spans and check that
/// neither perturbs a fingerprint. Then instance 0 is repeated untraced,
/// traced and at `ObsLevel::Off` in turn, for the two overhead ratios
/// (fastest over fastest), and the ladder times each layer in isolation.
pub fn traced(w: Workload, seed: u64, deadline: Instant) -> Report {
    let mut b = Batch::new(w, seed);
    let mut tr = Traced::default();
    for i in 0..b.seeds.len() {
        let (rep, sim) = b.repetition(i, ObsLevel::Default, Some(prof_config()));
        if let (Some(_), Some(prof)) = (rep, sim.profile()) {
            tr.add(&sim, &prof);
        }
    }
    for i in 0..b.seeds.len() {
        b.repetition(i, ObsLevel::Off, None);
    }

    let modes = [
        (ObsLevel::Default, None),
        (ObsLevel::Default, Some(prof_config())),
        (ObsLevel::Off, None),
    ];
    let mut timings: [Timings; 3] = Default::default();
    let mut rounds = 0;
    let mut slowest_round = Duration::ZERO;
    while rounds < MIN_ROUNDS || fits(deadline - LADDER_RESERVE, slowest_round) {
        let t = Instant::now();
        for (timing, &(obs, prof)) in timings.iter_mut().zip(&modes) {
            if let (Some(rep), _) = b.repetition(0, obs, prof) {
                timing.add(&rep);
            }
        }
        slowest_round = slowest_round.max(t.elapsed());
        rounds += 1;
    }
    let [untraced, profiled, off] = timings.map(|t| t.run_s());

    let (topo_s, routing_s) = ladder::fabric_build_s(w);
    let (tcd_ns, red_ns, fecn_ns) = ladder::detectors_ns(w);
    let (dcqcn_ns, timely_ns, ibcc_ns) = ladder::ccs_ns();
    let pool_ratio = tr.pool_hit as f64 / (tr.pool_hit + tr.pool_miss).max(1) as f64;
    b.report(vec![
        ("sim.events", tr.events as f64, "count"),
        ("sim.port_tx_ns", tr.kind_ns("port_tx"), "ns"),
        ("sim.packet_arrival_ns", tr.kind_ns("packet_arrival"), "ns"),
        ("sim.fccl_tick_ns", tr.kind_ns("fccl_tick"), "ns"),
        ("sim.flow_start_ns", tr.kind_ns("flow_start"), "ns"),
        ("sim.cc_timer_ns", tr.kind_ns("cc_timer"), "ns"),
        ("switch.share", tr.class_share("eth_switch"), "ratio"),
        ("ibswitch.share", tr.class_share("ib_switch"), "ratio"),
        ("host.share", tr.class_share("host"), "ratio"),
        ("event.pending_max", tr.pending_max as f64, "count"),
        ("event.overflow_max", tr.overflow_max as f64, "count"),
        (
            "event.hold_ns",
            ladder::event_hold_ns(tr.pending_max as usize),
            "ns",
        ),
        ("packet.pool_hit_ratio", pool_ratio, "ratio"),
        ("packet.pool_cycle_ns", ladder::pool_cycle_ns(), "ns"),
        ("routing.out_port_ns", ladder::routing_out_port_ns(w), "ns"),
        ("topology.build_s", topo_s, "s"),
        ("routing.build_s", routing_s, "s"),
        ("workloads.flowgen_ns", ladder::flowgen_ns(w), "ns"),
        ("flowctl.pfc.ingress_ns", ladder::pfc_ingress_ns(), "ns"),
        ("flowctl.pfc.pause_frames", tr.pause_frames as f64, "count"),
        ("flowctl.cbfc.credit_ns", ladder::cbfc_credit_ns(), "ns"),
        (
            "flowctl.cbfc.credit_stalls",
            tr.credit_stalls as f64,
            "count",
        ),
        ("core.detector.tcd_ns", tcd_ns, "ns"),
        ("core.detector.red_ns", red_ns, "ns"),
        ("core.detector.fecn_ns", fecn_ns, "ns"),
        ("core.detector.ce_marks", tr.ce_marks as f64, "count"),
        ("core.detector.ue_marks", tr.ue_marks as f64, "count"),
        ("cc.dcqcn_ns", dcqcn_ns, "ns"),
        ("cc.timely_ns", timely_ns, "ns"),
        ("cc.ibcc_ns", ibcc_ns, "ns"),
        ("cc.events", tr.cc_events as f64, "count"),
        ("obs.overhead", untraced / off, "ratio"),
        ("prof.overhead", profiled / untraced, "ratio"),
    ])
}
