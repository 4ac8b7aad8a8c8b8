//! The benchmark's three fabric workloads. One run of a workload
//! simulates a batch of independent fabric instances (see
//! [`Workload::instance_seeds`]), each built two ways:
//!
//! * [`Workload::build`] — the split construction the benchmark times: a
//!   ready [`Simulator`] with every flow registered, so set-up and run are
//!   timed separately;
//! * [`Workload::production`] — the figure binaries' own entry point
//!   (`workload::run` / `workload::run_hpc`), which builds and runs in one
//!   call. Its fingerprint is the reference every timed repetition must
//!   reproduce.

use lossless_flowctl::{Rate, SimDuration, SimTime};
use lossless_netsim::topology::fat_tree;
use lossless_netsim::{SimConfig, Simulator};
use lossless_obs::ObsLevel;
use lossless_workloads::mpi_io::{self, assign_roles, sample_io_size, HpcRole};
use lossless_workloads::PoissonArrivals;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tcd_repro::harness::fingerprint_sim;
use tcd_repro::scenarios::workload::{self, HpcOptions, Options};
use tcd_repro::scenarios::{default_config, Cc, CcAlgo, Network};

/// Hard simulated-time deadline, as in the figure binaries. Every flow of
/// every benchmark workload completes well before it.
const DEADLINE_MS: u64 = 2_000;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 16 setup: fat-tree k=6, CEE/PFC, DCQCN+TCD, Hadoop sizes at
    /// 0.6 load plus 5 % 16-way 64 KB incast jobs.
    CeeHadoopIncast,
    /// Fig. 17 setup: fat-tree k=8, InfiniBand/CBFC, D-mod-k routing, IB
    /// CC+TCD, MPI plus 10 % I/O messages.
    IbHpcDmodk,
    /// Fig. 19 setup: fat-tree k=6, CEE/PFC, TIMELY+TCD, WebSearch sizes,
    /// no incast.
    CeeWebsearchTimely,
}

/// Simulation outcome compared on every repetition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    /// `harness::fingerprint_sim` of the finished run.
    pub fingerprint: u64,
    /// Dispatched events (`sim.trace.events`).
    pub events: u64,
    /// `run_until_all_complete()` returned `true`.
    pub complete: bool,
    /// Simulated time at which the run stopped (the last completion).
    pub end: SimTime,
    /// Packets forwarded by switches: the run's simulated work.
    pub forwarded: u64,
}

/// Fold a batch's outcomes, in instance order, into one
/// `(fingerprint, events)` pair: an FNV-1a digest of the instance
/// fingerprints and the total event count.
pub fn batch_digest(outcomes: &[Outcome]) -> (u64, u64) {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for o in outcomes {
        for b in o.fingerprint.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    (h, outcomes.iter().map(|o| o.events).sum())
}

impl Outcome {
    /// Read the outcome of a finished simulator.
    pub fn of(sim: &Simulator, complete: bool) -> Outcome {
        Outcome {
            fingerprint: fingerprint_sim(sim),
            events: sim.trace.events,
            complete,
            end: sim.now(),
            forwarded: sim.trace.forwarded_pkts,
        }
    }
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::CeeHadoopIncast,
        Workload::IbHpcDmodk,
        Workload::CeeWebsearchTimely,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CeeHadoopIncast => "cee-hadoop-incast",
            Workload::IbHpcDmodk => "ib-hpc-dmodk",
            Workload::CeeWebsearchTimely => "cee-websearch-timely",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Fabric instances in one run's batch: about 2 s of simulation, so a
    /// run makes a dozen or more rounds over it.
    pub fn instances(self) -> usize {
        match self {
            Workload::CeeHadoopIncast => 4,
            Workload::IbHpcDmodk => 2,
            Workload::CeeWebsearchTimely => 1,
        }
    }

    /// The seeds of the batch a run with `seed` simulates: instance `i`
    /// runs with seed `1000 * seed + i`, so batches of different seeds
    /// never share an instance.
    pub fn instance_seeds(self, seed: u64) -> Vec<u64> {
        (0..self.instances() as u64)
            .map(|i| seed.wrapping_mul(1000).wrapping_add(i))
            .collect()
    }

    /// The lossless network the workload runs on.
    pub fn network(self) -> Network {
        match self {
            Workload::IbHpcDmodk => Network::Ib,
            _ => Network::Cee,
        }
    }

    /// The congestion controller (always TCD-aware).
    pub fn cc(self) -> Cc {
        let algo = match self {
            Workload::CeeHadoopIncast => CcAlgo::Dcqcn,
            Workload::IbHpcDmodk => CcAlgo::IbCc,
            Workload::CeeWebsearchTimely => CcAlgo::Timely,
        };
        Cc { algo, tcd: true }
    }

    /// Options of the two CEE workloads (`None` for `ib-hpc-dmodk`).
    pub fn cee_options(self, seed: u64) -> Option<Options> {
        let (wl, flows, incast_fraction) = match self {
            Workload::CeeHadoopIncast => (workload::Workload::Hadoop, 2_000, 0.05),
            Workload::CeeWebsearchTimely => (workload::Workload::WebSearch, 400, 0.0),
            Workload::IbHpcDmodk => return None,
        };
        Some(Options {
            network: self.network(),
            cc: self.cc(),
            use_tcd: true,
            k: 6,
            workload: wl,
            load: 0.6,
            flows,
            incast_fraction,
            incast_fanin: 16,
            seed,
            deadline: SimTime::from_ms(DEADLINE_MS),
        })
    }

    /// Options of `ib-hpc-dmodk` (`None` for the CEE workloads).
    pub fn hpc_options(self, seed: u64) -> Option<HpcOptions> {
        (self == Workload::IbHpcDmodk).then(|| HpcOptions {
            cc: self.cc(),
            use_tcd: true,
            k: 8,
            messages: 1_000,
            io_fraction: 0.1,
            seed,
            deadline: SimTime::from_ms(DEADLINE_MS),
        })
    }

    /// Build a ready simulator — topology, routing, configuration,
    /// workload generation and every `add_flow` — at observability level
    /// `obs`, without running it.
    pub fn build(self, seed: u64, obs: ObsLevel) -> Simulator {
        if let Some(opt) = self.cee_options(seed) {
            return workload::build(opt, |cfg| cfg.obs.level = obs).0;
        }
        let opt = self.hpc_options(seed).expect("every workload has options");
        build_hpc(opt, |cfg| cfg.obs.level = obs)
    }

    /// Build and run through the figure binaries' own entry point.
    pub fn production(self, seed: u64) -> Outcome {
        let run = match (self.cee_options(seed), self.hpc_options(seed)) {
            (Some(opt), _) => workload::run(opt),
            (_, Some(opt)) => workload::run_hpc(opt),
            _ => unreachable!("every workload has options"),
        };
        let complete = run.completion_rate == 1.0;
        Outcome::of(&run.sim, complete)
    }
}

/// The set-up half of `workload::run_hpc`, statement for statement: the
/// scenario API builds and runs in one call, so the benchmark replicates
/// its construction to time set-up and run apart. The replica test checks
/// that both produce the same fingerprint.
fn build_hpc(opt: HpcOptions, tune: impl FnOnce(&mut SimConfig)) -> Simulator {
    let rate = Rate::from_gbps(40);
    let delay = SimDuration::from_us(4);
    let ft = fat_tree(opt.k, rate, delay);
    let mut cfg = default_config(Network::Ib, opt.use_tcd, opt.deadline);
    cfg.feedback = opt.cc.feedback();
    cfg.seed = opt.seed;
    tune(&mut cfg);
    let mut sim = Simulator::new(ft.topo.clone(), cfg, Network::Ib.routing());
    let mut rng = StdRng::seed_from_u64(opt.seed);

    let roles = assign_roles(
        ft.hosts.len(),
        opt.k / 2,
        (opt.k / 4).max(1),
        0.25,
        &mut rng,
    );
    let with_role =
        |role: HpcRole| -> Vec<usize> { (0..roles.len()).filter(|&i| roles[i] == role).collect() };
    let io_servers = with_role(HpcRole::IoServer);
    let io_clients = with_role(HpcRole::IoClient);
    let mpi_nodes = with_role(HpcRole::Mpi);
    let mpi_cdf = mpi_io::mpi_message_cdf();

    let mean_size = 0.9 * mpi_cdf.mean() + 0.1 * 1_900_000.0;
    let mut arr = PoissonArrivals::for_load(
        0.5,
        Rate::from_bps(rate.as_bps() * ft.hosts.len() as u64 / 2),
        mean_size,
        SimTime::ZERO,
    );
    for _ in 0..opt.messages {
        let t = arr.next_arrival(&mut rng);
        let io = rng.gen::<f64>() < opt.io_fraction && !io_clients.is_empty();
        let (src, dst, size) = if io {
            let s = io_clients[rng.gen_range(0..io_clients.len())];
            let d = io_servers[rng.gen_range(0..io_servers.len())];
            (s, d, sample_io_size(&mut rng))
        } else {
            let s = mpi_nodes[rng.gen_range(0..mpi_nodes.len())];
            let d = loop {
                let d = mpi_nodes[rng.gen_range(0..mpi_nodes.len())];
                if d != s {
                    break d;
                }
            };
            (s, d, mpi_cdf.sample(&mut rng))
        };
        sim.add_flow(ft.hosts[src], ft.hosts[dst], size, t, opt.cc.controller());
    }
    sim
}
