//! The benchmark times the program the figure binaries run, and its
//! observability does not perturb it.
//!
//! Run in release mode (the simulations are slow unoptimized):
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use lossless_obs::prof::ProfConfig;
use lossless_obs::ObsLevel;
use perfbench::pins::PINS;
use perfbench::workloads::{batch_digest, Outcome, Workload};

fn run(w: Workload, seed: u64, obs: ObsLevel, profiled: bool) -> Outcome {
    let mut sim = w.build(seed, obs);
    if profiled {
        sim.enable_profiler(ProfConfig::default());
    }
    let complete = sim.run_until_all_complete();
    Outcome::of(&sim, complete)
}

/// The split construction (build, then run) reproduces the fingerprint
/// of `workload::run` / `workload::run_hpc` for the same options.
#[test]
fn split_construction_replicates_the_figure_entry_points() {
    for w in Workload::ALL {
        for seed in w.instance_seeds(1).into_iter().take(2) {
            let reference = w.production(seed);
            assert!(
                reference.complete,
                "{} seed {seed} did not complete",
                w.name()
            );
            assert_eq!(
                run(w, seed, ObsLevel::Default, false),
                reference,
                "{} seed {seed}",
                w.name()
            );
        }
    }
}

/// Fingerprints are identical untraced, traced (profiler armed) and with
/// observability off.
#[test]
fn observability_does_not_perturb_the_run() {
    for w in Workload::ALL {
        let seed = w.instance_seeds(1)[0];
        let untraced = run(w, seed, ObsLevel::Default, false);
        assert_eq!(
            run(w, seed, ObsLevel::Default, true),
            untraced,
            "{} traced",
            w.name()
        );
        assert_eq!(
            run(w, seed, ObsLevel::Off, false),
            untraced,
            "{} obs off",
            w.name()
        );
    }
}

/// Every workload is pinned at the default seed and at a held-out seed,
/// and each pinned batch reproduces its digest.
#[test]
fn pinned_batches_reproduce() {
    for w in Workload::ALL {
        let seeds: Vec<u64> = PINS
            .iter()
            .filter(|p| p.0 == w.name())
            .map(|p| p.1)
            .collect();
        assert_eq!(seeds, [1, 7], "{} pins", w.name());
        for &(name, seed, fingerprint, events) in PINS.iter().filter(|p| p.0 == w.name()) {
            let refs: Vec<Outcome> = w
                .instance_seeds(seed)
                .into_iter()
                .map(|s| w.production(s))
                .collect();
            assert_eq!(
                batch_digest(&refs),
                (fingerprint, events),
                "{name} seed {seed}: got (0x{:016x}, {})",
                batch_digest(&refs).0,
                batch_digest(&refs).1
            );
        }
    }
}
