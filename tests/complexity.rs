//! Complexity guard: detection on the flat amplified suite must scale
//! linearly with the module. Disentangling (§3.2) exists so that each
//! channel pays for its own slice of the program; a per-component alias
//! solve or per-channel setup that scans the whole module turns the run
//! quadratic. Eight times the channels (and ballast) must cost about eight
//! times as long — the bound below leaves a 3× margin against noise on
//! each side of that, while a quadratic run lands near 64×.

use std::time::{Duration, Instant};

use bench::amplifier::{expected_leaks, generate, AmpConfig};
use gcatch_suite::gcatch::{DetectorConfig, GCatch, Selection};

const SMALL: usize = 300;
const LARGE: usize = 2_400;
const RUNS: usize = 5;
const MAX_RATIO: f64 = 24.0;

fn amp(channels: usize) -> AmpConfig {
    AmpConfig {
        channels,
        leak_every: 16,
        ballast: channels / 2,
    }
}

/// One `GCatch::new` + `diagnostics` run at one job; returns its wall time
/// after checking the planted-leak count, so a vacuous run cannot pass.
fn timed_run(module: &golite_ir::Module, config: &AmpConfig) -> Duration {
    let start = Instant::now();
    let gcatch = GCatch::new(module);
    let diagnostics = gcatch.diagnostics(
        &DetectorConfig {
            jobs: 1,
            ..DetectorConfig::default()
        },
        &Selection::default(),
    );
    let elapsed = start.elapsed();
    let leaks = diagnostics.iter().filter(|d| d.checker == "bmoc").count();
    assert_eq!(
        leaks,
        expected_leaks(config),
        "{} channels: one report per planted leak",
        config.channels
    );
    elapsed
}

fn median(mut samples: Vec<Duration>) -> Duration {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

#[test]
fn detection_scales_linearly_with_the_module() {
    let (small_cfg, large_cfg) = (amp(SMALL), amp(LARGE));
    let small = golite_ir::lower_source(&generate(&small_cfg)).expect("small suite lowers");
    let large = golite_ir::lower_source(&generate(&large_cfg)).expect("large suite lowers");
    // Interleave the sizes so a slow phase of the host hits both alike.
    let (mut small_ms, mut large_ms) = (Vec::new(), Vec::new());
    for _ in 0..RUNS {
        small_ms.push(timed_run(&small, &small_cfg));
        large_ms.push(timed_run(&large, &large_cfg));
    }
    let (small_ms, large_ms) = (median(small_ms), median(large_ms));
    let ratio = large_ms.as_secs_f64() / small_ms.as_secs_f64();
    assert!(
        ratio <= MAX_RATIO,
        "{LARGE} channels took {large_ms:?} against {small_ms:?} for {SMALL} \
         ({ratio:.1}×, bound {MAX_RATIO}×): per-unit work scans the whole module"
    );
}
