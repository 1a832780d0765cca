//! `corpus_fix`: each of the 21 Table-1 replicas through
//! `gfix::Pipeline::from_source` + `run_with_stats` (every default checker,
//! then GFix on every BMOC report). Classification against the planted
//! labels happens after the clock stops.

use crate::check::traced_detection;
use crate::host::{HostClock, Placement};
use crate::layers::{ratio, TracedPass};
use crate::trace::Recorder;
use crate::{inputs, peak_rss_mb, Args, OpSample, Outcome, Quota, SetupSample, SETUPS};
use gcatch::{checkers, BugKind, Counter, DetectorConfig, Selection, Stats};
use gfix::{GFix, Pipeline, PipelineResults, Strategy};
use go_corpus::apps::GeneratedApp;
use go_corpus::patterns::report_hits_plant;
use std::collections::BTreeMap;
use std::time::Instant;

/// One untraced operation: wall milliseconds, the pipeline results, and
/// the session's counters. `run_with_stats` is the work `Pipeline::run`
/// does, with the counters kept instead of dropped.
fn op(
    app: &GeneratedApp,
    config: &DetectorConfig,
) -> Result<(f64, PipelineResults, Stats), String> {
    let t = Instant::now();
    let pipeline = Pipeline::from_source(&app.source)?;
    let (results, stats) = pipeline.run_with_stats(config, &Selection::default());
    Ok((
        t.elapsed().as_secs_f64() * 1e3,
        std::hint::black_box(results),
        stats,
    ))
}

/// Checks one untraced operation: no incomplete channel, no degraded
/// report, and the classification against the plants. `Pipeline` does not
/// expose the session's incidents; a channel incident always counts as an
/// incomplete channel, and a failed checker loses its reports, which
/// `classify` sees as unreported plants.
fn verify(app: &GeneratedApp, results: &PipelineResults, stats: &Stats) -> Result<(), String> {
    let incomplete = stats.counter(Counter::IncompleteChannels);
    if incomplete > 0 {
        return Err(format!("{}: {incomplete} incomplete channel(s)", app.name));
    }
    let degraded = results.bugs.iter().find(|b| {
        b.provenance
            .as_ref()
            .is_some_and(|p| p.degradation_rung > 0)
    });
    if let Some(bug) = degraded {
        return Err(format!("{}: degraded report: {bug}", app.name));
    }
    classify(app, results)
}

/// One traced operation: what `Pipeline::from_source` + `run` do, from the
/// same public calls, with GFix under a `gfix.fix` span. Also returns the
/// session's incident count.
fn traced_op(
    rec: &mut Recorder,
    id: u64,
    app: &GeneratedApp,
    config: &DetectorConfig,
) -> Result<(f64, (PipelineResults, usize), Stats, usize), String> {
    traced_detection(
        rec,
        id,
        &app.source,
        config,
        |rec, program, module, gcatch, outputs| {
            let bugs = checkers::flatten(outputs);
            let results = rec.span(id, "gfix.fix", |_| {
                let session = gcatch.session();
                let gfix = GFix::new(program, module, &session.analysis, &session.prims);
                let mut patches = Vec::new();
                let mut rejections = Vec::new();
                for bug in bugs.iter().filter(|b| b.kind.is_bmoc()) {
                    match gfix.fix(bug) {
                        Ok(patch) => patches.push(patch),
                        Err(r) => rejections.push((bug.clone(), r)),
                    }
                }
                PipelineResults {
                    bugs,
                    patches,
                    rejections,
                }
            });
            (results, gcatch.incidents().len())
        },
    )
}

/// Table-1 cells and GFix strategies of one or more replicas.
#[derive(Debug, Default)]
pub struct Tally {
    /// `(kind label, false positive?)` → reports.
    pub cells: BTreeMap<(&'static str, bool), usize>,
    /// Strategy label → patches.
    pub fixes: BTreeMap<&'static str, usize>,
}

impl Tally {
    fn add(&mut self, other: &Tally) {
        for (k, v) in &other.cells {
            *self.cells.entry(*k).or_default() += v;
        }
        for (k, v) in &other.fixes {
            *self.fixes.entry(*k).or_default() += v;
        }
    }

    /// `(real, fp)` summed over the kinds `pick` selects.
    fn sum(&self, pick: impl Fn(&str) -> bool) -> (usize, usize) {
        let mut out = (0, 0);
        for ((kind, fp), n) in &self.cells {
            if pick(kind) {
                if *fp {
                    out.1 += n;
                } else {
                    out.0 += n;
                }
            }
        }
        out
    }

    fn fix(&self, s: Strategy) -> usize {
        self.fixes.get(s.label()).copied().unwrap_or(0)
    }

    fn json(&self) -> String {
        let (br, bf) = self.sum(is_bmoc);
        let (tr, tf) = self.sum(|k| !is_bmoc(k));
        format!(
            "{{\"bmoc_real\":{br},\"bmoc_fp\":{bf},\"traditional_real\":{tr},\"traditional_fp\":{tf},\"gfix\":[{},{},{}]}}",
            self.fix(Strategy::IncreaseBuffer),
            self.fix(Strategy::DeferOperation),
            self.fix(Strategy::AddStopChannel)
        )
    }
}

/// Whether a kind label names one of the two BMOC kinds.
fn is_bmoc(label: &str) -> bool {
    label == BugKind::BmocChannel.label() || label == BugKind::BmocChannelMutex.label()
}

/// What the generator planted: every plant detected, and every plant that
/// promises a fix fixed by its strategy.
fn planted(app: &GeneratedApp) -> Tally {
    let mut t = Tally::default();
    for p in &app.plants {
        *t.cells.entry((p.kind.label(), p.fp)).or_default() += 1;
        if let Some(s) = p.fix {
            *t.fixes.entry(s.label()).or_default() += 1;
        }
    }
    t
}

/// Classifies one replica's pipeline output against its plants. Every
/// plant must be reported, every report must belong to a plant, and every
/// plant that promises a fix must be patched by its strategy; then the
/// replica's Table-1 cells and GFix counts are exactly its planted labels.
fn classify(app: &GeneratedApp, results: &PipelineResults) -> Result<(), String> {
    // Pair each BMOC report with its patch: GFix answers every BMOC report
    // in order, with either a patch or a rejection.
    let mut patch_of: Vec<Option<Strategy>> = vec![None; results.bugs.len()];
    let (mut next_patch, mut next_rejection) = (0, 0);
    for (i, bug) in results.bugs.iter().enumerate() {
        if !bug.kind.is_bmoc() {
            continue;
        }
        let rejected = results
            .rejections
            .get(next_rejection)
            .is_some_and(|(r, _)| r.dedup_key() == bug.dedup_key());
        if rejected {
            next_rejection += 1;
        } else {
            let patch = results
                .patches
                .get(next_patch)
                .ok_or("fewer patches and rejections than BMOC reports")?;
            patch_of[i] = Some(patch.strategy);
            next_patch += 1;
        }
    }
    if next_patch != results.patches.len() || next_rejection != results.rejections.len() {
        return Err("patches and rejections do not match the BMOC reports".to_string());
    }

    let mut matched = vec![false; results.bugs.len()];
    for plant in &app.plants {
        let hits: Vec<usize> = (0..results.bugs.len())
            .filter(|&i| report_hits_plant(&results.bugs[i], plant))
            .collect();
        if hits.is_empty() {
            return Err(format!(
                "{}: planted {} not reported",
                app.name, plant.marker
            ));
        }
        for &i in &hits {
            matched[i] = true;
        }
        if let Some(expected) = plant.fix {
            match hits.iter().find_map(|&i| patch_of[i]) {
                Some(s) if s == expected => {}
                Some(s) => {
                    return Err(format!(
                        "{}: {} fixed by {} instead of {}",
                        app.name,
                        plant.marker,
                        s.label(),
                        expected.label()
                    ))
                }
                None => return Err(format!("{}: {} not fixed", app.name, plant.marker)),
            }
        }
    }
    if let Some(i) = matched.iter().position(|m| !m) {
        return Err(format!(
            "{}: report matches no plant: {}",
            app.name, results.bugs[i]
        ));
    }
    Ok(())
}

/// Checks the planted labels themselves against the paper's Table 1.
fn check_table1(total: &Tally) -> Result<(), String> {
    let got = (
        total.sum(is_bmoc),
        total.sum(|k| !is_bmoc(k)),
        [
            total.fix(Strategy::IncreaseBuffer),
            total.fix(Strategy::DeferOperation),
            total.fix(Strategy::AddStopChannel),
        ],
    );
    let want = ((149, 51), (119, 67), [99, 4, 21]);
    if got == want {
        Ok(())
    } else {
        Err(format!("planted labels {got:?} are not Table 1 {want:?}"))
    }
}

/// Operations between two calibrations of the host speed: a
/// third of a pass.
const CAL_EVERY: usize = 7;

/// Runs `corpus_fix`.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let apps = inputs::corpus(args.seed);
    // One job, as the daemon runs each request: with one job every counter
    // repeats exactly, and an op does not wait on a second core that other
    // activity on the host may hold.
    let jobs = 1;
    let config = DetectorConfig {
        jobs,
        ..DetectorConfig::default()
    };
    let mut out = Outcome::default();
    let mut labels = Tally::default();
    for app in &apps {
        labels.add(&planted(app));
    }
    if let Err(e) = check_table1(&labels) {
        out.problem(e);
    }
    let bytes: usize = apps.iter().map(|a| a.source.len()).sum();
    out.detail("input_bytes", bytes.to_string());
    out.detail("jobs", jobs.to_string());
    out.detail("planted", labels.json());

    if !args.trace {
        // Set-up: one untimed pass over every replica, several times; a
        // set-up sample is the pass's summed operation time.
        let mut clock = HostClock::new(Placement::Caller)?;
        let mut setups = Vec::new();
        for _ in 0..SETUPS {
            let cal = clock.calibrate()?;
            let mut ms = 0.0;
            for app in &apps {
                let (t, results, stats) = op(app, &config)?;
                ms += t;
                if let Err(e) = verify(app, &results, &stats) {
                    out.problem(format!("warm-up pass: {e}"));
                }
            }
            setups.push(SetupSample { s: ms / 1e3, cal });
        }
        // Whole passes only: replicas differ tenfold in size, so a partial
        // pass would change the mix a run measures.
        let quota = Quota::new(args, apps.len());
        let mut ops = Vec::new();
        let start = Instant::now();
        let mut cal = 0;
        while quota.more(ops.len(), start) {
            // One calibration every few ops: an op is a few milliseconds.
            if ops.len() % CAL_EVERY == 0 {
                cal = clock.calibrate()?;
            }
            let app = &apps[ops.len() % apps.len()];
            let (ms, results, stats) = op(app, &config)?;
            ops.push(OpSample {
                ms,
                bytes: app.source.len(),
                cal,
            });
            let verdict = verify(app, &results, &stats);
            out.verdict(&format!("op {} ({})", ops.len(), app.name), verdict);
        }
        out.detail("full_passes", (ops.len() / apps.len()).to_string());
        clock.calibrate()?;
        out.end_to_end(&ops, &quota, &setups, &clock, peak_rss_mb("self")?);
        return Ok(out);
    }

    // Traced run: whole passes, untraced and traced ops alternating on the
    // same replica.
    let mut pass = TracedPass::default();
    let (mut bmoc_reports, mut patches) = (0usize, 0usize);
    let start = Instant::now();
    let mut id = 0u64;
    while start.elapsed() < args.seconds || id < 2 * apps.len() as u64 {
        for app in &apps {
            let (ms, results, stats) = op(app, &config)?;
            pass.plain_ms.push(ms);
            let verdict = verify(app, &results, &stats);
            out.verdict(&format!("untraced {}", app.name), verdict);

            id += 1;
            let (ms, (results, incidents), stats, instrs) =
                traced_op(&mut pass.rec, id, app, &config)?;
            pass.traced_ms.push(ms);
            let verdict = if incidents > 0 {
                Err(format!("{}: {incidents} incident(s)", app.name))
            } else {
                verify(app, &results, &stats)
            };
            out.verdict(&format!("traced {}", app.name), verdict);
            bmoc_reports += results.bugs.iter().filter(|b| b.kind.is_bmoc()).count();
            patches += results.patches.len();
            pass.parsed_bytes += app.source.len();
            pass.detection(app.name, stats, instrs);
        }
    }
    let ops = pass.traced_ms.len() as f64;
    pass.layers.set("gfix.patches", patches as f64 / ops);
    pass.layers.set(
        "gfix.patch_ratio",
        ratio(patches as f64, bmoc_reports as f64),
    );
    pass.finish(&mut out, jobs, args)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_degraded_report_fails_the_check() {
        let config = DetectorConfig {
            jobs: 1,
            ..DetectorConfig::default()
        };
        let apps = inputs::corpus(1);
        let app = apps
            .iter()
            .filter(|a| a.plants.iter().any(|p| p.kind.is_bmoc() && !p.fp))
            .min_by_key(|a| a.source.len())
            .expect("a replica with a real BMOC plant");
        let (_, mut results, stats) = op(app, &config).unwrap();
        assert_eq!(verify(app, &results, &stats), Ok(()));
        let provenance = results
            .bugs
            .iter_mut()
            .filter(|b| b.kind.is_bmoc())
            .find_map(|b| b.provenance.as_mut())
            .expect("a BMOC report carries provenance");
        provenance.degradation_rung = 1;
        let err = verify(app, &results, &stats).unwrap_err();
        assert!(err.contains("degraded report"), "{err}");
    }
}
