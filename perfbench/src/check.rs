//! `flat_check` and `deep_check`: the `gcatch check --json` path over one
//! amplified module, `lower_source` → `GCatch::new` → `diagnostics` →
//! `render_json_with`.

use crate::host::{HostClock, Placement};
use crate::inputs::CheckInput;
use crate::layers::TracedPass;
use crate::trace::{Recorder, OP};
use crate::{peak_rss_mb, report, Args, OpSample, Outcome, Quota, SetupSample, SETUPS};
use gcatch::diagnostics::Diagnostic;
use gcatch::{render_json_with, Counter, DetectorConfig, GCatch, RunOutput, Selection, Stats};
use golite::Program;
use golite_ir::Module;
use std::time::Instant;

/// One untraced operation: wall milliseconds, the report, and the
/// session's counters (read after the clock stops).
fn op(source: &str, config: &DetectorConfig) -> Result<(f64, String, Stats), String> {
    let t = Instant::now();
    let module = golite_ir::lower_source(source)?;
    let gcatch = GCatch::new(&module);
    let diagnostics = gcatch.diagnostics(config, &Selection::default());
    let incidents = gcatch.incidents();
    let json = render_json_with(&diagnostics, None, &incidents);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    Ok((ms, std::hint::black_box(json), gcatch.stats()))
}

/// Checks one report against the planted channels and the session's
/// incomplete-channel counter.
fn verify(
    json: &str,
    stats: &Stats,
    planted: &std::collections::BTreeSet<String>,
) -> Result<(), String> {
    let incomplete = stats.counter(Counter::IncompleteChannels);
    if incomplete > 0 {
        return Err(format!("{incomplete} incomplete channel(s)"));
    }
    report::check(json, planted)
}

/// The checkers split the way the traced run times them: BMOC alone, then
/// the traditional checkers. Registry dedup never crosses checkers (their
/// bug kinds are disjoint), so the two runs concatenate to exactly the
/// default run's output.
fn bmoc_only() -> Selection {
    Selection {
        only: vec!["bmoc".to_string()],
        skip: Vec::new(),
    }
}

/// See [`bmoc_only`].
fn traditional_only() -> Selection {
    Selection {
        only: Vec::new(),
        skip: vec!["bmoc".to_string()],
    }
}

/// The detection layers of one traced operation, each under its own span
/// below an `op` root: `golite.parse`, `golite-ir.lower`, `gcatch.session`
/// (`GCatch::new`), `gcatch.disentangle` (`dependency_graph()` +
/// `scopes()`), `gcatch.bmoc` and `gcatch.traditional`. `last` runs the
/// operation's final step (render, or GFix) under the same root. Returns
/// the root's wall milliseconds with `last`'s result, the session counters
/// and the IR size; the clock stops before anything is dropped, like the
/// untraced operations'.
pub fn traced_detection<T>(
    rec: &mut Recorder,
    id: u64,
    source: &str,
    config: &DetectorConfig,
    last: impl FnOnce(&mut Recorder, &Program, &Module, &GCatch<'_>, Vec<RunOutput>) -> T,
) -> Result<(f64, T, Stats, usize), String> {
    let root = rec.begin(id, OP);
    let program = rec
        .span(id, "golite.parse", |_| golite::parse(source))
        .map_err(|e| e.to_string())?;
    let module = rec
        .span(id, "golite-ir.lower", |_| golite_ir::lower(&program))
        .map_err(|e| e.to_string())?;
    let gcatch = rec.span(id, "gcatch.session", |_| GCatch::new(&module));
    rec.span(id, "gcatch.disentangle", |_| {
        gcatch.session().dependency_graph();
        gcatch.session().scopes();
    });
    let mut outputs = rec.span(id, "gcatch.bmoc", |_| gcatch.run(config, &bmoc_only()));
    outputs.extend(rec.span(id, "gcatch.traditional", |_| {
        gcatch.run(config, &traditional_only())
    }));
    let result = last(rec, &program, &module, &gcatch, outputs);
    let ms = rec.end(root);
    Ok((ms, result, gcatch.stats(), module.instr_count()))
}

/// Runs `flat_check` or `deep_check` with `jobs` detector workers.
pub fn run(args: &Args, input: CheckInput, jobs: usize) -> Result<Outcome, String> {
    let config = DetectorConfig {
        jobs,
        ..DetectorConfig::default()
    };
    let mut out = Outcome::default();
    let bytes = input.source.len();
    out.detail("input_bytes", bytes.to_string());
    out.detail("jobs", jobs.to_string());
    out.detail("planted", input.planted.len().to_string());

    if !args.trace {
        let mut clock = HostClock::new(if jobs > 1 {
            Placement::Parallel(jobs)
        } else {
            Placement::Caller
        })?;
        let mut setups = Vec::new();
        let mut reference = None;
        for i in 0..SETUPS {
            let cal = clock.calibrate()?;
            let (ms, json, stats) = op(&input.source, &config)?;
            setups.push(SetupSample { s: ms / 1e3, cal });
            if let Err(e) = verify(&json, &stats, &input.planted) {
                out.problem(format!("warm-up check {i}: {e}"));
            }
            reference.get_or_insert(json);
        }
        let reference = reference.expect("at least one warm-up");
        let quota = Quota::new(args, 1);
        let mut ops = Vec::new();
        let start = Instant::now();
        while quota.more(ops.len(), start) {
            let cal = clock.calibrate()?;
            let (ms, json, stats) = op(&input.source, &config)?;
            ops.push(OpSample { ms, bytes, cal });
            let verdict = verify(&json, &stats, &input.planted).and_then(|()| {
                (json == reference)
                    .then_some(())
                    .ok_or_else(|| "report bytes differ from the warm-up report".to_string())
            });
            out.verdict(&format!("op {}", ops.len()), verdict);
        }
        clock.calibrate()?;
        out.end_to_end(&ops, &quota, &setups, &clock, peak_rss_mb("self")?);
        return Ok(out);
    }

    // Traced run: untraced and traced operations alternate, so both sides
    // of the overhead comparison see the same host speed.
    let (_, reference, _) = op(&input.source, &config)?;
    let mut pass = TracedPass::default();
    let mut report_bytes = 0;
    let start = Instant::now();
    let mut id = 0u64;
    while start.elapsed() < args.seconds || pass.traced_ms.len() < 2 {
        let (ms, json, stats) = op(&input.source, &config)?;
        pass.plain_ms.push(ms);
        out.verdict("untraced op", verify(&json, &stats, &input.planted));

        id += 1;
        let (ms, json, stats, instrs) = traced_detection(
            &mut pass.rec,
            id,
            &input.source,
            &config,
            |rec, _, _, gcatch, outputs| {
                rec.span(id, "gcatch.render", |_| {
                    let diagnostics = Diagnostic::from_run(outputs);
                    render_json_with(&diagnostics, None, &gcatch.incidents())
                })
            },
        )?;
        pass.traced_ms.push(ms);
        let verdict = verify(&json, &stats, &input.planted).and_then(|()| {
            (json == reference)
                .then_some(())
                .ok_or_else(|| "traced report differs from the untraced one".to_string())
        });
        out.verdict("traced op", verdict);
        report_bytes += json.len();
        pass.parsed_bytes += input.source.len();
        pass.detection("module", stats, instrs);
    }
    let ops = pass.traced_ms.len() as f64;
    pass.layers
        .set("gcatch.report_bytes", report_bytes as f64 / ops);
    pass.finish(&mut out, jobs, args)?;
    Ok(out)
}
