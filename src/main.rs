//! `gcatch` — command-line front end for the GCatch/GFix reproduction.
//!
//! ```console
//! $ gcatch check file.go              # detect bugs (BMOC + traditional)
//! $ gcatch check --json --stats file.go
//! $ gcatch check --only bmoc --jobs 4 file.go
//! $ gcatch fix file.go                # detect, patch, print the diffs
//! $ gcatch fix --write file.go        # apply patches in place, to fixpoint
//! $ gcatch simulate file.go --seeds 50 --entry main
//! $ gcatch extended file.go           # §6 send-on-closed panic detector
//! ```

use gcatch_suite::gcatch::diagnostics::escape_json;
use gcatch_suite::gcatch::durable;
use gcatch_suite::gcatch::events::Field;
use gcatch_suite::gcatch::{
    derive_run_id, faults, obs_zero_time, read_manifest, render_explain, render_json_with,
    render_prometheus, render_stats_json, run_worker, serve_socket, serve_stdio, write_manifest,
    AliasMode, BatchConfig, BatchEngine, BatchJob, Budget, Coordinator, Counter, DetectorConfig,
    Event, EventBus, EventKind, FaultPlan, GCatch, HedgePolicy, Incident, IncidentKind, JobCtx,
    JobRecord, Journal, JournalCodec, Metric, ObsScope, Selection, ServeConfig, SweepConfig,
    SweepLayout, Telemetry, TraceLevel, Tracer, WorkKind, WorkerConfig,
};
use gcatch_suite::{gfix, sim};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = match command.as_str() {
        "check" => cmd_check(rest),
        "fix" => cmd_fix(rest),
        "simulate" => cmd_simulate(rest),
        "extended" => cmd_extended(rest),
        "batch" => cmd_batch(rest),
        "sweep" => cmd_sweep(rest),
        "worker" => cmd_worker(rest),
        "serve" => cmd_serve(rest),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("gcatch: {message}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "\
usage: gcatch <command> [options] <file.go>

commands:
  check [--json] [--stats] [--explain] [--trace FILE] [--only C] [--skip C] [--jobs N]
        [--timeout SECS] [--channel-timeout MS] [--solver-steps N] [--step-pool N]
        [--metrics-out FILE] [--events-out FILE] [--strict]
                        detect concurrency bugs via the checker registry;
                        --only/--skip select checkers by name (repeatable,
                        comma-separated lists accepted), --jobs shards the
                        BMOC detector over N worker threads (0 = all cores),
                        --json emits structured diagnostics, --stats adds
                        pipeline counters, stage timings, and percentiles,
                        --explain adds per-bug provenance (channel, paths,
                        solver verdict), --trace writes a Chrome trace-event
                        JSON of the analysis spans to FILE
  fix [--write] [--explain] [--trace FILE]
                        detect and patch, re-running detection on each
                        patched source until a fixpoint; --write applies
                        the final result in place (atomically, via a
                        temp file + rename)
  simulate [--seeds N] [--entry F]
                        explore schedules and report outcomes
  batch [--jobs N] [--max-attempts N] [--backoff-ms MS] [--hedge-ms MS] [--no-hedge]
        [--inject-faults RATE] [--fault-seed N] [--journal FILE | --resume FILE]
        [--report FILE] [--json] [--stats] [--strict] [--explain] [--trace FILE]
        [--metrics-out FILE] [--events-out FILE] [--progress]
        [--timeout SECS] [--channel-timeout MS] [--solver-steps N] [--step-pool N]
        <file.go|dir>...
                        check many modules under a supervised worker pool:
                        failed modules retry with exponential backoff,
                        persistent failures are quarantined after
                        --max-attempts, and stragglers past the p99 job
                        time are hedged with a second dispatch (first
                        result wins). --journal appends each decided job
                        to a crash-safe JSONL checkpoint; --resume JOURNAL
                        skips the jobs it already decided. --inject-faults
                        arms the deterministic fault layer (see below).
                        Directories expand to their *.go files
                        (non-recursive, sorted)
  sweep [--workers N] [--dir DIR] [--lease-ms MS] [--max-releases N]
        [--max-attempts N] [--backoff-ms MS]
        [--inject-faults RATE] [--fault-seed N]
        [--report FILE] [--json] [--stats] [--strict] [--progress]
        [--metrics-out FILE] [--events-out FILE]
        [--timeout SECS] [--channel-timeout MS] [--solver-steps N] [--step-pool N]
        <file.go|dir>...
                        check many modules across a fleet of --workers N
                        worker *processes* coordinated through an on-disk
                        lease queue under --dir (a fresh temp directory by
                        default). Each worker claims one job at a time via
                        an O_EXCL lease file, heartbeats while it works,
                        and journals every decision to its own crash-safe
                        JSONL journal; the coordinator re-leases jobs from
                        workers that die (even SIGKILLed) or miss the
                        heartbeat deadline, quarantines jobs released more
                        than --max-releases times, and finally merges all
                        journals into one report that is byte-identical to
                        a single-process `gcatch batch --no-hedge` run over
                        the same modules. A job decided by two workers
                        keeps exactly one record (first durable decision
                        wins) and surfaces a duplicate-decision warning on
                        stderr without changing the report bytes
  worker --dir DIR --id W [--lease-ms MS] [exec flags as for sweep]
                        internal: one sweep worker process (spawned by
                        `gcatch sweep`; runnable by hand for debugging)
  serve (--socket PATH | --stdio) [--workers N] [--max-queue N]
        [--request-timeout-ms MS] [--cache-dir DIR] [--max-cache N]
        [--inject-faults RATE] [--fault-seed N]
        [--metrics-out FILE] [--events-out FILE]
        [--channel-timeout MS] [--solver-steps N] [--step-pool N]
                        crash-only analysis daemon speaking a JSON-lines
                        protocol (one request object per line, each
                        echoing its client-supplied id): ops `check`,
                        `explain`, and `fix-dry-run` take a `module` path
                        and run on a bounded worker pool; `status` and
                        `shutdown` answer inline. Every request runs
                        isolated under its own deadline — panics and
                        expired deadlines come back as structured
                        incident responses, never a dead connection.
                        Past --max-queue outstanding requests admission
                        control sheds deterministically with an
                        `overloaded` response and a retry-after hint.
                        `check` responses are cached by content hash
                        under --cache-dir through an fsync'd journal
                        index that drops torn entries on startup, so a
                        kill -9 mid-request plus restart replays
                        responses byte-identical to a cold single-shot
                        `gcatch check --json`. SIGTERM/SIGINT drain
                        gracefully (finish in flight, flush, exit 0)
  extended [--json] [--stats] [--explain] [--trace FILE] [--jobs N]
        [--timeout SECS] [--channel-timeout MS] [--solver-steps N] [--step-pool N]
        [--metrics-out FILE] [--events-out FILE] [--strict]
                        run the send-on-closed (panic) detector (paper §6)

budgets (check / extended):
  --timeout SECS        wall-clock deadline for the whole run
  --channel-timeout MS  wall-clock deadline per analyzed channel
  --solver-steps N      solver step limit per query (default 400000)
  --step-pool N         global solver-step pool shared by all queries
                        a channel that exhausts its budget is retried at
                        degraded limits (reduced unroll, then a reduced
                        Pset); if the last rung still exhausts it, the run
                        keeps going and reports an incident for the channel
  --strict              treat any incident (panic or exhausted budget) as
                        fatal: exit 2 instead of 0/1

observability (check / extended / batch):
  --metrics-out FILE    write every pipeline counter, stage timing, and
                        histogram as Prometheus text exposition under the
                        stable gcatch_* name schema (written atomically at
                        the end of the run; batch also republishes the
                        file every ~200 ms while running)
  --events-out FILE     write the structured run event stream as JSONL;
                        every event carries the run id plus the job,
                        attempt, and channel that produced it, so one
                        grep reconstructs any job's full lifecycle
  --progress            (batch) render a live progress line on stderr:
                        done/retried/hedged/quarantined counts, p50/p99
                        job wall, and an ETA; auto-disabled when stderr
                        is not a tty or under --json
  --explain             (batch) print each quarantined job's flight
                        recorder: the last lifecycle lines (attempts,
                        faults, retries, incidents) before the job was
                        given up on

fault injection (batch):
  --inject-faults RATE  inject deterministic faults (panics, delays,
                        solver-step exhaustion) at named sites with the
                        given probability; decisions are a pure function
                        of (--fault-seed, site, job, attempt), so a fixed
                        seed reproduces the exact failure schedule
  --fault-seed N        seed for the fault schedule (default 0)

environment:
  GCATCH_TRACE_LEVEL    overrides the tracing level (off, spans, full);
                        without it, --trace records at full detail
  GCATCH_FAULT_RATE     arm fault injection without CLI flags (batch);
                        GCATCH_FAULT_SEED, GCATCH_FAULT_SITES, and
                        GCATCH_FAULT_DELAY_MS refine the plan
  GCATCH_OBS_ZERO_TIME  zero every --metrics-out/--events-out timestamp
                        and derive the run id deterministically (golden
                        files, byte-exact diffs)

fault injection (sweep adds three process-level sites):
  sweep.worker          a worker self-terminates right after claiming a
                        job (exit code 17); the coordinator re-leases
  sweep.heartbeat       a worker never writes heartbeats; the coordinator
                        kills and replaces it after the staleness deadline
  sweep.lease           a worker stops renewing one claim's lease; the
                        lease expires mid-job and the job is re-leased
                        while the original owner keeps working (the
                        duplicate-decision path)

exit status: 0 = clean, 1 = bugs found, 2 = usage or input error;
with --strict, a run that recorded incidents (or, for batch/sweep,
quarantined any job) also exits 2";

/// A parsed `--flag [value]` pair.
type Flag = (String, Option<String>);

/// `(name, takes_value)` — the flags a command accepts.
type FlagSpec = (&'static str, bool);

// Every command's accepted-flag table is composed from these shared
// groups by [`spec`], so each flag's name and arity is declared exactly
// once — a new flag (say, serve's `--socket`) registers in one place and
// cannot drift between the commands that accept it.

/// Output shaping shared by check/extended/batch/sweep.
const REPORT_FLAGS: &[FlagSpec] = &[("json", false), ("stats", false), ("strict", false)];

/// The observability sinks (`--metrics-out` / `--events-out`).
const OBS_FLAGS: &[FlagSpec] = &[("metrics-out", true), ("events-out", true)];

/// The whole-run wall-clock budget.
const TIMEOUT_FLAG: &[FlagSpec] = &[("timeout", true)];

/// Per-analysis knobs that shape every report byte (the budgets).
const ANALYSIS_FLAGS: &[FlagSpec] = &[
    ("channel-timeout", true),
    ("solver-steps", true),
    ("step-pool", true),
];

/// Retry policy shared by batch/sweep/worker.
const RETRY_FLAGS: &[FlagSpec] = &[("max-attempts", true), ("backoff-ms", true)];

/// The deterministic fault-injection plan.
const FAULT_FLAGS: &[FlagSpec] = &[("inject-faults", true), ("fault-seed", true)];

/// Composes a command's flag table from shared groups plus
/// command-specific extras.
fn spec(groups: &[&[FlagSpec]], extra: &[FlagSpec]) -> Vec<FlagSpec> {
    let mut out: Vec<FlagSpec> = Vec::new();
    for group in groups {
        out.extend_from_slice(group);
    }
    out.extend_from_slice(extra);
    out
}

/// Splits flags from the single positional file argument, rejecting any
/// flag not in `spec` (exit code 2 at the caller).
fn parse_common(rest: &[String], spec: &[FlagSpec]) -> Result<(String, Vec<Flag>), String> {
    let mut file = None;
    let mut flags = Vec::new();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        if let Some(name) = arg.strip_prefix("--") {
            let Some(&(_, takes_value)) = spec.iter().find(|(n, _)| *n == name) else {
                let known: Vec<String> = spec.iter().map(|(n, _)| format!("--{n}")).collect();
                return Err(if known.is_empty() {
                    format!("unknown flag `--{name}` (this command takes no flags)")
                } else {
                    format!("unknown flag `--{name}` (known: {})", known.join(", "))
                });
            };
            let value = if takes_value {
                Some(
                    it.next()
                        .ok_or_else(|| format!("--{name} needs a value"))?
                        .clone(),
                )
            } else {
                None
            };
            flags.push((name.to_string(), value));
        } else if file.is_none() {
            file = Some(arg.clone());
        } else {
            return Err(format!("unexpected argument `{arg}`"));
        }
    }
    let file = file.ok_or("missing input file")?;
    Ok((file, flags))
}

fn has_flag(flags: &[Flag], name: &str) -> bool {
    flags.iter().any(|(n, _)| n == name)
}

/// The value of a single-occurrence flag, if present.
fn flag_value<'a>(flags: &'a [Flag], name: &str) -> Option<&'a str> {
    flags
        .iter()
        .find(|(n, _)| n == name)
        .and_then(|(_, v)| v.as_deref())
}

/// Resolves the tracing level: `GCATCH_TRACE_LEVEL` overrides everything;
/// otherwise `--trace FILE` implies full detail and its absence disables
/// tracing entirely (zero overhead on the hot path).
fn trace_level(trace_path: Option<&str>) -> Result<TraceLevel, String> {
    match std::env::var("GCATCH_TRACE_LEVEL") {
        Ok(v) => TraceLevel::parse(&v).map_err(|e| format!("bad GCATCH_TRACE_LEVEL: {e}")),
        Err(_) => Ok(if trace_path.is_some() {
            TraceLevel::Full
        } else {
            TraceLevel::Off
        }),
    }
}

/// A run-level (`run_start`/`run_end`) event: group 0, no job/channel
/// correlation, so canonical ordering brackets the stream with it.
fn run_event(kind: EventKind, fields: Vec<(&'static str, Field)>) -> Event {
    Event {
        kind,
        group: 0,
        job: None,
        attempt: None,
        channel: None,
        fields,
    }
}

/// All values of a repeatable flag, with comma-separated lists split up.
fn flag_values(flags: &[Flag], name: &str) -> Vec<String> {
    flags
        .iter()
        .filter(|(n, _)| n == name)
        .filter_map(|(_, v)| v.as_deref())
        .flat_map(|v| v.split(','))
        .map(|v| v.trim().to_string())
        .filter(|v| !v.is_empty())
        .collect()
}

fn parse_jobs(flags: &[Flag]) -> Result<usize, String> {
    flags
        .iter()
        .find(|(n, _)| n == "jobs")
        .and_then(|(_, v)| v.as_deref())
        .map_or(Ok(0), str::parse)
        .map_err(|e| format!("bad --jobs: {e}"))
}

/// The value of an integer flag, if present; a malformed value is a usage
/// error (exit code 2 at the caller).
fn parse_u64_flag(flags: &[Flag], name: &str) -> Result<Option<u64>, String> {
    flag_value(flags, name)
        .map(|v| v.parse::<u64>().map_err(|e| format!("bad --{name}: {e}")))
        .transpose()
}

/// The budget-related detector configuration shared by `check` and
/// `extended`.
fn budget_config(flags: &[Flag]) -> Result<DetectorConfig, String> {
    let mut config = DetectorConfig {
        jobs: parse_jobs(flags)?,
        timeout: parse_u64_flag(flags, "timeout")?.map(Duration::from_secs),
        channel_timeout: parse_u64_flag(flags, "channel-timeout")?.map(Duration::from_millis),
        solver_step_pool: parse_u64_flag(flags, "step-pool")?,
        ..DetectorConfig::default()
    };
    if let Some(steps) = parse_u64_flag(flags, "solver-steps")? {
        config.solver_steps = steps;
    }
    Ok(config)
}

/// Exit code for a diagnostics run: bugs mean 1, incidents under
/// `--strict` mean 2 (honest-failure semantics), otherwise 0.
fn diagnostics_exit(found_bugs: bool, incidents: &[Incident], strict: bool) -> ExitCode {
    if strict && !incidents.is_empty() {
        ExitCode::from(2)
    } else if found_bugs {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn read_source(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// Shared body of `check` and `extended`: run the selected checkers and
/// print diagnostics as text or JSON.
fn run_diagnostics(
    path: &str,
    flags: &[Flag],
    selection: Selection,
    empty_message: &str,
) -> Result<ExitCode, String> {
    let json = has_flag(flags, "json");
    let want_stats = has_flag(flags, "stats");
    let explain = has_flag(flags, "explain");
    let strict = has_flag(flags, "strict");
    let trace_path = flag_value(flags, "trace");
    let metrics_out = flag_value(flags, "metrics-out");
    let events_out = flag_value(flags, "events-out");
    let zero_time = obs_zero_time();
    let bus = events_out.map(|_| {
        Arc::new(EventBus::new(
            derive_run_id(&[path.to_string()], zero_time),
            zero_time,
        ))
    });
    if let Some(bus) = &bus {
        bus.emit(run_event(
            EventKind::RunStart,
            vec![("modules", Field::U64(1))],
        ));
    }
    let level = trace_level(trace_path)?;
    let mut config = budget_config(flags)?;
    config.obs = ObsScope {
        bus: bus.clone(),
        ..ObsScope::default()
    };
    let src = read_source(path)?;
    let started = std::time::Instant::now();
    let module = gcatch_suite::ir::lower_source(&src)?;
    let gcatch = GCatch::with_trace(&module, level);
    selection.validate(gcatch.registry())?;
    let diagnostics = gcatch.diagnostics(&config, &selection);
    let incidents = gcatch.incidents();
    gcatch
        .session()
        .telemetry()
        .observe(Metric::ModuleWallNs, started.elapsed().as_nanos() as u64);
    let stats = gcatch.stats();
    if let Some(tp) = trace_path {
        write_output(tp, &gcatch.trace_snapshot().render_chrome())?;
    }
    if let Some(mp) = metrics_out {
        write_sink(mp, &render_prometheus(&stats, zero_time));
    }
    if let (Some(bus), Some(ep)) = (&bus, events_out) {
        bus.emit(run_event(
            EventKind::RunEnd,
            vec![
                ("diagnostics", Field::U64(diagnostics.len() as u64)),
                ("incidents", Field::U64(incidents.len() as u64)),
            ],
        ));
        write_sink(ep, &bus.render_jsonl());
    }
    if json {
        println!(
            "{}",
            render_json_with(&diagnostics, want_stats.then_some(&stats), &incidents)
        );
        return Ok(diagnostics_exit(
            !diagnostics.is_empty(),
            &incidents,
            strict,
        ));
    }
    if diagnostics.is_empty() {
        println!("{path}: {empty_message}");
        for incident in &incidents {
            print!("{}", incident.render());
        }
        if want_stats {
            print!("{}", stats.render_text());
        }
        return Ok(diagnostics_exit(false, &incidents, strict));
    }
    println!("{path}: {} diagnostic(s)\n", diagnostics.len());
    if explain {
        print!("{}", render_explain(&diagnostics));
    } else {
        for d in &diagnostics {
            println!(
                "{} [{}] ({}) {}",
                d.id,
                d.severity.name(),
                d.checker,
                d.report
            );
        }
    }
    for incident in &incidents {
        print!("{}", incident.render());
    }
    if want_stats {
        print!("{}", stats.render_text());
    }
    Ok(diagnostics_exit(true, &incidents, strict))
}

fn cmd_check(rest: &[String]) -> Result<ExitCode, String> {
    let spec = spec(
        &[REPORT_FLAGS, OBS_FLAGS, TIMEOUT_FLAG, ANALYSIS_FLAGS],
        &[
            ("explain", false),
            ("trace", true),
            ("only", true),
            ("skip", true),
            ("jobs", true),
        ],
    );
    let (path, flags) = parse_common(rest, &spec)?;
    let selection = Selection {
        only: flag_values(&flags, "only"),
        skip: flag_values(&flags, "skip"),
    };
    run_diagnostics(&path, &flags, selection, "no concurrency bugs detected")
}

fn cmd_extended(rest: &[String]) -> Result<ExitCode, String> {
    let spec = spec(
        &[REPORT_FLAGS, OBS_FLAGS, TIMEOUT_FLAG, ANALYSIS_FLAGS],
        &[("explain", false), ("trace", true), ("jobs", true)],
    );
    let (path, flags) = parse_common(rest, &spec)?;
    let selection = Selection {
        only: vec!["send-on-closed".to_string()],
        skip: Vec::new(),
    };
    run_diagnostics(
        &path,
        &flags,
        selection,
        "no send-on-closed panics detected",
    )
}

/// How many detect→patch rounds `fix` will attempt before declaring the
/// source non-converging (each round applies one patch, so this also caps
/// the number of patches).
const MAX_FIX_ROUNDS: usize = 32;

fn cmd_fix(rest: &[String]) -> Result<ExitCode, String> {
    let spec: &[FlagSpec] = &[("write", false), ("explain", false), ("trace", true)];
    let (path, flags) = parse_common(rest, spec)?;
    let write = has_flag(&flags, "write");
    let explain = has_flag(&flags, "explain");
    let trace_path = flag_value(&flags, "trace");
    let level = trace_level(trace_path)?;
    let config = DetectorConfig::default();
    let original = read_source(&path)?;

    // Detect → apply the first patch → re-detect on the patched source,
    // until no patch applies. Re-detection is required for soundness: a
    // patch can shift line numbers and even unblock previously-masked
    // schedules, so later patches from the *first* run may no longer apply.
    let mut source = original.clone();
    let mut applied = 0usize;
    let mut initial_bugs = 0usize;
    let mut last_rejections = Vec::new();
    for round in 0..MAX_FIX_ROUNDS {
        let pipeline = gfix::Pipeline::from_source(&source)?;
        // Trace only the first round: it sees the original source, and a
        // per-round trace file would overwrite itself anyway.
        let results = if round == 0 {
            let (results, _, snapshot) = pipeline.run_traced(&config, &Selection::default(), level);
            if let Some(tp) = trace_path {
                write_output(tp, &snapshot.render_chrome())?;
            }
            results
        } else {
            pipeline.run(&config)
        };
        if round == 0 {
            initial_bugs = results.bugs.len();
            if results.bugs.is_empty() {
                println!("{path}: no concurrency bugs detected");
                return Ok(ExitCode::SUCCESS);
            }
            println!("{path}: {} bug(s) detected\n", results.bugs.len());
            if explain {
                for bug in &results.bugs {
                    print!("{bug}");
                    match &bug.provenance {
                        Some(p) => print!("{}", p.render()),
                        None => {
                            println!("  why: reported by a flow-analysis checker (no solver query)")
                        }
                    }
                    println!();
                }
            }
        }
        last_rejections = results
            .rejections
            .iter()
            .map(|(b, w)| (b.primitive_name.clone(), w.clone()))
            .collect();
        let Some(patch) = results.patches.first() else {
            break;
        };
        println!(
            "[{}] {} ({} changed lines)",
            patch.strategy, patch.description, patch.changed_lines
        );
        for (before, after) in patch.before.lines().zip(patch.after.lines()) {
            if before != after {
                println!("  - {before}");
                println!("  + {after}");
            }
        }
        println!();
        source = patch.after.clone();
        applied += 1;
    }
    for (name, why) in &last_rejections {
        println!("not fixed: {name} — {why}");
    }
    println!("{applied} patch(es) applied (fixpoint after {applied} round(s))");
    if write && applied > 0 {
        write_output(&path, &source)?;
        println!("wrote patched source to {path} ({applied} patch(es) applied)");
    }
    Ok(if initial_bugs > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// Writes an output file — a report, trace, sink, or `fix --write`
/// source — through [`durable::replace`], so an interrupted write never
/// leaves a truncated file: readers see the old contents or the new.
fn write_output(path: &str, contents: &str) -> Result<(), String> {
    durable::replace(std::path::Path::new(path), contents)
        .map_err(|e| format!("cannot write {path}: {e}"))
}

/// Runs `body` while a ticker thread republishes the `--metrics-out`
/// exposition every 200 ms, so external scrapers see the counters move
/// during a batch or a resident daemon; the caller writes the final,
/// authoritative exposition afterwards through [`write_sink`]. A failing
/// republish warns once, not every tick, and never aborts the run.
fn with_live_metrics<R>(
    metrics_out: Option<&str>,
    telemetry: &Telemetry,
    zero_time: bool,
    body: impl FnOnce() -> R,
) -> R {
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        let ticker = metrics_out.map(|path| {
            let stop = &stop;
            scope.spawn(move || {
                let mut warned = false;
                loop {
                    for _ in 0..8 {
                        if stop.load(std::sync::atomic::Ordering::Relaxed) {
                            return;
                        }
                        std::thread::sleep(Duration::from_millis(25));
                    }
                    let rendered = render_prometheus(&telemetry.snapshot(), zero_time);
                    if let Err(e) = write_output(path, &rendered) {
                        if !warned {
                            eprintln!("gcatch: warning: live metrics republish failed: {e}");
                            warned = true;
                        }
                    }
                }
            })
        });
        let out = body();
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        if let Some(t) = ticker {
            let _ = t.join();
        }
        out
    })
}

/// Writes an observability sink file (`--metrics-out` / `--events-out`).
/// A sink failure — full disk, yanked directory — must never kill the run
/// that produced the results: it degrades to a structured `sink` incident
/// on stderr, and the run's own exit code stands.
fn write_sink(path: &str, contents: &str) {
    if let Err(message) = write_output(path, contents) {
        let incident = Incident {
            kind: IncidentKind::Sink,
            name: path.to_string(),
            message,
            rung: 0,
            flight: Vec::new(),
        };
        eprint!("gcatch: warning: {}", incident.render());
    }
}

fn cmd_simulate(rest: &[String]) -> Result<ExitCode, String> {
    let (path, flags) = parse_common(rest, &[("seeds", true), ("entry", true)])?;
    let seeds: u64 = flags
        .iter()
        .find(|(n, _)| n == "seeds")
        .and_then(|(_, v)| v.as_deref())
        .map_or(Ok(30), str::parse)
        .map_err(|e| format!("bad --seeds: {e}"))?;
    let entry = flags
        .iter()
        .find(|(n, _)| n == "entry")
        .and_then(|(_, v)| v.clone())
        .unwrap_or_else(|| "main".to_string());
    let src = read_source(&path)?;
    let module = gcatch_suite::ir::lower_source(&src)?;
    let simulator = sim::Simulator::new(&module);
    let config = sim::Config {
        entry,
        ..sim::Config::default()
    };
    let mut blocked = 0usize;
    let mut panicked = 0usize;
    let mut clean = 0usize;
    let mut sample: Option<sim::RunReport> = None;
    for report in simulator.explore(&config, 0..seeds) {
        match report.outcome {
            sim::Outcome::Clean => clean += 1,
            sim::Outcome::Panic(_) => panicked += 1,
            sim::Outcome::Leak | sim::Outcome::GlobalDeadlock => {
                blocked += 1;
                if sample.is_none() {
                    sample = Some(report);
                }
            }
            sim::Outcome::StepLimit => {}
        }
    }
    println!("{path}: {seeds} schedules — {clean} clean, {blocked} blocked, {panicked} panicked");
    if let Some(report) = sample {
        println!("example blocked schedule:");
        for b in &report.blocked {
            println!(
                "  goroutine {} blocked in `{}` at {} ({:?})",
                b.id, b.func, b.span, b.reason
            );
        }
    }
    Ok(if blocked + panicked > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// Like [`parse_common`], but collects *all* positional arguments (the
/// batch command takes many files/directories).
fn parse_multi(rest: &[String], spec: &[FlagSpec]) -> Result<(Vec<String>, Vec<Flag>), String> {
    let mut inputs = Vec::new();
    let mut flags = Vec::new();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        if let Some(name) = arg.strip_prefix("--") {
            let Some(&(_, takes_value)) = spec.iter().find(|(n, _)| *n == name) else {
                let known: Vec<String> = spec.iter().map(|(n, _)| format!("--{n}")).collect();
                return Err(format!(
                    "unknown flag `--{name}` (known: {})",
                    known.join(", ")
                ));
            };
            let value = if takes_value {
                Some(
                    it.next()
                        .ok_or_else(|| format!("--{name} needs a value"))?
                        .clone(),
                )
            } else {
                None
            };
            flags.push((name.to_string(), value));
        } else {
            inputs.push(arg.clone());
        }
    }
    if inputs.is_empty() {
        return Err("missing input files (batch takes one or more files or directories)".into());
    }
    Ok((inputs, flags))
}

/// Expands the batch inputs into a deduplicated module list: files pass
/// through as-is; a directory contributes its `*.go` files
/// (non-recursive), sorted by name so the job set — and therefore the
/// journal fingerprint — is stable across runs.
fn expand_modules(inputs: &[String]) -> Result<Vec<String>, String> {
    let mut modules = Vec::new();
    let mut seen = std::collections::BTreeSet::new();
    for input in inputs {
        let path = std::path::Path::new(input);
        let mut batch = Vec::new();
        if path.is_dir() {
            let entries =
                std::fs::read_dir(path).map_err(|e| format!("cannot read {input}: {e}"))?;
            for entry in entries {
                let entry = entry.map_err(|e| format!("cannot read {input}: {e}"))?;
                let p = entry.path();
                if p.is_file() && p.extension().is_some_and(|e| e == "go") {
                    batch.push(p.to_string_lossy().into_owned());
                }
            }
            batch.sort();
            if batch.is_empty() {
                return Err(format!("{input} contains no .go files"));
            }
        } else if path.is_file() {
            batch.push(input.clone());
        } else {
            return Err(format!("cannot read {input}: not a file or directory"));
        }
        for m in batch {
            if seen.insert(m.clone()) {
                modules.push(m);
            }
        }
    }
    Ok(modules)
}

/// Extracts the `"bugs":N` count from a batch job payload. The payload is
/// produced by [`run_batch_module`], whose escaped module name can never
/// contain a raw `"`, so the first `","bugs":` is always the real field.
fn payload_bugs(payload: &str) -> usize {
    payload
        .find("\",\"bugs\":")
        .map(|i| {
            payload[i + 9..]
                .chars()
                .take_while(|c| c.is_ascii_digit())
                .collect::<String>()
                .parse()
                .unwrap_or(0)
        })
        .unwrap_or(0)
}

/// Renders the merged batch/sweep report from decided records, returning
/// `(report, total_bugs)`. The output is deterministic — submission
/// order, no attempt counts or timings, payloads that are pure functions
/// of each module — so a resumed batch, and a multi-process sweep, are
/// byte-identical to an uninterrupted single-process run. Sweep reuses
/// this renderer verbatim (including `"command":"batch"`): the report
/// describes *what was decided*, not which topology decided it.
fn render_batch_report(records: &[JobRecord<String>], quarantined: usize) -> (String, usize) {
    let mut total_bugs = 0usize;
    let mut report = String::from("{\"version\":1,\"command\":\"batch\",\"modules\":[");
    for (i, rec) in records.iter().enumerate() {
        if i > 0 {
            report.push(',');
        }
        match &rec.payload {
            Some(p) => {
                total_bugs += payload_bugs(p);
                report.push_str(p);
            }
            None => {
                report.push_str("{\"module\":\"");
                escape_json(&rec.id, &mut report);
                report.push_str("\",\"quarantined\":true,\"message\":\"");
                if let Some(inc) = &rec.incident {
                    escape_json(&inc.message, &mut report);
                }
                // The flight-recorder dump rides along unconditionally:
                // it is deterministic (attempt lifecycle only, no wall
                // times), so the report stays byte-identical whether or
                // not observability flags were passed.
                report.push_str("\",\"flight\":[");
                if let Some(inc) = &rec.incident {
                    for (i, line) in inc.flight.iter().enumerate() {
                        if i > 0 {
                            report.push(',');
                        }
                        report.push('"');
                        escape_json(line, &mut report);
                        report.push('"');
                    }
                }
                report.push_str("]}");
            }
        }
    }
    report.push_str("],\"total_bugs\":");
    report.push_str(&total_bugs.to_string());
    report.push_str(",\"quarantined\":");
    report.push_str(&quarantined.to_string());
    report.push('}');
    (report, total_bugs)
}

/// One batch job: lower and check a single module, returning a
/// self-contained JSON payload. Failures surface as `Err` so the engine
/// retries (transient, e.g. injected faults) or quarantines
/// (deterministic, e.g. a syntax error) the module instead of killing the
/// sweep.
fn run_batch_module(
    path: &str,
    base: &DetectorConfig,
    telemetry: &Telemetry,
    bus: &Option<Arc<EventBus>>,
    ctx: &JobCtx,
) -> Result<String, String> {
    let src = read_source(path)?;
    let started = std::time::Instant::now();
    let module = gcatch_suite::ir::lower_source(&src)?;
    let gcatch = GCatch::new(&module);
    // The flight recorder is always attached (its lines feed the
    // quarantine postmortem, which must be byte-identical whether or not
    // --events-out was passed); the bus only when the run armed one.
    let config = DetectorConfig {
        cancel: Some(ctx.cancel.clone()),
        obs: ObsScope {
            bus: bus.clone(),
            flight: Some(ctx.flight.clone()),
            job: Some(ctx.job_id.clone()),
            group: Some(ctx.index as u64),
            attempt: Some(ctx.attempt),
        },
        ..base.clone()
    };
    let diagnostics = gcatch.diagnostics(&config, &Selection::default());
    let incidents = gcatch.incidents();
    // An injected fault contained by an inner degradation rung would leave
    // a partial report behind; surface it as a failed attempt so the retry
    // produces a clean, deterministic payload instead.
    if let Some(inc) = incidents.iter().find(|i| faults::is_injected(&i.message)) {
        return Err(inc.message.clone());
    }
    // A hedge twin that lost the race ran under a fired cancel token; its
    // partial results must never win, so degrade them to a failed attempt.
    if ctx.cancel.is_cancelled() {
        return Err("cancelled mid-run".to_string());
    }
    gcatch
        .session()
        .telemetry()
        .observe(Metric::ModuleWallNs, started.elapsed().as_nanos() as u64);
    telemetry.absorb(&gcatch.stats());
    let mut payload = String::from("{\"module\":\"");
    escape_json(path, &mut payload);
    payload.push_str("\",\"bugs\":");
    payload.push_str(&diagnostics.len().to_string());
    payload.push_str(",\"report\":");
    payload.push_str(&render_json_with(&diagnostics, None, &incidents));
    payload.push('}');
    Ok(payload)
}

fn cmd_batch(rest: &[String]) -> Result<ExitCode, String> {
    let spec = spec(
        &[
            REPORT_FLAGS,
            OBS_FLAGS,
            RETRY_FLAGS,
            FAULT_FLAGS,
            TIMEOUT_FLAG,
            ANALYSIS_FLAGS,
        ],
        &[
            ("jobs", true),
            ("hedge-ms", true),
            ("no-hedge", false),
            ("journal", true),
            ("resume", true),
            ("report", true),
            ("explain", false),
            ("progress", false),
            ("trace", true),
        ],
    );
    let (inputs, flags) = parse_multi(rest, &spec)?;
    let modules = expand_modules(&inputs)?;
    let json = has_flag(&flags, "json");
    let want_stats = has_flag(&flags, "stats");
    let strict = has_flag(&flags, "strict");
    let explain = has_flag(&flags, "explain");
    let trace_path = flag_value(&flags, "trace");
    let level = trace_level(trace_path)?;
    let metrics_out = flag_value(&flags, "metrics-out");
    let events_out = flag_value(&flags, "events-out");
    let zero_time = obs_zero_time();
    let bus =
        events_out.map(|_| Arc::new(EventBus::new(derive_run_id(&modules, zero_time), zero_time)));
    if let Some(bus) = &bus {
        // Worker count is deliberately absent: the stream must be
        // byte-identical across --jobs once timestamps are normalized.
        bus.emit(run_event(
            EventKind::RunStart,
            vec![("modules", Field::U64(modules.len() as u64))],
        ));
    }

    let (plan, fault_seed) = fault_plan(&flags)?;

    let max_attempts = parse_u64_flag(&flags, "max-attempts")?.unwrap_or(3);
    if max_attempts == 0 {
        return Err("--max-attempts must be at least 1".into());
    }
    let workers = match parse_jobs(&flags)? {
        0 => std::thread::available_parallelism().map_or(4, |n| n.get()),
        n => n,
    };
    let mut batch = BatchConfig {
        workers,
        max_attempts: max_attempts as u32,
        ..BatchConfig::default()
    };
    if let Some(ms) = parse_u64_flag(&flags, "backoff-ms")? {
        batch.backoff.base = Duration::from_millis(ms);
    }
    batch.backoff.seed = fault_seed.unwrap_or(0);
    batch.hedge = if has_flag(&flags, "no-hedge") {
        None
    } else {
        let mut hedge = HedgePolicy::default();
        if let Some(ms) = parse_u64_flag(&flags, "hedge-ms")? {
            hedge.min_age = Duration::from_millis(ms);
        }
        Some(hedge)
    };
    batch.faults = plan.map(Arc::new);

    // Each job runs its analysis single-threaded: the fault schedule keys
    // on deterministic per-channel decisions, and parallelism comes from
    // the worker pool above instead.
    let mut base = budget_config(&flags)?;
    base.jobs = 1;

    let journal_flag = flag_value(&flags, "journal");
    let resume_flag = flag_value(&flags, "resume");
    if journal_flag.is_some() && resume_flag.is_some() {
        return Err("--journal and --resume are mutually exclusive".into());
    }
    let codec = JournalCodec::raw_json();
    let (journal, restored) = match (journal_flag, resume_flag) {
        (Some(p), None) => {
            let journal = Journal::create(std::path::Path::new(p), &modules)
                .map_err(|e| format!("cannot create journal {p}: {e}"))?;
            (Some(journal), BTreeMap::new())
        }
        (None, Some(p)) => {
            let (journal, restored) =
                Journal::open_resume(std::path::Path::new(p), &modules, &codec)?;
            (Some(journal), restored)
        }
        _ => (None, BTreeMap::new()),
    };

    let telemetry = Telemetry::new();
    let tracer = Tracer::new(level);
    let jobs: Vec<BatchJob<String>> = modules
        .iter()
        .map(|path| {
            let base = base.clone();
            let telemetry = &telemetry;
            let path = path.clone();
            let bus = bus.clone();
            BatchJob::new(path.clone(), move |ctx| {
                run_batch_module(&path, &base, telemetry, &bus, ctx)
            })
        })
        .collect();
    let mut engine = BatchEngine::new(batch, &telemetry, &tracer);
    if let Some(bus) = &bus {
        engine = engine.with_events(bus);
    }
    let progress = has_flag(&flags, "progress")
        && !json
        && std::io::IsTerminal::is_terminal(&std::io::stderr());
    if progress {
        engine = engine.with_progress(
            |snap| {
                use std::io::Write;
                let mut err = std::io::stderr().lock();
                let _ = write!(err, "\r\x1b[K{}", snap.render_line());
                let _ = err.flush();
            },
            Duration::from_millis(100),
        );
    }
    let outcome = with_live_metrics(metrics_out, &telemetry, zero_time, || {
        engine.run(&jobs, journal.as_ref().map(|j| (j, &codec)), restored)
    });
    if progress {
        eprint!("\r\x1b[K");
    }
    drop(jobs);
    if let Some(tp) = trace_path {
        write_output(tp, &tracer.snapshot().render_chrome())?;
    }
    if let Some(err) = &outcome.journal_error {
        eprintln!("gcatch: warning: journal write failed: {err}");
    }

    let (report, total_bugs) = render_batch_report(&outcome.records, outcome.quarantined);

    if let Some(path) = flag_value(&flags, "report") {
        write_output(path, &format!("{report}\n"))?;
    }
    let stats = telemetry.snapshot();
    if let Some(mp) = metrics_out {
        write_sink(mp, &render_prometheus(&stats, zero_time));
    }
    if let (Some(bus), Some(ep)) = (&bus, events_out) {
        bus.emit(run_event(
            EventKind::RunEnd,
            vec![
                ("modules", Field::U64(outcome.records.len() as u64)),
                ("executed", Field::U64(outcome.executed as u64)),
                ("resumed", Field::U64(outcome.resumed as u64)),
                ("quarantined", Field::U64(outcome.quarantined as u64)),
                ("total_bugs", Field::U64(total_bugs as u64)),
            ],
        ));
        write_sink(ep, &bus.render_jsonl());
    }
    if json {
        if want_stats {
            let mut with_stats = report[..report.len() - 1].to_string();
            with_stats.push_str(",\"stats\":");
            with_stats.push_str(&render_stats_json(&stats));
            with_stats.push('}');
            println!("{with_stats}");
        } else {
            println!("{report}");
        }
    } else {
        println!(
            "batch: {} module(s) — {} executed, {} resumed, {} quarantined",
            outcome.records.len(),
            outcome.executed,
            outcome.resumed,
            outcome.quarantined
        );
        for rec in &outcome.records {
            match &rec.payload {
                Some(p) => println!("  {}: {} bug(s)", rec.id, payload_bugs(p)),
                None => {
                    let why = rec.incident.as_ref().map_or("", |inc| inc.message.as_str());
                    println!("  {}: quarantined — {why}", rec.id);
                    if explain {
                        if let Some(inc) = &rec.incident {
                            print!("{}", inc.render());
                        }
                    }
                }
            }
        }
        println!("total: {total_bugs} bug(s)");
        if want_stats {
            print!("{}", stats.render_text());
        }
    }
    Ok(if strict && outcome.quarantined > 0 {
        ExitCode::from(2)
    } else if total_bugs > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// Exec-layer flags shared by `batch`, `sweep`, and `worker`: everything
/// here shapes a job's decided record (attempt budget, backoff schedule,
/// fault plan, analysis budgets), so `sweep` forwards them verbatim to
/// every worker process — otherwise the merged report would diverge from
/// a single-process `batch` run over the same modules.
fn exec_flags() -> Vec<FlagSpec> {
    spec(
        &[RETRY_FLAGS, FAULT_FLAGS, TIMEOUT_FLAG, ANALYSIS_FLAGS],
        &[],
    )
}

/// Resolves the fault plan shared by batch/sweep/worker: CLI flags
/// override the `GCATCH_FAULT_*` environment. Also returns the CLI
/// `--fault-seed` (it doubles as the retry-backoff seed).
fn fault_plan(flags: &[Flag]) -> Result<(Option<FaultPlan>, Option<u64>), String> {
    let fault_rate = flag_value(flags, "inject-faults")
        .map(|v| {
            v.parse::<f64>()
                .map_err(|e| format!("bad --inject-faults: {e}"))
        })
        .transpose()?;
    let fault_seed = parse_u64_flag(flags, "fault-seed")?;
    if fault_seed.is_some() && fault_rate.is_none() {
        return Err("--fault-seed needs --inject-faults".into());
    }
    let plan = match fault_rate {
        Some(rate) => {
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("bad --inject-faults: {rate} is not in [0, 1]"));
            }
            Some(FaultPlan::new(rate, fault_seed.unwrap_or(0)))
        }
        None => FaultPlan::from_env()?,
    };
    Ok((plan, fault_seed))
}

/// The engine configuration a sweep worker runs each claimed job under:
/// identical to `cmd_batch`'s in every record-shaping knob, pinned to one
/// thread and no hedging so each decision is a pure function of its
/// module. This is what makes the merged sweep report byte-identical to
/// `gcatch batch --no-hedge` regardless of fleet size, kills, or
/// re-leases.
fn worker_engine_config(
    flags: &[Flag],
    plan: Option<Arc<FaultPlan>>,
    fault_seed: Option<u64>,
) -> Result<BatchConfig, String> {
    let max_attempts = parse_u64_flag(flags, "max-attempts")?.unwrap_or(3);
    if max_attempts == 0 {
        return Err("--max-attempts must be at least 1".into());
    }
    let mut batch = BatchConfig {
        workers: 1,
        max_attempts: max_attempts as u32,
        ..BatchConfig::default()
    };
    if let Some(ms) = parse_u64_flag(flags, "backoff-ms")? {
        batch.backoff.base = Duration::from_millis(ms);
    }
    batch.backoff.seed = fault_seed.unwrap_or(0);
    batch.hedge = None;
    batch.faults = plan;
    Ok(batch)
}

/// The subset of `flags` in [`EXEC_FLAGS`], re-rendered as command-line
/// arguments for a spawned worker process.
fn forward_exec_flags(flags: &[Flag]) -> Vec<String> {
    let exec = exec_flags();
    let mut out = Vec::new();
    for (name, value) in flags {
        if exec.iter().any(|(n, _)| n == name) {
            out.push(format!("--{name}"));
            if let Some(v) = value {
                out.push(v.clone());
            }
        }
    }
    out
}

/// Like [`parse_multi`] but for commands that take no positional
/// arguments at all (`gcatch worker`).
fn parse_flags_only(rest: &[String], spec: &[FlagSpec]) -> Result<Vec<Flag>, String> {
    let mut flags = Vec::new();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        let Some(name) = arg.strip_prefix("--") else {
            return Err(format!("unexpected argument `{arg}`"));
        };
        let Some(&(_, takes_value)) = spec.iter().find(|(n, _)| *n == name) else {
            let known: Vec<String> = spec.iter().map(|(n, _)| format!("--{n}")).collect();
            return Err(format!(
                "unknown flag `--{name}` (known: {})",
                known.join(", ")
            ));
        };
        let value = if takes_value {
            Some(
                it.next()
                    .ok_or_else(|| format!("--{name} needs a value"))?
                    .clone(),
            )
        } else {
            None
        };
        flags.push((name.to_string(), value));
    }
    Ok(flags)
}

/// One sweep worker process (spawned by `gcatch sweep`): claims jobs from
/// the on-disk lease queue and runs each through a single-job batch
/// engine that journals the decided record to this worker's own journal.
fn cmd_worker(rest: &[String]) -> Result<ExitCode, String> {
    let spec = spec(
        &[&exec_flags()],
        &[("dir", true), ("id", true), ("lease-ms", true)],
    );
    let flags = parse_flags_only(rest, &spec)?;
    let dir = flag_value(&flags, "dir").ok_or("worker needs --dir")?;
    let id = flag_value(&flags, "id")
        .ok_or("worker needs --id")?
        .to_string();
    let lease = Duration::from_millis(parse_u64_flag(&flags, "lease-ms")?.unwrap_or(1_000).max(20));

    let layout = SweepLayout::new(dir);
    let ids = read_manifest(&layout)?;
    let (plan, fault_seed) = fault_plan(&flags)?;
    let plan = plan.map(Arc::new);
    let batch = worker_engine_config(&flags, plan.clone(), fault_seed)?;
    let mut base = budget_config(&flags)?;
    base.jobs = 1;

    let codec = JournalCodec::raw_json();
    let journal = Journal::create(&layout.journal_path(&id), &ids)
        .map_err(|e| format!("cannot create worker journal: {e}"))?;
    let telemetry = Telemetry::new();
    let tracer = Tracer::new(TraceLevel::Off);
    let bus: Option<Arc<EventBus>> = None;
    let config = WorkerConfig {
        id,
        lease,
        poll: Duration::from_millis(10),
        plan,
    };
    run_worker(&layout, &ids, &config, |_, module| {
        let path = module.to_string();
        let job = BatchJob::new(path.clone(), {
            let base = base.clone();
            let bus = bus.clone();
            let telemetry = &telemetry;
            move |ctx| run_batch_module(&path, &base, telemetry, &bus, ctx)
        });
        let engine = BatchEngine::new(batch.clone(), &telemetry, &tracer);
        let outcome = engine.run(&[job], Some((&journal, &codec)), BTreeMap::new());
        match outcome.journal_error {
            Some(err) => Err(format!("journal write failed: {err}")),
            None => Ok(()),
        }
    })?;
    Ok(ExitCode::SUCCESS)
}

fn cmd_sweep(rest: &[String]) -> Result<ExitCode, String> {
    let spec = spec(
        &[REPORT_FLAGS, OBS_FLAGS, &exec_flags()],
        &[
            ("workers", true),
            ("dir", true),
            ("lease-ms", true),
            ("max-releases", true),
            ("report", true),
            ("progress", false),
        ],
    );
    let (inputs, flags) = parse_multi(rest, &spec)?;
    let modules = expand_modules(&inputs)?;
    let json = has_flag(&flags, "json");
    let want_stats = has_flag(&flags, "stats");
    let strict = has_flag(&flags, "strict");
    let metrics_out = flag_value(&flags, "metrics-out");
    let events_out = flag_value(&flags, "events-out");

    // Validate every exec-layer flag up front so usage errors surface
    // here, with exit code 2, instead of inside a spawned worker.
    let (plan, fault_seed) = fault_plan(&flags)?;
    worker_engine_config(&flags, plan.map(Arc::new), fault_seed)?;
    budget_config(&flags)?;

    let workers = match parse_u64_flag(&flags, "workers")?.unwrap_or(4) {
        0 => return Err("--workers must be at least 1".into()),
        n => n as usize,
    };
    let lease_ms = parse_u64_flag(&flags, "lease-ms")?.unwrap_or(1_000).max(20);
    let max_releases = parse_u64_flag(&flags, "max-releases")?.unwrap_or(3);

    // The sweep directory: caller-provided (kept afterwards, must be
    // fresh) or an ephemeral temp directory (removed after the run).
    let ephemeral = flag_value(&flags, "dir").is_none();
    let root = match flag_value(&flags, "dir") {
        Some(d) => std::path::PathBuf::from(d),
        None => std::env::temp_dir().join(format!("gcatch-sweep-{}", std::process::id())),
    };
    let layout = SweepLayout::new(&root);
    if layout.manifest_path().exists() {
        return Err(format!(
            "sweep directory {} already contains a manifest; use a fresh --dir",
            root.display()
        ));
    }
    layout
        .init()
        .map_err(|e| format!("cannot create sweep directory {}: {e}", root.display()))?;
    write_manifest(&layout, &modules).map_err(|e| format!("cannot write sweep manifest: {e}"))?;

    let zero_time = obs_zero_time();
    let bus =
        events_out.map(|_| Arc::new(EventBus::new(derive_run_id(&modules, zero_time), zero_time)));
    if let Some(bus) = &bus {
        bus.emit(run_event(
            EventKind::RunStart,
            vec![("modules", Field::U64(modules.len() as u64))],
        ));
    }

    let telemetry = Telemetry::new();
    let lease = Duration::from_millis(lease_ms);
    let config = SweepConfig {
        workers,
        lease,
        max_releases,
        poll: Duration::from_millis(15),
        stale_after: lease * 4,
    };
    let mut coordinator = Coordinator::new(layout.clone(), modules.clone(), config, &telemetry);
    if let Some(bus) = &bus {
        coordinator = coordinator.with_events(bus);
    }
    let progress = has_flag(&flags, "progress")
        && !json
        && std::io::IsTerminal::is_terminal(&std::io::stderr());
    if progress {
        coordinator = coordinator.with_progress(
            |snap| {
                use std::io::Write;
                let mut err = std::io::stderr().lock();
                let _ = write!(err, "\r\x1b[K{}", snap.render_line());
                let _ = err.flush();
            },
            Duration::from_millis(100),
        );
    }

    let exe =
        std::env::current_exe().map_err(|e| format!("cannot locate the gcatch executable: {e}"))?;
    let forwarded = forward_exec_flags(&flags);
    let outcome = coordinator.run(|name| {
        std::process::Command::new(&exe)
            .arg("worker")
            .arg("--dir")
            .arg(&root)
            .arg("--id")
            .arg(name)
            .arg("--lease-ms")
            .arg(lease_ms.to_string())
            .args(&forwarded)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::inherit())
            .spawn()
    })?;
    if progress {
        eprint!("\r\x1b[K");
    }

    // Duplicate decisions never change the report (the kept record is
    // byte-identical to what a single-process run would have produced);
    // they surface as warnings and structured incidents instead.
    for dup in &outcome.merge.duplicates {
        let incident = dup.incident();
        eprintln!(
            "gcatch: warning: duplicate decision for {}: {}",
            dup.job, incident.message
        );
    }

    let records = &outcome.merge.records;
    let quarantined = records.iter().filter(|r| r.payload.is_none()).count();
    let (report, total_bugs) = render_batch_report(records, quarantined);

    if let Some(path) = flag_value(&flags, "report") {
        write_output(path, &format!("{report}\n"))?;
    }
    let stats = telemetry.snapshot();
    if let Some(mp) = metrics_out {
        write_sink(mp, &render_prometheus(&stats, zero_time));
    }
    if let (Some(bus), Some(ep)) = (&bus, events_out) {
        bus.emit(run_event(
            EventKind::RunEnd,
            vec![
                ("modules", Field::U64(records.len() as u64)),
                ("quarantined", Field::U64(quarantined as u64)),
                ("total_bugs", Field::U64(total_bugs as u64)),
                ("workers_spawned", Field::U64(outcome.workers_spawned)),
                ("workers_lost", Field::U64(outcome.workers_lost)),
                ("releases", Field::U64(outcome.jobs_releases)),
            ],
        ));
        write_sink(ep, &bus.render_jsonl());
    }
    if json {
        if want_stats {
            let mut with_stats = report[..report.len() - 1].to_string();
            with_stats.push_str(",\"stats\":");
            with_stats.push_str(&render_stats_json(&stats));
            with_stats.push('}');
            println!("{with_stats}");
        } else {
            println!("{report}");
        }
    } else {
        println!(
            "sweep: {} module(s) — {} workers spawned, {} lost, {} releases, {} quarantined",
            records.len(),
            outcome.workers_spawned,
            outcome.workers_lost,
            outcome.jobs_releases,
            quarantined
        );
        for rec in records.iter() {
            match &rec.payload {
                Some(p) => println!("  {}: {} bug(s)", rec.id, payload_bugs(p)),
                None => {
                    let why = rec.incident.as_ref().map_or("", |inc| inc.message.as_str());
                    println!("  {}: quarantined — {why}", rec.id);
                }
            }
        }
        println!("total: {total_bugs} bug(s)");
        if want_stats {
            print!("{}", stats.render_text());
        }
    }
    if outcome.interrupted {
        eprintln!(
            "gcatch: sweep interrupted — {} decided job(s) merged, {} undecided",
            records.len(),
            outcome.merge.missing.len()
        );
    }
    if ephemeral {
        let _ = std::fs::remove_dir_all(&root);
    }
    Ok(if outcome.interrupted {
        // The conventional 128 + SIGINT exit for a run wound down early;
        // decided work was merged and reported above.
        ExitCode::from(130)
    } else if strict && quarantined > 0 {
        ExitCode::from(2)
    } else if total_bugs > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// Fingerprint of every flag that shapes a serve response byte. The
/// cache index records it in its header; an index written under a
/// different fingerprint is discarded wholesale on startup, because its
/// cached responses would no longer match what this daemon computes.
fn serve_fingerprint(flags: &[Flag]) -> String {
    let mut fp = String::from("v1");
    for (name, takes_value) in ANALYSIS_FLAGS {
        fp.push(';');
        fp.push_str(name);
        fp.push('=');
        if *takes_value {
            fp.push_str(flag_value(flags, name).unwrap_or("default"));
        } else {
            fp.push_str(if has_flag(flags, name) { "on" } else { "off" });
        }
    }
    fp
}

/// One serve work request, executed on a daemon pool thread. `check`
/// returns the exact report `gcatch check --json` would print for the
/// module (that byte-identity is what makes the response cache sound);
/// `explain` wraps the provenance text; `fix-dry-run` summarizes the
/// patches GFix would apply without writing anything.
fn serve_execute(
    op: WorkKind,
    source: &str,
    budget: &Budget,
    base: &DetectorConfig,
) -> Result<String, String> {
    // The request deadline flows into the analysis budget, so a slow
    // module degrades through the usual rungs instead of running
    // unbounded; the daemon still issues the authoritative deadline
    // verdict after the call returns.
    let mut config = base.clone();
    if let Some(deadline) = budget.deadline() {
        config.timeout = Some(deadline.saturating_duration_since(std::time::Instant::now()));
    }
    match op {
        WorkKind::Check => {
            let module = gcatch_suite::ir::lower_source(source)?;
            let gcatch = GCatch::new(&module);
            let diagnostics = gcatch.diagnostics(&config, &Selection::default());
            let incidents = gcatch.incidents();
            Ok(render_json_with(&diagnostics, None, &incidents))
        }
        WorkKind::Explain => {
            let module = gcatch_suite::ir::lower_source(source)?;
            let gcatch = GCatch::new(&module);
            let diagnostics = gcatch.diagnostics(&config, &Selection::default());
            let text = render_explain(&diagnostics);
            let mut out = String::from("{\"diagnostics\":");
            out.push_str(&diagnostics.len().to_string());
            out.push_str(",\"explain\":\"");
            escape_json(&text, &mut out);
            out.push_str("\"}");
            Ok(out)
        }
        WorkKind::FixDryRun => {
            let pipeline = gfix::Pipeline::from_source(source)?;
            let results = pipeline.run(&config);
            let mut out = String::from("{\"bugs\":");
            out.push_str(&results.bugs.len().to_string());
            out.push_str(",\"patches\":[");
            for (i, patch) in results.patches.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str("{\"strategy\":\"");
                escape_json(&patch.strategy.to_string(), &mut out);
                out.push_str("\",\"description\":\"");
                escape_json(&patch.description, &mut out);
                out.push_str("\",\"changed_lines\":");
                out.push_str(&patch.changed_lines.to_string());
                out.push('}');
            }
            out.push_str("]}");
            Ok(out)
        }
    }
}

fn cmd_serve(rest: &[String]) -> Result<ExitCode, String> {
    let spec = spec(
        &[OBS_FLAGS, FAULT_FLAGS, ANALYSIS_FLAGS],
        &[
            ("socket", true),
            ("stdio", false),
            ("cache-dir", true),
            ("max-queue", true),
            ("workers", true),
            ("request-timeout-ms", true),
            ("max-cache", true),
            ("max-sessions", true),
        ],
    );
    let flags = parse_flags_only(rest, &spec)?;
    let socket = flag_value(&flags, "socket").map(std::path::PathBuf::from);
    let stdio = has_flag(&flags, "stdio");
    if socket.is_some() && stdio {
        return Err("--socket and --stdio are mutually exclusive".into());
    }
    if socket.is_none() && !stdio {
        return Err("serve needs --socket PATH or --stdio".into());
    }
    let (plan, _fault_seed) = fault_plan(&flags)?;
    // Each request analyzes single-threaded (parallelism comes from the
    // daemon's own pool), keeping fault schedules and reports identical
    // to single-shot runs.
    let mut base = budget_config(&flags)?;
    base.jobs = 1;
    let workers = parse_u64_flag(&flags, "workers")?.unwrap_or(4).max(1) as usize;
    let max_queue = parse_u64_flag(&flags, "max-queue")?.unwrap_or(64) as usize;
    let request_timeout = parse_u64_flag(&flags, "request-timeout-ms")?.map(Duration::from_millis);
    let cache_capacity = parse_u64_flag(&flags, "max-cache")?.unwrap_or(512).max(1) as usize;
    let max_sessions = parse_u64_flag(&flags, "max-sessions")?.unwrap_or(8) as usize;
    let cache_dir = flag_value(&flags, "cache-dir").map(std::path::PathBuf::from);
    let metrics_out = flag_value(&flags, "metrics-out");
    let events_out = flag_value(&flags, "events-out");
    let zero_time = obs_zero_time();
    let bus = events_out.map(|_| {
        Arc::new(EventBus::new(
            derive_run_id(&["serve".to_string()], zero_time),
            zero_time,
        ))
    });
    if let Some(bus) = &bus {
        bus.emit(run_event(
            EventKind::RunStart,
            vec![("modules", Field::U64(0))],
        ));
    }

    // Warm-session eligibility. Sessions carry analysis artifacts across
    // requests, so they are only sound when every request computes the
    // same bytes a cold run would: no budgets that could truncate a rung
    // mid-module, disentangling on (the dirty-set rule is scope-based),
    // and no fault plan other than one scoped to the session-loss site
    // itself (whose injection is handled inside `warm_check`).
    let warm_plan_ok = plan.as_ref().is_none_or(|p| {
        p.sites
            .as_ref()
            .is_some_and(|s| s.iter().all(|site| site == faults::SITE_SERVE_SESSION))
    });
    let warm_base_ok = base.timeout.is_none()
        && base.channel_timeout.is_none()
        && base.solver_step_pool.is_none()
        && base.disentangle;
    let warm_store = (max_sessions > 0 && warm_plan_ok && warm_base_ok)
        .then(|| Arc::new(gcatch_suite::gcatch::WarmSessions::new(max_sessions)));

    let config = ServeConfig {
        workers,
        max_queue,
        request_timeout,
        cache_dir,
        cache_capacity,
        config_fingerprint: serve_fingerprint(&flags),
        plan: plan.map(Arc::new),
        warm: warm_store.clone(),
    };
    let telemetry = Telemetry::new();
    let executor = |op: WorkKind, path: &str, source: &str, budget: &Budget| {
        // Timed requests bypass the warm layer: a deadline can truncate
        // analysis rungs, and truncated verdicts must never be harvested
        // into (or replayed from) a session.
        if op == WorkKind::Check && budget.deadline().is_none() {
            if let Some(store) = warm_store.as_deref() {
                let outcome = gcatch_suite::gcatch::warm_check(
                    store,
                    path,
                    source,
                    &base,
                    AliasMode::default(),
                )?;
                if outcome.reused {
                    telemetry.add(Counter::SessionsReused, 1);
                }
                telemetry.add(Counter::ChannelsReplayed, outcome.replayed);
                telemetry.add(Counter::ChannelsReanalyzed, outcome.reanalyzed);
                telemetry.add(Counter::SessionEvictions, outcome.evicted);
                if let Some(bus) = &bus {
                    if outcome.reused {
                        bus.emit(Event {
                            kind: EventKind::SessionReuse,
                            group: 0,
                            job: Some(path.to_string()),
                            attempt: None,
                            channel: None,
                            fields: vec![
                                ("replayed", Field::U64(outcome.replayed)),
                                ("reanalyzed", Field::U64(outcome.reanalyzed)),
                            ],
                        });
                    }
                    if outcome.evicted > 0 || outcome.fault_evicted {
                        bus.emit(Event {
                            kind: EventKind::SessionEvict,
                            group: 0,
                            job: Some(path.to_string()),
                            attempt: None,
                            channel: None,
                            fields: vec![
                                ("evicted", Field::U64(outcome.evicted)),
                                ("fault", Field::Bool(outcome.fault_evicted)),
                            ],
                        });
                    }
                }
                return Ok(outcome.json);
            }
        }
        serve_execute(op, source, budget, &base)
    };

    let summary = with_live_metrics(metrics_out, &telemetry, zero_time, || match &socket {
        Some(path) => serve_socket(path, &config, &executor, &telemetry, bus.clone()),
        None => serve_stdio(&config, &executor, &telemetry, bus.clone()),
    })?;

    let stats = telemetry.snapshot();
    if let Some(mp) = metrics_out {
        write_sink(mp, &render_prometheus(&stats, zero_time));
    }
    if let (Some(bus), Some(ep)) = (&bus, events_out) {
        bus.emit(run_event(
            EventKind::RunEnd,
            vec![
                ("requests", Field::U64(summary.requests)),
                ("shed", Field::U64(summary.shed)),
                ("failed", Field::U64(summary.failed)),
                ("cache_hits", Field::U64(summary.cache_hits)),
            ],
        ));
        write_sink(ep, &bus.render_jsonl());
    }
    // The summary goes to stderr: in --stdio mode stdout is the protocol
    // stream and must carry response lines only.
    eprintln!(
        "gcatch: serve drained — {} request(s), {} shed, {} failed, {} cache hit(s), \
         cache warm {} / dropped {}",
        summary.requests,
        summary.shed,
        summary.failed,
        summary.cache_hits,
        summary.cache_warm,
        summary.cache_dropped,
    );
    Ok(ExitCode::SUCCESS)
}
