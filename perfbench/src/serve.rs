//! `serve_edit`: a real `gcatch-suite serve --stdio` daemon driven by one
//! client through the seeded edit stream. The client saves each edited
//! module to a file and waits for the reply before the next save.

use crate::host::{HostClock, Placement};
use crate::inputs::{EditKind, EditStream, BLOCK_LEN};
use crate::layers::{ratio, TracedPass};
use crate::trace::{Recorder, OP};
use crate::{
    json_num, json_str, peak_rss_mb, report, stats, Args, OpSample, Outcome, Quota, SetupSample,
    SETUPS,
};
use gcatch::metrics::counter_family;
use gcatch::{warm_check, AliasMode, Counter, DetectorConfig, WarmOutcome, WarmSessions};
use golite_ir::ModuleShape;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fs::File;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

/// The warm-session capacity the daemon runs with by default.
const SESSIONS: usize = 8;

/// A running daemon and its protocol streams.
struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    module: PathBuf,
    requests: u64,
    exited: bool,
}

impl Daemon {
    /// Starts `gcatch-suite serve --stdio`; its stderr goes to `log`.
    fn start(args: &Args, dir: &Path, log: &str, metrics: Option<&Path>) -> Result<Daemon, String> {
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
        let mut cmd = Command::new(&args.gcatch);
        cmd.args(["serve", "--stdio", "--workers", &workers.to_string()]);
        if let Some(m) = metrics {
            cmd.arg("--metrics-out").arg(m);
        }
        let log = File::create(dir.join(log)).map_err(|e| format!("daemon log: {e}"))?;
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", args.gcatch.display()))?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        Ok(Daemon {
            child,
            stdin: Some(stdin),
            stdout,
            module: dir.join("module.go"),
            requests: 0,
            exited: false,
        })
    }

    fn request(&mut self, body: &str) -> Result<String, String> {
        self.requests += 1;
        let id = format!("r{}", self.requests);
        let line = format!("{{\"id\":\"{id}\",{body}}}\n");
        let stdin = self.stdin.as_mut().ok_or("daemon stdin closed")?;
        stdin
            .write_all(line.as_bytes())
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("write request: {e}"))?;
        let mut reply = String::new();
        let n = self
            .stdout
            .read_line(&mut reply)
            .map_err(|e| format!("read response: {e}"))?;
        if n == 0 {
            return Err("daemon closed its output".to_string());
        }
        if !reply.starts_with(&format!("{{\"id\":\"{id}\",")) {
            return Err(format!("response does not echo {id}: {}", reply.trim_end()));
        }
        Ok(reply)
    }

    /// Saves `source` to the module file and sends a `check` request;
    /// returns the reply line. `Err` only when the daemon cannot be talked
    /// to; a failed request is a reply, judged by [`report_of`].
    fn check(&mut self, source: &str) -> Result<String, String> {
        std::fs::write(&self.module, source).map_err(|e| format!("save module: {e}"))?;
        let body = format!(
            "\"op\":\"check\",\"module\":{}",
            json_str(&self.module.display().to_string())
        );
        self.request(&body)
    }

    /// Asks the daemon to drain and waits for it to exit cleanly.
    fn shutdown(&mut self) -> Result<(), String> {
        self.request("\"op\":\"shutdown\"")?;
        drop(self.stdin.take());
        let status = self
            .child
            .wait()
            .map_err(|e| format!("wait for daemon: {e}"))?;
        self.exited = true;
        status
            .success()
            .then_some(())
            .ok_or_else(|| format!("daemon exited with {status}"))
    }
}

/// The `result` object of a successful `check` reply, which is the
/// `gcatch check --json` report.
fn report_of(reply: &str) -> Result<&str, String> {
    let reply = reply.trim_end();
    if !reply.contains(",\"ok\":true,") {
        return Err(format!("request failed: {reply}"));
    }
    let at = reply.find(",\"result\":").ok_or("response has no result")?;
    let result = &reply[at + ",\"result\":".len()..];
    Ok(result.strip_suffix('}').ok_or("truncated response")?)
}

/// Checks a `check` reply against the planted channels.
fn verify(reply: &str, planted: &BTreeSet<String>) -> Result<(), String> {
    report_of(reply).and_then(|json| report::check(json, planted))
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if !self.exited {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// The daemon's `check` path in-process, for the traced pass: the response
/// cache (keyed by the exact source) in front of `warm_check`.
struct InProcess {
    store: WarmSessions,
    cache: HashMap<String, String>,
    last_shape: Option<ModuleShape>,
    config: DetectorConfig,
}

/// What one in-process request did.
struct Handled {
    ms: f64,
    json: String,
    warm: Option<WarmOutcome>,
    /// IR size of the probed module (traced requests that missed the cache).
    instrs: Option<usize>,
}

impl InProcess {
    fn new() -> InProcess {
        InProcess {
            store: WarmSessions::new(SESSIONS),
            cache: HashMap::new(),
            last_shape: None,
            // The daemon analyzes each request on one thread.
            config: DetectorConfig {
                jobs: 1,
                ..DetectorConfig::default()
            },
        }
    }

    /// Handles one request, untraced when `rec` is `None`. The traced path
    /// first probes parse, lower and the function diff against the last
    /// analysed module in a separate `probe` root (not part of the op), then
    /// times the op: the response-cache lookup under `serve.cache` and, on a
    /// miss, `warm_check` under `gcatch.warm`. Storing the response in the
    /// cache is left without a span, so it shows as a coverage gap.
    fn handle(
        &mut self,
        source: &str,
        rec: Option<(&mut Recorder, u64)>,
    ) -> Result<Handled, String> {
        let Some((rec, id)) = rec else {
            let t = Instant::now();
            let (json, warm) = match self.cache.get(source) {
                Some(json) => (json.clone(), None),
                None => {
                    let outcome = self.warm_check(source)?;
                    self.store(source, outcome)
                }
            };
            let ms = t.elapsed().as_secs_f64() * 1e3;
            return Ok(Handled {
                ms,
                json,
                warm,
                instrs: None,
            });
        };
        let hit = self.cache.contains_key(source);
        let mut instrs = None;
        if !hit {
            let probe = rec.begin(id, "probe");
            let program = rec
                .span(id, "golite.parse", |_| golite::parse(source))
                .map_err(|e| e.to_string())?;
            let module = rec
                .span(id, "golite-ir.lower", |_| golite_ir::lower(&program))
                .map_err(|e| e.to_string())?;
            let last = self.last_shape.take();
            let shape = rec.span(id, "golite-ir.diff", |_| {
                let shape = golite_ir::module_shape(&module);
                if let Some(last) = &last {
                    std::hint::black_box(golite_ir::changed_funcs(last, &shape));
                }
                shape
            });
            rec.end(probe);
            self.last_shape = Some(shape);
            instrs = Some(module.instr_count());
        }
        let root = rec.begin(id, OP);
        let cached = rec.span(id, "serve.cache", |_| self.cache.get(source).cloned());
        let (json, warm) = match cached {
            Some(json) => (json, None),
            None => {
                let outcome = rec.span(id, "gcatch.warm", |_| self.warm_check(source))?;
                self.store(source, outcome)
            }
        };
        let ms = rec.end(root);
        Ok(Handled {
            ms,
            json,
            warm,
            instrs,
        })
    }

    /// `warm_check` on this server's warm store, as the daemon runs it.
    fn warm_check(&self, source: &str) -> Result<WarmOutcome, String> {
        warm_check(
            &self.store,
            "module.go",
            source,
            &self.config,
            AliasMode::default(),
        )
    }

    /// Puts a fresh response into the response cache and returns it.
    fn store(&mut self, source: &str, outcome: WarmOutcome) -> (String, Option<WarmOutcome>) {
        self.cache.insert(source.to_string(), outcome.json.clone());
        (outcome.json.clone(), Some(outcome))
    }
}

/// Runs `serve_edit`.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let dir = args.work_dir.join(format!("serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let dir = dir
        .canonicalize()
        .map_err(|e| format!("resolve {}: {e}", dir.display()))?;
    let result = if args.trace {
        traced(args, &dir)
    } else {
        untraced(args, &dir)
    };
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn untraced(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut stream = EditStream::new(args.seed);
    let base = stream.base();
    out.detail("input_bytes", base.source.len().to_string());

    // Set-up: daemon start plus the cold seeding request, several times;
    // the last daemon serves the timed loop.
    let mut clock = HostClock::new(Placement::Caller)?;
    let mut setups = Vec::new();
    let mut daemon = None;
    for i in 0..SETUPS {
        let cal = clock.calibrate()?;
        let t = Instant::now();
        let mut d = Daemon::start(args, dir, &format!("daemon-{i}.log"), None)?;
        let reply = d.check(&base.source)?;
        setups.push(SetupSample {
            s: t.elapsed().as_secs_f64(),
            cal,
        });
        if let Err(e) = verify(&reply, &base.planted) {
            out.problem(format!("seeding request {i}: {e}"));
        }
        if i + 1 < SETUPS {
            d.shutdown()?;
        } else {
            daemon = Some(d);
        }
    }
    let mut daemon = daemon.expect("SETUPS > 0");

    let quota = Quota::new(args, BLOCK_LEN);
    let mut ops = Vec::new();
    let mut kinds = Vec::new();
    let mut samples: BTreeMap<EditKind, (String, String)> = BTreeMap::new();
    let start = Instant::now();
    // Whole blocks only, so every run measures the same request mix.
    while quota.more(ops.len(), start) {
        // The daemon is idle while the client calibrates.
        let cal = clock.calibrate()?;
        let edit = stream.next_edit();
        let t = Instant::now();
        let reply = daemon.check(&edit.source);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let reply = reply?;
        ops.push(OpSample {
            ms,
            bytes: edit.source.len(),
            cal,
        });
        kinds.push(edit.kind);
        let verdict = verify(&reply, &edit.planted);
        if verdict.is_ok() && !samples.contains_key(&edit.kind) {
            let json = report_of(&reply)?.to_string();
            samples.insert(edit.kind, (edit.source, json));
        }
        out.verdict(
            &format!("request {} ({})", ops.len(), edit.kind.name()),
            verdict,
        );
    }
    clock.calibrate()?;
    let rss = peak_rss_mb(&daemon.child.id().to_string())?;
    daemon.shutdown()?;

    // One response of each kind against a cold single-shot check.
    for (kind, (source, json)) in &samples {
        let file = dir.join(format!("cold-{}.go", kind.name()));
        std::fs::write(&file, source).map_err(|e| format!("write {}: {e}", file.display()))?;
        let cold = Command::new(&args.gcatch)
            .args(["check", "--json"])
            .arg(&file)
            .output()
            .map_err(|e| format!("cold check: {e}"))?;
        let text = String::from_utf8_lossy(&cold.stdout);
        if !matches!(cold.status.code(), Some(0 | 1)) || text.trim_end() != json {
            out.failed += 1;
            out.problem(format!(
                "{} response differs from a cold single-shot check",
                kind.name()
            ));
        }
    }
    out.detail("cold_compared", samples.len().to_string());
    // Per kind, the same host-speed scaled times as the end-to-end metrics.
    let mut by_kind: BTreeMap<EditKind, Vec<f64>> = BTreeMap::new();
    for (kind, op) in kinds.iter().zip(&ops) {
        by_kind
            .entry(*kind)
            .or_default()
            .push(op.ms * clock.factor(op.cal));
    }
    let kinds: Vec<String> = by_kind
        .iter()
        .map(|(k, v)| {
            format!(
                "{}:{{\"n\":{},\"ms_p50\":{}}}",
                json_str(k.name()),
                v.len(),
                json_num(stats::median(v).unwrap_or(0.0))
            )
        })
        .collect();
    out.detail("by_kind", format!("{{{}}}", kinds.join(",")));
    out.end_to_end(&ops, &quota, &setups, &clock, rss);
    Ok(out)
}

/// Reads the counters of a Prometheus exposition.
fn read_counters(text: &str) -> HashMap<String, f64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect()
}

fn traced(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut pass = TracedPass::default();
    let half = args.seconds / 2;

    // First half: the daemon, untraced, for its own counters.
    let metrics = dir.join("metrics.prom");
    let mut stream = EditStream::new(args.seed);
    let base = stream.base();
    let mut daemon = Daemon::start(args, dir, "daemon.log", Some(&metrics))?;
    let reply = daemon.check(&base.source)?;
    out.verdict("seeding request", verify(&reply, &base.planted));
    let mut checks = 1u64;
    let start = Instant::now();
    while start.elapsed() < half {
        let edit = stream.next_edit();
        let reply = daemon.check(&edit.source)?;
        checks += 1;
        out.verdict(
            &format!("daemon {}", edit.kind.name()),
            verify(&reply, &edit.planted),
        );
    }
    daemon.shutdown()?;
    let text = std::fs::read_to_string(&metrics)
        .map_err(|e| format!("read {}: {e}", metrics.display()))?;
    let counters = read_counters(&text);
    let counter = |c: Counter| counters.get(&counter_family(c)).copied().unwrap_or(0.0);
    let layers = &mut pass.layers;
    layers.set(
        "serve.cache_hit_ratio",
        ratio(counter(Counter::CacheHits), checks as f64),
    );
    layers.set("serve.sessions_reused", counter(Counter::SessionsReused));
    layers.set("serve.requests_failed", counter(Counter::RequestsFailed));
    layers.set("serve.requests_shed", counter(Counter::RequestsShed));
    if counter(Counter::RequestsFailed) + counter(Counter::RequestsShed) > 0.0 {
        out.problem("the daemon failed or shed requests".to_string());
    }
    out.detail("daemon_checks", checks.to_string());

    // Second half: the same stream in-process, untraced and traced requests
    // alternating, each side with its own warm store and response cache.
    let mut stream = EditStream::new(args.seed);
    let base = stream.base();
    let (mut plain, mut traced) = (InProcess::new(), InProcess::new());
    plain.handle(&base.source, None)?;
    traced.handle(&base.source, Some((&mut Recorder::new(), 0)))?;
    let (mut replayed, mut reanalyzed, mut report_bytes) = (0u64, 0u64, 0usize);
    let start = Instant::now();
    let mut id = 0u64;
    while start.elapsed() < half || pass.traced_ms.len() < 2 {
        let edit = stream.next_edit();
        id += 1;
        let a = plain.handle(&edit.source, None)?;
        let b = traced.handle(&edit.source, Some((&mut pass.rec, id)))?;
        pass.plain_ms.push(a.ms);
        pass.traced_ms.push(b.ms);
        for (side, h) in [("untraced", &a), ("traced", &b)] {
            out.verdict(
                &format!("{side} {}", edit.kind.name()),
                report::check(&h.json, &edit.planted),
            );
            let (r, n) = h
                .warm
                .as_ref()
                .map_or((0, 0), |w| (w.replayed, w.reanalyzed));
            pass.det
                .record(&id.to_string(), "gcatch.channels_replayed", r as f64);
            pass.det
                .record(&id.to_string(), "gcatch.channels_reanalyzed", n as f64);
        }
        if a.json != b.json {
            out.problem(format!(
                "request {id}: traced and untraced responses differ"
            ));
        }
        if let Some(w) = &b.warm {
            replayed += w.replayed;
            reanalyzed += w.reanalyzed;
        }
        if let Some(instrs) = b.instrs {
            pass.parsed_bytes += edit.source.len();
            pass.ir_size(instrs);
        }
        report_bytes += b.json.len();
    }
    let ops = pass.traced_ms.len() as f64;
    let layers = &mut pass.layers;
    layers.set("gcatch.channels_replayed", replayed as f64 / ops);
    layers.set("gcatch.channels_reanalyzed", reanalyzed as f64 / ops);
    layers.set(
        "gcatch.replay_ratio",
        ratio(replayed as f64, (replayed + reanalyzed) as f64),
    );
    layers.set("gcatch.report_bytes", report_bytes as f64 / ops);
    pass.finish(&mut out, 1, args)?;
    Ok(out)
}
