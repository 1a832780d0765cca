//! The multi-process sweep coordinator: a lease-based on-disk work queue,
//! worker-fleet supervision, and the byte-deterministic journal merge.
//!
//! `gcatch sweep --workers N` scales the PR 4 batch engine from "one
//! machine's cores" to "a fleet of processes": the coordinator materializes
//! the job list as an on-disk [manifest](write_manifest), spawns N
//! `gcatch worker` child processes, and supervises them through plain
//! files — no sockets, no shared memory, every transition crash-safe:
//!
//! * **Leases** ([`try_claim`]): one file per job under `leases/`, created
//!   with `O_EXCL` (`create_new`) so exactly one worker wins a claim. A
//!   lease carries the owner id, a generation (the job's release count at
//!   claim time), and a deadline; owners renew it via atomic
//!   temp-file-plus-rename ([`renew_lease`]).
//! * **Heartbeats**: each worker bumps a counter file under `heartbeats/`;
//!   the coordinator kills and replaces any worker whose counter stalls
//!   past the staleness deadline — a worker that is alive but silent is
//!   indistinguishable from a hung one, so both are culled.
//! * **Re-lease** ([`Coordinator`]): when a lease deadline passes or a
//!   worker dies (including SIGKILL), the job's lease is removed and its
//!   release counter bumped, making it claimable again. A job released
//!   more than `max_releases` times is quarantined by the coordinator
//!   itself, with the coordinator-side flight-recorder postmortem (the
//!   full lease history) attached to the incident.
//! * **Journals**: every worker appends decided jobs to its own PR 4
//!   fsync-per-line [`Journal`] (fingerprinted over the *full* job set),
//!   so any prefix of any worker's work survives any crash.
//! * **Merge** ([`merge_journals`]): after all jobs carry `done/` markers
//!   the coordinator folds every journal into one record set in manifest
//!   order. Because each decision is a pure function of its module (the
//!   per-job engine runs with the same attempt budget, backoff seed, and
//!   fault plan as single-process `gcatch batch`), the merged report is
//!   **byte-identical** to a faultless single-process run. A job decided
//!   by more than one worker (an expired lease re-leased while the
//!   original owner kept working) keeps exactly one record — `Done`
//!   preferred, then lowest worker name — and surfaces a
//!   [`DuplicateDecision`] incident instead of corrupting the report.
//!
//! Directory-entry durability is part of the protocol: every create,
//! rename, and remove under the sweep directory goes through [`durable`],
//! which follows it with an fsync of the containing directory, so a
//! metadata-losing crash cannot orphan a decided job or resurrect a
//! released lease.

use crate::batch::{fingerprint, JobRecord, JobStatus, Journal, JournalCodec};
use crate::diagnostics::{escape_json, json_uint, json_unquote};
use crate::durable;
use crate::events::{Event, EventBus, EventKind, Field, FlightRecorder};
use crate::progress::ProgressSnapshot;
use crate::resilience::{Incident, IncidentKind};
use crate::telemetry::{Counter, Telemetry};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Child;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Exit code a worker uses when the `sweep.worker` fault site fires and
/// the process self-terminates mid-job (a simulated crash, distinguishable
/// from real panics in CI logs).
pub const WORKER_KILL_EXIT: i32 = 17;

/// Milliseconds since the UNIX epoch (lease deadlines; all sweep
/// processes run on one machine, so one clock serves them all).
pub fn now_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

// ---------------------------------------------------------------- layout

/// The on-disk layout of one sweep: fixed subdirectories under a root
/// that coordinator and workers share.
#[derive(Clone, Debug)]
pub struct SweepLayout {
    root: PathBuf,
}

impl SweepLayout {
    /// A layout rooted at `root` (not created yet; see
    /// [`SweepLayout::init`]).
    pub fn new(root: impl Into<PathBuf>) -> SweepLayout {
        SweepLayout { root: root.into() }
    }

    /// The sweep root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The job-list manifest file.
    pub fn manifest_path(&self) -> PathBuf {
        self.root.join("manifest")
    }

    /// Directory of per-job lease files.
    pub fn leases_dir(&self) -> PathBuf {
        self.root.join("leases")
    }

    /// The lease file of one job (by manifest index).
    pub fn lease_path(&self, job: usize) -> PathBuf {
        self.leases_dir().join(format!("{job}.lease"))
    }

    /// Directory of per-worker heartbeat counter files.
    pub fn heartbeats_dir(&self) -> PathBuf {
        self.root.join("heartbeats")
    }

    /// One worker's heartbeat file.
    pub fn heartbeat_path(&self, worker: &str) -> PathBuf {
        self.heartbeats_dir().join(format!("{worker}.hb"))
    }

    /// Directory of per-worker decision journals.
    pub fn journals_dir(&self) -> PathBuf {
        self.root.join("journals")
    }

    /// One worker's journal file.
    pub fn journal_path(&self, worker: &str) -> PathBuf {
        self.journals_dir().join(format!("{worker}.jsonl"))
    }

    /// Directory of per-job done markers.
    pub fn done_dir(&self) -> PathBuf {
        self.root.join("done")
    }

    /// One job's done marker.
    pub fn done_path(&self, job: usize) -> PathBuf {
        self.done_dir().join(job.to_string())
    }

    /// Directory of per-job release counters.
    pub fn releases_dir(&self) -> PathBuf {
        self.root.join("releases")
    }

    /// One job's release-counter file.
    pub fn release_path(&self, job: usize) -> PathBuf {
        self.releases_dir().join(job.to_string())
    }

    /// Directory of per-worker pid files.
    pub fn pids_dir(&self) -> PathBuf {
        self.root.join("pids")
    }

    /// One worker's pid file.
    pub fn pid_path(&self, worker: &str) -> PathBuf {
        self.pids_dir().join(format!("{worker}.pid"))
    }

    /// The shutdown marker: its existence tells workers to drain and exit.
    pub fn shutdown_path(&self) -> PathBuf {
        self.root.join("shutdown")
    }

    /// Creates the whole directory tree and makes it durable.
    pub fn init(&self) -> std::io::Result<()> {
        for dir in [
            self.root.clone(),
            self.leases_dir(),
            self.heartbeats_dir(),
            self.journals_dir(),
            self.done_dir(),
            self.releases_dir(),
            self.pids_dir(),
        ] {
            durable::create_dir_all(&dir)?;
        }
        Ok(())
    }
}

// -------------------------------------------------------------- manifest

/// Magic key of the manifest header line.
const MANIFEST_MAGIC: &str = "gcatch_sweep_manifest";
/// Manifest format version.
const MANIFEST_VERSION: u64 = 1;

/// Writes the job list as the sweep manifest (atomically): a fingerprinted
/// header line followed by one JSON string per job id, in submission
/// order. Workers reconstruct the job list — and thus every job's index
/// and journal fingerprint — from this file alone.
pub fn write_manifest(layout: &SweepLayout, ids: &[String]) -> std::io::Result<()> {
    let mut out = format!(
        "{{\"{MANIFEST_MAGIC}\":{MANIFEST_VERSION},\"jobs\":{},\"fingerprint\":\"{}\"}}\n",
        ids.len(),
        fingerprint(ids)
    );
    for id in ids {
        out.push('"');
        escape_json(id, &mut out);
        out.push_str("\"\n");
    }
    durable::replace(&layout.manifest_path(), out)
}

/// Reads and validates the manifest, returning the job ids in submission
/// order.
pub fn read_manifest(layout: &SweepLayout) -> Result<Vec<String>, String> {
    let path = layout.manifest_path();
    let manifest = durable::read_log(&path, |line| match json_unquote(line)? {
        (id, "") => Some(id),
        _ => None,
    })
    .map_err(|e| format!("cannot read manifest {}: {e}", path.display()))?;
    let header = manifest.header.unwrap_or_default();
    if !header.starts_with(&format!("{{\"{MANIFEST_MAGIC}\":")) {
        return Err(format!("{} is not a gcatch sweep manifest", path.display()));
    }
    // Written by one atomic replace, so any damage is tampering.
    if manifest.skipped > 0 || manifest.torn {
        return Err(format!("malformed manifest line in {}", path.display()));
    }
    if !header.contains(&format!(
        "\"fingerprint\":\"{}\"",
        fingerprint(&manifest.records)
    )) {
        return Err(format!(
            "manifest {} fingerprint does not match its job list",
            path.display()
        ));
    }
    Ok(manifest.records)
}

// ---------------------------------------------------------------- leases

/// The parsed contents of one lease file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Lease {
    /// The leased job's manifest index.
    pub job: usize,
    /// The owning worker's id.
    pub worker: String,
    /// The job's release count at claim time. Re-leases bump it, so fault
    /// decisions keyed on the generation decorrelate across re-runs.
    pub generation: u64,
    /// Epoch-milliseconds deadline; the coordinator releases the job once
    /// this passes un-renewed.
    pub deadline_ms: u64,
}

impl Lease {
    fn render(&self) -> String {
        let mut out = format!("{{\"job\":{},\"worker\":\"", self.job);
        escape_json(&self.worker, &mut out);
        out.push_str(&format!(
            "\",\"generation\":{},\"deadline_ms\":{}}}\n",
            self.generation, self.deadline_ms
        ));
        out
    }

    fn parse(text: &str) -> Option<Lease> {
        let (job, rest) = json_uint(text.trim_end().strip_prefix("{\"job\":")?)?;
        let (worker, rest) = json_unquote(rest.strip_prefix(",\"worker\":")?)?;
        let (generation, rest) = json_uint(rest.strip_prefix(",\"generation\":")?)?;
        let (deadline_ms, rest) = json_uint(rest.strip_prefix(",\"deadline_ms\":")?)?;
        rest.strip_prefix('}')?;
        Some(Lease {
            job,
            worker,
            generation,
            deadline_ms,
        })
    }
}

/// Attempts to claim a job by creating its lease file with
/// [`durable::create_new`] (`O_EXCL`) — the filesystem arbitrates, so
/// exactly one claimant wins. Returns `false` when the lease already
/// exists, or when `generation` went stale before the claim landed: a
/// release bumps the job's count *before* it removes the lease, so a
/// claimant that read the count before that bump finds it changed once
/// its create succeeds, and gives the lease straight back.
pub fn try_claim(
    layout: &SweepLayout,
    job: usize,
    worker: &str,
    generation: u64,
    ttl: Duration,
) -> std::io::Result<bool> {
    let lease = Lease {
        job,
        worker: worker.to_string(),
        generation,
        deadline_ms: now_ms() + ttl.as_millis() as u64,
    };
    if !durable::create_new(&layout.lease_path(job), lease.render())? {
        return Ok(false);
    }
    if release_count(layout, job) != generation {
        if read_lease(layout, job).as_ref() == Some(&lease) {
            remove_lease(layout, job)?;
        }
        return Ok(false);
    }
    Ok(true)
}

/// Reads a job's current lease, if any (unparseable contents read as
/// `None` — a torn write is treated like no lease and expires naturally).
pub fn read_lease(layout: &SweepLayout, job: usize) -> Option<Lease> {
    let text = std::fs::read_to_string(layout.lease_path(job)).ok()?;
    Lease::parse(&text)
}

/// Pushes a lease's deadline forward, but only while `worker` still owns
/// it at the same generation (an expired-and-re-leased job must not be
/// resurrected by its previous owner). Returns whether the lease was
/// renewed.
pub fn renew_lease(
    layout: &SweepLayout,
    job: usize,
    worker: &str,
    generation: u64,
    ttl: Duration,
) -> std::io::Result<bool> {
    match read_lease(layout, job) {
        Some(cur) if cur.worker == worker && cur.generation == generation => {
            let renewed = Lease {
                deadline_ms: now_ms() + ttl.as_millis() as u64,
                ..cur
            };
            durable::replace(&layout.lease_path(job), renewed.render())?;
            Ok(true)
        }
        _ => Ok(false),
    }
}

/// Removes a job's lease file (idempotent) and makes the removal durable.
pub fn remove_lease(layout: &SweepLayout, job: usize) -> std::io::Result<()> {
    durable::remove(&layout.lease_path(job))
}

/// A job's release count: how many times its lease was revoked and the
/// job made claimable again. Doubles as the generation of the next claim.
pub fn release_count(layout: &SweepLayout, job: usize) -> u64 {
    std::fs::read_to_string(layout.release_path(job))
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(0)
}

/// Increments a job's release counter durably and returns the new count.
pub fn bump_release_count(layout: &SweepLayout, job: usize) -> std::io::Result<u64> {
    let next = release_count(layout, job) + 1;
    durable::replace(&layout.release_path(job), format!("{next}\n"))?;
    Ok(next)
}

// --------------------------------------------------------------- markers

/// Durably marks a job decided (idempotent: a concurrent duplicate
/// decision racing to the same marker is fine — the merge deduplicates).
pub fn mark_done(layout: &SweepLayout, job: usize) -> std::io::Result<()> {
    durable::create_new(&layout.done_path(job), "").map(|_| ())
}

/// Whether a job carries a done marker.
pub fn is_done(layout: &SweepLayout, job: usize) -> bool {
    layout.done_path(job).exists()
}

/// Writes the shutdown marker; workers drain and exit once they see it.
pub fn request_shutdown(layout: &SweepLayout) -> std::io::Result<()> {
    durable::replace(&layout.shutdown_path(), "shutdown\n")
}

/// Whether the shutdown marker exists.
pub fn shutdown_requested(layout: &SweepLayout) -> bool {
    layout.shutdown_path().exists()
}

// ----------------------------------------------------------------- merge

/// One job that was decided by more than one worker.
#[derive(Clone, Debug)]
pub struct DuplicateDecision {
    /// The job id.
    pub job: String,
    /// Every worker that journaled a decision, in merge-preference order
    /// (the first one's record was kept).
    pub workers: Vec<String>,
    /// Whether all decisions agreed byte-for-byte (status, attempts,
    /// payload, and incident message all equal). Disagreement means the
    /// decision was not a pure function of the job — worth investigating.
    pub agreed: bool,
}

impl DuplicateDecision {
    /// Renders the collision as a structured [`Incident`].
    pub fn incident(&self) -> Incident {
        Incident {
            kind: IncidentKind::DuplicateDecision,
            name: self.job.clone(),
            message: format!(
                "decided by {} workers ({}); kept {}'s record ({})",
                self.workers.len(),
                self.workers.join(", "),
                self.workers[0],
                if self.agreed {
                    "all decisions agreed"
                } else {
                    "decisions DISAGREED"
                }
            ),
            rung: 0,
            flight: Vec::new(),
        }
    }
}

/// Everything [`merge_journals`] produced.
#[derive(Debug)]
pub struct MergeOutcome {
    /// One record per manifest job, in manifest order.
    pub records: Vec<JobRecord<String>>,
    /// Jobs decided by more than one worker (exactly one record kept).
    pub duplicates: Vec<DuplicateDecision>,
    /// Jobs with no journaled decision anywhere (a supervision bug —
    /// the coordinator only merges once every job carries a done marker).
    pub missing: Vec<String>,
}

/// Rank used to pick the kept record among duplicates: `Done` beats
/// `Quarantined` (a completed decision is never shadowed by a give-up),
/// ties broken by worker name — both orderings are stable across runs.
fn dedup_rank(status: JobStatus) -> u8 {
    match status {
        JobStatus::Done | JobStatus::Resumed => 0,
        JobStatus::Quarantined => 1,
    }
}

/// Folds every worker journal under `journals/` into one record set in
/// manifest order. Journals are read without modification, through the
/// same recovery pass as `--resume` ([`Journal::read_records`]: a torn
/// tail is dropped, an unparseable line skipped); each must carry the full
/// job set's fingerprint. Journals are created with their header in one
/// atomic step, so a worker killed at any point leaves either no journal
/// or a readable one.
pub fn merge_journals(
    layout: &SweepLayout,
    ids: &[String],
    codec: &JournalCodec<String>,
) -> Result<MergeOutcome, String> {
    let dir = layout.journals_dir();
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .map_err(|e| format!("cannot list journals in {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "jsonl"))
        .collect();
    paths.sort();

    let mut by_job: BTreeMap<&str, Vec<(String, JobRecord<String>)>> = BTreeMap::new();
    for path in &paths {
        let worker = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        let records = Journal::read_records(path, ids, codec)?;
        for rec in records {
            by_job
                .entry(
                    ids.iter()
                        .find(|id| **id == rec.id)
                        .map(|id| id.as_str())
                        .unwrap_or(""),
                )
                .or_default()
                .push((worker.clone(), rec));
        }
    }

    let mut records = Vec::with_capacity(ids.len());
    let mut duplicates = Vec::new();
    let mut missing = Vec::new();
    for id in ids {
        let Some(mut candidates) = by_job.remove(id.as_str()) else {
            missing.push(id.clone());
            continue;
        };
        // Files were visited in sorted order, so a stable sort by
        // (status rank, worker) is fully deterministic.
        candidates.sort_by(|a, b| {
            (dedup_rank(a.1.status), a.0.as_str()).cmp(&(dedup_rank(b.1.status), b.0.as_str()))
        });
        if candidates.len() > 1 {
            let first = &candidates[0].1;
            let agreed = candidates.iter().all(|(_, rec)| {
                rec.status == first.status
                    && rec.attempts == first.attempts
                    && rec.payload == first.payload
                    && rec.incident.as_ref().map(|i| &i.message)
                        == first.incident.as_ref().map(|i| &i.message)
            });
            duplicates.push(DuplicateDecision {
                job: id.clone(),
                workers: candidates.iter().map(|(w, _)| w.clone()).collect(),
                agreed,
            });
        }
        records.push(candidates.into_iter().next().expect("non-empty").1);
    }
    Ok(MergeOutcome {
        records,
        duplicates,
        missing,
    })
}

// ----------------------------------------------------------- coordinator

/// Sweep coordinator configuration.
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// Worker processes to keep alive (clamped to at least 1).
    pub workers: usize,
    /// Lease time-to-live; owners renew at a fraction of this, and the
    /// coordinator releases jobs whose lease deadline passes un-renewed.
    pub lease: Duration,
    /// Releases a job may survive before the coordinator quarantines it.
    pub max_releases: u64,
    /// Coordinator supervision tick.
    pub poll: Duration,
    /// Heartbeat staleness: a worker whose counter has not changed for
    /// this long is killed and replaced.
    pub stale_after: Duration,
}

impl Default for SweepConfig {
    fn default() -> SweepConfig {
        let lease = Duration::from_millis(1_000);
        SweepConfig {
            workers: 4,
            lease,
            max_releases: 3,
            poll: Duration::from_millis(15),
            stale_after: lease * 4,
        }
    }
}

/// Everything a finished sweep produced.
#[derive(Debug)]
pub struct SweepOutcome {
    /// The merged record set (manifest order) plus duplicate incidents.
    pub merge: MergeOutcome,
    /// Worker processes spawned (initial fleet + replacements).
    pub workers_spawned: u64,
    /// Worker processes declared dead.
    pub workers_lost: u64,
    /// Leases whose deadline passed un-renewed.
    pub leases_expired: u64,
    /// Job releases (lease expiry + worker death combined).
    pub jobs_releases: u64,
    /// True when the sweep was wound down early by SIGINT/SIGTERM: the
    /// shutdown marker was written, workers drained after their current
    /// job, every decided job was merged, and the jobs that never got a
    /// decision are listed in `merge.missing` (a later sweep over the same
    /// directory picks them up).
    pub interrupted: bool,
    /// Jobs quarantined by the coordinator after exhausting the re-lease
    /// budget (already included in the merged records).
    pub coordinator_quarantined: u64,
}

/// One supervised worker process.
struct WorkerProc {
    name: String,
    child: Child,
    hb_value: Option<u64>,
    hb_changed: Instant,
}

/// The sweep coordinator. Spawning is delegated to a caller closure so
/// the CLI decides the exact command line; everything else — supervision,
/// re-leasing, quarantining, merging — lives here.
pub struct Coordinator<'t> {
    layout: SweepLayout,
    ids: Vec<String>,
    config: SweepConfig,
    telemetry: &'t Telemetry,
    bus: Option<&'t EventBus>,
    #[allow(clippy::type_complexity)]
    progress: Option<(Box<dyn Fn(&ProgressSnapshot) + 't>, Duration)>,
}

impl<'t> Coordinator<'t> {
    /// A coordinator over an initialized layout and manifest job list.
    pub fn new(
        layout: SweepLayout,
        ids: Vec<String>,
        config: SweepConfig,
        telemetry: &'t Telemetry,
    ) -> Coordinator<'t> {
        Coordinator {
            layout,
            ids,
            config,
            telemetry,
            bus: None,
            progress: None,
        }
    }

    /// Attaches a structured event bus for worker-lifecycle and lease
    /// events.
    pub fn with_events(mut self, bus: &'t EventBus) -> Self {
        self.bus = Some(bus);
        self
    }

    /// Attaches a live progress callback, invoked at most once per
    /// `every` (plus once at start and end).
    pub fn with_progress(
        mut self,
        callback: impl Fn(&ProgressSnapshot) + 't,
        every: Duration,
    ) -> Self {
        self.progress = Some((Box::new(callback), every));
        self
    }

    fn emit(
        &self,
        kind: EventKind,
        group: u64,
        job: Option<&str>,
        fields: Vec<(&'static str, Field)>,
    ) {
        if let Some(bus) = self.bus {
            bus.emit(Event {
                kind,
                group,
                job: job.map(|j| j.to_string()),
                attempt: None,
                channel: None,
                fields,
            });
        }
    }

    /// Runs the sweep to completion: spawns the fleet via `spawn`,
    /// supervises it until every job carries a done marker, then merges
    /// the journals.
    pub fn run(
        &self,
        mut spawn: impl FnMut(&str) -> std::io::Result<Child>,
    ) -> Result<SweepOutcome, String> {
        let n = self.ids.len();
        let codec = JournalCodec::raw_json();
        let coordinator_journal =
            Journal::create(&self.layout.journal_path("coordinator"), &self.ids)
                .map_err(|e| format!("cannot create coordinator journal: {e}"))?;
        let flights: Vec<FlightRecorder> = (0..n).map(|_| FlightRecorder::new()).collect();
        let mut fleet: Vec<WorkerProc> = Vec::new();
        let mut next_worker = 0usize;
        let mut stats = SweepOutcome {
            merge: MergeOutcome {
                records: Vec::new(),
                duplicates: Vec::new(),
                missing: Vec::new(),
            },
            workers_spawned: 0,
            workers_lost: 0,
            leases_expired: 0,
            jobs_releases: 0,
            interrupted: false,
            coordinator_quarantined: 0,
        };
        // Highest lease generation already announced per job, so each
        // claim is reported once.
        let mut announced: Vec<Option<u64>> = vec![None; n];
        let mut last_progress = Instant::now() - self.config.poll;

        // The full fleet spawns even when it outnumbers the jobs: surplus
        // workers idle-poll, and that idle capacity is exactly what picks
        // up a re-leased job while its original owner is still working.
        let initial = self.config.workers.max(1);
        for _ in 0..initial {
            self.spawn_worker(&mut spawn, &mut fleet, &mut next_worker, &mut stats)?;
        }
        self.emit_progress(n, &stats, &mut last_progress, true);
        crate::signals::install_shutdown_handler();

        loop {
            // Ctrl-C / SIGTERM: stop supervising (no more respawns or
            // re-leases), hand the fleet the shutdown marker below, and
            // merge whatever was decided.
            if crate::signals::shutdown_signaled() {
                stats.interrupted = true;
                break;
            }
            let done = (0..n).filter(|&j| is_done(&self.layout, j)).count();
            self.emit_progress(n, &stats, &mut last_progress, false);
            if done == n {
                break;
            }

            // Reap exited workers. A clean exit means the worker saw all
            // jobs decided (or drained); anything else is a loss.
            let mut lost: Vec<String> = Vec::new();
            fleet.retain_mut(|w| match w.child.try_wait() {
                Ok(Some(status)) if status.success() => false,
                Ok(Some(_)) => {
                    lost.push(w.name.clone());
                    false
                }
                Ok(None) => true,
                Err(_) => {
                    lost.push(w.name.clone());
                    false
                }
            });

            // Cull silent workers: a stalled heartbeat counter past the
            // staleness deadline gets the process killed (it may still be
            // running — SIGKILL it so its leases can be re-issued safely).
            let mut idx = 0;
            while idx < fleet.len() {
                let w = &mut fleet[idx];
                let hb = std::fs::read_to_string(self.layout.heartbeat_path(&w.name))
                    .ok()
                    .and_then(|s| s.trim().parse::<u64>().ok());
                if hb.is_some() && hb != w.hb_value {
                    w.hb_value = hb;
                    w.hb_changed = Instant::now();
                    idx += 1;
                } else if w.hb_changed.elapsed() > self.config.stale_after {
                    let _ = w.child.kill();
                    let _ = w.child.wait();
                    let mut w = fleet.remove(idx);
                    let _ = w.child.wait();
                    lost.push(w.name);
                } else {
                    idx += 1;
                }
            }

            for name in lost {
                self.telemetry.add(Counter::WorkersLost, 1);
                stats.workers_lost += 1;
                self.emit(
                    EventKind::WorkerLost,
                    0,
                    None,
                    vec![("worker", Field::Str(name.clone()))],
                );
                // Free every lease the dead worker still held.
                for job in 0..n {
                    if is_done(&self.layout, job) {
                        continue;
                    }
                    if let Some(lease) = read_lease(&self.layout, job) {
                        if lease.worker == name {
                            flights[job].push(format!(
                                "worker {} lost while holding lease (generation {})",
                                name, lease.generation
                            ));
                            self.release_job(
                                job,
                                &flights,
                                &coordinator_journal,
                                &codec,
                                &mut stats,
                            )?;
                        }
                    }
                }
                self.spawn_worker(&mut spawn, &mut fleet, &mut next_worker, &mut stats)?;
            }

            // Lease scan: announce new claims, expire stale deadlines.
            let now = now_ms();
            for job in 0..n {
                if is_done(&self.layout, job) {
                    continue;
                }
                let Some(lease) = read_lease(&self.layout, job) else {
                    continue;
                };
                if announced[job] < Some(lease.generation + 1) {
                    announced[job] = Some(lease.generation + 1);
                    flights[job].push(format!(
                        "leased by {} (generation {})",
                        lease.worker, lease.generation
                    ));
                    self.emit(
                        EventKind::JobLeased,
                        job as u64,
                        Some(&self.ids[job]),
                        vec![
                            ("worker", Field::Str(lease.worker.clone())),
                            ("generation", Field::U64(lease.generation)),
                        ],
                    );
                }
                if lease.deadline_ms < now {
                    self.telemetry.add(Counter::LeasesExpired, 1);
                    stats.leases_expired += 1;
                    flights[job].push(format!(
                        "lease expired (owner {}, generation {})",
                        lease.worker, lease.generation
                    ));
                    self.emit(
                        EventKind::LeaseExpired,
                        job as u64,
                        Some(&self.ids[job]),
                        vec![
                            ("worker", Field::Str(lease.worker.clone())),
                            ("generation", Field::U64(lease.generation)),
                        ],
                    );
                    self.release_job(job, &flights, &coordinator_journal, &codec, &mut stats)?;
                }
            }

            // The fleet must never drain while jobs remain undecided.
            if fleet.is_empty() {
                self.spawn_worker(&mut spawn, &mut fleet, &mut next_worker, &mut stats)?;
            }

            std::thread::sleep(self.config.poll);
        }

        let _ = request_shutdown(&self.layout);
        let grace = Instant::now();
        for w in &mut fleet {
            // Workers exit on their own once every job is done; give them
            // a moment, then insist.
            loop {
                match w.child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if grace.elapsed() > Duration::from_secs(5) => {
                        let _ = w.child.kill();
                        let _ = w.child.wait();
                        break;
                    }
                    Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                    Err(_) => break,
                }
            }
        }

        if stats.interrupted {
            // Every worker is reaped by now; their pid files and any lease
            // they still held are stale. Remove both so nothing points at
            // dead processes and a later sweep over this directory starts
            // from a clean queue.
            if let Ok(entries) = std::fs::read_dir(self.layout.pids_dir()) {
                for entry in entries.flatten() {
                    let _ = durable::remove(&entry.path());
                }
            }
            for job in 0..n {
                if !is_done(&self.layout, job) && read_lease(&self.layout, job).is_some() {
                    let _ = remove_lease(&self.layout, job);
                }
            }
        }

        stats.merge = merge_journals(&self.layout, &self.ids, &codec)?;
        if !stats.merge.missing.is_empty() && !stats.interrupted {
            return Err(format!(
                "sweep finished with undecided jobs: {}",
                stats.merge.missing.join(", ")
            ));
        }
        for dup in &stats.merge.duplicates {
            self.emit(
                EventKind::DuplicateDecision,
                self.ids.iter().position(|id| *id == dup.job).unwrap_or(0) as u64,
                Some(&dup.job),
                vec![
                    ("workers", Field::U64(dup.workers.len() as u64)),
                    ("agreed", Field::Bool(dup.agreed)),
                ],
            );
        }
        self.telemetry.add(Counter::JobsTotal, n as u64);
        let quarantined = stats
            .merge
            .records
            .iter()
            .filter(|r| r.status == JobStatus::Quarantined)
            .count() as u64;
        if quarantined > 0 {
            self.telemetry.add(Counter::JobsQuarantined, quarantined);
        }
        self.emit_progress(n, &stats, &mut last_progress, true);
        Ok(stats)
    }

    fn spawn_worker(
        &self,
        spawn: &mut impl FnMut(&str) -> std::io::Result<Child>,
        fleet: &mut Vec<WorkerProc>,
        next_worker: &mut usize,
        stats: &mut SweepOutcome,
    ) -> Result<(), String> {
        let name = format!("w{}", *next_worker);
        *next_worker += 1;
        let child = spawn(&name).map_err(|e| format!("cannot spawn worker {name}: {e}"))?;
        self.telemetry.add(Counter::WorkersSpawned, 1);
        stats.workers_spawned += 1;
        self.emit(
            EventKind::WorkerSpawned,
            0,
            None,
            vec![("worker", Field::Str(name.clone()))],
        );
        fleet.push(WorkerProc {
            name,
            child,
            hb_value: None,
            hb_changed: Instant::now(),
        });
        Ok(())
    }

    /// Revokes a job's lease and makes it claimable again; a job past the
    /// re-lease budget is quarantined by the coordinator instead, with the
    /// coordinator-side lease history as the postmortem.
    fn release_job(
        &self,
        job: usize,
        flights: &[FlightRecorder],
        coordinator_journal: &Journal,
        codec: &JournalCodec<String>,
        stats: &mut SweepOutcome,
    ) -> Result<(), String> {
        // Bump before removing: a claim that lands after the removal then
        // sees the new count, so it can never run at the old generation.
        let count = bump_release_count(&self.layout, job)
            .map_err(|e| format!("cannot bump release count for job {job}: {e}"))?;
        remove_lease(&self.layout, job)
            .map_err(|e| format!("cannot remove lease for job {job}: {e}"))?;
        self.telemetry.add(Counter::JobsReleases, 1);
        stats.jobs_releases += 1;
        flights[job].push(format!("released back to the queue (release #{count})"));
        self.emit(
            EventKind::JobReleased,
            job as u64,
            Some(&self.ids[job]),
            vec![("releases", Field::U64(count))],
        );
        if count > self.config.max_releases && !is_done(&self.layout, job) {
            let message = format!(
                "released {count} times (re-lease budget {}); giving up",
                self.config.max_releases
            );
            flights[job].push(format!("quarantined by coordinator: {message}"));
            let rec = JobRecord {
                id: self.ids[job].clone(),
                status: JobStatus::Quarantined,
                attempts: count as u32,
                payload: None,
                incident: Some(Incident {
                    kind: IncidentKind::Quarantined,
                    name: self.ids[job].clone(),
                    message: message.clone(),
                    rung: 0,
                    flight: flights[job].dump(),
                }),
                wall: Duration::ZERO,
            };
            coordinator_journal
                .record(&rec, codec)
                .map_err(|e| format!("cannot journal coordinator quarantine: {e}"))?;
            mark_done(&self.layout, job).map_err(|e| format!("cannot mark job {job} done: {e}"))?;
            stats.coordinator_quarantined += 1;
            self.emit(
                EventKind::JobQuarantined,
                job as u64,
                Some(&self.ids[job]),
                vec![
                    ("releases", Field::U64(count)),
                    ("error", Field::Str(message)),
                ],
            );
        }
        Ok(())
    }

    fn emit_progress(&self, total: usize, stats: &SweepOutcome, last: &mut Instant, force: bool) {
        let Some((callback, every)) = &self.progress else {
            return;
        };
        if !force && last.elapsed() < *every {
            return;
        }
        *last = Instant::now();
        let done = (0..total).filter(|&j| is_done(&self.layout, j)).count();
        callback(&ProgressSnapshot {
            sweep: true,
            total,
            done,
            quarantined: stats.coordinator_quarantined,
            released: stats.jobs_releases,
            workers_lost: stats.workers_lost,
            ..ProgressSnapshot::default()
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn scratch(name: &str) -> SweepLayout {
        let root = std::env::temp_dir().join(format!(
            "gcatch-sweep-{name}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&root).ok();
        let layout = SweepLayout::new(root);
        layout.init().unwrap();
        layout
    }

    fn cleanup(layout: &SweepLayout) {
        std::fs::remove_dir_all(layout.root()).ok();
    }

    #[test]
    fn manifest_round_trips_with_escaping() {
        let layout = scratch("manifest");
        let ids = vec![
            "examples/a.go".to_string(),
            "weird \"name\"\nwith newline.go".to_string(),
        ];
        write_manifest(&layout, &ids).unwrap();
        assert_eq!(read_manifest(&layout).unwrap(), ids);
        cleanup(&layout);
    }

    #[test]
    fn manifest_rejects_tampered_job_lists() {
        let layout = scratch("manifest-tamper");
        let ids = vec!["a.go".to_string(), "b.go".to_string()];
        write_manifest(&layout, &ids).unwrap();
        // Drop a job line: the fingerprint no longer matches.
        let text = std::fs::read_to_string(layout.manifest_path()).unwrap();
        let truncated: String = text.lines().take(2).map(|l| format!("{l}\n")).collect();
        std::fs::write(layout.manifest_path(), truncated).unwrap();
        let err = read_manifest(&layout).unwrap_err();
        assert!(err.contains("fingerprint"), "{err}");
        cleanup(&layout);
    }

    #[test]
    fn claims_are_mutually_exclusive_until_released() {
        let layout = scratch("claims");
        let ttl = Duration::from_secs(60);
        assert!(try_claim(&layout, 0, "w0", 0, ttl).unwrap());
        assert!(!try_claim(&layout, 0, "w1", 0, ttl).unwrap(), "O_EXCL lost");
        let lease = read_lease(&layout, 0).unwrap();
        assert_eq!(lease.worker, "w0");
        assert_eq!(lease.generation, 0);
        assert!(lease.deadline_ms > now_ms());

        let gen = bump_release_count(&layout, 0).unwrap();
        remove_lease(&layout, 0).unwrap();
        assert_eq!(gen, 1);
        // A claimant that read the count before the release's bump holds
        // a stale generation: its claim is refused and leaves no lease.
        assert!(!try_claim(&layout, 0, "w2", 0, ttl).unwrap());
        assert!(read_lease(&layout, 0).is_none());
        assert!(try_claim(&layout, 0, "w1", gen, ttl).unwrap());
        assert_eq!(read_lease(&layout, 0).unwrap().worker, "w1");
        cleanup(&layout);
    }

    #[test]
    fn renew_only_works_for_the_current_owner_and_generation() {
        let layout = scratch("renew");
        let ttl = Duration::from_millis(100);
        assert!(try_claim(&layout, 3, "w0", 0, ttl).unwrap());
        let before = read_lease(&layout, 3).unwrap().deadline_ms;
        std::thread::sleep(Duration::from_millis(5));
        assert!(renew_lease(&layout, 3, "w0", 0, ttl).unwrap());
        assert!(read_lease(&layout, 3).unwrap().deadline_ms >= before);
        // A stranger, or the owner at a stale generation, cannot renew.
        assert!(!renew_lease(&layout, 3, "w1", 0, ttl).unwrap());
        assert!(!renew_lease(&layout, 3, "w0", 1, ttl).unwrap());
        // After release + re-claim, the old owner cannot resurrect it.
        remove_lease(&layout, 3).unwrap();
        bump_release_count(&layout, 3).unwrap();
        assert!(try_claim(&layout, 3, "w1", 1, ttl).unwrap());
        assert!(!renew_lease(&layout, 3, "w0", 0, ttl).unwrap());
        cleanup(&layout);
    }

    #[test]
    fn done_markers_and_shutdown_are_idempotent() {
        let layout = scratch("markers");
        assert!(!is_done(&layout, 2));
        mark_done(&layout, 2).unwrap();
        mark_done(&layout, 2).unwrap();
        assert!(is_done(&layout, 2));
        assert!(!shutdown_requested(&layout));
        request_shutdown(&layout).unwrap();
        assert!(shutdown_requested(&layout));
        cleanup(&layout);
    }

    fn record(
        id: &str,
        status: JobStatus,
        attempts: u32,
        payload: Option<&str>,
    ) -> JobRecord<String> {
        JobRecord {
            id: id.to_string(),
            status,
            attempts,
            payload: payload.map(|p| p.to_string()),
            incident: (status == JobStatus::Quarantined).then(|| Incident {
                kind: IncidentKind::Quarantined,
                name: id.to_string(),
                message: "gave up".to_string(),
                rung: 0,
                flight: Vec::new(),
            }),
            wall: Duration::ZERO,
        }
    }

    #[test]
    fn merge_dedups_deterministically_and_reports_duplicates() {
        let layout = scratch("merge");
        let ids: Vec<String> = ["a", "b", "c"].iter().map(|s| s.to_string()).collect();
        let codec = JournalCodec::raw_json();

        let j0 = Journal::create(&layout.journal_path("w0"), &ids).unwrap();
        j0.record(
            &record("a", JobStatus::Done, 1, Some("{\"m\":\"a\"}")),
            &codec,
        )
        .unwrap();
        j0.record(
            &record("b", JobStatus::Done, 2, Some("{\"m\":\"b\"}")),
            &codec,
        )
        .unwrap();
        let j1 = Journal::create(&layout.journal_path("w1"), &ids).unwrap();
        // Duplicate decision for `b` (identical bytes) and a quarantine
        // for `c` that a later Done from w2 must shadow.
        j1.record(
            &record("b", JobStatus::Done, 2, Some("{\"m\":\"b\"}")),
            &codec,
        )
        .unwrap();
        j1.record(&record("c", JobStatus::Quarantined, 3, None), &codec)
            .unwrap();
        let j2 = Journal::create(&layout.journal_path("w2"), &ids).unwrap();
        j2.record(
            &record("c", JobStatus::Done, 1, Some("{\"m\":\"c\"}")),
            &codec,
        )
        .unwrap();

        let merge = merge_journals(&layout, &ids, &codec).unwrap();
        assert!(merge.missing.is_empty());
        assert_eq!(merge.records.len(), 3);
        assert_eq!(
            merge
                .records
                .iter()
                .map(|r| r.id.as_str())
                .collect::<Vec<_>>(),
            vec!["a", "b", "c"],
            "manifest order"
        );
        // `c`: Done beats Quarantined regardless of worker order.
        assert_eq!(merge.records[2].status, JobStatus::Done);
        assert_eq!(merge.records[2].payload.as_deref(), Some("{\"m\":\"c\"}"));
        assert_eq!(merge.duplicates.len(), 2);
        let dup_b = merge.duplicates.iter().find(|d| d.job == "b").unwrap();
        assert!(dup_b.agreed);
        assert_eq!(dup_b.workers, vec!["w0", "w1"]);
        let dup_c = merge.duplicates.iter().find(|d| d.job == "c").unwrap();
        assert!(!dup_c.agreed, "Done vs Quarantined disagree");
        assert_eq!(dup_c.workers[0], "w2", "the kept record's worker leads");
        let incident = dup_c.incident();
        assert_eq!(incident.kind, IncidentKind::DuplicateDecision);
        assert!(incident.message.contains("w2"), "{}", incident.message);
        cleanup(&layout);
    }

    #[test]
    fn merge_reports_missing_jobs() {
        let layout = scratch("merge-missing");
        let ids: Vec<String> = ["a", "b"].iter().map(|s| s.to_string()).collect();
        let codec = JournalCodec::raw_json();
        let j0 = Journal::create(&layout.journal_path("w0"), &ids).unwrap();
        j0.record(&record("a", JobStatus::Done, 1, Some("1")), &codec)
            .unwrap();
        let merge = merge_journals(&layout, &ids, &codec).unwrap();
        assert_eq!(merge.missing, vec!["b".to_string()]);
        cleanup(&layout);
    }

    #[test]
    fn lease_render_parse_round_trips() {
        let lease = Lease {
            job: 42,
            worker: "w\"7\"".to_string(),
            generation: 3,
            deadline_ms: 1_723_000_000_123,
        };
        assert_eq!(Lease::parse(&lease.render()).unwrap(), lease);
        assert!(Lease::parse("garbage").is_none());
        assert!(Lease::parse("{\"job\":1,\"worker\":\"w0\"").is_none());
    }
}
