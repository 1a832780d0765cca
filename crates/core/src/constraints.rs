//! The BMOC constraint system (§3.4 of the paper).
//!
//! Given one path combination, this module builds a **guarded** encoding of
//! `Φ = ΦR ∧ ΦB` over the [`minismt`] constraint language, shared by every
//! suspicious-group query on that combination:
//!
//! * every event gets an order variable `O`, a guard `kept` (the event
//!   executes in this scenario), and — for blockable events — a guard `blk`
//!   (the event is a member of the blocking group). `part = kept ∧ ¬blk`
//!   selects the events that participate in matching and channel-state
//!   counters;
//! * `Φorder` chains each goroutine's events; `Φspawn` orders `go`
//!   statements before the child's first event (guarded by the child's
//!   first event being kept);
//! * each cross-goroutine (send, recv) occurrence pair on the same primitive
//!   gets a match variable `P(s, r)` implying participation of both ends and
//!   `O_s = O_r`;
//! * the channel-state counters are pseudo-boolean sums over auxiliary
//!   variables `q ⇔ part ∧ O_o < at`: `CB` = number of participating sends
//!   ordered before `at` minus receives, and `CLOSED` ⇔ some participating
//!   close is ordered before `at`;
//! * `ΦR` (reachability) asserts every participating operation proceeds: a
//!   send needs buffer room or exactly one match, a receive needs a buffered
//!   element, a close, or exactly one match;
//! * `ΦB` (blocking) asserts every `blk` operation blocks and is ordered
//!   after every participating event.
//!
//! Because all per-group variation lives in the `kept`/`blk` guards, one
//! encoding serves every group of a combination: each query is a
//! [`minismt::Solver::solve_under`] call whose assumptions fix the guards.
//! [`ChannelSolver`] manages that reuse (one persistent solver per channel,
//! one [`minismt::Solver::push`] scope per combination). A `Sat` answer is
//! re-solved on a fresh solver (`solve_fresh`) so the witness and its
//! step counts do not depend on the clauses earlier queries left behind.
//!
//! Mutexes were already rewritten into the channel view (`Lock` = send on a
//! buffer-1 channel, `Unlock` = receive), so a single encoding covers both.

use crate::detector::{Combo, GroupMember};
use crate::faults;
use crate::paths::{Event, PathOp};
use crate::primitives::{OpKind, PrimId, Primitives};
use crate::resilience::Budget;
use minismt::{Atom, BoolVar, IntVar, SolveResult, Solver, Term};
use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;

/// A communication occurrence inside a combination.
#[derive(Debug, Clone)]
struct Occurrence {
    goroutine: usize,
    prim: PrimId,
    kind: OpKind,
    order: IntVar,
    /// The event this occurrence belongs to (selects contribute their
    /// chosen case as an occurrence at the select's order point).
    event: (usize, usize),
}

/// The verdict for one (combination, group) query.
#[derive(Debug)]
pub enum Verdict {
    /// A witness interleaving exists: descriptions of events in execution
    /// order.
    Blocking(Vec<String>),
    /// The group cannot block under this combination.
    Safe,
    /// The solver gave up (budget).
    Unknown,
}

/// What a combination's encoding is queried for; controls whether
/// default-select blocked-case constraints are asserted (the blocking
/// queries need them, the reachability-only send-after-close queries
/// keep the historical encoding without them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EncodingKind {
    /// Blocking-group queries (`ΦR ∧ ΦB`).
    Group,
    /// Reachability-only queries (§6 send-after-close).
    Reach,
}

/// The result of one group query.
#[derive(Debug)]
pub struct GroupCheck {
    /// The verdict.
    pub verdict: Verdict,
    /// Solver effort for provenance/telemetry; `None` when the query was
    /// short-circuited before reaching the solver. For a `Blocking`
    /// verdict these are the stats of the canonical fresh re-solve, so
    /// provenance does not depend on earlier queries.
    pub stats: Option<minismt::SolverStats>,
    /// Whether the query reused a previously built combination encoding.
    pub reused: bool,
}

/// One query: either a blocking-group check or a send-after-close pair.
#[derive(Debug, Clone, Copy)]
pub enum Query<'q> {
    /// Can these group members all block forever (`ΦR ∧ ΦB`)?
    Group(&'q [GroupMember]),
    /// Can the send execute after the close (§6, `ΦR ∧ O_close < O_send`)?
    Pair {
        /// The send on the channel.
        send: GroupMember,
        /// The close of the same channel.
        close: GroupMember,
    },
}

impl Query<'_> {
    /// The encoding this query runs against.
    fn kind(&self) -> EncodingKind {
        match self {
            Query::Group(_) => EncodingKind::Group,
            Query::Pair { .. } => EncodingKind::Reach,
        }
    }
}

/// The canonical structure of one query's encoding, modulo channel (and
/// primitive) identity: primitives are renamed to their first-appearance
/// index over the combination walk, and only verdict-relevant structure
/// (event shapes, spawn links, buffer sizes, the guard assignment, the
/// step limit) enters the key. Two queries with equal keys produce
/// isomorphic encodings and therefore identical verdicts — full structural
/// equality, never a bare hash, so a collision cannot produce a wrong
/// verdict.
type CanonKey = Vec<u64>;

/// Builds the [`CanonKey`] of one query from its pre-encoding inputs.
fn canon_key(prims: &Primitives, combo: &Combo, query: &Query<'_>, step_limit: u64) -> CanonKey {
    let mut key: Vec<u64> = Vec::with_capacity(64);
    key.push(match query.kind() {
        EncodingKind::Group => 0,
        EncodingKind::Reach => 1,
    });
    key.push(step_limit);

    // Primitive renaming: first appearance over the deterministic walk.
    let mut canon_of: HashMap<PrimId, u64> = HashMap::new();
    let mut buffers: Vec<u64> = Vec::new();
    let mut canon = |p: PrimId, buffers: &mut Vec<u64>| -> u64 {
        *canon_of.entry(p).or_insert_with(|| {
            buffers.push(prims.all[p.0].buffer_size().unwrap_or(0) as u64);
            (buffers.len() - 1) as u64
        })
    };

    key.push(combo.gos.len() as u64);
    for g in &combo.gos {
        match g.spawned_at {
            Some((parent, ev)) => {
                key.push(1);
                key.push(parent as u64);
                key.push(ev as u64);
            }
            None => key.push(0),
        }
        key.push(g.path.events.len() as u64);
        for event in &g.path.events {
            match event {
                Event::Op(op) => {
                    key.push(0);
                    key.push(canon(op.prim, &mut buffers));
                    key.push(op.kind as u64);
                }
                Event::Select { cases, chosen, .. } => {
                    key.push(1);
                    key.push(u64::from(chosen.is_some()));
                    key.push(cases.len() as u64);
                    for (case_idx, op) in cases {
                        key.push(u64::from(Some(case_idx) == chosen.as_ref()));
                        key.push(canon(op.prim, &mut buffers));
                        key.push(op.kind as u64);
                    }
                }
                // Spawns and facts only occupy an order slot (part ⇔ kept);
                // the spawn *links* are captured by `spawned_at` above.
                _ => key.push(2),
            }
        }
    }
    key.push(buffers.len() as u64);
    key.extend(buffers);
    match query {
        Query::Group(group) => {
            key.push(0);
            key.push(group.len() as u64);
            for m in *group {
                key.push(m.goroutine as u64);
                key.push(m.event as u64);
            }
        }
        Query::Pair { send, close } => {
            key.push(1);
            key.push(send.goroutine as u64);
            key.push(send.event as u64);
            key.push(close.goroutine as u64);
            key.push(close.event as u64);
        }
    }
    key
}

/// Session-global cross-channel verdict cache: structurally identical
/// queries (keyed by `canon_key`) share one solved outcome. Only definitive
/// verdicts are stored (`true` = blocking, `false` = safe); `Unknown` is
/// never cached. A `Blocking` hit still re-derives its witness and
/// provenance from the *actual* combination via the canonical fresh
/// solve, so reports carry the right names and spans and stay
/// byte-identical with sharing off.
#[derive(Debug, Default)]
pub struct EncodingCache {
    map: Mutex<HashMap<CanonKey, bool>>,
}

impl EncodingCache {
    /// An empty cache.
    pub fn new() -> EncodingCache {
        EncodingCache::default()
    }

    fn lookup(&self, key: &CanonKey) -> Option<bool> {
        self.map
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(key)
            .copied()
    }

    fn store(&self, key: CanonKey, blocking: bool) {
        self.map
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(key, blocking);
    }

    /// Number of distinct canonical encodings currently cached.
    pub fn len(&self) -> usize {
        self.map.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Snapshots every cached verdict, sorted by key, for carrying solver
    /// warmth across daemon requests. Keys are fully structural (names
    /// renamed by first appearance, no positions), so a snapshot taken
    /// against one module version is sound to replay against any other.
    pub fn export(&self) -> Vec<(Vec<u64>, bool)> {
        let map = self.map.lock().unwrap_or_else(|e| e.into_inner());
        let mut entries: Vec<(Vec<u64>, bool)> = map.iter().map(|(k, &v)| (k.clone(), v)).collect();
        entries.sort();
        entries
    }

    /// Seeds this cache with verdicts previously taken via
    /// [`EncodingCache::export`]. Existing entries win on collision (both
    /// sides hold the same verdict for the same canonical key anyway).
    pub fn import(&self, entries: &[(Vec<u64>, bool)]) {
        let mut map = self.map.lock().unwrap_or_else(|e| e.into_inner());
        for (k, v) in entries {
            map.entry(k.clone()).or_insert(*v);
        }
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The guarded encoding of one combination.
#[derive(Debug)]
struct Encoding {
    kind: EncodingKind,
    order: BTreeMap<(usize, usize), IntVar>,
    kept: BTreeMap<(usize, usize), BoolVar>,
    blk: BTreeMap<(usize, usize), BoolVar>,
}

/// The guard assignment of one query, plus the kept-event set for
/// witness reconstruction.
struct Assumptions {
    terms: Vec<Term>,
    kept_events: Vec<(usize, usize)>,
}

/// Per-channel solving context: owns the persistent incremental solver and
/// the telemetry counters for encoding reuse.
///
/// A combination's encoding is built lazily, by its first query that
/// misses the cross-channel cache (so fully shared combinations never pay
/// for an encoding at all), and lives until [`ChannelSolver::end_combo`].
#[derive(Debug)]
pub struct ChannelSolver<'p> {
    prims: &'p Primitives,
    solver: Option<Solver>,
    enc: Option<Encoding>,
    base_clauses: usize,
    combo_queries: u64,
    /// Cross-channel verdict cache; `None` disables sharing.
    cache: Option<&'p EncodingCache>,
    /// Queries answered against an already-built combination encoding.
    pub encodings_reused: u64,
    /// Learned clauses retained from earlier queries at the moment a
    /// reusing query starts.
    pub learned_kept: u64,
    /// Queries answered from a structurally identical channel's cached
    /// verdict instead of fresh solver work.
    pub encodings_shared: u64,
}

impl<'p> ChannelSolver<'p> {
    /// Creates a context for one channel's queries.
    pub fn new(prims: &'p Primitives) -> ChannelSolver<'p> {
        Self::with_cache(prims, None)
    }

    /// [`ChannelSolver::new`] with an optional cross-channel verdict
    /// cache shared by every channel of the session.
    pub fn with_cache(
        prims: &'p Primitives,
        cache: Option<&'p EncodingCache>,
    ) -> ChannelSolver<'p> {
        ChannelSolver {
            prims,
            solver: None,
            enc: None,
            base_clauses: 0,
            combo_queries: 0,
            cache,
            encodings_reused: 0,
            learned_kept: 0,
            encodings_shared: 0,
        }
    }

    /// Builds the combination's shared guarded encoding into a fresh
    /// push scope of the persistent solver, once per combination.
    fn ensure_encoding(&mut self, combo: &Combo, kind: EncodingKind) {
        if self.enc.is_some() {
            return;
        }
        let solver = self.solver.get_or_insert_with(Solver::new);
        solver.push();
        let enc = build_encoding(solver, self.prims, combo, kind);
        self.base_clauses = solver.num_clauses();
        self.combo_queries = 0;
        self.enc = Some(enc);
    }

    /// Closes the current combination, discarding its encoding scope (the
    /// persistent solver survives for the next combination). Every query
    /// between two calls must be on the same combination and of the same
    /// [`Query`] variant.
    pub fn end_combo(&mut self) {
        if self.enc.take().is_some() {
            if let Some(s) = self.solver.as_mut() {
                s.pop();
            }
        }
    }

    /// Answers one query on the current combination under a cooperative
    /// [`Budget`]: the query's step limit is rationed from the budget's
    /// global step pool and its deadline is handed to the DPLL engine; an
    /// already-expired budget short-circuits to [`Verdict::Unknown`]
    /// without running the solver.
    pub fn check(
        &mut self,
        combo: &Combo,
        query: Query<'_>,
        step_limit: u64,
        budget: &Budget,
    ) -> GroupCheck {
        // Cross-channel sharing is bypassed whenever a budget is active
        // (cache hits would skip budget draws, changing later queries'
        // rationing) or fault injection is armed (hits would skip fault
        // draws, breaking the reproducible fault schedule).
        let shareable = self.cache.is_some() && !budget.is_active() && !faults::armed();
        if !shareable {
            return self.check_uncached(combo, query, step_limit, budget);
        }
        let cache = self.cache.expect("checked above");
        let key = canon_key(self.prims, combo, &query, step_limit);
        match cache.lookup(&key) {
            Some(false) => {
                // A structurally identical query was safe; so is this one.
                self.encodings_shared += 1;
                GroupCheck {
                    verdict: Verdict::Safe,
                    stats: None,
                    reused: false,
                }
            }
            Some(true) => {
                // Blocking: the verdict is shared, but the witness and
                // provenance must name *this* channel's events, so they
                // are re-derived by the canonical fresh solve — the exact
                // code path a solved Blocking report takes, which keeps
                // reports byte-identical with sharing off.
                self.encodings_shared += 1;
                let (verdict, stats) =
                    solve_fresh(self.prims, combo, &query, step_limit, budget, None);
                GroupCheck {
                    verdict,
                    stats,
                    reused: false,
                }
            }
            None => {
                let check = self.check_uncached(combo, query, step_limit, budget);
                match check.verdict {
                    Verdict::Safe => cache.store(key, false),
                    Verdict::Blocking(_) => cache.store(key, true),
                    Verdict::Unknown => {} // indefinite: never cached
                }
                check
            }
        }
    }

    fn check_uncached(
        &mut self,
        combo: &Combo,
        query: Query<'_>,
        step_limit: u64,
        budget: &Budget,
    ) -> GroupCheck {
        if budget.is_active() && budget.expired() {
            return GroupCheck {
                verdict: Verdict::Unknown,
                stats: None,
                reused: false,
            };
        }
        let granted = budget.draw(step_limit);
        if granted == 0 {
            return GroupCheck {
                verdict: Verdict::Unknown,
                stats: None,
                reused: false,
            };
        }
        // One fault-injection draw per logical query, before any
        // short-circuit: the `solver.steps` site numbers queries per scope,
        // and the historical engine drew at solver construction, so both
        // the count and the order of draws are part of the reproducible
        // fault schedule.
        let fault = faults::solver_fault_threshold();

        self.ensure_encoding(combo, query.kind());
        let assume = {
            let enc = self.enc.as_ref().expect("ensure_encoding built it");
            debug_assert_eq!(
                enc.kind,
                query.kind(),
                "combo was encoded for a different query kind"
            );
            assumptions_for(enc, combo, &query)
        };
        let Some(assume) = assume else {
            // A group member's goroutine never starts; the solver is not run.
            budget.refund(granted);
            return GroupCheck {
                verdict: Verdict::Safe,
                stats: None,
                reused: false,
            };
        };
        self.combo_queries += 1;
        let reused = self.combo_queries > 1;
        if reused {
            self.encodings_reused += 1;
            let solver = self.solver.as_ref().expect("solver exists with encoding");
            self.learned_kept += (solver.num_clauses() - self.base_clauses) as u64;
        }
        let solver = self.solver.as_mut().expect("solver exists with encoding");
        solver.set_step_limit(granted);
        solver.set_deadline(budget.deadline());
        solver.set_step_fault(fault);
        let result = solver.solve_under(&assume.terms);
        let inc_stats = solver.stats();
        match result {
            SolveResult::Unsat => {
                budget.refund(granted.saturating_sub(inc_stats.steps));
                GroupCheck {
                    verdict: Verdict::Safe,
                    stats: Some(inc_stats),
                    reused,
                }
            }
            SolveResult::Unknown => {
                budget.refund(granted.saturating_sub(inc_stats.steps));
                GroupCheck {
                    verdict: Verdict::Unknown,
                    stats: Some(inc_stats),
                    reused,
                }
            }
            SolveResult::Sat(inc_model) => {
                // Canonical witness solve: learned-clause retention makes the
                // incremental model and step counts depend on query history,
                // so the witness and provenance of a Blocking verdict are
                // re-derived from a fresh solver. The verdict itself is
                // history-independent (the search is complete), so Sat here
                // is Sat there; only an exhausted re-solve budget can
                // diverge, in which case the incremental model backs the
                // witness.
                let enc = self.enc.as_ref().expect("encoding checked above");
                let (verdict, stats) =
                    solve_fresh(self.prims, combo, &query, granted, budget, fault);
                let canon_steps = stats.map(|s| s.steps).unwrap_or(0);
                budget.refund(granted.saturating_sub(inc_stats.steps + canon_steps));
                match verdict {
                    Verdict::Blocking(_) => GroupCheck {
                        verdict,
                        stats,
                        reused,
                    },
                    _ => GroupCheck {
                        verdict: Verdict::Blocking(witness_timeline(
                            self.prims, combo, enc, &assume, &inc_model,
                        )),
                        stats: Some(inc_stats),
                        reused,
                    },
                }
            }
        }
    }
}

/// One fresh-solver query: builds the guarded encoding from scratch and
/// solves under the query's guard assumptions. This is the canonical
/// witness path: every `Blocking` verdict's witness and provenance come
/// from here, so they are independent of the persistent solver's history
/// and of cache sharing.
fn solve_fresh(
    prims: &Primitives,
    combo: &Combo,
    query: &Query<'_>,
    granted: u64,
    budget: &Budget,
    fault: Option<u64>,
) -> (Verdict, Option<minismt::SolverStats>) {
    let mut solver = Solver::new();
    solver.set_step_limit(granted);
    solver.set_deadline(budget.deadline());
    solver.set_step_fault(fault);
    let enc = build_encoding(&mut solver, prims, combo, query.kind());
    let Some(assume) = assumptions_for(&enc, combo, query) else {
        return (Verdict::Safe, None);
    };
    let result = solver.solve_under(&assume.terms);
    let stats = solver.stats();
    let verdict = match result {
        SolveResult::Sat(model) => {
            Verdict::Blocking(witness_timeline(prims, combo, &enc, &assume, &model))
        }
        SolveResult::Unsat => Verdict::Safe,
        SolveResult::Unknown => Verdict::Unknown,
    };
    (verdict, Some(stats))
}

/// Lazily reifies the channel-state auxiliary variables of one encoding:
/// `q(o, at) ⇔ part_o ∧ O_o < at`, shared across every pseudo-boolean sum
/// that references the same occurrence/time-point pair.
struct StateVars<'a> {
    occs: &'a [Occurrence],
    part: &'a BTreeMap<(usize, usize), BoolVar>,
    prims: &'a Primitives,
    q_vars: HashMap<(usize, u32), BoolVar>,
}

impl StateVars<'_> {
    fn q_var(&mut self, solver: &mut Solver, i: usize, at: IntVar) -> BoolVar {
        if let Some(&v) = self.q_vars.get(&(i, at.0)) {
            return v;
        }
        let v = solver.fresh_bool();
        solver.assert(Term::iff(
            Term::var(v),
            Term::and([
                Term::var(self.part[&self.occs[i].event]),
                Term::Atom(Atom::DiffLe {
                    x: self.occs[i].order,
                    y: at,
                    c: -1,
                }),
            ]),
        ));
        self.q_vars.insert((i, at.0), v);
        v
    }

    /// The `CB` counter at `at`: participating sends before minus
    /// participating receives before.
    fn cb_terms(
        &mut self,
        solver: &mut Solver,
        at: IntVar,
        prim: PrimId,
        skip: usize,
    ) -> Vec<(i64, Atom)> {
        let mut terms: Vec<(i64, Atom)> = Vec::new();
        for k in 0..self.occs.len() {
            if k == skip || self.occs[k].prim != prim {
                continue;
            }
            match self.occs[k].kind {
                OpKind::Send => terms.push((1, Atom::Bool(self.q_var(solver, k, at)))),
                OpKind::Recv => terms.push((-1, Atom::Bool(self.q_var(solver, k, at)))),
                OpKind::Close => {}
            }
        }
        terms
    }

    /// `CLOSED` at `at`: some participating close is ordered before.
    fn closed_term(&mut self, solver: &mut Solver, at: IntVar, prim: PrimId) -> Term {
        let mut closes: Vec<Term> = Vec::new();
        for k in 0..self.occs.len() {
            if self.occs[k].prim == prim && self.occs[k].kind == OpKind::Close {
                closes.push(Term::var(self.q_var(solver, k, at)));
            }
        }
        Term::or(closes)
    }

    fn buffer_size(&self, prim: PrimId) -> i64 {
        self.prims.all[prim.0].buffer_size().unwrap_or(0)
    }

    /// The condition under which `op` blocks at time point `at`.
    fn blocked_case(&mut self, solver: &mut Solver, op: &PathOp, at: IntVar) -> Term {
        let bs = self.buffer_size(op.prim);
        match op.kind {
            OpKind::Send => {
                // Buffer full: CB >= BS.
                let cb = self.cb_terms(solver, at, op.prim, usize::MAX);
                Term::Linear {
                    terms: cb,
                    cmp: minismt::Cmp::Ge,
                    k: bs,
                }
            }
            OpKind::Recv => {
                // Empty and not closed: CB <= 0 ∧ ¬CLOSED.
                let cb = self.cb_terms(solver, at, op.prim, usize::MAX);
                let empty = Term::Linear {
                    terms: cb,
                    cmp: minismt::Cmp::Le,
                    k: 0,
                };
                let not_closed = Term::not(self.closed_term(solver, at, op.prim));
                Term::and([empty, not_closed])
            }
            OpKind::Close => Term::False, // close never blocks
        }
    }
}

/// Builds the combination's guarded encoding into `solver`'s current scope.
fn build_encoding(
    solver: &mut Solver,
    prims: &Primitives,
    combo: &Combo,
    kind: EncodingKind,
) -> Encoding {
    // All maps are BTreeMaps: iteration order feeds term assertion order,
    // which decides atom numbering — and with it the DPLL search path and
    // step counts, which provenance exposes and the `--jobs` contract
    // requires to be bit-identical across runs.
    let mut order: BTreeMap<(usize, usize), IntVar> = BTreeMap::new();
    for (gi, g) in combo.gos.iter().enumerate() {
        for ei in 0..g.path.events.len() {
            order.insert((gi, ei), solver.fresh_int());
        }
    }
    let mut kept: BTreeMap<(usize, usize), BoolVar> = BTreeMap::new();
    let mut blk: BTreeMap<(usize, usize), BoolVar> = BTreeMap::new();
    let mut part: BTreeMap<(usize, usize), BoolVar> = BTreeMap::new();
    for (gi, g) in combo.gos.iter().enumerate() {
        for (ei, event) in g.path.events.iter().enumerate() {
            let k = solver.fresh_bool();
            kept.insert((gi, ei), k);
            if matches!(event, Event::Op(_) | Event::Select { .. }) {
                let b = solver.fresh_bool();
                let p = solver.fresh_bool();
                solver.assert(Term::iff(
                    Term::var(p),
                    Term::and([Term::var(k), Term::not(Term::var(b))]),
                ));
                blk.insert((gi, ei), b);
                part.insert((gi, ei), p);
            } else {
                // Spawns and facts are never group members: part ⇔ kept.
                part.insert((gi, ei), k);
            }
        }
    }

    // Φorder: per-goroutine chains (unconditional — ordering events that a
    // query truncates away is always satisfiable and keeps the skeleton
    // shared across queries).
    for (gi, g) in combo.gos.iter().enumerate() {
        for ei in 1..g.path.events.len() {
            solver.assert(Term::lt(order[&(gi, ei - 1)], order[&(gi, ei)]));
        }
    }

    // Φspawn: guarded by the child's first event being kept (the guard
    // assignments only keep it when the parent's spawn event is kept).
    for (gi, g) in combo.gos.iter().enumerate() {
        if g.path.events.is_empty() {
            continue;
        }
        if let Some((parent, ev)) = g.spawned_at {
            solver.assert(Term::implies(
                Term::var(kept[&(gi, 0)]),
                Term::lt(order[&(parent, ev)], order[&(gi, 0)]),
            ));
        }
    }

    // Collect communication occurrences: ops and chosen select cases.
    // Participation is decided per query by the event's `part` guard.
    let mut occs: Vec<Occurrence> = Vec::new();
    for (gi, g) in combo.gos.iter().enumerate() {
        for (ei, event) in g.path.events.iter().enumerate() {
            let o = order[&(gi, ei)];
            match event {
                Event::Op(op) => occs.push(Occurrence {
                    goroutine: gi,
                    prim: op.prim,
                    kind: op.kind,
                    order: o,
                    event: (gi, ei),
                }),
                Event::Select {
                    cases,
                    chosen: Some(ci),
                    ..
                } => {
                    for (case_idx, op) in cases {
                        if case_idx == ci {
                            occs.push(Occurrence {
                                goroutine: gi,
                                prim: op.prim,
                                kind: op.kind,
                                order: o,
                                event: (gi, ei),
                            });
                        }
                    }
                }
                _ => {}
            }
        }
    }

    // Match variables P(s, r) between cross-goroutine pairs. A match
    // implies both ends participate, so guards subsume the historical
    // "non-group occurrences only" filter.
    let mut p_vars: BTreeMap<(usize, usize), BoolVar> = BTreeMap::new();
    for (i, s) in occs.iter().enumerate() {
        if s.kind != OpKind::Send {
            continue;
        }
        for (j, r) in occs.iter().enumerate() {
            if r.kind != OpKind::Recv || s.prim != r.prim || s.goroutine == r.goroutine {
                continue;
            }
            let p = solver.fresh_bool();
            p_vars.insert((i, j), p);
            solver.assert(Term::implies(
                Term::var(p),
                Term::and([
                    Term::var(part[&s.event]),
                    Term::var(part[&r.event]),
                    Term::eq_int(s.order, r.order),
                ]),
            ));
        }
    }
    // At most one match per occurrence.
    for (i, o) in occs.iter().enumerate() {
        let atoms: Vec<Atom> = match o.kind {
            OpKind::Send => p_vars
                .iter()
                .filter(|((si, _), _)| *si == i)
                .map(|(_, &p)| Atom::Bool(p))
                .collect(),
            OpKind::Recv => p_vars
                .iter()
                .filter(|((_, rj), _)| *rj == i)
                .map(|(_, &p)| Atom::Bool(p))
                .collect(),
            OpKind::Close => Vec::new(),
        };
        if atoms.len() > 1 {
            solver.assert(Term::at_most_one(atoms));
        }
    }

    // Channel-state helper builder: q(o, at) ⇔ part_o ∧ O_o < at. The q
    // variables are shared across every sum that references the same
    // occurrence/time-point pair — the payoff of building one encoding
    // per combination.
    let mut state = StateVars {
        occs: &occs,
        part: &part,
        prims,
        q_vars: HashMap::new(),
    };

    // ΦR: every participating occurrence proceeds.
    for (i, occ) in occs.iter().enumerate() {
        let bs = state.buffer_size(occ.prim);
        let proceed = match occ.kind {
            OpKind::Send => {
                // CB < BS ∨ exactly-one match.
                let cb = state.cb_terms(solver, occ.order, occ.prim, i);
                let room = Term::Linear {
                    terms: cb,
                    cmp: minismt::Cmp::Lt,
                    k: bs,
                };
                let match_atoms: Vec<Atom> = p_vars
                    .iter()
                    .filter(|((si, _), _)| *si == i)
                    .map(|(_, &p)| Atom::Bool(p))
                    .collect();
                Term::or([room, Term::exactly_one(match_atoms)])
            }
            OpKind::Recv => {
                // CB > 0 ∨ CLOSED ∨ exactly-one match.
                let cb = state.cb_terms(solver, occ.order, occ.prim, i);
                let has_elem = Term::Linear {
                    terms: cb,
                    cmp: minismt::Cmp::Gt,
                    k: 0,
                };
                let closed = state.closed_term(solver, occ.order, occ.prim);
                let match_atoms: Vec<Atom> = p_vars
                    .iter()
                    .filter(|((_, rj), _)| *rj == i)
                    .map(|(_, &p)| Atom::Bool(p))
                    .collect();
                Term::or([has_elem, closed, Term::exactly_one(match_atoms)])
            }
            OpKind::Close => continue,
        };
        solver.assert(Term::implies(Term::var(part[&occ.event]), proceed));
    }

    // ΦR for default-chosen selects (blocking queries only, matching the
    // historical encodings): every Pset case is blocked at the moment the
    // select executes.
    if kind == EncodingKind::Group {
        for (gi, g) in combo.gos.iter().enumerate() {
            for (ei, event) in g.path.events.iter().enumerate() {
                if let Event::Select {
                    cases,
                    chosen: None,
                    ..
                } = event
                {
                    let at = order[&(gi, ei)];
                    for (_, op) in cases {
                        let b = state.blocked_case(solver, op, at);
                        solver.assert(Term::implies(Term::var(kept[&(gi, ei)]), b));
                    }
                }
            }
        }
    }

    // ΦB: a blk event blocks and is ordered after every participating
    // event (fellow group members stay mutually unordered because their
    // own `part` guard is false).
    for (&(bgi, bei), &b) in &blk {
        for (&(agi, aei), &o_a) in &order {
            if (agi, aei) == (bgi, bei) {
                continue;
            }
            solver.assert(Term::implies(
                Term::and([Term::var(part[&(agi, aei)]), Term::var(b)]),
                Term::lt(o_a, order[&(bgi, bei)]),
            ));
        }
        let at = order[&(bgi, bei)];
        let blocked = match &combo.gos[bgi].path.events[bei] {
            Event::Op(op) => state.blocked_case(solver, op, at),
            Event::Select { cases, .. } => {
                let mut all: Vec<Term> = Vec::new();
                for (_, op) in cases {
                    all.push(state.blocked_case(solver, op, at));
                }
                Term::and(all)
            }
            other => unreachable!("blk guards cover ops and selects, got {other:?}"),
        };
        solver.assert(Term::implies(Term::var(b), blocked));
    }

    Encoding {
        kind,
        order,
        kept,
        blk,
    }
}

/// Computes the guard assignment for one query: which events are kept
/// (truncation + spawn reachability for group queries, everything for
/// pair queries) and which are blocking-group members. Returns `None`
/// when a group member's goroutine never starts (the query is trivially
/// safe).
fn assumptions_for(enc: &Encoding, combo: &Combo, query: &Query<'_>) -> Option<Assumptions> {
    let kept_of: Vec<usize> = match query {
        Query::Group(group) => {
            // Truncation point per goroutine: events after a group member's
            // event never execute.
            let mut cutoff: Vec<usize> = combo.gos.iter().map(|g| g.path.events.len()).collect();
            for m in *group {
                cutoff[m.goroutine] = cutoff[m.goroutine].min(m.event + 1);
            }
            // A goroutine is alive if it is the root or its spawn event is
            // kept.
            let mut alive = vec![false; combo.gos.len()];
            alive[0] = true;
            for (gi, g) in combo.gos.iter().enumerate().skip(1) {
                if let Some((parent, ev)) = g.spawned_at {
                    if alive[parent] && ev < cutoff[parent] {
                        alive[gi] = true;
                    }
                }
            }
            if group.iter().any(|m| !alive[m.goroutine]) {
                return None;
            }
            combo
                .gos
                .iter()
                .enumerate()
                .map(|(gi, _)| if alive[gi] { cutoff[gi] } else { 0 })
                .collect()
        }
        Query::Pair { .. } => combo.gos.iter().map(|g| g.path.events.len()).collect(),
    };

    let mut terms = Vec::with_capacity(enc.kept.len() + enc.blk.len() + 1);
    let mut kept_events = Vec::new();
    for (&(gi, ei), &k) in &enc.kept {
        if ei < kept_of[gi] {
            terms.push(Term::var(k));
            kept_events.push((gi, ei));
        } else {
            terms.push(Term::not(Term::var(k)));
        }
    }
    match query {
        Query::Group(group) => {
            let is_member =
                |gi: usize, ei: usize| group.iter().any(|m| m.goroutine == gi && m.event == ei);
            for m in group.iter() {
                assert!(
                    enc.blk.contains_key(&(m.goroutine, m.event)),
                    "group member must be an op or select, got {:?}",
                    combo.gos[m.goroutine].path.events[m.event]
                );
            }
            for (&(gi, ei), &b) in &enc.blk {
                if is_member(gi, ei) {
                    terms.push(Term::var(b));
                } else {
                    terms.push(Term::not(Term::var(b)));
                }
            }
        }
        Query::Pair { send, close } => {
            for &b in enc.blk.values() {
                terms.push(Term::not(Term::var(b)));
            }
            // The panic constraint: close strictly before the send.
            terms.push(Term::Atom(Atom::DiffLe {
                x: enc.order[&(close.goroutine, close.event)],
                y: enc.order[&(send.goroutine, send.event)],
                c: -1,
            }));
        }
    }
    Some(Assumptions { terms, kept_events })
}

/// Produces the witness order for a satisfying model: kept events sorted
/// by their order-variable values (ties by description).
fn witness_timeline(
    prims: &Primitives,
    combo: &Combo,
    enc: &Encoding,
    assume: &Assumptions,
    model: &minismt::Model,
) -> Vec<String> {
    let mut timeline: Vec<(i64, String)> = Vec::new();
    for &(gi, ei) in &assume.kept_events {
        let t = model.int_value(enc.order[&(gi, ei)]).unwrap_or(0);
        timeline.push((t, describe_event(prims, combo, gi, ei)));
    }
    timeline.sort();
    timeline.into_iter().map(|(_, d)| d).collect()
}

fn describe_event(prims: &Primitives, combo: &Combo, gi: usize, ei: usize) -> String {
    match &combo.gos[gi].path.events[ei] {
        Event::Op(op) => {
            let name = &prims.all[op.prim.0].name;
            let verb = match (op.kind, op.from_mutex) {
                (OpKind::Send, false) => "send",
                (OpKind::Recv, false) => "recv",
                (OpKind::Close, _) => "close",
                (OpKind::Send, true) => "lock",
                (OpKind::Recv, true) => "unlock",
            };
            format!("g{gi}:{verb}({name})@{}", op.span)
        }
        Event::Select { chosen, span, .. } => match chosen {
            Some(ci) => format!("g{gi}:select.case{ci}@{span}"),
            None => format!("g{gi}:select.default@{span}"),
        },
        Event::Spawn { target, .. } => format!("g{gi}:go(f{})", target.0),
        Event::Fact { value, .. } => format!("g{gi}:branch({value})"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::{Combo, GoroutinePath, GroupMember};
    use crate::paths::{Event, Path, PathOp};
    use crate::primitives::collect;
    use golite::Span;
    use golite_ir::ir::{BlockId, FuncId, Loc};

    /// Hand-builds a two-goroutine combination over one channel: the parent
    /// spawns a child; ops are injected directly as path events.
    fn combo_with(parent_ops: Vec<Event>, child_ops: Vec<Event>) -> (Combo, Primitives) {
        combo_with_cap(parent_ops, child_ops, 0)
    }

    fn combo_with_cap(
        parent_ops: Vec<Event>,
        child_ops: Vec<Event>,
        cap: usize,
    ) -> (Combo, Primitives) {
        // A real module supplies the primitive table (one channel).
        let module = golite_ir::lower_source(&format!(
            "func main() {{\n ch := make(chan int, {cap})\n close(ch)\n}}",
        ))
        .unwrap();
        let analysis = golite_ir::analyze(&module);
        let prims = collect(&module, &analysis);
        let mut parent = vec![Event::Spawn {
            site: Loc {
                func: FuncId(0),
                block: BlockId(0),
                idx: 0,
            },
            target: FuncId(0),
        }];
        parent.extend(parent_ops);
        let combo = Combo {
            gos: vec![
                GoroutinePath {
                    path: Path { events: parent },
                    spawned_at: None,
                    root_func: FuncId(0),
                },
                GoroutinePath {
                    path: Path { events: child_ops },
                    spawned_at: Some((0, 0)),
                    root_func: FuncId(0),
                },
            ],
        };
        (combo, prims)
    }

    fn op(prim: PrimId, kind: OpKind, idx: u32) -> Event {
        Event::Op(PathOp {
            prim,
            kind,
            loc: Loc {
                func: FuncId(0),
                block: BlockId(0),
                idx,
            },
            span: Span::synthetic(),
            from_mutex: false,
        })
    }

    /// One query on a fresh per-channel context, as the detector issues
    /// it for the first query of a combination.
    fn check_one(prims: &Primitives, combo: &Combo, query: Query<'_>) -> Verdict {
        let mut cs = ChannelSolver::new(prims);
        let check = cs.check(combo, query, 100_000, &Budget::default());
        cs.end_combo();
        check.verdict
    }

    fn member(goroutine: usize, event: usize) -> GroupMember {
        GroupMember { goroutine, event }
    }

    #[test]
    fn orphan_send_blocks() {
        let (combo, prims) = combo_with(vec![], vec![op(PrimId(0), OpKind::Send, 9)]);
        assert!(matches!(
            check_one(&prims, &combo, Query::Group(&[member(1, 0)])),
            Verdict::Blocking(_)
        ));
    }

    #[test]
    fn matched_send_cannot_block() {
        // Parent receives: the child's send must match it, so claiming the
        // send blocks forever is UNSAT (the recv could not proceed).
        let (combo, prims) = combo_with(
            vec![op(PrimId(0), OpKind::Recv, 5)],
            vec![op(PrimId(0), OpKind::Send, 9)],
        );
        assert!(matches!(
            check_one(&prims, &combo, Query::Group(&[member(1, 0)])),
            Verdict::Safe
        ));
    }

    #[test]
    fn close_unblocks_receiver() {
        // Parent closes: the child's recv can always proceed via CLOSED.
        let (combo, prims) = combo_with(
            vec![op(PrimId(0), OpKind::Close, 5)],
            vec![op(PrimId(0), OpKind::Recv, 9)],
        );
        assert!(matches!(
            check_one(&prims, &combo, Query::Group(&[member(1, 0)])),
            Verdict::Safe
        ));
    }

    #[test]
    fn recv_after_group_send_truncates() {
        // The parent's recv comes AFTER its own later event... here: child
        // sends twice; group at the first send truncates the second away,
        // leaving the parent recv unmatched — so the scenario is UNSAT.
        let (combo, prims) = combo_with(
            vec![op(PrimId(0), OpKind::Recv, 5)],
            vec![
                op(PrimId(0), OpKind::Send, 9),
                op(PrimId(0), OpKind::Send, 10),
            ],
        );
        // Group = second send: first send matches the recv, second blocks.
        assert!(matches!(
            check_one(&prims, &combo, Query::Group(&[member(1, 1)])),
            Verdict::Blocking(_)
        ));
    }

    #[test]
    fn send_after_close_is_reachable() {
        // Same-channel close (parent) and send (child) with free ordering on
        // a buffered channel (the send can proceed without a receiver): the
        // panic interleaving exists.
        let (combo, prims) = combo_with_cap(
            vec![op(PrimId(0), OpKind::Close, 5)],
            vec![op(PrimId(0), OpKind::Send, 9)],
            1,
        );
        let query = Query::Pair {
            send: member(1, 0),
            close: member(0, 1),
        };
        assert!(matches!(
            check_one(&prims, &combo, query),
            Verdict::Blocking(_)
        ));
    }

    /// The persistent per-channel solver, answering every query of a
    /// combination in turn (learned clauses retained between them), must
    /// agree with a fresh solve of each query alone: the same verdict and,
    /// for a blocking one, the same witness and step counts.
    #[test]
    fn channel_solver_agrees_with_per_query_fresh_solves() {
        let label = |v: &Verdict| match v {
            Verdict::Blocking(w) => format!("blocking:{w:?}"),
            Verdict::Safe => "safe".into(),
            Verdict::Unknown => "unknown".into(),
        };
        let groups: [&[GroupMember]; 4] = [
            &[member(1, 0)],
            &[member(1, 1)],
            &[member(0, 1)],
            &[member(0, 1), member(1, 1)],
        ];
        let combos = [
            combo_with(
                vec![op(PrimId(0), OpKind::Recv, 5)],
                vec![
                    op(PrimId(0), OpKind::Send, 9),
                    op(PrimId(0), OpKind::Send, 10),
                ],
            ),
            combo_with_cap(
                vec![op(PrimId(0), OpKind::Send, 5)],
                vec![
                    op(PrimId(0), OpKind::Send, 9),
                    op(PrimId(0), OpKind::Recv, 10),
                ],
                1,
            ),
            combo_with(
                vec![op(PrimId(0), OpKind::Close, 5)],
                vec![
                    op(PrimId(0), OpKind::Recv, 9),
                    op(PrimId(0), OpKind::Recv, 10),
                ],
            ),
        ];
        let budget = Budget::default();
        let mut blocking = 0;
        for (combo, prims) in &combos {
            let mut cs = ChannelSolver::new(prims);
            for group in groups {
                let query = Query::Group(group);
                let inc = cs.check(combo, query, 100_000, &budget);
                let (fresh, fresh_stats) =
                    solve_fresh(prims, combo, &query, 100_000, &budget, None);
                assert_eq!(label(&inc.verdict), label(&fresh), "group {group:?}");
                if matches!(fresh, Verdict::Blocking(_)) {
                    blocking += 1;
                    assert_eq!(inc.stats.map(|s| s.steps), fresh_stats.map(|s| s.steps));
                }
            }
            cs.end_combo();
        }
        assert!(blocking > 0, "the cases must include a blocking query");
    }

    /// Reusing a combination encoding across that combination's groups
    /// must bump the reuse counters and keep verdicts stable.
    #[test]
    fn incremental_reuse_counts_queries() {
        let (combo, prims) = combo_with(
            vec![op(PrimId(0), OpKind::Recv, 5)],
            vec![
                op(PrimId(0), OpKind::Send, 9),
                op(PrimId(0), OpKind::Send, 10),
            ],
        );
        let mut cs = ChannelSolver::new(&prims);
        let budget = Budget::default();
        let g0 = cs.check(&combo, Query::Group(&[member(1, 0)]), 100_000, &budget);
        let g1 = cs.check(&combo, Query::Group(&[member(1, 1)]), 100_000, &budget);
        cs.end_combo();
        assert!(!g0.reused);
        assert!(g1.reused);
        assert_eq!(cs.encodings_reused, 1);
        assert!(matches!(g0.verdict, Verdict::Safe));
        assert!(matches!(g1.verdict, Verdict::Blocking(_)));
    }
}
