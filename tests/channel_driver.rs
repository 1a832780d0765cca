//! The per-channel driver is shared by the BMOC and send-on-closed
//! queries: worker sharding, the degradation ladder and the deterministic
//! cross-channel merge. These tests pin the send-on-closed side of it:
//! reports are byte-identical to the goldens across `--jobs` and
//! encoding sharing, a pair reached through shared helpers from two
//! channels is reported once, and a query answered from the cross-channel
//! cache does not count as a solver query.

use gcatch_suite::gcatch::{render_json_with, Counter, DetectorConfig, GCatch, Selection, Stats};

/// A buffered channel closed while a spawned goroutine sends on it.
const SPAWNED_SENDER: &str = "package main

func main() {
    ch := make(chan int, 1)
    go func() {
        ch <- 1
    }()
    close(ch)
}
";

const SPAWNED_SENDER_JSON: &str = r#"{"version":1,"diagnostics":[{"id":"GC-ef4683fc","checker":"send-on-closed","kind":"SendOnClosed","severity":"error","primitive":{"name":"ch","span":"4:5"},"ops":[{"what":"send on ch after close","func":"main$closure0","span":"6:9"},{"what":"close of ch","func":"main","span":"8:5"}],"witness":["g0:go(f1)","g0:close(ch)@8:5","g1:send(ch)@6:9"],"notes":"a schedule orders the close before the send (runtime panic)","provenance":{"channel":"ch","pset_size":1,"paths_enumerated":2,"branches_pruned":0,"combos_tried":1,"groups_checked":1,"solver_verdict":"panic-schedule","solver_steps":39,"solver_decisions":2,"solver_conflicts":0}}]}"#;

/// Two spawned senders and one closer: two send/close pairs on one channel.
const TWO_SENDERS: &str = "package main

func Pump() {
    ch := make(chan int, 2)
    go func() {
        ch <- 1
    }()
    go func() {
        ch <- 2
    }()
    close(ch)
}

func main() {
    Pump()
}
";

const TWO_SENDERS_JSON: &str = r#"{"version":1,"diagnostics":[{"id":"GC-5c84aea1","checker":"send-on-closed","kind":"SendOnClosed","severity":"error","primitive":{"name":"ch","span":"4:5"},"ops":[{"what":"send on ch after close","func":"Pump$closure0","span":"6:9"},{"what":"close of ch","func":"Pump","span":"11:5"}],"witness":["g0:go(f2)","g0:go(f3)","g0:close(ch)@11:5","g1:send(ch)@6:9","g2:send(ch)@9:9"],"notes":"a schedule orders the close before the send (runtime panic)","provenance":{"channel":"ch","pset_size":1,"paths_enumerated":3,"branches_pruned":0,"combos_tried":1,"groups_checked":1,"solver_verdict":"panic-schedule","solver_steps":86,"solver_decisions":10,"solver_conflicts":4}},{"id":"GC-01e9e760","checker":"send-on-closed","kind":"SendOnClosed","severity":"error","primitive":{"name":"ch","span":"4:5"},"ops":[{"what":"send on ch after close","func":"Pump$closure1","span":"9:9"},{"what":"close of ch","func":"Pump","span":"11:5"}],"witness":["g0:go(f2)","g0:go(f3)","g0:close(ch)@11:5","g1:send(ch)@6:9","g2:send(ch)@9:9"],"notes":"a schedule orders the close before the send (runtime panic)","provenance":{"channel":"ch","pset_size":1,"paths_enumerated":3,"branches_pruned":0,"combos_tried":1,"groups_checked":2,"solver_verdict":"panic-schedule","solver_steps":86,"solver_decisions":10,"solver_conflicts":4}}]}"#;

/// `sender`/`closer` helpers called on two channels: the alias analysis
/// lets the helpers' send and close denote both `c` and `d`, so both
/// channels find the same (send, close) pair.
const SHARED_HELPERS: &str = "package main

func sender(ch chan int) {
    ch <- 1
}

func closer(ch chan int) {
    close(ch)
}

func First() {
    c := make(chan int, 1)
    go sender(c)
    closer(c)
}

func Second() {
    d := make(chan int, 1)
    go sender(d)
    closer(d)
}

func main() {
    First()
    Second()
}
";

const SHARED_HELPERS_JSON: &str = r#"{"version":1,"diagnostics":[{"id":"GC-2de9d39a","checker":"send-on-closed","kind":"SendOnClosed","severity":"error","primitive":{"name":"c","span":"12:5"},"ops":[{"what":"send on c after close","func":"sender","span":"4:5"},{"what":"close of c","func":"closer","span":"8:5"}],"witness":["g0:go(f0)","g0:close(c)@8:5","g0:close(d)@8:5","g1:send(c)@4:5","g1:send(d)@4:5"],"notes":"a schedule orders the close before the send (runtime panic)","provenance":{"channel":"c","pset_size":2,"paths_enumerated":3,"branches_pruned":0,"combos_tried":1,"groups_checked":1,"solver_verdict":"panic-schedule","solver_steps":90,"solver_decisions":13,"solver_conflicts":4}}]}"#;

/// Two structurally identical producers that close after their own send:
/// safe, and the second channel's query is a cross-channel cache hit.
const TWIN_PRODUCERS: &str = "package main

func ProduceA() {
    ch := make(chan int, 1)
    ch <- 1
    close(ch)
}

func ProduceB() {
    ch := make(chan int, 1)
    ch <- 1
    close(ch)
}

func main() {
    ProduceA()
    ProduceB()
}
";

/// `gcatch extended --json` for `source` (the rendering the CLI prints),
/// plus the run's counters.
fn extended(source: &str, jobs: usize, share_encodings: bool) -> (String, Stats) {
    let module = golite_ir::lower_source(source).expect("module lowers");
    let gcatch = GCatch::new(&module);
    let config = DetectorConfig {
        jobs,
        share_encodings,
        ..DetectorConfig::default()
    };
    let selection = Selection {
        only: vec!["send-on-closed".to_string()],
        skip: Vec::new(),
    };
    let diagnostics = gcatch.diagnostics(&config, &selection);
    let json = render_json_with(&diagnostics, None, &gcatch.incidents());
    (json, gcatch.stats())
}

#[test]
fn send_on_closed_reports_match_goldens_across_jobs_and_sharing() {
    for (name, source, golden) in [
        ("spawned sender", SPAWNED_SENDER, SPAWNED_SENDER_JSON),
        ("two senders", TWO_SENDERS, TWO_SENDERS_JSON),
        ("shared helpers", SHARED_HELPERS, SHARED_HELPERS_JSON),
        (
            "twin producers",
            TWIN_PRODUCERS,
            r#"{"version":1,"diagnostics":[]}"#,
        ),
    ] {
        for jobs in [1, 4] {
            for share in [true, false] {
                let (json, _) = extended(source, jobs, share);
                assert_eq!(json, golden, "{name}: jobs={jobs} share={share}");
            }
        }
    }
}

/// The pair reached from both `c` and `d` is reported once, for the first
/// channel; the second channel's finding is dropped by the merge, exactly
/// as BMOC drops a group found from two channels.
#[test]
fn pair_found_through_shared_helpers_is_merged_once() {
    for jobs in [1, 4] {
        let (json, stats) = extended(SHARED_HELPERS, jobs, true);
        assert_eq!(
            json.matches("\"kind\":\"SendOnClosed\"").count(),
            1,
            "{json}"
        );
        assert!(json.contains("\"primitive\":{\"name\":\"c\""), "{json}");
        assert_eq!(stats.counter(Counter::ChannelsAnalyzed), 2);
        assert_eq!(stats.counter(Counter::DuplicatesDropped), 1);
    }
}

/// A send-on-closed query answered from the cross-channel cache never
/// reaches the solver, so it is not a solver query (and records no
/// solver-time sample).
#[test]
fn cache_hits_are_not_counted_as_solver_queries() {
    let (_, stats) = extended(TWIN_PRODUCERS, 1, true);
    assert_eq!(stats.counter(Counter::GroupsChecked), 2);
    assert_eq!(stats.counter(Counter::ChannelEncodingsShared), 1);
    assert_eq!(stats.counter(Counter::SolverQueries), 1);
    let (_, unshared) = extended(TWIN_PRODUCERS, 1, false);
    assert_eq!(unshared.counter(Counter::SolverQueries), 2);
}
