//! Seeded input generation. Every workload input comes from the
//! repository's generators (`bench::amplifier`, `go_corpus::apps`); the
//! seed reorders the amplified modules' units, picks the corpus filler and
//! drives the serve edit stream. The reference each output is checked
//! against is derived here, from the generated text, never from the
//! detector.

use bench::amplifier::{expected_leaks, generate, generate_deep, AmpConfig};
use go_corpus::apps::{generate_all, GenConfig, GeneratedApp};
use prng::Prng;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeSet, HashSet, VecDeque};
use std::hash::{Hash, Hasher};

/// The flat amplified module of `flat_check`.
pub const FLAT: AmpConfig = AmpConfig {
    channels: 2400,
    leak_every: 16,
    ballast: 1200,
};

/// The path-heavy module of `deep_check` and `serve_edit`.
pub const DEEP: AmpConfig = AmpConfig {
    channels: 96,
    leak_every: 16,
    ballast: 48,
};

/// Filler functions per kLoC of the Table-1 replicas.
pub const CORPUS_FILLER_PER_KLOC: f64 = 0.05;

/// A module plus the channels its generator planted as leaky.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckInput {
    /// The module source.
    pub source: String,
    /// Primitive names of the planted blocking channels.
    pub planted: BTreeSet<String>,
}

/// The flat module with its units in seeded order.
pub fn flat_input(seed: u64) -> CheckInput {
    let src = generate(&FLAT);
    let (prefix, mut units) = split_units(&src);
    shuffle(&mut units, seed);
    let planted: BTreeSet<String> = units
        .iter()
        .filter_map(|u| {
            u.name
                .strip_prefix("LeakRun")
                .map(|i| format!("leakdone{i}"))
        })
        .collect();
    assert_eq!(planted.len(), expected_leaks(&FLAT), "flat generator shape");
    CheckInput {
        source: join(prefix, &units),
        planted,
    }
}

/// The deep module with its units in seeded order.
pub fn deep_input(seed: u64) -> CheckInput {
    let src = generate_deep(&DEEP);
    let (prefix, mut units) = split_units(&src);
    shuffle(&mut units, seed);
    let planted = deep_planted(&units);
    assert_eq!(planted.len(), expected_leaks(&DEEP), "deep generator shape");
    CheckInput {
        source: join(prefix, &units),
        planted,
    }
}

/// The 21 Table-1 replicas with seeded filler.
pub fn corpus(seed: u64) -> Vec<GeneratedApp> {
    generate_all(&GenConfig {
        seed,
        filler_per_kloc: CORPUS_FILLER_PER_KLOC,
    })
}

/// One generator unit: the consecutive top-level declarations that share
/// an index (a channel unit's helper and runner, or one ballast cluster).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Unit {
    /// Name of the unit's last declaration, e.g. `LeakRun15`, `DeepRun7`.
    name: String,
    /// The unit's source text.
    text: String,
}

/// Splits generated source into units, plus the text before the first
/// declaration. Declarations start at column 0 with `func ` or `type `.
fn split_units(src: &str) -> (&str, Vec<Unit>) {
    let mut starts: Vec<usize> = src
        .match_indices('\n')
        .map(|(i, _)| i + 1)
        .filter(|&i| src[i..].starts_with("func ") || src[i..].starts_with("type "))
        .collect();
    if src.starts_with("func ") || src.starts_with("type ") {
        starts.insert(0, 0);
    }
    let Some(&first) = starts.first() else {
        return (src, Vec::new());
    };
    let mut units: Vec<Unit> = Vec::new();
    let mut last_key: Option<(bool, String)> = None;
    for (k, &start) in starts.iter().enumerate() {
        let end = starts.get(k + 1).copied().unwrap_or(src.len());
        let text = &src[start..end];
        let name: String = text[5..]
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        let index: String = name.chars().filter(char::is_ascii_digit).collect();
        let key = (name.to_ascii_lowercase().starts_with("ballast"), index);
        match units.last_mut() {
            Some(unit) if last_key.as_ref() == Some(&key) => {
                unit.text.push_str(text);
                unit.name = name;
            }
            _ => units.push(Unit {
                name,
                text: text.to_string(),
            }),
        }
        last_key = Some(key);
    }
    (&src[..first], units)
}

fn join(prefix: &str, units: &[Unit]) -> String {
    let mut out =
        String::with_capacity(prefix.len() + units.iter().map(|u| u.text.len()).sum::<usize>());
    out.push_str(prefix);
    for u in units {
        out.push_str(&u.text);
    }
    out
}

/// Fisher-Yates under the seed.
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = Prng::seed_from_u64(seed);
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
}

/// The closing receive of a safe deep unit; a leaky unit lacks the `else`.
fn deep_tail(i: &str, leaky: bool) -> String {
    if leaky {
        format!("if deepf{i} > 0 {{\n        <-deepch{i}\n    }}\n}}\n")
    } else {
        format!("if deepf{i} > 0 {{\n        <-deepch{i}\n    }} else {{\n        <-deepch{i}\n    }}\n}}\n")
    }
}

/// The deep unit's index, if it is a channel unit.
fn deep_index(unit: &Unit) -> Option<&str> {
    unit.name.strip_prefix("DeepRun")
}

fn deep_is_leaky(unit: &Unit) -> bool {
    deep_index(unit).is_some_and(|i| unit.text.contains(&deep_tail(i, true)))
}

fn deep_planted(units: &[Unit]) -> BTreeSet<String> {
    units
        .iter()
        .filter(|u| deep_is_leaky(u))
        .filter_map(|u| deep_index(u).map(|i| format!("deepch{i}")))
        .collect()
}

/// The four request kinds of the serve edit stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EditKind {
    /// A same-length edit to a helper no channel can reach.
    Helper,
    /// A same-length edit inside one channel's function.
    SameLength,
    /// A length-changing edit: one channel unit flips between the leaky and
    /// the safe shape, which shifts the spans of every later function.
    LengthChange,
    /// A re-save of an earlier exact source.
    Undo,
}

impl EditKind {
    /// Stable name used in the output.
    pub fn name(self) -> &'static str {
        match self {
            EditKind::Helper => "helper",
            EditKind::SameLength => "same_length",
            EditKind::LengthChange => "length_change",
            EditKind::Undo => "undo",
        }
    }
}

/// Request kinds per block of [`BLOCK_LEN`]; each block is shuffled under
/// the seed, so every stretch of the stream carries the same mix. The
/// weights are a chosen mix, not measured from recorded editor traffic;
/// claims about one kind of edit rest on that kind's own median
/// (`by_kind` on the detail line), not on the blended `op_ms_p50`.
const BLOCK: [(EditKind, usize); 4] = [
    (EditKind::Helper, 3),
    (EditKind::SameLength, 3),
    (EditKind::LengthChange, 2),
    (EditKind::Undo, 2),
];

/// Requests per block of the stream. A run that measures whole blocks
/// measures the same mix whatever its length.
pub const BLOCK_LEN: usize = 10;

/// How many earlier sources an undo can return to.
const UNDO_DEPTH: usize = 16;

/// One request of the edit stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Edit {
    /// What kind of edit produced `source`.
    pub kind: EditKind,
    /// The full module bytes the editor saves.
    pub source: String,
    /// Primitive names of the planted blocking channels in `source`.
    pub planted: BTreeSet<String>,
}

#[derive(Debug, Clone)]
struct EditorState {
    units: Vec<Unit>,
    knob: u32,
}

/// The seeded editor session `serve_edit` replays: an infinite, fully
/// deterministic sequence of saves of the deep module.
pub struct EditStream {
    rng: Prng,
    prefix: String,
    state: EditorState,
    /// Recent distinct states with the hash of their rendered source.
    history: VecDeque<(EditorState, u64)>,
    current: u64,
    sent: HashSet<u64>,
    block: Vec<EditKind>,
}

impl EditStream {
    /// The stream for `seed`; [`EditStream::base`] is the initial source.
    pub fn new(seed: u64) -> EditStream {
        let src = generate_deep(&DEEP);
        let (prefix, mut units) = split_units(&src);
        shuffle(&mut units, seed);
        let mut stream = EditStream {
            rng: Prng::seed_from_u64(seed ^ 0x5e2f_ed17),
            prefix: prefix.to_string(),
            state: EditorState { units, knob: 101 },
            history: VecDeque::new(),
            current: 0,
            sent: HashSet::new(),
            block: Vec::new(),
        };
        stream.current = hash(&stream.render(&stream.state));
        stream.sent.insert(stream.current);
        stream
            .history
            .push_back((stream.state.clone(), stream.current));
        stream
    }

    /// The initial module (the daemon's cold seeding request).
    pub fn base(&self) -> CheckInput {
        CheckInput {
            source: self.render(&self.state),
            planted: deep_planted(&self.state.units),
        }
    }

    fn render(&self, state: &EditorState) -> String {
        let mut out = join(&self.prefix, &state.units);
        out.push_str(&format!(
            "\nfunc tailKnob() int {{\n    return {}\n}}\n",
            state.knob
        ));
        out
    }

    fn next_kind(&mut self) -> EditKind {
        if self.block.is_empty() {
            for (kind, n) in BLOCK {
                self.block.extend(std::iter::repeat_n(kind, n));
            }
            let seed = self.rng.next_u64();
            shuffle(&mut self.block, seed);
        }
        self.block.pop().expect("block refilled above")
    }

    /// Applies one edit of `kind` to a copy of the current state.
    fn mutate(&mut self, kind: EditKind) -> EditorState {
        let mut next = self.state.clone();
        let channels: Vec<usize> = (0..next.units.len())
            .filter(|&k| deep_index(&next.units[k]).is_some())
            .collect();
        match kind {
            EditKind::Helper => {
                let old = next.knob;
                while next.knob == old {
                    next.knob = self.rng.gen_range(100u32..1000);
                }
            }
            EditKind::SameLength => {
                let k = *self.rng.pick(&channels);
                let unit = &mut next.units[k];
                let i = deep_index(unit).expect("channel unit").to_string();
                let needle = format!("deepch{i} <- ");
                let sends: Vec<usize> = unit
                    .text
                    .match_indices(&needle)
                    .map(|(p, _)| p + needle.len())
                    .collect();
                let at = *self.rng.pick(&sends);
                let old = unit.text.as_bytes()[at];
                let mut digit = old;
                while digit == old {
                    digit = b"123456789"[self.rng.gen_range(0usize..9)];
                }
                unit.text.replace_range(
                    at..at + 1,
                    std::str::from_utf8(&[digit]).expect("ascii digit"),
                );
            }
            EditKind::LengthChange => {
                let k = *self.rng.pick(&channels);
                let unit = &mut next.units[k];
                let leaky = deep_is_leaky(unit);
                let i = deep_index(unit).expect("channel unit").to_string();
                unit.text = unit
                    .text
                    .replace(&deep_tail(&i, leaky), &deep_tail(&i, !leaky));
            }
            EditKind::Undo => unreachable!("undo restores a saved state"),
        }
        next
    }

    /// The next save of the session.
    pub fn next_edit(&mut self) -> Edit {
        let mut kind = self.next_kind();
        let earlier: Vec<usize> = (0..self.history.len())
            .filter(|&k| self.history[k].1 != self.current)
            .collect();
        if kind == EditKind::Undo && earlier.is_empty() {
            kind = EditKind::Helper;
        }
        if kind == EditKind::Undo {
            let k = *self.rng.pick(&earlier);
            let (state, h) = self.history[k].clone();
            self.state = state;
            self.current = h;
            return Edit {
                kind,
                source: self.render(&self.state),
                planted: deep_planted(&self.state.units),
            };
        }
        // Every non-undo save is new bytes: redraw until unseen.
        let (state, source, h) = loop {
            let candidate = self.mutate(kind);
            let source = self.render(&candidate);
            let h = hash(&source);
            if self.sent.insert(h) {
                break (candidate, source, h);
            }
        };
        self.state = state;
        self.current = h;
        self.history.push_back((self.state.clone(), h));
        if self.history.len() > UNDO_DEPTH {
            self.history.pop_front();
        }
        Edit {
            kind,
            source,
            planted: deep_planted(&self.state.units),
        }
    }
}

fn hash(s: &str) -> u64 {
    let mut h = DefaultHasher::new();
    s.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        assert_eq!(flat_input(3), flat_input(3));
        assert_eq!(deep_input(3), deep_input(3));
        let (a, b) = (corpus(3), corpus(3));
        assert_eq!(a.len(), 21);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.source, y.source, "{}", x.name);
        }
        let (mut s, mut t) = (EditStream::new(3), EditStream::new(3));
        assert_eq!(s.base(), t.base());
        for _ in 0..40 {
            assert_eq!(s.next_edit(), t.next_edit());
        }
    }

    #[test]
    fn seeds_differ_but_keep_the_planted_set() {
        let (a, b) = (flat_input(1), flat_input(2));
        assert_ne!(a.source, b.source);
        assert_eq!(a.source.len(), b.source.len());
        assert_eq!(a.planted, b.planted);
        assert_eq!(a.planted.len(), 150);
        assert!(a.planted.contains("leakdone15") && !a.planted.contains("leakdone16"));
        let (c, d) = (deep_input(1), deep_input(2));
        assert_ne!(c.source, d.source);
        assert_eq!(c.planted, d.planted);
        assert_eq!(c.planted.len(), 6);
        let (x, y) = (corpus(1), corpus(2));
        assert!(x.iter().zip(&y).any(|(p, q)| p.source != q.source));
    }

    #[test]
    fn units_keep_every_declaration() {
        let src = generate(&AmpConfig {
            channels: 20,
            leak_every: 4,
            ballast: 3,
        });
        let (prefix, units) = split_units(&src);
        assert_eq!(units.len(), 23);
        assert_eq!(join(prefix, &units), src);
        // A channel unit keeps its helper and runner together.
        assert!(units[3].text.contains("func leakJob3()") && units[3].name == "LeakRun3");
        assert!(units[22].text.contains("type Ballast2") && units[22].name == "ballastFold2");
    }

    #[test]
    fn shuffled_deep_module_reports_exactly_its_planted_channels() {
        let input = deep_input(9);
        let module = golite_ir::lower_source(&input.source).expect("deep module lowers");
        let gcatch = gcatch::GCatch::new(&module);
        let found: BTreeSet<String> = gcatch
            .detect_bmoc(&gcatch::DetectorConfig::default())
            .into_iter()
            .map(|b| b.primitive_name)
            .collect();
        assert_eq!(found, input.planted);
    }

    #[test]
    fn edit_stream_mixes_kinds_and_tracks_planted_channels() {
        let mut stream = EditStream::new(5);
        let base = stream.base();
        let mut seen = HashSet::from([base.source.clone()]);
        let mut counts = std::collections::BTreeMap::new();
        let mut prev = Edit {
            kind: EditKind::Helper,
            source: base.source,
            planted: base.planted,
        };
        for _ in 0..60 {
            let e = stream.next_edit();
            *counts.entry(e.kind).or_insert(0) += 1;
            match e.kind {
                EditKind::Undo => {
                    assert!(seen.contains(&e.source), "undo re-saves old bytes");
                    assert_ne!(e.source, prev.source, "undo changes the buffer");
                }
                _ => assert!(
                    seen.insert(e.source.clone()),
                    "{:?} must be new bytes",
                    e.kind
                ),
            }
            if matches!(e.kind, EditKind::Helper | EditKind::SameLength) {
                assert_eq!(e.source.len(), prev.source.len(), "{:?}", e.kind);
                assert_eq!(e.planted, prev.planted);
            }
            if e.kind == EditKind::LengthChange {
                assert_ne!(e.source.len(), prev.source.len());
                assert_eq!(e.planted.symmetric_difference(&prev.planted).count(), 1);
            }
            prev = e;
        }
        assert_eq!(BLOCK.iter().map(|(_, n)| n).sum::<usize>(), BLOCK_LEN);
        assert_eq!(counts[&EditKind::SameLength], 18);
        assert_eq!(counts[&EditKind::LengthChange], 12);
        assert_eq!(counts[&EditKind::Helper] + counts[&EditKind::Undo], 30);
        assert!(counts[&EditKind::Undo] >= 10);
    }
}
