//! Opt-in per-word data-race detection.
//!
//! When the device runs at [`crate::SimFidelity::TimedWithRaces`], the
//! execution engine logs the global and shared memory accesses that can
//! be part of a race (word index, kind, stored value, and a position in
//! the happens-before order) into a `RaceLog`, and the launch machinery
//! classifies conflicting accesses before returning the
//! [`crate::LaunchReport`].
//!
//! # What is logged
//!
//! Every race class below needs a plain store or an atomic on the word.
//! So the bytecode engine logs every store and atomic, but a plain load
//! only when its buffer is stored to or atomically updated through some
//! argument slot of the kernel (`Writes`, computed once when the kernel
//! compiles), and a shared-memory load only when the kernel has a shared
//! store. Loads from read-only arrays (a CSR graph's offsets and edges)
//! can never race and are not logged. The interpreter oracle logs every
//! access; both logs give equal [`RaceReport`]s.
//!
//! Records are keyed by buffer, not by argument slot: a launch may bind
//! one buffer to several slots, and each slot maps to the lowest slot
//! bound to the same buffer. A load through a read-only slot whose
//! buffer is stored to through another slot is therefore still logged,
//! and the two accesses meet under one key.
//!
//! # Happens-before model
//!
//! The simulator's scheduling is deterministic, but the *hardware* it
//! models gives far weaker guarantees; the detector reasons about the
//! hardware's order, not the interpreter's:
//!
//! * Accesses from **different blocks** are always concurrent (blocks may
//!   run in any order, on any SM).
//! * Within a block, warps are ordered only by barriers: each warp keeps
//!   an **epoch** counter that increments at every `sync_threads` and at
//!   every block-wide collective (reduce/scan). Accesses from different
//!   warps are concurrent iff they are in the same epoch.
//! * Within a warp, statements execute in program order, so two accesses
//!   are concurrent only when they come from different lanes of the *same
//!   dynamic instruction* (same per-warp sequence number) — e.g. two
//!   lanes of one store hitting one word.
//! * Kernel launches are synchronous in this model, so the log is per
//!   launch: the kernel boundary is a happens-before edge and nothing is
//!   carried across launches.
//!
//! # Classification
//!
//! Two concurrent accesses to a word race when at least one is a plain
//! (non-atomic) write. Races are split into *benign* classes — the ones
//! the paper's kernels rely on deliberately — and *harmful* ones:
//!
//! | class | accesses | verdict |
//! |---|---|---|
//! | `same-value-store` | concurrent plain stores, all of one value | benign |
//! | `read-vs-uniform-store` | plain read vs plain stores of one value | benign |
//! | `read-vs-atomic` | plain read vs atomic update | benign |
//! | `conflicting-stores` | concurrent plain stores of distinct values | harmful |
//! | `read-vs-store` | plain read vs stores of distinct values | harmful |
//! | `atomic-vs-store` | atomic update vs concurrent plain store | harmful |
//!
//! Atomic-vs-atomic is never a race. The benign classes are still
//! *races* — they are reported, with the classification explaining why
//! the kernel's result does not depend on their outcome: a load that
//! races with an `atomicMin` reads a stale-but-valid value (monotone
//! relaxation re-examines it next iteration), and stores of a single
//! value commute.

use crate::json::Json;
use crate::mem::global::DevicePtr;
use std::collections::BTreeMap;

/// Buffer slot used to mark shared-memory accesses in the log.
pub(crate) const SHARED_SLOT: u16 = u16::MAX;

/// What a logged access did to its word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Plain (non-atomic) load.
    Read,
    /// Plain (non-atomic) store.
    Write,
    /// Atomic read-modify-write.
    Atomic,
}

/// One logged word access, with its position in the happens-before order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessRecord {
    /// Buffer slot in the launch's argument list, or [`SHARED_SLOT`].
    pub(crate) buf: u16,
    /// Word index within the buffer (or shared memory).
    pub(crate) word: u32,
    /// Read, write, or atomic.
    pub(crate) kind: AccessKind,
    /// The stored value (writes only; 0 otherwise).
    pub(crate) value: u32,
    /// Block that issued the access.
    pub(crate) block: u32,
    /// Warp within the block.
    pub(crate) warp: u32,
    /// Barrier epoch of the warp at access time.
    pub(crate) epoch: u32,
    /// Per-warp dynamic statement number at access time.
    pub(crate) seq: u32,
}

/// The memories a kernel can modify, computed once when it compiles: per
/// buffer slot, whether the kernel stores to it or updates it atomically,
/// and whether it stores to shared memory.
#[derive(Debug, Clone)]
pub(crate) struct Writes {
    /// Indexed by buffer slot.
    pub(crate) bufs: Vec<bool>,
    /// The kernel has a shared-memory store.
    pub(crate) shared: bool,
}

/// One launch's access log, with the per-slot facts that key and filter
/// its records.
#[derive(Debug)]
pub(crate) struct RaceLog {
    /// The logged accesses, keyed by canonical slot.
    pub(crate) records: Vec<AccessRecord>,
    /// Per argument slot: the lowest slot bound to the same buffer.
    canon: Vec<u16>,
    /// Per argument slot: a plain load through it can race, because some
    /// slot bound to its buffer is stored to or atomically updated.
    racy_loads: Vec<bool>,
    /// A shared-memory load can race (the kernel stores to shared memory).
    racy_shared_loads: bool,
}

impl RaceLog {
    /// An empty log for a launch binding `bound` to the slots of a kernel
    /// that modifies `writes`.
    pub(crate) fn new(bound: &[DevicePtr], writes: &Writes) -> RaceLog {
        let canon: Vec<u16> = bound
            .iter()
            .enumerate()
            .map(|(s, p)| bound[..s].iter().position(|q| q == p).unwrap_or(s) as u16)
            .collect();
        let mut written = vec![false; bound.len()];
        for (s, &c) in canon.iter().enumerate() {
            written[c as usize] |= writes.bufs[s];
        }
        RaceLog {
            records: Vec::new(),
            racy_loads: canon.iter().map(|&c| written[c as usize]).collect(),
            canon,
            racy_shared_loads: writes.shared,
        }
    }

    /// True when a plain load through `slot` ([`SHARED_SLOT`] for shared
    /// memory) can be part of a race, so must be logged.
    #[inline]
    pub(crate) fn load_can_race(&self, slot: u16) -> bool {
        if slot == SHARED_SLOT {
            self.racy_shared_loads
        } else {
            self.racy_loads[slot as usize]
        }
    }

    /// Appends `r`, keyed by the canonical slot of its buffer.
    #[inline]
    pub(crate) fn push(&mut self, mut r: AccessRecord) {
        if r.buf != SHARED_SLOT {
            r.buf = self.canon[r.buf as usize];
        }
        self.records.push(r);
    }
}

/// Position of an access in the happens-before order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pos {
    block: u32,
    warp: u32,
    epoch: u32,
    seq: u32,
}

impl AccessRecord {
    fn pos(&self) -> Pos {
        Pos {
            block: self.block,
            warp: self.warp,
            epoch: self.epoch,
            seq: self.seq,
        }
    }
}

/// Why a detected race is (or is not) benign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RaceClass {
    /// Concurrent plain stores that all write the same value (the
    /// `workset_gen_bitmap` flag raise, ordered-BFS level stores).
    SameValueStore,
    /// Plain read concurrent with plain stores of a single value.
    ReadVsUniformStore,
    /// Plain read concurrent with an atomic update (the unordered
    /// relaxation pattern: `load(value)` racing `atomicMin(value)`).
    ReadVsAtomic,
    /// Concurrent plain stores of distinct values: the winner is
    /// schedule-dependent.
    ConflictingStores,
    /// Plain read concurrent with plain stores of distinct values.
    ReadVsStore,
    /// Atomic update concurrent with a plain store to the same word: the
    /// store can silently overwrite the atomic's result.
    AtomicVsStore,
}

impl RaceClass {
    /// True when the race can change results depending on scheduling.
    pub fn is_harmful(self) -> bool {
        matches!(
            self,
            RaceClass::ConflictingStores | RaceClass::ReadVsStore | RaceClass::AtomicVsStore
        )
    }

    /// Stable kebab-case name (used in JSON and messages).
    pub fn name(self) -> &'static str {
        match self {
            RaceClass::SameValueStore => "same-value-store",
            RaceClass::ReadVsUniformStore => "read-vs-uniform-store",
            RaceClass::ReadVsAtomic => "read-vs-atomic",
            RaceClass::ConflictingStores => "conflicting-stores",
            RaceClass::ReadVsStore => "read-vs-store",
            RaceClass::AtomicVsStore => "atomic-vs-store",
        }
    }
}

/// One detected race pattern: a (kernel, buffer, class) group covering
/// every word of that buffer where the pattern occurred.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaceFinding {
    /// Kernel the race occurred in.
    pub kernel: String,
    /// Race classification.
    pub class: RaceClass,
    /// Label of the racing buffer (`"<shared>"` for shared memory).
    pub buffer: String,
    /// Lowest racing word index, as an exemplar for debugging.
    pub word: u32,
    /// Number of distinct words showing this pattern.
    pub words: u64,
}

impl RaceFinding {
    /// This finding as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("kernel", self.kernel.as_str().into()),
            ("class", self.class.name().into()),
            ("harmful", Json::Bool(self.class.is_harmful())),
            ("buffer", self.buffer.as_str().into()),
            ("word", self.word.into()),
            ("words", self.words.into()),
        ])
    }
}

/// The race analysis of one kernel launch.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RaceReport {
    /// Kernel name.
    pub kernel: String,
    /// Benign findings (deliberate races the kernels rely on).
    pub benign: Vec<RaceFinding>,
    /// Harmful findings. Non-empty means the kernel's results may depend
    /// on hardware scheduling.
    pub harmful: Vec<RaceFinding>,
}

impl RaceReport {
    /// True when no harmful race was found (benign races are fine).
    pub fn is_clean(&self) -> bool {
        self.harmful.is_empty()
    }

    /// Total words with benign races.
    pub fn benign_words(&self) -> u64 {
        self.benign.iter().map(|f| f.words).sum()
    }

    /// Total words with harmful races.
    pub fn harmful_words(&self) -> u64 {
        self.harmful.iter().map(|f| f.words).sum()
    }

    /// This report as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("kernel", self.kernel.as_str().into()),
            ("clean", Json::Bool(self.is_clean())),
            ("benign", Json::arr(self.benign.iter().map(|f| f.to_json()))),
            (
                "harmful",
                Json::arr(self.harmful.iter().map(|f| f.to_json())),
            ),
        ])
    }
}

/// Race counters a [`crate::Device`] accumulates across launches (reset
/// together with the clock). Harmful findings keep a capped list of
/// exemplars for diagnostics.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RaceSummary {
    /// Launches analyzed (only those run with detection enabled).
    pub launches_checked: u64,
    /// Total benign racing words across launches.
    pub benign_words: u64,
    /// Total harmful racing words across launches.
    pub harmful_words: u64,
    /// First few harmful findings, for diagnostics.
    pub harmful: Vec<RaceFinding>,
}

/// Cap on the harmful exemplars a [`RaceSummary`] retains.
const SUMMARY_EXEMPLAR_CAP: usize = 32;

impl RaceSummary {
    /// Folds one launch's race report into the summary.
    pub fn absorb_report(&mut self, r: &RaceReport) {
        self.launches_checked += 1;
        self.benign_words += r.benign_words();
        self.harmful_words += r.harmful_words();
        for f in &r.harmful {
            if self.harmful.len() >= SUMMARY_EXEMPLAR_CAP {
                break;
            }
            self.harmful.push(f.clone());
        }
    }

    /// True when no harmful race has been seen.
    pub fn is_clean(&self) -> bool {
        self.harmful_words == 0
    }

    /// This summary as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("launches_checked", self.launches_checked.into()),
            ("benign_words", self.benign_words.into()),
            ("harmful_words", self.harmful_words.into()),
            ("clean", Json::Bool(self.is_clean())),
            (
                "harmful",
                Json::arr(self.harmful.iter().map(|f| f.to_json())),
            ),
        ])
    }
}

/// Above this many candidate pairs the concurrency helpers switch from
/// the O(n·m) scan to a sort-and-merge pass. Typical per-word groups are
/// a handful of accesses, so the scan path dominates in practice; the
/// sorted path keeps hub words (thousands of writers) out of quadratic
/// territory.
const PAIRWISE_LIMIT: usize = 256;

/// Two single-block positions are concurrent iff they share a barrier
/// epoch and either cross warps or land on one dynamic instruction
/// (same per-warp seq — two lanes of one store).
fn concurrent_pair(a: &Pos, b: &Pos) -> bool {
    a.epoch == b.epoch && (a.warp != b.warp || a.seq == b.seq)
}

/// True when some pair of positions, one from each slice, is concurrent.
fn concurrent_between(a: &[Pos], b: &[Pos]) -> bool {
    if a.is_empty() || b.is_empty() {
        return false;
    }
    // Cross-block pair: unless both sides sit in one identical block,
    // some pair spans two blocks.
    let b0 = a[0].block;
    if a.iter().chain(b).any(|p| p.block != b0) {
        return true;
    }
    if a.len().saturating_mul(b.len()) <= PAIRWISE_LIMIT {
        return a
            .iter()
            .any(|pa| b.iter().any(|pb| concurrent_pair(pa, pb)));
    }
    // Large slices: merge both sides sorted by (epoch, warp, seq) and
    // scan each epoch run once. Within an epoch that both sides reach,
    // two distinct warps always yield a cross-slice concurrent pair;
    // with a single warp the only concurrency is a seq shared by both
    // sides (two lanes of one instruction split across the slices).
    let mut merged: Vec<(Pos, bool)> = Vec::with_capacity(a.len() + b.len());
    merged.extend(a.iter().map(|&p| (p, false)));
    merged.extend(b.iter().map(|&p| (p, true)));
    merged.sort_unstable_by_key(|&(p, _)| (p.epoch, p.warp, p.seq));
    let mut i = 0;
    while i < merged.len() {
        let mut j = i;
        while j < merged.len() && merged[j].0.epoch == merged[i].0.epoch {
            j += 1;
        }
        let run = &merged[i..j];
        if run.iter().any(|&(_, s)| !s) && run.iter().any(|&(_, s)| s) {
            if run.iter().any(|&(p, _)| p.warp != run[0].0.warp) {
                return true;
            }
            let mut k = 0;
            while k < run.len() {
                let mut m = k;
                let (mut in_a, mut in_b) = (false, false);
                while m < run.len() && run[m].0.seq == run[k].0.seq {
                    in_a |= !run[m].1;
                    in_b |= run[m].1;
                    m += 1;
                }
                if in_a && in_b {
                    return true;
                }
                k = m;
            }
        }
        i = j;
    }
    false
}

/// True when some pair of distinct positions within the slice is
/// concurrent (two lanes or two warps reaching the same word).
fn concurrent_within(keys: &[Pos]) -> bool {
    if keys.len() < 2 {
        return false;
    }
    let b0 = keys[0].block;
    if keys.iter().any(|p| p.block != b0) {
        return true;
    }
    if keys.len() * keys.len() <= PAIRWISE_LIMIT {
        return keys
            .iter()
            .enumerate()
            .any(|(i, pa)| keys[i + 1..].iter().any(|pb| concurrent_pair(pa, pb)));
    }
    // Large slice: after sorting by (epoch, warp, seq), any concurrent
    // pair implies a concurrent *adjacent* pair — two warps sharing an
    // epoch meet at a warp boundary, and a repeated seq within one warp
    // sorts adjacent.
    let mut sorted = keys.to_vec();
    sorted.sort_unstable_by_key(|p| (p.epoch, p.warp, p.seq));
    sorted.windows(2).any(|w| concurrent_pair(&w[0], &w[1]))
}

/// Location key of a record: shared memory is per block, so the block
/// index joins the key for shared accesses (0 for global: one address
/// space — the same shared word in two blocks is two distinct locations).
fn loc_key(r: &AccessRecord) -> (u16, u32, u32) {
    let block_key = if r.buf == SHARED_SLOT { r.block } else { 0 };
    (r.buf, block_key, r.word)
}

/// Classifies a launch's access log into a [`RaceReport`].
///
/// `labels` are the buffer labels of the launch's argument list, indexed
/// by buffer slot; shared memory reports as `"<shared>"`.
///
/// Sorts the log in place by location so every per-word group is a
/// contiguous slice, then classifies each group with reused scratch
/// buffers. The classification booleans are order-independent, so the
/// record order the log arrives in never changes the report.
pub(crate) fn analyze(kernel: &str, labels: &[&str], records: &mut [AccessRecord]) -> RaceReport {
    records.sort_unstable_by_key(loc_key);
    let sorted: &[AccessRecord] = records;

    // (class, buf) -> (exemplar word, distinct word count)
    let mut found: BTreeMap<(RaceClass, u16), (u32, u64)> = BTreeMap::new();
    let mut note = |class: RaceClass, buf: u16, word: u32| {
        let e = found.entry((class, buf)).or_insert((word, 0));
        e.0 = e.0.min(word);
        e.1 += 1;
    };

    // Per-group scratch, reused across words.
    let mut reads: Vec<Pos> = Vec::new();
    let mut atomics: Vec<Pos> = Vec::new();
    let mut writes: Vec<(u32, Pos)> = Vec::new();
    let mut write_pos: Vec<Pos> = Vec::new();
    let mut bounds: Vec<usize> = Vec::new();

    let mut i = 0;
    while i < sorted.len() {
        let key = loc_key(&sorted[i]);
        let (buf, _, word) = key;
        reads.clear();
        atomics.clear();
        writes.clear();
        let mut j = i;
        while j < sorted.len() && loc_key(&sorted[j]) == key {
            let r = &sorted[j];
            match r.kind {
                AccessKind::Read => reads.push(r.pos()),
                AccessKind::Atomic => atomics.push(r.pos()),
                AccessKind::Write => writes.push((r.value, r.pos())),
            }
            j += 1;
        }
        i = j;

        if !writes.is_empty() {
            // Group stores by value: sort, then record the start of each
            // equal-value run. `write_pos` holds the positions in the
            // same (value-grouped) order.
            writes.sort_unstable_by_key(|&(v, _)| v);
            write_pos.clear();
            write_pos.extend(writes.iter().map(|&(_, p)| p));
            bounds.clear();
            for (k, w) in writes.iter().enumerate() {
                if k == 0 || w.0 != writes[k - 1].0 {
                    bounds.push(k);
                }
            }
            bounds.push(writes.len());
            let num_values = bounds.len() - 1;
            let group = |g: usize| &write_pos[bounds[g]..bounds[g + 1]];

            // Store-vs-store.
            if num_values > 1
                && (0..num_values).any(|ga| {
                    (ga + 1..num_values).any(|gb| concurrent_between(group(ga), group(gb)))
                })
            {
                note(RaceClass::ConflictingStores, buf, word);
            }
            if (0..num_values).any(|g| concurrent_within(group(g))) {
                note(RaceClass::SameValueStore, buf, word);
            }

            // Read-vs-store.
            if concurrent_between(&reads, &write_pos) {
                if num_values == 1 {
                    note(RaceClass::ReadVsUniformStore, buf, word);
                } else {
                    note(RaceClass::ReadVsStore, buf, word);
                }
            }

            // Atomic-vs-store.
            if concurrent_between(&atomics, &write_pos) {
                note(RaceClass::AtomicVsStore, buf, word);
            }
        }

        // Read-vs-atomic (no plain write needed).
        if concurrent_between(&reads, &atomics) {
            note(RaceClass::ReadVsAtomic, buf, word);
        }
    }

    let mut report = RaceReport {
        kernel: kernel.to_string(),
        benign: Vec::new(),
        harmful: Vec::new(),
    };
    for ((class, buf), (word, count)) in found {
        let buffer = if buf == SHARED_SLOT {
            "<shared>".to_string()
        } else {
            labels
                .get(buf as usize)
                .map_or_else(|| format!("buf{buf}"), |l| l.to_string())
        };
        let finding = RaceFinding {
            kernel: kernel.to_string(),
            class,
            buffer,
            word,
            words: count,
        };
        if class.is_harmful() {
            report.harmful.push(finding);
        } else {
            report.benign.push(finding);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[allow(clippy::too_many_arguments)]
    fn rec(
        buf: u16,
        word: u32,
        kind: AccessKind,
        value: u32,
        block: u32,
        warp: u32,
        epoch: u32,
        seq: u32,
    ) -> AccessRecord {
        AccessRecord {
            buf,
            word,
            kind,
            value,
            block,
            warp,
            epoch,
            seq,
        }
    }

    #[test]
    fn same_value_stores_are_benign() {
        // Two blocks both store 1 into flag[0] — the gen_bitmap pattern.
        let mut log = [
            rec(0, 0, AccessKind::Write, 1, 0, 0, 0, 3),
            rec(0, 0, AccessKind::Write, 1, 1, 0, 0, 3),
        ];
        let r = analyze("k", &["flag"], &mut log);
        assert!(r.is_clean());
        assert_eq!(r.benign.len(), 1);
        assert_eq!(r.benign[0].class, RaceClass::SameValueStore);
        assert_eq!(r.benign[0].buffer, "flag");
        assert_eq!(r.benign_words(), 1);
    }

    #[test]
    fn conflicting_stores_are_harmful() {
        let mut log = [
            rec(0, 5, AccessKind::Write, 1, 0, 0, 0, 3),
            rec(0, 5, AccessKind::Write, 2, 1, 0, 0, 3),
        ];
        let r = analyze("k", &["out"], &mut log);
        assert!(!r.is_clean());
        assert_eq!(r.harmful[0].class, RaceClass::ConflictingStores);
        assert_eq!(r.harmful[0].word, 5);
    }

    #[test]
    fn read_vs_atomic_is_benign() {
        // The unordered-relaxation pattern: load(value[m]) in one block,
        // atomicMin(value[m]) in another.
        let mut log = [
            rec(0, 7, AccessKind::Read, 0, 0, 0, 0, 2),
            rec(0, 7, AccessKind::Atomic, 3, 1, 0, 0, 4),
        ];
        let r = analyze("k", &["value"], &mut log);
        assert!(r.is_clean());
        assert_eq!(r.benign[0].class, RaceClass::ReadVsAtomic);
    }

    #[test]
    fn atomic_vs_store_is_harmful() {
        let mut log = [
            rec(0, 7, AccessKind::Atomic, 3, 0, 0, 0, 4),
            rec(0, 7, AccessKind::Write, 9, 1, 0, 0, 2),
        ];
        let r = analyze("k", &["value"], &mut log);
        assert_eq!(r.harmful[0].class, RaceClass::AtomicVsStore);
    }

    #[test]
    fn read_vs_uniform_store_is_benign_but_mixed_values_are_not() {
        let mut uniform = [
            rec(0, 1, AccessKind::Read, 0, 0, 0, 0, 2),
            rec(0, 1, AccessKind::Write, 4, 1, 0, 0, 3),
            rec(0, 1, AccessKind::Write, 4, 2, 0, 0, 3),
        ];
        let r = analyze("k", &["value"], &mut uniform);
        assert!(r.is_clean());
        assert!(r
            .benign
            .iter()
            .any(|f| f.class == RaceClass::ReadVsUniformStore));

        let mut mixed = [
            rec(0, 1, AccessKind::Read, 0, 0, 0, 0, 2),
            rec(0, 1, AccessKind::Write, 4, 1, 0, 0, 3),
            rec(0, 1, AccessKind::Write, 5, 2, 0, 0, 3),
        ];
        let r = analyze("k", &["value"], &mut mixed);
        assert!(r.harmful.iter().any(|f| f.class == RaceClass::ReadVsStore));
    }

    #[test]
    fn program_order_within_a_warp_is_not_a_race() {
        // Same warp, same epoch, different statements: ordered.
        let mut log = [
            rec(0, 0, AccessKind::Read, 0, 0, 0, 0, 1),
            rec(0, 0, AccessKind::Write, 9, 0, 0, 0, 2),
            rec(0, 0, AccessKind::Write, 7, 0, 0, 0, 3),
        ];
        let r = analyze("k", &["x"], &mut log);
        assert!(r.is_clean());
        assert!(r.benign.is_empty());
    }

    #[test]
    fn two_lanes_of_one_store_to_one_word_race() {
        // Same warp, same seq: two lanes of one instruction.
        let mut log = [
            rec(0, 0, AccessKind::Write, 1, 0, 0, 0, 2),
            rec(0, 0, AccessKind::Write, 2, 0, 0, 0, 2),
        ];
        let r = analyze("k", &["x"], &mut log);
        assert_eq!(r.harmful[0].class, RaceClass::ConflictingStores);
    }

    #[test]
    fn barrier_epoch_orders_warps_in_a_block() {
        // Producer stores in epoch 0, consumer reads in epoch 1 after a
        // sync: ordered. Same epoch would race.
        let mut ordered = [
            rec(0, 0, AccessKind::Write, 5, 0, 0, 0, 1),
            rec(0, 0, AccessKind::Read, 0, 0, 1, 1, 9),
        ];
        assert!(analyze("k", &["x"], &mut ordered).benign.is_empty());
        let mut racy = [
            rec(0, 0, AccessKind::Write, 5, 0, 0, 0, 1),
            rec(0, 0, AccessKind::Read, 0, 0, 1, 0, 9),
        ];
        assert!(!analyze("k", &["x"], &mut racy).benign.is_empty());
    }

    #[test]
    fn shared_memory_is_scoped_per_block() {
        // The same shared word written (with different values) by two
        // blocks is NOT a race: each block has its own shared memory.
        let mut log = [
            rec(SHARED_SLOT, 0, AccessKind::Write, 1, 0, 0, 0, 2),
            rec(SHARED_SLOT, 0, AccessKind::Write, 2, 1, 0, 0, 2),
        ];
        let r = analyze("k", &[], &mut log);
        assert!(r.is_clean());
        assert!(r.benign.is_empty());

        // Two warps of one block in the same epoch DO race.
        let mut log = [
            rec(SHARED_SLOT, 0, AccessKind::Write, 1, 0, 0, 0, 2),
            rec(SHARED_SLOT, 0, AccessKind::Write, 2, 0, 1, 0, 2),
        ];
        let r = analyze("k", &[], &mut log);
        assert_eq!(r.harmful[0].class, RaceClass::ConflictingStores);
        assert_eq!(r.harmful[0].buffer, "<shared>");
    }

    #[test]
    fn atomics_never_race_with_atomics() {
        let mut log = [
            rec(0, 0, AccessKind::Atomic, 1, 0, 0, 0, 2),
            rec(0, 0, AccessKind::Atomic, 2, 1, 0, 0, 2),
        ];
        let r = analyze("k", &["ctr"], &mut log);
        assert!(r.is_clean());
        assert!(r.benign.is_empty());
    }

    #[test]
    fn findings_aggregate_words_per_buffer_and_class() {
        let mut log = Vec::new();
        for w in [3u32, 8, 1] {
            log.push(rec(0, w, AccessKind::Write, 1, 0, 0, 0, 2));
            log.push(rec(0, w, AccessKind::Write, 1, 1, 0, 0, 2));
        }
        let r = analyze("k", &["update"], &mut log);
        assert_eq!(r.benign.len(), 1);
        assert_eq!(r.benign[0].words, 3);
        assert_eq!(r.benign[0].word, 1); // lowest exemplar
    }

    #[test]
    fn summary_accumulates_and_caps() {
        let mut s = RaceSummary::default();
        let benign = analyze(
            "k",
            &["f"],
            &mut [
                rec(0, 0, AccessKind::Write, 1, 0, 0, 0, 1),
                rec(0, 0, AccessKind::Write, 1, 1, 0, 0, 1),
            ],
        );
        s.absorb_report(&benign);
        assert!(s.is_clean());
        assert_eq!(s.launches_checked, 1);
        assert_eq!(s.benign_words, 1);
        let harmful = analyze(
            "k",
            &["f"],
            &mut [
                rec(0, 0, AccessKind::Write, 1, 0, 0, 0, 1),
                rec(0, 0, AccessKind::Write, 2, 1, 0, 0, 1),
            ],
        );
        for _ in 0..40 {
            s.absorb_report(&harmful);
        }
        assert!(!s.is_clean());
        assert_eq!(s.harmful_words, 40);
        assert_eq!(s.harmful.len(), 32); // capped exemplars
        let json = s.to_json().render();
        assert!(json.contains("\"harmful_words\":40"));
        assert!(json.contains("conflicting-stores"));
    }

    #[test]
    fn report_json_shape() {
        let r = analyze(
            "bfs",
            &["value"],
            &mut [
                rec(0, 2, AccessKind::Read, 0, 0, 0, 0, 1),
                rec(0, 2, AccessKind::Atomic, 9, 1, 0, 0, 1),
            ],
        );
        let s = r.to_json().render();
        assert!(s.contains("\"kernel\":\"bfs\""));
        assert!(s.contains("\"clean\":true"));
        assert!(s.contains("read-vs-atomic"));
        assert!(s.contains("\"harmful\":[]"));
    }

    #[test]
    fn race_log_keys_aliased_slots_by_buffer() {
        // Slots 0 and 2 share one buffer; only slot 2 is ever stored to.
        let (a, b) = (DevicePtr(7), DevicePtr(9));
        let writes = Writes {
            bufs: vec![false, false, true],
            shared: false,
        };
        let mut log = RaceLog::new(&[a, b, a], &writes);
        assert!(log.load_can_race(0));
        assert!(!log.load_can_race(1));
        assert!(log.load_can_race(2));
        assert!(!log.load_can_race(SHARED_SLOT));
        log.push(rec(2, 4, AccessKind::Write, 1, 0, 0, 0, 1));
        log.push(rec(SHARED_SLOT, 4, AccessKind::Write, 1, 0, 0, 0, 1));
        assert_eq!(log.records[0].buf, 0);
        assert_eq!(log.records[1].buf, SHARED_SLOT);
    }
}
