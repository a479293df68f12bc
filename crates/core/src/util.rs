//! Small internal utilities shared by the greedy algorithms.

use rmsa_diffusion::AdId;
use rmsa_graph::NodeId;
use std::borrow::Cow;
use std::collections::BinaryHeap;

/// A `(key, node, ad)` queue entry with a per-advertiser version stamp
/// used for CELF-style lazy greedy evaluation: an entry whose stamp is older
/// than its advertiser's current version carries a stale (upper-bound) key
/// and must be re-evaluated before it can be selected.
#[derive(Clone, Copy, Debug)]
pub struct LazyEntry {
    /// Cached key (marginal gain or marginal rate). By submodularity it is
    /// an upper bound on the current value whenever it is stale.
    pub key: f64,
    /// Candidate node.
    pub node: NodeId,
    /// Candidate advertiser.
    pub ad: AdId,
    /// Version of `ad`'s seed set when `key` was computed.
    pub version: u32,
}

impl LazyEntry {
    /// The entry's position in queue order packed into one integer: see
    /// [`pack`].
    fn packed(&self) -> u128 {
        pack(self.key, self.node, self.ad)
    }

    /// The version-0 entry behind a [`pack`]ed key.
    fn unpack(packed: u128) -> LazyEntry {
        let ordered = (packed >> 64) as u64;
        // Undo `pack`'s bit flips: a set top bit marks a non-negative key.
        let bits = if ordered >> 63 == 1 {
            ordered & !(1 << 63)
        } else {
            !ordered
        };
        LazyEntry {
            key: f64::from_bits(bits),
            node: (packed >> 32) as NodeId,
            ad: packed_ad(packed),
            version: 0,
        }
    }
}

/// A `(key, node, ad)` triple packed into one integer whose unsigned order
/// is the queue order: the key under `f64::total_cmp`, then the node, then
/// the advertiser (advertiser ids are below 2³²).
pub fn pack(key: f64, node: NodeId, ad: AdId) -> u128 {
    let bits = key.to_bits();
    // Negative floats order by reversed magnitude: flipping every bit
    // of a negative and only the sign bit of a non-negative makes the
    // unsigned order agree with `total_cmp`.
    let ordered = if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    };
    debug_assert!(u32::try_from(ad).is_ok(), "advertiser id overflows");
    (u128::from(ordered) << 64) | (u128::from(node) << 32) | ad as u128
}

/// The advertiser of a [`pack`]ed key.
pub fn packed_ad(packed: u128) -> AdId {
    (packed as u32) as AdId
}

/// The node of a [`pack`]ed key.
pub fn packed_node(packed: u128) -> NodeId {
    (packed >> 32) as NodeId
}

/// The posting group `ad · num_nodes + node` of a [`pack`]ed key.
pub fn packed_group(packed: u128, num_nodes: usize) -> usize {
    packed_ad(packed) * num_nodes + packed_node(packed) as usize
}

/// Sort `keys` into descending order, cheaply when they nearly are: each
/// key that rises above its predecessor is moved into place by a binary
/// search and a block shift, until the shifts reach [`SHIFT_BUDGET`]
/// times the length, when `sort_unstable` takes over. Returns the keys
/// moved, or `usize::MAX` when the sort took over.
pub fn sort_nearly_sorted(keys: &mut [u128]) -> usize {
    let (mut moved, mut shifted) = (0usize, 0usize);
    for i in 1..keys.len() {
        let key = keys[i];
        if keys[i - 1] >= key {
            continue;
        }
        let j = keys[..i].partition_point(|&k| k > key);
        keys[j..=i].rotate_right(1);
        moved += 1;
        shifted += i - j;
        if shifted > SHIFT_BUDGET * keys.len() {
            keys.sort_unstable_by(|a, b| b.cmp(a));
            return usize::MAX;
        }
    }
    moved
}

/// Keys [`sort_nearly_sorted`] may shift, per key, before it sorts.
const SHIFT_BUDGET: usize = 4;

/// Version-0 queue entries as [`pack`]ed keys, sorted once into
/// descending queue order, so several queues can start from
/// the same candidates without re-sorting. A packed key is 16 bytes
/// against an entry's 24 and compares as one integer.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SortedRun(Vec<u128>);

impl SortedRun {
    /// Sort version-0 `entries` with one `sort_unstable` on the packed key.
    pub fn new(entries: Vec<LazyEntry>) -> Self {
        debug_assert!(
            entries.iter().all(|e| !e.key.is_nan() && e.version == 0),
            "run entries must be version 0 with non-NaN keys"
        );
        SortedRun::from_packed(entries.iter().map(LazyEntry::packed).collect())
    }

    /// Sort [`pack`]ed keys.
    pub fn from_packed(mut keys: Vec<u128>) -> Self {
        keys.sort_unstable_by(|a, b| b.cmp(a));
        SortedRun(keys)
    }

    /// Wrap [`pack`]ed keys that are already in strictly descending order.
    pub fn from_sorted(keys: Vec<u128>) -> Self {
        debug_assert!(
            keys.windows(2).all(|w| w[0] > w[1]),
            "keys must be strictly descending"
        );
        SortedRun(keys)
    }

    /// The entries, in order.
    pub fn entries(&self) -> impl Iterator<Item = LazyEntry> + '_ {
        self.0.iter().map(|&p| LazyEntry::unpack(p))
    }

    /// The [`pack`]ed keys, in order.
    pub fn keys(&self) -> &[u128] {
        &self.0
    }
}

/// A CELF lazy-greedy priority queue over `(node, advertiser)` candidates.
///
/// The initial candidates live in a [`SortedRun`] read through a cursor
/// and unpacked on pop, always at version 0; only CELF re-pushes go into a
/// binary heap of packed keys and their versions, which stays small. `pop`
/// returns the larger of the run head and the heap top. Callers keep at most one live entry per
/// `(node, ad)` pair and the order is total, so no two live entries
/// compare equal and the pop sequence is exactly that of one max-heap
/// holding every entry.
#[derive(Clone, Debug)]
pub struct LazyQueue<'a> {
    run: Cow<'a, [u128]>,
    next: usize,
    /// Re-pushed entries: the [`pack`]ed key, then the version. Live
    /// keys never tie, so the version never decides the order.
    refresh: BinaryHeap<(u128, u32)>,
}

impl LazyQueue<'static> {
    /// Queue over the given initial candidates.
    pub fn from_entries(entries: Vec<LazyEntry>) -> Self {
        LazyQueue::owning(SortedRun::new(entries))
    }

    /// Queue whose initial candidates are an owned, already sorted run.
    pub fn owning(run: SortedRun) -> Self {
        LazyQueue::from_run(Cow::Owned(run.0))
    }
}

impl<'a> LazyQueue<'a> {
    /// Queue whose initial candidates are a borrowed, already sorted run.
    pub fn borrowing(run: &'a SortedRun) -> Self {
        LazyQueue::from_run(Cow::Borrowed(&run.0))
    }

    fn from_run(run: Cow<'a, [u128]>) -> Self {
        LazyQueue {
            run,
            next: 0,
            refresh: BinaryHeap::new(),
        }
    }

    /// Number of entries currently queued.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn len(&self) -> usize {
        self.run.len() - self.next + self.refresh.len()
    }

    /// Re-insert a candidate with a refreshed key.
    pub fn push(&mut self, key: f64, node: NodeId, ad: AdId, version: u32) {
        debug_assert!(!key.is_nan(), "queue keys must not be NaN");
        self.refresh.push((pack(key, node, ad), version));
    }

    /// [`Self::pop`] after stepping the run's cursor to the next position
    /// whose bit is set in `alive` (bit `i % 64` of word `i / 64` for run
    /// position `i`). Only an entry that could never be taken again may
    /// have its bit clear: the pops that remain then keep their order.
    pub fn pop_alive(&mut self, alive: &[u64]) -> Option<LazyEntry> {
        let mut word = self.next / 64;
        let mut bits = alive
            .get(word)
            .map_or(0, |&w| w & (!0u64 << (self.next % 64)));
        while bits == 0 && word + 1 < alive.len() {
            word += 1;
            bits = alive[word];
        }
        self.next = if bits == 0 {
            self.run.len()
        } else {
            (word * 64 + bits.trailing_zeros() as usize).min(self.run.len())
        };
        self.pop()
    }

    /// Pop the entry with the largest cached key.
    pub fn pop(&mut self) -> Option<LazyEntry> {
        let refreshed = |(packed, version)| LazyEntry {
            version,
            ..LazyEntry::unpack(packed)
        };
        match (self.run.get(self.next), self.refresh.peek()) {
            (Some(&head), Some(&(top, _))) if top > head => self.refresh.pop().map(refreshed),
            (Some(&head), _) => {
                self.next += 1;
                Some(LazyEntry::unpack(head))
            }
            (None, _) => self.refresh.pop().map(refreshed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_pcg::Pcg64Mcg;
    use std::cmp::Ordering;

    // The reference order the packed keys implement: the key under
    // `total_cmp`, then the node, then the advertiser.
    impl PartialEq for LazyEntry {
        fn eq(&self, other: &Self) -> bool {
            self.key == other.key && self.node == other.node && self.ad == other.ad
        }
    }

    impl Eq for LazyEntry {}

    impl PartialOrd for LazyEntry {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    impl Ord for LazyEntry {
        fn cmp(&self, other: &Self) -> Ordering {
            // Largest first by key; NaN keys are rejected at construction time, and
            // total_cmp gives every float a total order regardless.
            self.key
                .total_cmp(&other.key)
                .then_with(|| self.node.cmp(&other.node))
                .then_with(|| self.ad.cmp(&other.ad))
        }
    }

    fn entry(key: f64, node: NodeId, ad: AdId) -> LazyEntry {
        LazyEntry {
            key,
            node,
            ad,
            version: 0,
        }
    }

    fn drain(q: &mut LazyQueue<'_>) -> Vec<(f64, NodeId, AdId)> {
        std::iter::from_fn(|| q.pop().map(|e| (e.key, e.node, e.ad))).collect()
    }

    #[test]
    fn pops_in_descending_key_order() {
        let mut q =
            LazyQueue::from_entries(vec![entry(1.0, 0, 0), entry(5.0, 1, 0), entry(3.0, 2, 1)]);
        let keys: Vec<f64> = drain(&mut q).into_iter().map(|e| e.0).collect();
        assert_eq!(keys, vec![5.0, 3.0, 1.0]);
    }

    #[test]
    fn ties_are_broken_deterministically() {
        let mut q = LazyQueue::from_entries(vec![entry(2.0, 3, 0), entry(2.0, 7, 0)]);
        assert_eq!(q.pop().unwrap().node, 7);
        assert_eq!(q.pop().unwrap().node, 3);
    }

    #[test]
    fn len_and_is_empty_track_contents() {
        let mut q = LazyQueue::from_entries(vec![entry(1.0, 0, 0)]);
        assert_eq!(q.len(), 1);
        let e = q.pop().unwrap();
        assert_eq!(q.len(), 0);
        q.push(0.5, e.node, e.ad, 1);
        assert_eq!(q.len(), 1);
        q.pop();
        assert_eq!(q.len(), 0);
        assert!(q.pop().is_none());
    }

    #[test]
    fn packed_key_orders_like_entry_cmp() {
        let keys = [
            f64::NEG_INFINITY,
            -f64::MAX,
            -2.5,
            -f64::MIN_POSITIVE,
            -1e-310, // negative subnormal
            -5e-324, // smallest-magnitude negative subnormal
            -0.0,
            0.0,
            5e-324,
            1e-310,
            f64::MIN_POSITIVE,
            2.5,
            f64::MAX,
            f64::INFINITY,
        ];
        let mut entries = Vec::new();
        for &key in &keys {
            for node in [0, 1, u32::MAX] {
                for ad in [0, 1, 9] {
                    entries.push(entry(key, node, ad));
                }
            }
        }
        for a in &entries {
            for b in &entries {
                assert_eq!(a.packed().cmp(&b.packed()), a.cmp(b), "{a:?} vs {b:?}");
            }
            // Unpacking restores the entry bit for bit, at version 0.
            let back = LazyEntry::unpack(a.packed());
            assert_eq!(
                (back.key.to_bits(), back.node, back.ad, back.version),
                (a.key.to_bits(), a.node, a.ad, 0),
                "{a:?}"
            );
        }
        // -0.0 sorts strictly below +0.0, as under total_cmp.
        assert!(entry(-0.0, 5, 5).packed() < entry(0.0, 0, 0).packed());
        // Key ties fall back to the node, then the advertiser.
        assert!(entry(1.0, 2, 0).packed() > entry(1.0, 1, 9).packed());
        assert!(entry(1.0, 1, 3).packed() > entry(1.0, 1, 2).packed());
    }

    #[test]
    fn pop_sequence_matches_a_single_binary_heap() {
        let mut rng = Pcg64Mcg::seed_from_u64(42);
        for trial in 0..200 {
            let num_nodes = rng.gen_range(1..40u32);
            let num_ads = rng.gen_range(1..5usize);
            // Coarse keys force plenty of ties on the key alone.
            let draw = |rng: &mut Pcg64Mcg| rng.gen_range(-3..8i32) as f64 * 0.5;
            let mut initial = Vec::new();
            for node in 0..num_nodes {
                for ad in 0..num_ads {
                    if rng.gen_bool(0.7) {
                        initial.push(entry(draw(&mut rng), node, ad));
                    }
                }
            }
            let mut reference: BinaryHeap<LazyEntry> = initial.iter().copied().collect();
            let mut queue = LazyQueue::from_entries(initial);
            for pop in 0.. {
                let expected = reference.pop();
                let got = queue.pop();
                assert_eq!(
                    expected.map(|e| (e.key, e.node, e.ad, e.version)),
                    got.map(|e| (e.key, e.node, e.ad, e.version)),
                    "trial {trial}, pop {pop}"
                );
                let Some(e) = got else { break };
                // CELF refresh: re-push the popped pair, whose only live
                // entry it was, with a key that never grows.
                if rng.gen_bool(0.5) {
                    let key = e.key - rng.gen_range(0..3i32) as f64 * 0.5;
                    let version = e.version + 1;
                    reference.push(LazyEntry { key, version, ..e });
                    queue.push(key, e.node, e.ad, version);
                }
                assert_eq!(queue.len(), reference.len());
            }
        }
    }

    #[test]
    fn borrowed_runs_replay_identically() {
        let run = SortedRun::new(vec![entry(1.0, 0, 0), entry(4.0, 1, 1), entry(2.0, 2, 0)]);
        let first = drain(&mut LazyQueue::borrowing(&run));
        let second = drain(&mut LazyQueue::borrowing(&run));
        assert_eq!(first, second);
        assert_eq!(first, vec![(4.0, 1, 1), (2.0, 2, 0), (1.0, 0, 0)]);
    }

    /// Stepping past cleared bits gives the pops of a queue that checks
    /// each entry as it pops, while entries die as the pops go on (a
    /// node's entries are cleared once it is taken, as a depleted
    /// advertiser's are) and refreshed entries are re-pushed.
    #[test]
    fn pop_alive_matches_checking_each_pop_under_a_growing_dead_set() {
        for trial in 0..50u64 {
            let mut rng = Pcg64Mcg::seed_from_u64(trial);
            let entries: Vec<LazyEntry> = (0..rng.gen_range(1..300u32))
                .map(|i| entry(f64::from(rng.gen_range(0..40i32)), i % 97, i as AdId % 3))
                .collect();
            let run = SortedRun::new(entries);
            // Takes an entry unless its node is dead; refreshes a fresh
            // entry once, at random, with a lower key.
            let drive = |skipping: bool| {
                let mut rng = Pcg64Mcg::seed_from_u64(trial);
                let mut queue = LazyQueue::borrowing(&run);
                let mut alive = vec![0u64; run.keys().len().div_ceil(64)];
                for i in 0..run.keys().len() {
                    alive[i / 64] |= 1 << (i % 64);
                }
                let mut dead = [false; 97];
                let mut taken = Vec::new();
                loop {
                    let popped = if skipping {
                        queue.pop_alive(&alive)
                    } else {
                        queue.pop()
                    };
                    let Some(e) = popped else { break };
                    if dead[e.node as usize] {
                        continue;
                    }
                    if e.version == 0 && rng.gen_bool(0.3) {
                        queue.push(e.key - 0.5, e.node, e.ad, 1);
                        continue;
                    }
                    dead[e.node as usize] = true;
                    for (i, &key) in run.keys().iter().enumerate() {
                        if packed_node(key) == e.node {
                            alive[i / 64] &= !(1 << (i % 64));
                        }
                    }
                    taken.push((e.key, e.node, e.ad, e.version));
                }
                taken
            };
            assert_eq!(drive(true), drive(false), "trial {trial}");
        }
    }

    #[test]
    fn pop_alive_steps_past_cleared_run_entries_only() {
        let run = SortedRun::new(vec![
            entry(1.0, 0, 0),
            entry(4.0, 1, 1),
            entry(2.0, 2, 0),
            entry(3.0, 3, 1),
        ]);
        let mut q = LazyQueue::borrowing(&run);
        // Positions count along the sorted run: 4.0, 3.0, 2.0, 1.0; the
        // one at position 2 is cleared.
        let alive = [0b1011];
        let first = q.pop_alive(&alive).unwrap();
        assert_eq!((first.key, first.node), (4.0, 1));
        // A re-pushed entry is never filtered, and still wins on its key.
        q.push(3.5, 1, 1, 1);
        let got: Vec<(f64, NodeId)> = std::iter::from_fn(|| q.pop_alive(&alive))
            .map(|e| (e.key, e.node))
            .collect();
        assert_eq!(got, vec![(3.5, 1), (3.0, 3), (1.0, 0)]);
        // Past the last set bit only the refresh heap is left.
        let mut q = LazyQueue::borrowing(&run);
        q.push(0.5, 9, 0, 1);
        assert_eq!(q.pop_alive(&[0]).map(|e| e.node), Some(9));
        assert!(q.pop_alive(&[0]).is_none());
    }
}
