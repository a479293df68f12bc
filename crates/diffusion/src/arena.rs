//! Columnar RR-set storage and the incrementally extendable coverage index.
//!
//! Every RR-set collection in the workspace — the shared cache's streams,
//! the TI baselines' per-advertiser collections and the tests' fixtures —
//! lives in these two flat, cache-friendly structures; no set is boxed in
//! its own `Vec` and no index is a jagged `Vec<Vec<u32>>`:
//!
//! * [`RrArena`] — a columnar store: one `nodes` buffer holding every
//!   member of every RR-set back to back, CSR-style `offsets` delimiting
//!   the sets, and a parallel `ads` column with each set's advertiser.
//!   Appending a set is a bump-pointer push; the memory footprint is a
//!   closed-form function of three vector capacities.
//! * [`CoverageIndex`] — the inverted `(advertiser, node) → RR-set` index,
//!   stored as a sequence of immutable CSR *segments* whose posting groups
//!   are advertiser-major, so a per-advertiser query never sees another
//!   advertiser's sets. Extending the arena appends one new segment
//!   covering exactly the new sets; the segments indexed for a smaller
//!   collection are never touched again (the *extend-never-rebuild* rule).
//!   [`CoverageIndex::view`] takes an O(#segments) snapshot — a
//!   [`CoverageView`] — that stays valid and immutable while the index
//!   keeps growing, which is what lets estimators built at different
//!   sample sizes θ share one index.
//!
//! Generation is deterministic in a thread-count independent way: work is
//! split into fixed-size chunks of [`GENERATION_CHUNK`] RR-sets and every
//! chunk derives its RNG from `(seed, chunk_index)`, so a collection is a
//! pure function of `(seed, count)` no matter how many worker threads
//! produced it. Sharded generation ([`RrArena::generate_sharded`]) builds
//! on the same invariant: a [`ShardSpan`] is a contiguous range of chunk
//! indices, every shard derives its RNGs from the *global* chunk index,
//! and shards concatenate in order — so the result is bit-identical to
//! unsharded generation for any shard count.
//!
//! [`RrArena::generate_for`] cannot key chunks: its sets are one parse of
//! the caller's RNG stream (the TI baselines' pinned per-advertiser
//! collections). It runs on several threads all the same, by speculating
//! on later stretches of the stream and splicing each parse in where it
//! joins the true one (see the `splice` module); the sets, the next draw
//! and the footprint are the serial loop's at every thread count.
//! [`CoverageIndex::extend_to`] builds a segment by a counting sort over
//! contiguous ranges of sets, one per thread, byte-equal at every thread
//! count too.
//!
//! All three arena columns and both CSR columns of every coverage segment
//! are [`rmsa_store::Column`]s: owned when generated or decoded from
//! in-memory bytes, borrowed zero-copy when restored from an aligned v2
//! snapshot mapping.

use crate::models::{AdId, PropagationModel};
use crate::rr::{ResolvedModel, RrGenerator, RrStrategy};
use crate::sampler::UniformRrSampler;
use rand::{Rng, SeedableRng};
use rand_pcg::Pcg64Mcg;
use rmsa_graph::{DirectedGraph, NodeId};
use rmsa_store::Column;
use std::ops::Range;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// RR-sets per generation chunk. Each chunk owns an RNG derived from
/// `(seed, chunk_index)`, making parallel generation a deterministic
/// function of `(seed, count)` regardless of the worker-thread count.
pub const GENERATION_CHUNK: usize = 1024;

/// Fewest sets a [`RrArena::generate_for`] call splits across threads;
/// smaller calls draw serially. On flixster-syn's TIC rows (about 13
/// draws and 80–100 ns a set), two threads lost to one up to 4,096 sets,
/// broke even around 8,192 and won by 1.1–1.4× at 16,384 and 1.5–1.9× at
/// 100,000 (2 vCPUs; `bench_rr_generation`'s `tic_flixster/splice_gate`
/// points time both sides).
pub const MIN_SPLICED_SETS: usize = 16_384;

/// Fewest member entries a thread of [`CoverageIndex::extend_to`] indexes;
/// a smaller extension is indexed on fewer threads, down to one. On the
/// TI baselines' flixster-syn index (15,000 groups), two threads broke
/// even at about 25,000 entries and ran 1.8–1.9× faster from 120,000 on
/// (`bench_coverage`'s `extend` points).
const MIN_INDEX_ENTRIES_PER_THREAD: usize = 1 << 15;

/// Columnar store of RR-sets: flat member buffer + CSR offsets + a
/// parallel advertiser column. Append-only; set `i`'s members are
/// `nodes[offsets[i]..offsets[i + 1]]` and its root is the first member.
#[derive(Clone, Debug)]
pub struct RrArena {
    pub(crate) num_nodes: usize,
    pub(crate) strategy: RrStrategy,
    pub(crate) nodes: Column<NodeId>,
    pub(crate) offsets: Column<usize>,
    /// Advertiser of each set (u32 column: matches the wire format, so a
    /// mapped snapshot load borrows it without conversion).
    pub(crate) ads: Column<u32>,
}

/// Borrowed view of one RR-set inside an [`RrArena`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RrSetRef<'a> {
    /// Advertiser whose edge probabilities generated the set.
    pub ad: AdId,
    /// Member nodes; the first entry is the root.
    pub nodes: &'a [NodeId],
}

impl RrSetRef<'_> {
    /// The uniformly random root the set was grown from.
    pub fn root(&self) -> NodeId {
        self.nodes[0]
    }

    /// Number of member nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// An RR-set always contains its root, so it is never empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

impl RrArena {
    /// Create an empty arena for graphs with `num_nodes` nodes.
    pub fn new(num_nodes: usize, strategy: RrStrategy) -> Self {
        RrArena {
            num_nodes,
            strategy,
            nodes: Column::new(),
            offsets: vec![0].into(),
            ads: Column::new(),
        }
    }

    /// Drop every set but keep the columns' capacity, so refilling the
    /// arena allocates and faults in nothing it already held.
    pub fn clear(&mut self) {
        self.nodes.to_mut().clear();
        self.offsets.to_mut().truncate(1);
        self.ads.to_mut().clear();
    }

    /// Number of RR-sets currently held.
    pub fn len(&self) -> usize {
        self.ads.len()
    }

    /// True when no RR-set has been generated yet.
    pub fn is_empty(&self) -> bool {
        self.ads.is_empty()
    }

    /// Number of nodes in the graph the arena was generated for.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// The RR-set generation strategy in use.
    pub fn strategy(&self) -> RrStrategy {
        self.strategy
    }

    /// Total member entries across all sets.
    pub fn total_entries(&self) -> usize {
        self.nodes.len()
    }

    /// Average RR-set size (node entries per set); O(1).
    pub fn mean_size(&self) -> f64 {
        if self.ads.is_empty() {
            0.0
        } else {
            self.nodes.len() as f64 / self.ads.len() as f64
        }
    }

    /// Approximate memory footprint in bytes (the Fig. 4 memory proxy):
    /// owned heap plus file-mapped bytes.
    ///
    /// O(1): the columnar layout makes the footprint a closed form of the
    /// three column sizes, so polling this per sweep point costs nothing.
    pub fn memory_bytes(&self) -> usize {
        self.resident_bytes() + self.mapped_bytes()
    }

    /// Owned heap bytes (excludes columns borrowed from a snapshot
    /// mapping — those cost page cache, not private heap).
    pub fn resident_bytes(&self) -> usize {
        self.nodes.resident_bytes() + self.offsets.resident_bytes() + self.ads.resident_bytes()
    }

    /// Bytes borrowed zero-copy from a snapshot mapping.
    pub fn mapped_bytes(&self) -> usize {
        self.nodes.mapped_bytes() + self.offsets.mapped_bytes() + self.ads.mapped_bytes()
    }

    /// Advertiser of RR-set `i`.
    pub fn ad_of(&self, i: usize) -> AdId {
        self.ads[i] as AdId
    }

    /// Member nodes of RR-set `i` (root first).
    pub fn nodes_of(&self, i: usize) -> &[NodeId] {
        &self.nodes[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Member entries of sets `[from, to)` as one contiguous slice (the
    /// payoff of the columnar layout: a range of sets is a range of the
    /// flat buffer).
    pub fn nodes_of_range(&self, from: usize, to: usize) -> &[NodeId] {
        &self.nodes[self.offsets[from]..self.offsets[to]]
    }

    /// Borrowed view of RR-set `i`.
    pub fn set(&self, i: usize) -> RrSetRef<'_> {
        RrSetRef {
            ad: self.ad_of(i),
            nodes: self.nodes_of(i),
        }
    }

    /// Iterate over all RR-sets in generation order.
    pub fn iter(&self) -> impl Iterator<Item = RrSetRef<'_>> + '_ {
        (0..self.len()).map(move |i| self.set(i))
    }

    /// Append one RR-set with explicit members (`members[0]` must be the
    /// root). Test/tooling escape hatch; generation goes through
    /// [`RrArena::generate`] / [`RrArena::generate_parallel`] /
    /// [`RrArena::generate_for`].
    pub fn push_set(&mut self, ad: AdId, members: &[NodeId]) {
        assert!(!members.is_empty(), "an RR-set always contains its root");
        assert!(
            ad <= u32::MAX as usize,
            "advertiser ids are stored as u32 columns"
        );
        self.nodes.extend_from_slice(members);
        self.offsets.push(self.nodes.len());
        self.ads.push(ad as u32);
    }

    /// Append `count` RR-sets generated sequentially with an external
    /// `rng` (test/tooling path; the cache uses the chunk-deterministic
    /// [`RrArena::generate_parallel`]).
    pub fn generate<M: PropagationModel + ?Sized, R: Rng>(
        &mut self,
        graph: &DirectedGraph,
        model: &M,
        sampler: &UniformRrSampler,
        count: usize,
        rng: &mut R,
    ) {
        let source = ResolvedModel::new(graph, model, self.strategy, 0..sampler.num_ads(), count);
        let mut gen = RrGenerator::new(graph.num_nodes(), self.strategy);
        self.reserve_for(count);
        for _ in 0..count {
            let ad = sampler.sample_ad(rng);
            self.emit_for(&source, ad, &mut gen, rng);
        }
    }

    /// Append `count` RR-sets for the fixed advertiser `ad`, drawing each
    /// root and then its reverse BFS from the caller's `rng`, and leave
    /// `rng` after the last draw. This is the per-advertiser collection of
    /// the TI baselines: the sets of one advertiser occupy one contiguous
    /// id range.
    ///
    /// The sets are one parse of `rng`'s stream, whatever `num_threads`
    /// is: with one thread (or fewer than [`MIN_SPLICED_SETS`] sets) the
    /// loop draws them in order; with more, threads parse later stretches
    /// of the stream speculatively and the calling thread splices them in
    /// where they join its own parse (see the `splice` module). Sets, the
    /// next draw and `memory_bytes` are identical either way.
    pub fn generate_for<M: PropagationModel + ?Sized>(
        &mut self,
        graph: &DirectedGraph,
        model: &M,
        ad: AdId,
        count: usize,
        num_threads: usize,
        rng: &mut Pcg64Mcg,
    ) {
        let source = ResolvedModel::new(graph, model, self.strategy, [ad], count);
        self.reserve_for(count);
        if num_threads > 1 && count >= MIN_SPLICED_SETS {
            self.generate_spliced(&source, ad, count, num_threads, rng);
            return;
        }
        let mut gen = RrGenerator::new(graph.num_nodes(), self.strategy);
        for _ in 0..count {
            self.emit_for(&source, ad, &mut gen, rng);
        }
    }

    /// Append `count` RR-sets generated by up to `num_threads` workers.
    ///
    /// The work is split into [`GENERATION_CHUNK`]-sized chunks; chunk `k`
    /// draws from an RNG derived from `(seed, k)`, and chunks are appended
    /// in index order. The resulting collection therefore depends only on
    /// `(seed, count)` — one thread or sixteen produce bit-identical
    /// arenas.
    pub fn generate_parallel<M: PropagationModel + ?Sized>(
        &mut self,
        graph: &DirectedGraph,
        model: &M,
        sampler: &UniformRrSampler,
        count: usize,
        num_threads: usize,
        seed: u64,
    ) {
        if count == 0 {
            return;
        }
        let source = ResolvedModel::new(graph, model, self.strategy, 0..sampler.num_ads(), count);
        let chunks = 0..count.div_ceil(GENERATION_CHUNK);
        self.generate_chunks(&source, sampler, count, chunks, num_threads, seed);
    }

    /// Generate `chunks` of a `total`-set batch; every worker borrows the
    /// caller's `source`. Chunk `k` always draws from `chunk_rng(seed, k)`
    /// with `k` a *global* chunk index, so disjoint chunk ranges generated
    /// into separate arenas and concatenated in order are bit-identical to
    /// one full-range pass.
    fn generate_chunks<M: PropagationModel + ?Sized>(
        &mut self,
        source: &ResolvedModel<'_, M>,
        sampler: &UniformRrSampler,
        total: usize,
        chunks: Range<usize>,
        num_threads: usize,
        seed: u64,
    ) {
        let (chunk_from, chunk_to) = (chunks.start, chunks.end);
        if chunk_to <= chunk_from {
            return;
        }
        let graph = source.graph();
        let num_chunks = total.div_ceil(GENERATION_CHUNK);
        let chunk_len = |k: usize| {
            if k + 1 == num_chunks {
                total - k * GENERATION_CHUNK
            } else {
                GENERATION_CHUNK
            }
        };
        let span_sets: usize = (chunk_from..chunk_to).map(chunk_len).sum();
        let num_threads = num_threads.max(1).min(chunk_to - chunk_from);
        self.reserve_for(span_sets);
        // One thread takes the chunk path too, so the arena's capacities,
        // and with them `memory_bytes`, do not depend on the thread count.
        let strategy = self.strategy;
        let next = AtomicUsize::new(chunk_from);
        let mut produced: Vec<(usize, Chunk)> = fork(0..num_threads, |_| {
            let mut gen = RrGenerator::new(graph.num_nodes(), strategy);
            let mut mine = Vec::new();
            loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                if k >= chunk_to {
                    return mine;
                }
                let mut chunk = Chunk::with_capacity(chunk_len(k));
                let mut rng = chunk_rng(seed, k);
                for _ in 0..chunk_len(k) {
                    chunk.emit_one(source, sampler, &mut gen, &mut rng);
                }
                mine.push((k, chunk));
            }
        })
        .into_iter()
        .flatten()
        .collect();
        produced.sort_unstable_by_key(|(k, _)| *k);
        for (_, chunk) in produced {
            self.append_chunk(chunk);
        }
    }

    fn reserve_for(&mut self, count: usize) {
        self.ads.to_mut().reserve(count);
        self.offsets.to_mut().reserve(count);
    }

    /// Append the set that starts at `rng`'s position.
    pub(crate) fn emit_for<M: PropagationModel + ?Sized, R: Rng>(
        &mut self,
        source: &ResolvedModel<'_, M>,
        ad: AdId,
        gen: &mut RrGenerator,
        rng: &mut R,
    ) {
        gen.draw_into(source, ad, rng, self.nodes.to_mut());
        self.offsets.push(self.nodes.len());
        // Ads are `< num_ads`, far below u32::MAX.
        self.ads.push(ad as u32);
    }

    fn append_chunk(&mut self, chunk: Chunk) {
        let base = self.nodes.len();
        self.nodes.extend_from_slice(&chunk.nodes);
        let offsets = self.offsets.to_mut();
        for &end in &chunk.ends {
            offsets.push(base + end);
        }
        self.ads.extend_from_slice(&chunk.ads);
    }

    /// Append every set of `shard` (concatenation: `shard`'s set `i`
    /// becomes set `self.len() + i`). Shards produced by
    /// [`RrArena::generate_shard`] over consecutive [`ShardSpan`]s merge
    /// into exactly the arena unsharded generation would have produced.
    pub fn append_arena(&mut self, shard: &RrArena) {
        assert_eq!(
            self.num_nodes, shard.num_nodes,
            "shards must come from the same graph"
        );
        assert_eq!(
            self.strategy, shard.strategy,
            "shards must use the same RR strategy"
        );
        let base = self.nodes.len();
        self.nodes.extend_from_slice(&shard.nodes);
        let offsets = self.offsets.to_mut();
        for &end in &shard.offsets[1..] {
            offsets.push(base + end);
        }
        self.ads.extend_from_slice(&shard.ads);
    }

    /// Generate one shard of a `count`-set batch into its own arena.
    ///
    /// The shard draws every chunk RNG from the *master* `seed` and the
    /// global chunk index recorded in `span`, so the shard's content is
    /// independent of how many shards the batch was split into.
    #[allow(clippy::too_many_arguments)]
    pub fn generate_shard<M: PropagationModel + ?Sized>(
        graph: &DirectedGraph,
        model: &M,
        sampler: &UniformRrSampler,
        strategy: RrStrategy,
        count: usize,
        span: ShardSpan,
        num_threads: usize,
        seed: u64,
    ) -> RrArena {
        let mut shard = RrArena::new(graph.num_nodes(), strategy);
        shard.generate_chunks(
            &ResolvedModel::new(graph, model, strategy, 0..sampler.num_ads(), span.len()),
            sampler,
            count,
            span.chunk_from..span.chunk_to,
            num_threads,
            seed,
        );
        shard
    }

    /// Append `count` RR-sets generated as `num_shards` independent arena
    /// shards (one scoped thread per shard, `num_threads` split between
    /// them), merged in shard order.
    ///
    /// Bit-identical to [`RrArena::generate_parallel`] with the same
    /// `(seed, count)` for *any* shard count — the sharded analogue of the
    /// thread-count-independence invariant. The merged extension is
    /// indexed as one coverage segment by [`CoverageIndex::extend_from`].
    #[allow(clippy::too_many_arguments)] // mirrors generate_chunks' knobs
    pub fn generate_sharded<M: PropagationModel + ?Sized>(
        &mut self,
        graph: &DirectedGraph,
        model: &M,
        sampler: &UniformRrSampler,
        count: usize,
        num_shards: usize,
        num_threads: usize,
        seed: u64,
    ) {
        let spans = shard_plan(count, num_shards);
        if count > 0 {
            let strategy = self.strategy;
            let per_shard_threads = (num_threads.max(1) / spans.len().max(1)).max(1);
            let source = &ResolvedModel::new(graph, model, strategy, 0..sampler.num_ads(), count);
            let shards = fork(spans, |span| {
                let mut shard = RrArena::new(graph.num_nodes(), strategy);
                shard.generate_chunks(
                    source,
                    sampler,
                    count,
                    span.chunk_from..span.chunk_to,
                    per_shard_threads,
                    seed,
                );
                shard
            });
            for shard in &shards {
                self.append_arena(shard);
            }
        }
    }
}

/// The `memory_bytes` a fresh [`RrArena`] reaches under a sequence of
/// [`RrArena::generate_for`] calls, whatever arena the calls ran in.
///
/// A reused arena keeps the capacity of its largest fill, so its own
/// footprint depends on what it held before. This ledger replays what a
/// fresh arena allocates instead: `ads` and `offsets` grow as
/// `Vec::reserve` grows them for each call's count, and `nodes`, filled
/// one push at a time from empty, doubles to `max(4, len.next_power_of_two())`.
#[derive(Clone, Copy, Debug)]
pub struct FreshFootprint {
    sets: usize,
    ads_capacity: usize,
    offsets_capacity: usize,
}

impl Default for FreshFootprint {
    fn default() -> Self {
        // A fresh arena's `offsets` is `vec![0]`.
        FreshFootprint {
            sets: 0,
            ads_capacity: 0,
            offsets_capacity: 1,
        }
    }
}

impl FreshFootprint {
    /// Record one `generate_for` call of `count` sets.
    pub fn generate_for(&mut self, count: usize) {
        self.ads_capacity = reserved(self.ads_capacity, self.sets, count);
        self.offsets_capacity = reserved(self.offsets_capacity, self.sets + 1, count);
        self.sets += count;
    }

    /// What a fresh arena's [`RrArena::memory_bytes`] would read, given the
    /// `arena` those calls filled.
    pub fn memory_bytes(&self, arena: &RrArena) -> usize {
        debug_assert_eq!(arena.len(), self.sets, "a call went unrecorded");
        let entries = arena.total_entries();
        let nodes_capacity = if entries == 0 {
            0
        } else {
            entries.next_power_of_two().max(4)
        };
        nodes_capacity * std::mem::size_of::<NodeId>()
            + self.offsets_capacity * std::mem::size_of::<usize>()
            + self.ads_capacity * std::mem::size_of::<u32>()
    }
}

/// The capacity `Vec::reserve(additional)` leaves a vector of `len`
/// elements in `capacity`: unchanged when the room is there, else the
/// larger of double and exact need, and at least 4.
fn reserved(capacity: usize, len: usize, additional: usize) -> usize {
    if capacity - len >= additional {
        capacity
    } else {
        (2 * capacity).max(len + additional).max(4)
    }
}

/// Contiguous slice of one generation batch assigned to a shard: RR-sets
/// `[set_from, set_to)`, produced from global chunks
/// `[chunk_from, chunk_to)`. Spans are chunk-aligned so every chunk RNG is
/// derived exactly as unsharded generation derives it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardSpan {
    /// First RR-set index of the span, relative to the batch.
    pub set_from: usize,
    /// One past the last RR-set index of the span.
    pub set_to: usize,
    pub(crate) chunk_from: usize,
    pub(crate) chunk_to: usize,
}

impl ShardSpan {
    /// Number of RR-sets in the span.
    pub fn len(&self) -> usize {
        self.set_to - self.set_from
    }

    /// True when the span covers no set.
    pub fn is_empty(&self) -> bool {
        self.set_to == self.set_from
    }
}

/// Split a `count`-set generation batch into at most `num_shards`
/// contiguous, chunk-aligned spans. Shards are balanced to within one
/// chunk; when there are fewer chunks than requested shards, the plan has
/// fewer (non-empty) spans instead of empty shards.
pub fn shard_plan(count: usize, num_shards: usize) -> Vec<ShardSpan> {
    let num_chunks = count.div_ceil(GENERATION_CHUNK);
    let num_shards = num_shards.max(1);
    let mut spans = Vec::with_capacity(num_shards.min(num_chunks));
    let mut chunk_from = 0usize;
    for shard in 0..num_shards {
        let chunk_to = (shard + 1) * num_chunks / num_shards;
        if chunk_to <= chunk_from {
            continue;
        }
        spans.push(ShardSpan {
            set_from: chunk_from * GENERATION_CHUNK,
            set_to: (chunk_to * GENERATION_CHUNK).min(count),
            chunk_from,
            chunk_to,
        });
        chunk_from = chunk_to;
    }
    spans
}

/// One worker-local columnar batch, merged into the arena in chunk order.
struct Chunk {
    ads: Vec<u32>,
    /// Exclusive end offset of each set within `nodes`.
    ends: Vec<usize>,
    nodes: Vec<NodeId>,
}

impl Chunk {
    fn with_capacity(sets: usize) -> Self {
        Chunk {
            ads: Vec::with_capacity(sets),
            ends: Vec::with_capacity(sets),
            nodes: Vec::new(),
        }
    }

    fn emit_one<M: PropagationModel + ?Sized, R: Rng>(
        &mut self,
        source: &ResolvedModel<'_, M>,
        sampler: &UniformRrSampler,
        gen: &mut RrGenerator,
        rng: &mut R,
    ) {
        let ad = sampler.sample_ad(rng);
        gen.draw_into(source, ad, rng, &mut self.nodes);
        self.ends.push(self.nodes.len());
        // Sampled ads are `< num_ads`, far below u32::MAX.
        self.ads.push(ad as u32);
    }
}

fn chunk_rng(seed: u64, chunk: usize) -> Pcg64Mcg {
    Pcg64Mcg::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(chunk as u64 + 1))
}

/// Run `f` on every input, the first on the calling thread and each of
/// the others on a scoped thread of its own; the outputs come back in
/// input order, and a panic in any of them resumes on the caller.
fn fork<I: Send, O: Send>(
    inputs: impl IntoIterator<Item = I>,
    f: impl Fn(I) -> O + Sync,
) -> Vec<O> {
    let mut inputs = inputs.into_iter();
    let Some(first) = inputs.next() else {
        return Vec::new();
    };
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = inputs.map(|input| scope.spawn(move || f(input))).collect();
        let mut outputs = vec![f(first)];
        outputs.extend(handles.into_iter().map(|h| match h.join() {
            Ok(output) => output,
            Err(payload) => std::panic::resume_unwind(payload),
        }));
        outputs
    })
}

/// One immutable CSR block of the inverted index, covering RR-sets
/// `[rr_base, rr_base + num_sets)`. Once built, a segment is never
/// modified — prefix views stay valid while the index grows.
///
/// Postings are grouped **advertiser-major**: group `ad · n + u` lists the
/// segment's RR-sets generated for advertiser `ad` that contain node `u`,
/// so every per-advertiser query walks exactly its own postings. With one
/// advertiser the layout is byte-identical to a node-major CSR.
#[derive(Debug)]
pub struct CoverageSegment {
    pub(crate) rr_base: u32,
    pub(crate) num_sets: u32,
    /// Group boundaries into `entries`; length `num_ads · num_nodes + 1`,
    /// group `ad · num_nodes + u` at `offsets[g]..offsets[g + 1]`.
    pub(crate) offsets: Column<u32>,
    /// Ascending absolute RR-set ids within each group.
    pub(crate) entries: Column<u32>,
}

impl CoverageSegment {
    /// First RR-set id this segment covers.
    pub fn rr_base(&self) -> u32 {
        self.rr_base
    }

    /// Number of RR-sets this segment covers.
    pub fn num_sets(&self) -> u32 {
        self.num_sets
    }

    /// Absolute ids of the segment's RR-sets in posting group `group`
    /// (`ad · num_nodes + u`).
    fn group(&self, group: usize) -> &[u32] {
        &self.entries[self.offsets[group] as usize..self.offsets[group + 1] as usize]
    }

    fn resident_bytes(&self) -> usize {
        self.offsets.resident_bytes() + self.entries.resident_bytes()
    }

    fn mapped_bytes(&self) -> usize {
        self.offsets.mapped_bytes() + self.entries.mapped_bytes()
    }
}

/// Incrementally extendable inverted `(advertiser, node) → RR-set` index
/// over an [`RrArena`], plus the per-`(advertiser, node)` singleton
/// coverage counts, both maintained once per arena extension — never per
/// estimator and never rebuilt.
///
/// Mutation is append-only: [`CoverageIndex::extend_to`] adds one
/// immutable [`CoverageSegment`] for the new sets and bumps the shared
/// singleton column (copy-on-write when an older [`CoverageView`] still
/// holds it, in place otherwise).
#[derive(Clone, Debug)]
pub struct CoverageIndex {
    pub(crate) num_nodes: usize,
    pub(crate) num_ads: usize,
    pub(crate) num_rr: usize,
    pub(crate) segments: Vec<Arc<CoverageSegment>>,
    /// `singleton[ad * num_nodes + u]` = #indexed RR-sets of `ad`
    /// containing `u`.
    pub(crate) singleton: Arc<Column<u32>>,
    /// What views of the current extension derive on first use and
    /// share. Snapshots do not store it.
    pub(crate) derived: Arc<Derived>,
}

/// Data a [`CoverageView`] derives from its counts and postings when first
/// asked, shared by every view of the same index extension. An extension
/// or a snapshot load starts afresh, so older views keep what they derived
/// from their own counts. None of it is ever persisted, and none of it is
/// needed for an exact answer: it only spares a solve work.
#[derive(Debug, Default)]
pub(crate) struct Derived {
    /// [`CoverageView::singleton_order`].
    order: OnceLock<Vec<u32>>,
    /// [`CoverageView::private_count`], by posting group.
    private: OnceLock<Vec<u32>>,
    /// [`CoverageView::rate_orders`].
    rate_orders: RateOrders,
}

/// Most rate orders a [`RateOrders`] keeps: one per incentive model of the
/// paper's experiments.
pub const RATE_ORDERS: usize = 3;

/// The most recent orders of all posting groups `ad · n + u` that solves
/// over one coverage view sorted their singleton rates into, at most
/// [`RATE_ORDERS`], most recent first.
///
/// A rate `rev / (cost + rev)` with `cost = α · g(spread)` orders the
/// groups almost the same way for every α of one incentive model, so a
/// solve that starts from a recent order only has to repair it. The cache
/// never decides an answer: a solve recomputes every key and sorts what
/// the order leaves unsorted.
#[derive(Debug, Default)]
pub struct RateOrders(Mutex<Vec<Arc<[u32]>>>);

impl RateOrders {
    /// The cached orders, most recent first.
    pub fn orders(&self) -> Vec<Arc<[u32]>> {
        self.0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Record `order` as the most recent one. It takes the place of
    /// `replaces` when that is still cached (compared by address),
    /// otherwise of the least recent order once [`RATE_ORDERS`] are kept.
    ///
    /// # Panics
    ///
    /// When `order` is not a permutation of `0..order.len()`: a solve
    /// that started from it would lose some groups' keys.
    pub fn record(&self, order: Arc<[u32]>, replaces: Option<&Arc<[u32]>>) {
        let mut seen = vec![false; order.len()];
        for &g in order.iter() {
            let slot = seen.get_mut(g as usize);
            assert!(
                slot.is_some_and(|s| !std::mem::replace(s, true)),
                "a rate order must be a permutation of its groups"
            );
        }
        // Every update below leaves a list of whole orders, so a poisoned
        // lock still guards valid data.
        let mut orders = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(old) = replaces {
            orders.retain(|o| !Arc::ptr_eq(o, old));
        }
        orders.insert(0, order);
        orders.truncate(RATE_ORDERS);
    }
}

impl CoverageIndex {
    /// Create an empty index for graphs with `num_nodes` nodes and
    /// `num_ads` advertisers.
    pub fn new(num_nodes: usize, num_ads: usize) -> Self {
        assert!(num_ads > 0, "at least one advertiser required");
        CoverageIndex {
            num_nodes,
            num_ads,
            num_rr: 0,
            segments: Vec::new(),
            singleton: Arc::new(vec![0u32; num_ads * num_nodes].into()),
            derived: Arc::default(),
        }
    }

    /// Number of indexed RR-sets.
    pub fn num_rr(&self) -> usize {
        self.num_rr
    }

    /// Number of nodes in the underlying graph.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of advertisers the postings and singleton counts are keyed by.
    pub fn num_ads(&self) -> usize {
        self.num_ads
    }

    /// Number of immutable CSR segments (one per arena extension).
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// Index every set the arena holds beyond the current position, in one
    /// segment (a sharded extension is indexed here once, after its shards
    /// were merged into the arena), on up to `num_threads` threads.
    /// Returns the number of newly indexed sets.
    pub fn extend_from(&mut self, arena: &RrArena, num_threads: usize) -> usize {
        self.extend_to(arena, arena.len(), num_threads)
    }

    /// Index arena sets `[self.num_rr(), upto)`, appending one immutable
    /// segment; already-indexed sets are never revisited. Returns the
    /// number of newly indexed sets.
    ///
    /// A counting sort keyed by group `ad · n + u`, over contiguous ranges
    /// of the new sets, one per thread. Each range counts its group sizes;
    /// the counts are prefix-summed group by group and, within a group,
    /// range by range; each range then writes its postings from its own
    /// cursors. A range's postings of a group follow those of the ranges
    /// before it, so ids ascend within every group and the segment is
    /// byte-equal for any `num_threads`. Each range must hold at least
    /// 32,768 member entries, and no fewer than there are groups, to repay
    /// its private counts.
    pub fn extend_to(&mut self, arena: &RrArena, upto: usize, num_threads: usize) -> usize {
        assert_eq!(
            arena.num_nodes(),
            self.num_nodes,
            "index was created for a different graph"
        );
        let from = self.num_rr;
        let to = upto.min(arena.len());
        if to <= from {
            return 0;
        }
        // The segment stores u32 offsets and RR-set ids; guard the casts
        // before any arithmetic can wrap.
        assert!(
            to <= u32::MAX as usize,
            "coverage index caps at u32::MAX RR-sets per stream"
        );
        let segment_entries: usize = arena.nodes_of_range(from, to).len();
        assert!(
            segment_entries <= u32::MAX as usize,
            "one index extension caps at u32::MAX member entries \
             (split the request into smaller extensions)"
        );

        let n = self.num_nodes;
        let groups = self.num_ads * n;
        let per_thread = groups.max(MIN_INDEX_ENTRIES_PER_THREAD);
        let threads = (segment_entries / per_thread).clamp(1, num_threads.max(1));
        let ranges = (0..threads).map(|t| {
            let span = to - from;
            from + span * t / threads..from + span * (t + 1) / threads
        });
        let group_of = |i: usize| {
            let ad = arena.ad_of(i);
            debug_assert!(ad < self.num_ads, "advertiser id out of range");
            ad * n
        };
        // Pass 1: each range's group sizes.
        let mut cursors = fork(ranges.clone(), |sets| {
            let mut counts = vec![0u32; groups];
            for i in sets {
                let base = group_of(i);
                for &u in arena.nodes_of(i) {
                    counts[base + u as usize] += 1;
                }
            }
            counts
        });
        // Prefix sums, group-major then range-major, turn each range's
        // counts into its write cursors; a group's total bumps its
        // singleton count. `to_mut` promotes a column still borrowed from
        // a snapshot mapping to owned before writing.
        let singleton = Arc::make_mut(&mut self.singleton).to_mut();
        let mut offsets = vec![0u32; groups + 1];
        let mut next = 0u32;
        for g in 0..groups {
            offsets[g] = next;
            for cursor in &mut cursors {
                let count = cursor[g];
                cursor[g] = next;
                next += count;
            }
            singleton[g] += next - offsets[g];
        }
        offsets[groups] = next;
        // Pass 2: each range writes its postings at its own cursors. The
        // ranges write disjoint slots and the scope joins every thread
        // before the entries are read, so relaxed stores suffice.
        let entries: Vec<AtomicU32> = (0..segment_entries).map(|_| AtomicU32::new(0)).collect();
        fork(ranges.zip(cursors), |(sets, mut cursor)| {
            for i in sets {
                let base = group_of(i);
                for &u in arena.nodes_of(i) {
                    let c = &mut cursor[base + u as usize];
                    entries[*c as usize].store(i as u32, Ordering::Relaxed);
                    *c += 1;
                }
            }
        });
        let entries: Vec<u32> = entries.into_iter().map(AtomicU32::into_inner).collect();
        self.segments.push(Arc::new(CoverageSegment {
            rr_base: from as u32,
            num_sets: (to - from) as u32,
            offsets: offsets.into(),
            entries: entries.into(),
        }));
        self.num_rr = to;
        // The counts changed: later views derive afresh, while older views
        // keep what they derived from their own counts.
        self.derived = Arc::default();
        to - from
    }

    /// O(#segments) immutable snapshot sharing the index's storage.
    pub fn view(&self) -> CoverageView {
        CoverageView {
            num_nodes: self.num_nodes,
            num_ads: self.num_ads,
            num_rr: self.num_rr,
            segments: self.segments.clone(),
            singleton: Arc::clone(&self.singleton),
            derived: Arc::clone(&self.derived),
        }
    }

    /// Approximate memory footprint in bytes (index only, not the arena):
    /// owned heap plus mapped bytes.
    pub fn memory_bytes(&self) -> usize {
        self.resident_bytes() + self.mapped_bytes()
    }

    /// Owned heap bytes of the index storage.
    pub fn resident_bytes(&self) -> usize {
        index_resident_bytes(&self.segments, &self.singleton)
    }

    /// Bytes borrowed zero-copy from a snapshot mapping.
    pub fn mapped_bytes(&self) -> usize {
        index_mapped_bytes(&self.segments, &self.singleton)
    }
}

/// Shared owned-heap formula for [`CoverageIndex`] and its views.
fn index_resident_bytes(segments: &[Arc<CoverageSegment>], singleton: &Column<u32>) -> usize {
    segments.iter().map(|s| s.resident_bytes()).sum::<usize>() + singleton.resident_bytes()
}

/// Shared mapped-bytes formula for [`CoverageIndex`] and its views.
fn index_mapped_bytes(segments: &[Arc<CoverageSegment>], singleton: &Column<u32>) -> usize {
    segments.iter().map(|s| s.mapped_bytes()).sum::<usize>() + singleton.mapped_bytes()
}

/// Immutable snapshot of a [`CoverageIndex`]: the coverage-query surface
/// every estimator in `rmsa-core` runs against. Cheap to clone (Arc
/// bumps); stays valid — and bit-identical — while the index it was taken
/// from keeps extending.
#[derive(Clone, Debug)]
pub struct CoverageView {
    num_nodes: usize,
    num_ads: usize,
    num_rr: usize,
    segments: Vec<Arc<CoverageSegment>>,
    singleton: Arc<Column<u32>>,
    derived: Arc<Derived>,
}

impl CoverageView {
    /// Number of RR-sets covered by this snapshot.
    pub fn num_rr(&self) -> usize {
        self.num_rr
    }

    /// Number of nodes in the underlying graph.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of advertisers.
    pub fn num_ads(&self) -> usize {
        self.num_ads
    }

    /// The immutable CSR segments, in RR-set order.
    pub fn segments(&self) -> &[Arc<CoverageSegment>] {
        &self.segments
    }

    /// Number of RR-sets of `ad` containing `u` (maintained incrementally
    /// per index extension, not recomputed per estimator).
    pub fn singleton_count(&self, ad: AdId, u: NodeId) -> u32 {
        self.singleton[ad * self.num_nodes + u as usize]
    }

    /// Every posting group `ad · num_nodes + u`, by descending
    /// [`Self::singleton_count`], then descending node, then descending
    /// advertiser. For any `scale > 0` this is the greedy queue's order of
    /// the singleton revenues `scale · count` with their `(node, ad)`
    /// tie-break, so a solve can filter it instead of sorting.
    ///
    /// Sorted once, by the first caller, and shared by every view of the
    /// same extension; concurrent first callers get one identical order.
    pub fn singleton_order(&self) -> &[u32] {
        self.derived
            .order
            .get_or_init(|| order_by_count(&self.singleton, self.num_nodes, self.num_ads))
    }

    /// Number of RR-sets of `ad` whose only member is `u`: the part of
    /// [`Self::singleton_count`] no other seed can cover. Derived from the
    /// postings by the first caller and shared like
    /// [`Self::singleton_order`].
    pub fn private_count(&self, ad: AdId, u: NodeId) -> u32 {
        self.derived
            .private
            .get_or_init(|| private_counts(&self.segments, self.num_rr, self.singleton.len()))
            [ad * self.num_nodes + u as usize]
    }

    /// The rate orders solves over this view settled on; see
    /// [`RateOrders`].
    pub fn rate_orders(&self) -> &RateOrders {
        &self.derived.rate_orders
    }

    /// Visit, in ascending order, the id of every RR-set generated for
    /// `ad` that contains `node` — exactly
    /// [`Self::singleton_count`]`(ad, node)` ids, across all segments.
    pub fn for_each_rr_of(&self, ad: AdId, node: NodeId, mut f: impl FnMut(u32)) {
        let group = ad * self.num_nodes + node as usize;
        for segment in &self.segments {
            for &rr in segment.group(group) {
                f(rr);
            }
        }
    }

    /// Number of RR-sets generated for `ad` that intersect `seeds`
    /// (from-scratch query; incremental callers keep a [`CoverBitset`]).
    pub fn coverage_count(&self, ad: AdId, seeds: &[NodeId]) -> usize {
        let mut covered = CoverBitset::new(self.num_rr);
        let mut count = 0usize;
        for &u in seeds {
            self.for_each_rr_of(ad, u, |rr| count += usize::from(covered.set(rr)));
        }
        count
    }

    /// Number of RR-sets covered by a full allocation `S⃗` (each RR-set is
    /// covered iff the seed set of *its own* advertiser intersects it).
    pub fn allocation_coverage_count(&self, allocation: &[Vec<NodeId>]) -> usize {
        self.allocation_coverage_counts(allocation).iter().sum()
    }

    /// [`Self::coverage_count`] of every advertiser's seed set in
    /// `allocation`, in one pass.
    pub fn allocation_coverage_counts(&self, allocation: &[Vec<NodeId>]) -> Vec<usize> {
        // Advertisers own disjoint RR-sets, so one bitset serves them all.
        let mut covered = CoverBitset::new(self.num_rr);
        (allocation.iter().enumerate())
            .map(|(ad, seeds)| {
                let mut count = 0usize;
                for &u in seeds {
                    self.for_each_rr_of(ad, u, |rr| count += usize::from(covered.set(rr)));
                }
                count
            })
            .collect()
    }

    /// Approximate memory footprint in bytes of the shared index storage
    /// (owned heap plus mapped bytes).
    pub fn memory_bytes(&self) -> usize {
        self.resident_bytes() + self.mapped_bytes()
    }

    /// Heap-owned portion of [`Self::memory_bytes`].
    pub fn resident_bytes(&self) -> usize {
        index_resident_bytes(&self.segments, &self.singleton)
    }

    /// Snapshot-mapped portion of [`Self::memory_bytes`] (pages borrowed
    /// from a mapped `.rmsnap` file rather than allocated).
    pub fn mapped_bytes(&self) -> usize {
        index_mapped_bytes(&self.segments, &self.singleton)
    }
}

/// The groups of `singleton` sorted as [`CoverageView::singleton_order`]
/// states. One `u64` key per group: the count above the pair index
/// `node · num_ads + ad`, which orders pairs by node and then advertiser.
fn order_by_count(singleton: &[u32], num_nodes: usize, num_ads: usize) -> Vec<u32> {
    let groups = singleton.len();
    assert!(
        u32::try_from(groups).is_ok(),
        "posting group ids must fit in u32"
    );
    let mut keys: Vec<u64> = Vec::with_capacity(groups);
    for (ad, counts) in singleton.chunks_exact(num_nodes.max(1)).enumerate() {
        for (u, &count) in counts.iter().enumerate() {
            keys.push(u64::from(count) << 32 | (u * num_ads + ad) as u64);
        }
    }
    keys.sort_unstable_by(|a, b| b.cmp(a));
    keys.into_iter()
        .map(|key| {
            let pair = (key & u64::from(u32::MAX)) as usize;
            ((pair % num_ads) * num_nodes + pair / num_ads) as u32
        })
        .collect()
}

/// Per posting group, the RR-sets whose only member is the group's node.
/// A set has one posting per member, so a set of one member is an id that
/// occurs once among the segments' entries.
fn private_counts(segments: &[Arc<CoverageSegment>], num_rr: usize, groups: usize) -> Vec<u32> {
    let mut sizes = vec![0u8; num_rr];
    for segment in segments {
        for &rr in segment.entries.iter() {
            let size = &mut sizes[rr as usize];
            *size = size.saturating_add(1);
        }
    }
    let mut private = vec![0u32; groups];
    for segment in segments {
        for (g, count) in private.iter_mut().enumerate() {
            *count += segment
                .group(g)
                .iter()
                .filter(|&&rr| sizes[rr as usize] == 1)
                .count() as u32;
        }
    }
    private
}

/// Dense bitset over RR-set ids: 64 covered-flags per word instead of the
/// old one-`bool`-per-set map (8× smaller, so greedy covered-state fits in
/// cache far longer).
#[derive(Clone, Debug, Default)]
pub struct CoverBitset {
    words: Vec<u64>,
}

impl CoverBitset {
    /// An empty bitset able to hold `len` bits.
    pub fn new(len: usize) -> Self {
        CoverBitset {
            words: vec![0u64; len.div_ceil(64)],
        }
    }

    /// Whether bit `i` is set.
    pub fn test(&self, i: u32) -> bool {
        (self.words[(i >> 6) as usize] >> (i & 63)) & 1 != 0
    }

    /// Set bit `i`; returns true when the bit was previously clear.
    pub fn set(&mut self, i: u32) -> bool {
        let word = &mut self.words[(i >> 6) as usize];
        let mask = 1u64 << (i & 63);
        let newly = *word & mask == 0;
        *word |= mask;
        newly
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Approximate heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{MaterializedModel, UniformIc, WeightedCascade};
    use rmsa_graph::generators::barabasi_albert;
    use rmsa_graph::graph_from_edges;

    fn rng() -> Pcg64Mcg {
        Pcg64Mcg::seed_from_u64(7)
    }

    fn collect_sets(arena: &RrArena) -> Vec<(AdId, Vec<NodeId>)> {
        arena.iter().map(|s| (s.ad, s.nodes.to_vec())).collect()
    }

    #[test]
    fn fresh_footprint_replays_a_fresh_arenas_growth() {
        let g = barabasi_albert(300, 3, &mut rng());
        let m = UniformIc::new(2, 0.2);
        let strategy = RrStrategy::Standard;
        let mut counts = rng();
        // A reused arena, first filled past every sequence below.
        let mut reused = RrArena::new(300, strategy);
        reused.generate_for(&g, &m, 0, 5 * (MIN_SPLICED_SETS + 4_000), 1, &mut rng());
        for trial in 0..24 {
            let threads = 1 + trial % 2;
            let calls = counts.gen_range(0..6);
            let sequence: Vec<usize> = (0..calls)
                .map(|_| match counts.gen_range(0..4) {
                    0 => 0,
                    1 => counts.gen_range(1..10),
                    2 => counts.gen_range(10..3_000),
                    _ => counts.gen_range(MIN_SPLICED_SETS..MIN_SPLICED_SETS + 4_000),
                })
                .collect();
            let mut fresh = RrArena::new(300, strategy);
            let mut ledger = FreshFootprint::default();
            reused.clear();
            let (mut a, mut b) = (rng(), rng());
            for (call, &count) in sequence.iter().enumerate() {
                let ad = call % 2;
                fresh.generate_for(&g, &m, ad, count, threads, &mut a);
                reused.generate_for(&g, &m, ad, count, threads, &mut b);
                ledger.generate_for(count);
            }
            assert_eq!(collect_sets(&reused), collect_sets(&fresh), "{sequence:?}");
            assert_eq!(
                ledger.memory_bytes(&reused),
                fresh.memory_bytes(),
                "{threads} threads, {sequence:?}"
            );
        }
    }

    #[test]
    fn generate_for_draws_each_root_then_its_set_from_the_callers_rng() {
        let g = barabasi_albert(60, 3, &mut rng());
        let m = UniformIc::new(3, 0.4);
        let mut arena = RrArena::new(g.num_nodes(), RrStrategy::Standard);
        arena.push_set(0, &[5]);
        let mut r = rng();
        arena.generate_for(&g, &m, 2, 40, 1, &mut r);
        assert_eq!(arena.len(), 41);

        let mut expected = rng();
        let source = ResolvedModel::new(&g, &m, RrStrategy::Standard, [2], 40);
        let mut gen = RrGenerator::new(g.num_nodes(), RrStrategy::Standard);
        for i in 1..41 {
            let root = expected.gen_range(0..g.num_nodes() as NodeId);
            let mut members = Vec::new();
            gen.generate_rooted_into(&source, 2, root, &mut expected, &mut members);
            assert_eq!(arena.set(i).ad, 2);
            assert_eq!(arena.nodes_of(i), &members[..]);
        }
        // Both RNGs end in the same state.
        assert_eq!(
            rand::RngCore::next_u64(&mut r),
            rand::RngCore::next_u64(&mut expected)
        );
    }

    /// `generate_for` on 2–5 threads appends the serial loop's sets,
    /// leaves the RNG where the loop leaves it and has its footprint: on
    /// TIC rows, on the row-less per-edge path and under SUBSIM's jumps,
    /// below and above the splice gate, into an arena already holding
    /// another advertiser's sets.
    #[test]
    fn spliced_generate_for_is_the_serial_loop_at_every_thread_count() {
        let mut graph_rng = rng();
        let g = barabasi_albert(400, 4, &mut graph_rng);
        let rows = (0..2)
            .map(|_| {
                (0..g.num_edges())
                    .map(|_| match graph_rng.gen_range(0..5u32) {
                        0 => 0.0,
                        _ => graph_rng.gen_range(0.0f32..0.4),
                    })
                    .collect()
            })
            .collect();
        let tic = MaterializedModel::from_rows(rows);
        let uniform = UniformIc::new(2, 0.15);
        let models: [(&str, &dyn PropagationModel); 2] = [("tic", &tic), ("per-edge", &uniform)];
        for strategy in [RrStrategy::Standard, RrStrategy::Subsim] {
            for (name, model) in models {
                for count in [MIN_SPLICED_SETS - 1, 2 * MIN_SPLICED_SETS + 17] {
                    let run = |threads| {
                        let mut arena = RrArena::new(g.num_nodes(), strategy);
                        let mut r = Pcg64Mcg::seed_from_u64(count as u64);
                        arena.generate_for(&g, model, 0, 100, threads, &mut r);
                        arena.generate_for(&g, model, 1, count, threads, &mut r);
                        (arena, rand::RngCore::next_u64(&mut r))
                    };
                    let (serial, serial_next) = run(1);
                    for threads in 2..=5 {
                        let (spliced, next) = run(threads);
                        let what = format!("{name}, {strategy:?}, {count} sets, {threads} threads");
                        assert_eq!(collect_sets(&spliced), collect_sets(&serial), "{what}");
                        assert_eq!(next, serial_next, "{what}: next draw");
                        assert_eq!(spliced.memory_bytes(), serial.memory_bytes(), "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn arena_generates_requested_count() {
        let g = graph_from_edges(10, &[(0, 1), (1, 2), (3, 4)]);
        let m = UniformIc::new(2, 0.5);
        let sampler = UniformRrSampler::new(&[1.0, 2.0]);
        let mut arena = RrArena::new(g.num_nodes(), RrStrategy::Standard);
        arena.generate(&g, &m, &sampler, 500, &mut rng());
        assert_eq!(arena.len(), 500);
        assert!(arena.mean_size() >= 1.0);
        assert!(arena.memory_bytes() > 0);
        assert_eq!(arena.total_entries(), arena.iter().map(|s| s.len()).sum());
        for set in arena.iter() {
            assert!(!set.is_empty());
            assert_eq!(set.nodes[0], set.root());
        }
    }

    #[test]
    fn parallel_generation_is_thread_count_independent() {
        let g = graph_from_edges(20, &[(0, 1), (1, 2), (2, 3), (5, 6), (6, 7)]);
        let m = UniformIc::new(2, 0.7);
        let sampler = UniformRrSampler::new(&[1.0, 1.0]);
        // Spans several chunks plus a ragged tail.
        let count = 3 * GENERATION_CHUNK + 137;
        let mut reference = RrArena::new(g.num_nodes(), RrStrategy::Standard);
        reference.generate_parallel(&g, &m, &sampler, count, 1, 99);
        assert_eq!(reference.len(), count);
        for threads in [2usize, 8] {
            let mut other = RrArena::new(g.num_nodes(), RrStrategy::Standard);
            other.generate_parallel(&g, &m, &sampler, count, threads, 99);
            assert_eq!(
                collect_sets(&reference),
                collect_sets(&other),
                "{threads} threads must reproduce the single-thread arena"
            );
        }
    }

    #[test]
    fn parallel_generation_is_deterministic_across_runs() {
        let g = graph_from_edges(20, &[(0, 1), (1, 2), (2, 3), (5, 6), (6, 7)]);
        let m = UniformIc::new(2, 0.7);
        let sampler = UniformRrSampler::new(&[1.0, 1.0]);
        let mut a = RrArena::new(g.num_nodes(), RrStrategy::Standard);
        a.generate_parallel(&g, &m, &sampler, 4000, 4, 99);
        let mut b = RrArena::new(g.num_nodes(), RrStrategy::Standard);
        b.generate_parallel(&g, &m, &sampler, 4000, 4, 99);
        assert_eq!(a.len(), 4000);
        assert_eq!(collect_sets(&a), collect_sets(&b));
    }

    /// Acceptance criterion: sharded generation is bit-identical to
    /// unsharded for shard counts {1, 2, 8} — the sharded analogue of the
    /// thread-count-independence invariant.
    #[test]
    fn sharded_generation_is_bit_identical_for_any_shard_count() {
        let g = graph_from_edges(20, &[(0, 1), (1, 2), (2, 3), (5, 6), (6, 7)]);
        let m = UniformIc::new(2, 0.7);
        let sampler = UniformRrSampler::new(&[1.0, 2.0]);
        // Spans several chunks plus a ragged tail.
        let count = 3 * GENERATION_CHUNK + 137;
        let mut reference = RrArena::new(g.num_nodes(), RrStrategy::Standard);
        reference.generate_parallel(&g, &m, &sampler, count, 2, 99);
        for shards in [1usize, 2, 8] {
            let mut sharded = RrArena::new(g.num_nodes(), RrStrategy::Standard);
            sharded.generate_sharded(&g, &m, &sampler, count, shards, 4, 99);
            assert_eq!(sharded.len(), count);
            assert_eq!(
                collect_sets(&reference),
                collect_sets(&sharded),
                "{shards} shards must reproduce the unsharded arena"
            );
        }
    }

    #[test]
    fn shard_plan_is_chunk_aligned_and_balanced() {
        // More shards than chunks: the plan shrinks, no empty spans.
        let plan = shard_plan(GENERATION_CHUNK + 1, 8);
        assert_eq!(plan.len(), 2);
        assert!(plan.iter().all(|s| !s.is_empty()));
        // Spans tile [0, count) contiguously on chunk boundaries.
        let count = 10 * GENERATION_CHUNK + 5;
        let plan = shard_plan(count, 3);
        let mut expected_from = 0;
        for span in &plan {
            assert_eq!(span.set_from, expected_from);
            assert!(span.set_from.is_multiple_of(GENERATION_CHUNK));
            expected_from = span.set_to;
        }
        assert_eq!(expected_from, count);
        assert!(shard_plan(0, 4).is_empty());
    }

    /// Shard-merge determinism for the index side: a sharded extension is
    /// indexed as one segment, byte-identical to indexing the unsharded
    /// arena.
    #[test]
    fn sharded_extension_indexes_as_one_segment_equal_to_unsharded() {
        let mut graph_rng = rng();
        let g = barabasi_albert(250, 3, &mut graph_rng);
        let m = UniformIc::new(2, 0.2);
        let sampler = UniformRrSampler::new(&[1.0, 2.0]);
        let count = 4 * GENERATION_CHUNK + 77;
        let mut sharded = RrArena::new(g.num_nodes(), RrStrategy::Standard);
        sharded.generate_sharded(&g, &m, &sampler, count, 4, 2, 17);
        let mut unsharded = RrArena::new(g.num_nodes(), RrStrategy::Standard);
        unsharded.generate_parallel(&g, &m, &sampler, count, 2, 17);

        let mut sharded_index = CoverageIndex::new(g.num_nodes(), 2);
        assert_eq!(sharded_index.extend_from(&sharded, 1), count);
        let mut fresh = CoverageIndex::new(g.num_nodes(), 2);
        fresh.extend_from(&unsharded, 1);
        assert_eq!(sharded_index.num_segments(), 1);
        assert_eq!(sharded_index.num_rr(), count);
        let (a, b) = (&sharded_index.segments[0], &fresh.segments[0]);
        assert_eq!(a.offsets[..], b.offsets[..]);
        assert_eq!(a.entries[..], b.entries[..]);
        assert_eq!(sharded_index.singleton[..], fresh.singleton[..]);
        assert_eq!(sharded_index.memory_bytes(), fresh.memory_bytes());
    }

    /// The index side of thread-count independence: an extension indexed
    /// on 2–5 threads, onto a warm segment, is byte-equal to the one
    /// indexed on one thread.
    #[test]
    fn parallel_extension_indexes_byte_equal_to_serial() {
        let mut graph_rng = rng();
        let g = barabasi_albert(2_000, 3, &mut graph_rng);
        let m = UniformIc::new(3, 0.2);
        let sampler = UniformRrSampler::new(&[1.0, 2.0, 1.5]);
        let mut arena = RrArena::new(g.num_nodes(), RrStrategy::Standard);
        arena.generate_parallel(&g, &m, &sampler, 100_000, 2, 23);
        let warm = 3_000;
        assert!(arena.nodes_of_range(warm, arena.len()).len() >= 5 * MIN_INDEX_ENTRIES_PER_THREAD);
        let index_on = |threads| {
            let mut index = CoverageIndex::new(g.num_nodes(), 3);
            index.extend_to(&arena, warm, threads);
            index.extend_from(&arena, threads);
            index
        };
        let serial = index_on(1);
        for threads in 2..=5 {
            let parallel = index_on(threads);
            assert_eq!(parallel.num_segments(), 2);
            for (a, b) in parallel.segments.iter().zip(&serial.segments) {
                assert_eq!((a.rr_base, a.num_sets), (b.rr_base, b.num_sets));
                assert_eq!(a.offsets[..], b.offsets[..], "{threads} threads");
                assert_eq!(a.entries[..], b.entries[..], "{threads} threads");
            }
            assert_eq!(parallel.singleton[..], serial.singleton[..]);
            assert_eq!(parallel.memory_bytes(), serial.memory_bytes());
        }
    }

    /// The advertiser-major layout, stated per posting group: across the
    /// five generator families, both RR strategies, a two-segment index
    /// (θ₁ → θ₂) and owned as well as mapped loads, `for_each_rr_of(ad, u)`
    /// visits exactly the ascending ids of the RR-sets of `ad` containing
    /// `u` — `singleton_count(ad, u)` postings, not the sets of every
    /// advertiser containing `u`.
    #[test]
    fn advertiser_groups_hold_exactly_their_own_rr_sets() {
        use rmsa_graph::generators;
        use rmsa_store::{section, MappedSnapshot, SectionSource, SnapshotReader, SnapshotWriter};
        let dir =
            std::env::temp_dir().join(format!("rmsa_group_equivalence-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut graph_rng = Pcg64Mcg::seed_from_u64(29);
        let graphs = [
            (
                "erdos_renyi",
                generators::erdos_renyi(90, 0.06, &mut graph_rng),
            ),
            ("barabasi_albert", barabasi_albert(120, 3, &mut graph_rng)),
            (
                "power_law_configuration",
                generators::power_law_configuration(120, 2.4, 3.0, 25, &mut graph_rng),
            ),
            (
                "watts_strogatz",
                generators::watts_strogatz(100, 4, 0.15, &mut graph_rng),
            ),
            ("celebrity_graph", generators::celebrity_graph(3, 8)),
        ];
        let num_ads = 3;
        for (family, graph) in &graphs {
            for strategy in [RrStrategy::Standard, RrStrategy::Subsim] {
                let model = WeightedCascade::new(graph, num_ads);
                let sampler = UniformRrSampler::new(&[1.0, 2.0, 1.5]);
                let mut arena = RrArena::new(graph.num_nodes(), strategy);
                let mut index = CoverageIndex::new(graph.num_nodes(), num_ads);
                arena.generate_parallel(graph, &model, &sampler, 600, 2, 3);
                index.extend_from(&arena, 1);
                arena.generate_parallel(graph, &model, &sampler, 500, 2, 4);
                index.extend_from(&arena, 1);
                assert_eq!(index.num_segments(), 2);

                let mut w = SnapshotWriter::new();
                crate::snapshot::write_arena(&arena, w.section(section::CACHE_STREAM_BASE));
                crate::snapshot::write_index(&index, w.section(section::CACHE_STREAM_BASE + 1));
                let bytes = w.finish();
                let path = dir.join(format!("{family}_{strategy:?}.rmsnap"));
                rmsa_store::write_file(&path, &bytes).unwrap();
                fn load<S: SectionSource>(src: &S) -> CoverageIndex {
                    let arena = crate::snapshot::read_arena(
                        &mut src.require(section::CACHE_STREAM_BASE).unwrap(),
                    )
                    .unwrap();
                    crate::snapshot::read_index(
                        &mut src.require(section::CACHE_STREAM_BASE + 1).unwrap(),
                        &arena,
                    )
                    .unwrap()
                }
                let owned = load(&SnapshotReader::parse(&bytes).unwrap());
                let mapped =
                    load(&MappedSnapshot::open(&path, rmsa_store::VerifyMode::Lazy).unwrap());

                // The derived singleton order is rebuilt, not stored, and a
                // loaded index sorts to the built one's.
                let built_order = index.view().singleton_order().to_vec();
                assert_eq!(built_order, expected_order(&index.view()));
                assert_eq!(owned.view().singleton_order(), built_order);
                assert_eq!(mapped.view().singleton_order(), built_order);
                // So are the private counts: the sets of one member, read
                // off the arena here.
                let mut private = vec![0u32; num_ads * graph.num_nodes()];
                for rr in (0..arena.len()).filter(|&rr| arena.nodes_of(rr).len() == 1) {
                    private
                        [arena.ad_of(rr) * graph.num_nodes() + arena.nodes_of(rr)[0] as usize] += 1;
                }
                for view in [index.view(), owned.view(), mapped.view()] {
                    for (g, &count) in private.iter().enumerate() {
                        let (ad, u) = (g / graph.num_nodes(), (g % graph.num_nodes()) as NodeId);
                        assert_eq!(view.private_count(ad, u), count, "group {g}");
                    }
                }

                let n = graph.num_nodes();
                let mut expected = vec![Vec::new(); num_ads * n];
                for rr in 0..arena.len() {
                    for &u in arena.nodes_of(rr) {
                        expected[arena.ad_of(rr) * n + u as usize].push(rr as u32);
                    }
                }
                for (source, view) in [
                    ("built", index.view()),
                    ("owned", owned.view()),
                    ("mapped", mapped.view()),
                ] {
                    for ad in 0..num_ads {
                        for u in 0..n as NodeId {
                            let mut got = Vec::new();
                            view.for_each_rr_of(ad, u, |rr| got.push(rr));
                            assert_eq!(
                                got,
                                expected[ad * n + u as usize],
                                "{family}/{strategy:?}/{source}: group ({ad}, {u})"
                            );
                            assert_eq!(got.len(), view.singleton_count(ad, u) as usize);
                        }
                    }
                }
                std::fs::remove_file(&path).ok();
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_arena_rejects_mismatched_shards() {
        let a = RrArena::new(5, RrStrategy::Standard);
        let b = RrArena::new(6, RrStrategy::Standard);
        let result = std::panic::catch_unwind(move || {
            let mut a = a;
            a.append_arena(&b);
        });
        assert!(result.is_err(), "mismatched num_nodes must be rejected");
    }

    #[test]
    fn memory_bytes_is_a_cheap_running_figure() {
        let g = graph_from_edges(6, &[(0, 1), (1, 2)]);
        let m = UniformIc::new(1, 1.0);
        let sampler = UniformRrSampler::new(&[1.0]);
        let mut arena = RrArena::new(g.num_nodes(), RrStrategy::Standard);
        let empty = arena.memory_bytes();
        arena.generate(&g, &m, &sampler, 200, &mut rng());
        let grown = arena.memory_bytes();
        assert!(grown > empty);
        assert!(grown >= arena.total_entries() * std::mem::size_of::<NodeId>());
        // Appending more never shrinks the figure.
        arena.generate(&g, &m, &sampler, 200, &mut rng());
        assert!(arena.memory_bytes() >= grown);
    }

    #[test]
    fn coverage_counts_only_matching_advertiser() {
        // Deterministic edges so RR membership is predictable: 0 -> 1.
        let g = graph_from_edges(2, &[(0, 1)]);
        let m = UniformIc::new(2, 1.0);
        let sampler = UniformRrSampler::new(&[1.0, 1.0]);
        let mut arena = RrArena::new(2, RrStrategy::Standard);
        arena.generate(&g, &m, &sampler, 2000, &mut rng());
        let mut index = CoverageIndex::new(2, 2);
        index.extend_from(&arena, 1);
        let view = index.view();
        assert_eq!(view.num_rr(), 2000);
        // Node 0 reverse-reaches every root, so seeding node 0 for ad 0
        // covers exactly the RR-sets generated for ad 0.
        let ad0_sets = arena.iter().filter(|r| r.ad == 0).count();
        assert_eq!(view.coverage_count(0, &[0]), ad0_sets);
        // Node 1 only appears in RR-sets rooted at node 1.
        let ad0_rooted_at_1 = arena.iter().filter(|r| r.ad == 0 && r.root() == 1).count();
        assert_eq!(view.coverage_count(0, &[1]), ad0_rooted_at_1);
        // Singleton counts match the coverage queries.
        assert_eq!(view.singleton_count(0, 0) as usize, ad0_sets);
        assert_eq!(view.singleton_count(0, 1) as usize, ad0_rooted_at_1);
    }

    #[test]
    fn allocation_coverage_combines_per_ad_coverage() {
        let g = graph_from_edges(2, &[(0, 1)]);
        let m = UniformIc::new(2, 1.0);
        let sampler = UniformRrSampler::new(&[1.0, 1.0]);
        let mut arena = RrArena::new(2, RrStrategy::Standard);
        arena.generate(&g, &m, &sampler, 1000, &mut rng());
        let mut index = CoverageIndex::new(2, 2);
        index.extend_from(&arena, 1);
        let view = index.view();
        let alloc = vec![vec![0], vec![0]];
        // Node 0 covers every RR-set regardless of which ad it belongs to.
        assert_eq!(view.allocation_coverage_count(&alloc), 1000);
        let partial = vec![vec![0], vec![]];
        let ad0_sets = arena.iter().filter(|r| r.ad == 0).count();
        assert_eq!(view.allocation_coverage_count(&partial), ad0_sets);
    }

    #[test]
    fn index_is_extended_in_place_and_matches_a_fresh_build() {
        let mut graph_rng = rng();
        let g = barabasi_albert(300, 3, &mut graph_rng);
        let m = UniformIc::new(2, 0.2);
        let sampler = UniformRrSampler::new(&[1.0, 2.0]);
        let mut arena = RrArena::new(g.num_nodes(), RrStrategy::Standard);
        arena.generate_parallel(&g, &m, &sampler, 1500, 2, 11);

        // Index the θ₁ prefix, snapshot, then extend to θ₂.
        let mut index = CoverageIndex::new(g.num_nodes(), 2);
        assert_eq!(index.extend_to(&arena, 1500, 1), 1500);
        let theta1_view = index.view();
        arena.generate_parallel(&g, &m, &sampler, 1500, 2, 13);
        assert_eq!(index.extend_from(&arena, 1), 1500);
        assert_eq!(index.num_segments(), 2);
        let theta2_view = index.view();

        // Extend-never-rebuild: the θ₁ segment is the *same* allocation.
        assert!(
            Arc::ptr_eq(&theta1_view.segments()[0], &theta2_view.segments()[0]),
            "extension must reuse the θ₁ segment, not rebuild it"
        );
        // The earlier snapshot still answers exactly as it did at θ₁.
        assert_eq!(theta1_view.num_rr(), 1500);

        // Counts at θ₂ equal a from-scratch single-segment build.
        let mut fresh = CoverageIndex::new(g.num_nodes(), 2);
        fresh.extend_from(&arena, 1);
        assert_eq!(fresh.num_segments(), 1);
        let fresh_view = fresh.view();
        for ad in 0..2 {
            for u in (0..300u32).step_by(17) {
                assert_eq!(
                    theta2_view.singleton_count(ad, u),
                    fresh_view.singleton_count(ad, u),
                    "singleton counts diverge at ad {ad}, node {u}"
                );
            }
            let seeds: Vec<NodeId> = (0..20).collect();
            assert_eq!(
                theta2_view.coverage_count(ad, &seeds),
                fresh_view.coverage_count(ad, &seeds)
            );
        }
        let alloc = vec![vec![0, 5, 9], vec![1, 2]];
        assert_eq!(
            theta2_view.allocation_coverage_count(&alloc),
            fresh_view.allocation_coverage_count(&alloc)
        );
    }

    #[test]
    fn older_views_are_immune_to_later_extensions() {
        let g = graph_from_edges(2, &[(0, 1)]);
        let m = UniformIc::new(1, 1.0);
        let sampler = UniformRrSampler::new(&[1.0]);
        let mut arena = RrArena::new(2, RrStrategy::Standard);
        arena.generate(&g, &m, &sampler, 400, &mut rng());
        let mut index = CoverageIndex::new(2, 1);
        index.extend_from(&arena, 1);
        let early = index.view();
        let early_count = early.coverage_count(0, &[0]);
        assert_eq!(early_count, 400);
        // Extending while `early` is alive must copy-on-write the shared
        // columns instead of corrupting the snapshot.
        arena.generate(&g, &m, &sampler, 600, &mut rng());
        index.extend_from(&arena, 1);
        assert_eq!(early.coverage_count(0, &[0]), early_count);
        assert_eq!(early.singleton_count(0, 0), 400);
        assert_eq!(index.view().coverage_count(0, &[0]), 1000);
        assert_eq!(index.view().singleton_count(0, 0), 1000);
    }

    #[test]
    fn subsim_and_standard_strategies_agree_on_weighted_cascade() {
        let mut graph_rng = rng();
        let g = barabasi_albert(400, 3, &mut graph_rng);
        let wc = WeightedCascade::new(&g, 2);
        let sampler = UniformRrSampler::new(&[1.0, 1.5]);
        let count = 20_000;
        let mut standard = RrArena::new(g.num_nodes(), RrStrategy::Standard);
        standard.generate_parallel(&g, &wc, &sampler, count, 2, 41);
        let mut subsim = RrArena::new(g.num_nodes(), RrStrategy::Subsim);
        subsim.generate_parallel(&g, &wc, &sampler, count, 2, 43);

        // Mean RR-set size must agree within a seeded tolerance.
        let (a, b) = (standard.mean_size(), subsim.mean_size());
        assert!(
            (a - b).abs() / a.max(1.0) < 0.05,
            "mean sizes diverge: standard {a}, subsim {b}"
        );

        // Singleton coverage counts (normalised per collection size) must
        // agree node by node.
        let mut idx_a = CoverageIndex::new(g.num_nodes(), 2);
        idx_a.extend_from(&standard, 1);
        let mut idx_b = CoverageIndex::new(g.num_nodes(), 2);
        idx_b.extend_from(&subsim, 1);
        let (va, vb) = (idx_a.view(), idx_b.view());
        let mut total_gap = 0.0f64;
        for ad in 0..2usize {
            for u in 0..g.num_nodes() as NodeId {
                let fa = va.singleton_count(ad, u) as f64 / count as f64;
                let fb = vb.singleton_count(ad, u) as f64 / count as f64;
                assert!(
                    (fa - fb).abs() < 0.05,
                    "node {u} / ad {ad}: standard {fa:.4} vs subsim {fb:.4}"
                );
                total_gap += (fa - fb).abs();
            }
        }
        let mean_gap = total_gap / (2.0 * g.num_nodes() as f64);
        assert!(mean_gap < 0.004, "mean per-node gap {mean_gap}");
    }

    #[test]
    fn empty_arena_edge_cases() {
        let arena = RrArena::new(5, RrStrategy::Subsim);
        assert!(arena.is_empty());
        assert_eq!(arena.mean_size(), 0.0);
        let mut index = CoverageIndex::new(5, 2);
        assert_eq!(index.extend_from(&arena, 1), 0);
        let view = index.view();
        assert_eq!(view.num_rr(), 0);
        assert_eq!(view.coverage_count(0, &[1, 2]), 0);
    }

    #[test]
    fn bitset_set_and_test_roundtrip() {
        let mut bits = CoverBitset::new(130);
        assert!(!bits.test(0));
        assert!(bits.set(0));
        assert!(!bits.set(0), "second set reports already-set");
        assert!(bits.set(64));
        assert!(bits.set(129));
        assert!(bits.test(129));
        assert_eq!(bits.count_ones(), 3);
        assert!(bits.memory_bytes() >= 3 * 8);
    }

    /// The groups of `view` sorted the slow way: by count, node and
    /// advertiser, each descending.
    fn expected_order(view: &CoverageView) -> Vec<u32> {
        let (n, h) = (view.num_nodes(), view.num_ads());
        let mut pairs: Vec<(u32, NodeId, AdId)> = (0..h)
            .flat_map(|ad| (0..n as NodeId).map(move |u| (view.singleton_count(ad, u), u, ad)))
            .collect();
        pairs.sort_by(|a, b| b.cmp(a));
        pairs
            .into_iter()
            .map(|(_, u, ad)| (ad * n + u as usize) as u32)
            .collect()
    }

    /// Few RR-sets over many nodes: most counts are 0 or 1, so the order
    /// is decided by the node and advertiser tie-breaks.
    fn tie_heavy_index(seed: u64, sets: usize) -> CoverageIndex {
        let mut index = CoverageIndex::new(200, 3);
        index.extend_from(&tie_heavy_arena(seed, sets), 1);
        index
    }

    fn tie_heavy_arena(seed: u64, sets: usize) -> RrArena {
        let g = barabasi_albert(200, 2, &mut Pcg64Mcg::seed_from_u64(seed));
        let m = UniformIc::new(3, 0.1);
        let sampler = UniformRrSampler::new(&[1.0, 2.0, 1.5]);
        let mut arena = RrArena::new(g.num_nodes(), RrStrategy::Standard);
        arena.generate(&g, &m, &sampler, sets, &mut Pcg64Mcg::seed_from_u64(seed));
        arena
    }

    #[test]
    fn singleton_order_sorts_by_count_then_node_then_advertiser() {
        for seed in 1..=3 {
            let index = tie_heavy_index(seed, 150);
            let view = index.view();
            let order = view.singleton_order();
            assert_eq!(order, expected_order(&view), "seed {seed}");
            let zeros = order
                .iter()
                .filter(|&&g| view.singleton[g as usize] == 0)
                .count();
            assert!(zeros > order.len() / 2, "seed {seed}: too few ties");
        }
    }

    #[test]
    fn singleton_order_belongs_to_the_view_it_was_taken_from() {
        let mut index = tie_heavy_index(5, 150);
        let early = index.view();
        let early_order = early.singleton_order().to_vec();
        // A second segment over fresh sets: the counts change.
        let mut arena = tie_heavy_arena(5, 150);
        arena.append_arena(&tie_heavy_arena(6, 400));
        index.extend_from(&arena, 1);
        let late = index.view();
        // The early view keeps its own order; the late one is sorted anew.
        assert_eq!(early.singleton_order(), early_order);
        assert_eq!(late.singleton_order(), expected_order(&late));
        assert_ne!(late.singleton_order(), early_order);
        // Views of one extension share one sort.
        assert!(std::ptr::eq(
            late.singleton_order().as_ptr(),
            index.view().singleton_order().as_ptr()
        ));
    }

    #[test]
    fn rate_orders_keep_the_latest_and_replace_by_address() {
        let orders = RateOrders::default();
        let order = |first: u32| -> Arc<[u32]> { (0..4).map(|g| (g + first) % 4).collect() };
        for first in 0..4 {
            orders.record(order(first), None);
        }
        let kept: Vec<u32> = orders.orders().iter().map(|o| o[0]).collect();
        assert_eq!(kept, [3, 2, 1], "most recent first, at most {RATE_ORDERS}");
        let middle = Arc::clone(&orders.orders()[1]);
        orders.record(order(0), Some(&middle));
        let kept: Vec<u32> = orders.orders().iter().map(|o| o[0]).collect();
        assert_eq!(kept, [0, 3, 1], "the replaced order goes, the others stay");
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn rate_orders_reject_an_order_that_repeats_a_group() {
        RateOrders::default().record(Arc::from([0, 1, 1]), None);
    }

    #[test]
    fn concurrent_first_callers_get_one_identical_order() {
        let index = tie_heavy_index(7, 300);
        let view = index.view();
        let barrier = std::sync::Barrier::new(2);
        let results: Vec<(usize, Vec<u32>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let (view, barrier) = (view.clone(), &barrier);
                    scope.spawn(move || {
                        barrier.wait();
                        let order = view.singleton_order();
                        (order.as_ptr() as usize, order.to_vec())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(results[0], results[1]);
        assert_eq!(results[0].1, expected_order(&view));
    }
}
