//! A shared, lazily-extendable RR-set cache.
//!
//! The paper's experiments are parameter sweeps: the same graph and
//! propagation model are queried by several algorithms at many parameter
//! points. RR-set generation dominates the cost of every sampling
//! algorithm, yet RR-sets depend only on the graph, the propagation model,
//! and the advertiser-selection distribution of the uniform sampler
//! (`cpe(i) / Γ`) — *not* on budgets, seed costs, ε, τ, or ϱ. A sweep over
//! any of those can therefore reuse one progressively growing collection
//! instead of regenerating from scratch at every point.
//!
//! [`RrCache`] owns a small set of named streams ([`RrStream`]) behind a
//! [`parking_lot::Mutex`]. Each stream holds a columnar
//! [`RrArena`] *and* its incrementally maintained
//! [`CoverageIndex`]. A request for `count`
//! RR-sets *extends* the stream's arena when it is shorter and serves the
//! (possibly larger) cached arena otherwise; the inverted index is
//! extended in place over exactly the new sets — never rebuilt — so
//! estimators requested at different sample sizes θ share one index
//! through cheap [`CoverageView`] snapshots.
//! [`RrCacheStats`] records how many RR-sets were generated versus
//! requested and how much index work was amortised, which is how the
//! test-suite proves the amortisation. The cache fingerprints the RR-set
//! distribution — graph shape, advertiser-CPE line-up, and a probe of the
//! model's edge probabilities — and invalidates itself when any of them
//! changes (correctness first, reuse second).
//!
//! Beside its streams the cache keeps at most one spare [`RrArena`], the
//! *workspace* of solvers that draw a private sample per solve (the TI
//! baselines): [`RrCache::take_workspace`] lends it out emptied with its
//! capacity kept and [`RrCache::restore_workspace`] takes it back, so a
//! warm solve refills buffers the session already holds instead of
//! growing and faulting in new ones. Only memory is reused: every set is
//! still generated on every solve.

use crate::arena::{CoverageIndex, CoverageView, RrArena};
use crate::models::PropagationModel;
use crate::rr::RrStrategy;
use crate::sampler::UniformRrSampler;
use parking_lot::Mutex;
use rmsa_graph::DirectedGraph;
use rmsa_obs::{names, Counter, Gauge, Histogram, Span};
use rmsa_store::{
    section as store_section, MappedSnapshot, SectionSource, SnapshotReader, SnapshotWriter,
    StoreError, VerifyMode,
};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Duration;

/// Named RR-set streams inside an [`RrCache`].
///
/// Streams are seeded independently, so collections drawn from different
/// streams are statistically independent — exactly what the progressive
/// algorithm needs for its optimisation (`R1`) / validation (`R2`) split and
/// what keeps evaluation collections unseen by any solver.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RrStream {
    /// Collection the algorithms optimise on (RMA's `R1`, one-batch's `R`).
    Optimize,
    /// Independent validation collection (RMA's `R2`).
    Validate,
    /// Evaluation collection never shown to any solver.
    Evaluate,
    /// Additional independent streams for custom workloads.
    Aux(u8),
}

impl RrStream {
    fn index(self) -> usize {
        match self {
            RrStream::Optimize => 0,
            RrStream::Validate => 1,
            RrStream::Evaluate => 2,
            RrStream::Aux(k) => 3 + k as usize,
        }
    }

    fn seed_tag(self) -> u64 {
        // Distinct odd tags decorrelate the per-stream RNG streams.
        0xA076_1D64_78BD_642F_u64.wrapping_mul(self.index() as u64 * 2 + 1)
    }
}

/// Accounting of cache effectiveness.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RrCacheStats {
    /// RR-sets actually generated since creation (or the last invalidation
    /// reset them being counted — invalidations do not reset this counter).
    pub generated: usize,
    /// RR-sets requested by callers; without the cache, this many would
    /// have been generated.
    pub requested: usize,
    /// Requests (in RR-sets) served from already-cached collections.
    pub served_from_cache: usize,
    /// Number of times a sampler change invalidated the cached collections.
    pub invalidations: usize,
    /// RR-sets appended to the inverted coverage indexes (each set is
    /// indexed exactly once; everything below `requested` is index reuse).
    pub index_extended: usize,
    /// Wall-clock time spent extending the coverage indexes.
    pub index_extend_time: Duration,
    /// RR-sets restored from a persisted snapshot instead of being
    /// generated (0 for caches built cold; see [`RrCache::load_from`]).
    pub loaded_from_snapshot: usize,
    /// Wall-clock spent reading and decoding that snapshot (zero for cold
    /// caches).
    pub snapshot_load_time: Duration,
    /// Owned heap bytes of all cached arenas and indexes at the time the
    /// stats were taken (excludes mapped columns).
    pub resident_bytes: usize,
    /// Bytes borrowed zero-copy from a snapshot mapping at the time the
    /// stats were taken (0 for caches built cold or loaded via the owned
    /// decode path).
    pub mapped_bytes: usize,
    /// Owned heap bytes of the spare workspace arena kept for the next
    /// private-sample solve (0 when none is kept); not in `resident_bytes`.
    pub workspace_bytes: usize,
}

/// Accounting of one [`RrCache::with_at_least`] call. Unlike the global
/// [`RrCacheStats`] counters, this is attributed to exactly one request, so
/// concurrent callers cannot misattribute each other's generation work.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RrRequestStats {
    /// RR-sets the caller asked for.
    pub requested: usize,
    /// RR-sets freshly generated to satisfy this request.
    pub generated: usize,
    /// RR-sets served from the already-cached prefix.
    pub served_from_cache: usize,
    /// RR-sets newly added to the stream's coverage index by this request.
    pub index_extended: usize,
    /// RR-sets whose inverted-index entries already existed (the work an
    /// index rebuild would have repeated).
    pub index_reused: usize,
    /// Wall-clock time spent extending the coverage index.
    pub index_extend_time: Duration,
}

/// Borrowed view of one cache stream inside a [`RrCache::with_at_least`]
/// closure: the columnar arena plus its coverage index.
///
/// The closure runs under the cache lock; take what you need — typically a
/// [`CoverageView`] snapshot via [`RrStreamView::coverage`], which is a few
/// `Arc` bumps — and return it rather than holding references.
#[derive(Clone, Copy)]
pub struct RrStreamView<'a> {
    arena: &'a RrArena,
    index: &'a CoverageIndex,
}

impl<'a> RrStreamView<'a> {
    /// The stream's columnar RR-set arena.
    pub fn arena(&self) -> &'a RrArena {
        self.arena
    }

    /// Number of RR-sets in the stream.
    pub fn len(&self) -> usize {
        self.arena.len()
    }

    /// True when the stream holds no RR-set.
    pub fn is_empty(&self) -> bool {
        self.arena.is_empty()
    }

    /// O(#segments) snapshot of the stream's coverage index, valid after
    /// the lock is released and immutable under later extensions.
    pub fn coverage(&self) -> CoverageView {
        self.index.view()
    }

    /// Approximate memory footprint of arena + index in bytes (owned heap
    /// plus mapped bytes).
    pub fn memory_bytes(&self) -> usize {
        self.arena.memory_bytes() + self.index.memory_bytes()
    }

    /// Owned heap bytes of arena + index.
    pub fn resident_bytes(&self) -> usize {
        self.arena.resident_bytes() + self.index.resident_bytes()
    }

    /// Arena + index bytes borrowed zero-copy from a snapshot mapping.
    pub fn mapped_bytes(&self) -> usize {
        self.arena.mapped_bytes() + self.index.mapped_bytes()
    }
}

struct StreamState {
    arena: RrArena,
    index: CoverageIndex,
    extensions: u64,
}

impl StreamState {
    fn resident_bytes(&self) -> i64 {
        (self.arena.resident_bytes() + self.index.resident_bytes()) as i64
    }

    fn mapped_bytes(&self) -> i64 {
        (self.arena.mapped_bytes() + self.index.mapped_bytes()) as i64
    }
}

/// Total (resident, mapped) bytes across a stream table, for the arena
/// byte gauges.
fn streams_bytes(streams: &[Option<StreamState>]) -> (i64, i64) {
    let mut resident = 0i64;
    let mut mapped = 0i64;
    for s in streams.iter().flatten() {
        resident += s.resident_bytes();
        mapped += s.mapped_bytes();
    }
    (resident, mapped)
}

struct Inner {
    /// Fingerprint of the sampler the collections were generated under.
    fingerprint: Option<u64>,
    streams: Vec<Option<StreamState>>,
    stats: RrCacheStats,
}

/// Thread-safe, lazily-extendable store of RR-set collections shared by all
/// solvers running against one graph + propagation model.
pub struct RrCache {
    num_nodes: usize,
    strategy: RrStrategy,
    num_threads: usize,
    base_seed: u64,
    inner: Mutex<Inner>,
    /// The spare private-sample arena; empty while lent out or never made.
    workspace: Mutex<Option<RrArena>>,
}

impl RrCache {
    /// Create an empty cache for graphs with `num_nodes` nodes.
    ///
    /// `strategy` and `num_threads` govern all generation done through the
    /// cache; `base_seed` makes every stream deterministic — collections
    /// are a function of `(base_seed, request sizes)` only, independent of
    /// `num_threads` (see [`RrArena::generate_parallel`]).
    pub fn new(num_nodes: usize, strategy: RrStrategy, num_threads: usize, base_seed: u64) -> Self {
        RrCache {
            num_nodes,
            strategy,
            num_threads: num_threads.max(1),
            base_seed,
            inner: Mutex::new(Inner {
                fingerprint: None,
                streams: Vec::new(),
                stats: RrCacheStats::default(),
            }),
            workspace: Mutex::new(None),
        }
    }

    /// Number of nodes of the graph the cache serves.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// The RR-set generation strategy used by every stream.
    pub fn strategy(&self) -> RrStrategy {
        self.strategy
    }

    /// Threads every generation and index extension may use; solvers that
    /// sample outside the cache (the TI baselines) take their budget here.
    pub fn num_threads(&self) -> usize {
        self.num_threads
    }

    /// Snapshot of the accounting counters, with the current
    /// resident/mapped memory split filled in.
    pub fn stats(&self) -> RrCacheStats {
        let inner = self.inner.lock();
        let mut stats = inner.stats.clone();
        let live = inner.streams.iter().filter_map(|s| s.as_ref());
        stats.resident_bytes = 0;
        stats.mapped_bytes = 0;
        for s in live {
            stats.resident_bytes += s.arena.resident_bytes() + s.index.resident_bytes();
            stats.mapped_bytes += s.arena.mapped_bytes() + s.index.mapped_bytes();
        }
        stats.workspace_bytes = self
            .workspace
            .lock()
            .as_ref()
            .map_or(0, RrArena::resident_bytes);
        stats
    }

    /// Lend out the cache's spare arena for a solve that draws its own
    /// sample, emptied with its capacity kept. A fresh arena is returned
    /// instead when the spare is out on another solve or was never made;
    /// a spare made for another `num_nodes` or `strategy` is dropped.
    pub fn take_workspace(&self, num_nodes: usize, strategy: RrStrategy) -> RrArena {
        match self.workspace.lock().take() {
            Some(mut arena) if arena.num_nodes() == num_nodes && arena.strategy() == strategy => {
                arena.clear();
                arena
            }
            _ => RrArena::new(num_nodes, strategy),
        }
    }

    /// Keep `arena` as the spare for the next [`RrCache::take_workspace`].
    /// The cache holds one: when a concurrent solve restored its arena
    /// first, `arena` is dropped.
    pub fn restore_workspace(&self, arena: RrArena) {
        let mut slot = self.workspace.lock();
        if slot.is_none() {
            *slot = Some(arena);
        }
    }

    /// Current size of a stream's collection (0 when never touched).
    pub fn len(&self, stream: RrStream) -> usize {
        let inner = self.inner.lock();
        inner
            .streams
            .get(stream.index())
            .and_then(|s| s.as_ref())
            .map_or(0, |s| s.arena.len())
    }

    /// Number of immutable index segments a stream has accumulated — one
    /// per extension, because the index is extended in place, never
    /// rebuilt.
    pub fn index_segments(&self, stream: RrStream) -> usize {
        let inner = self.inner.lock();
        inner
            .streams
            .get(stream.index())
            .and_then(|s| s.as_ref())
            .map_or(0, |s| s.index.num_segments())
    }

    /// True when no stream holds any RR-set.
    pub fn is_empty(&self) -> bool {
        let inner = self.inner.lock();
        inner
            .streams
            .iter()
            .all(|s| s.as_ref().is_none_or(|s| s.arena.is_empty()))
    }

    /// Approximate memory footprint of all cached arenas and indexes in
    /// bytes (owned heap plus mapped bytes). O(#streams): the columnar
    /// representation keeps running totals, so polling this per sweep
    /// point is free.
    pub fn memory_bytes(&self) -> usize {
        let inner = self.inner.lock();
        inner
            .streams
            .iter()
            .filter_map(|s| s.as_ref())
            .map(|s| s.arena.memory_bytes() + s.index.memory_bytes())
            .sum()
    }

    /// Owned heap bytes across all cached arenas and indexes.
    pub fn resident_bytes(&self) -> usize {
        let inner = self.inner.lock();
        inner
            .streams
            .iter()
            .filter_map(|s| s.as_ref())
            .map(|s| s.arena.resident_bytes() + s.index.resident_bytes())
            .sum()
    }

    /// Bytes borrowed zero-copy from a snapshot mapping across all cached
    /// arenas and indexes (0 until a mapped load, and shrinking as
    /// extensions promote mapped columns to owned).
    pub fn mapped_bytes(&self) -> usize {
        let inner = self.inner.lock();
        inner
            .streams
            .iter()
            .filter_map(|s| s.as_ref())
            .map(|s| s.arena.mapped_bytes() + s.index.mapped_bytes())
            .sum()
    }

    /// Drop every cached collection and the spare workspace (accounting
    /// counters are kept).
    pub fn clear(&self) {
        *self.workspace.lock() = None;
        let mut inner = self.inner.lock();
        let (resident, mapped) = streams_bytes(&inner.streams);
        Gauge::ArenaResidentBytes.add(-resident);
        Gauge::ArenaMappedBytes.add(-mapped);
        inner.streams.clear();
        inner.fingerprint = None;
    }

    /// The distribution fingerprint the cached collections were generated
    /// under (`None` until the first request). Snapshots persist this
    /// value, so a loaded cache rejects — via [`RrCache::with_at_least`]'s
    /// revalidation — any graph/model/CPE line-up other than the one it
    /// was saved under.
    pub fn fingerprint(&self) -> Option<u64> {
        self.inner.lock().fingerprint
    }

    /// The base RNG seed every stream derives from.
    pub fn base_seed(&self) -> u64 {
        self.base_seed
    }

    /// Append the cache's snapshot sections (`cache-meta` plus one
    /// `rr-stream-k` section per non-empty stream) to a snapshot under
    /// construction. Composable: higher layers (session snapshots) add
    /// their own sections to the same container.
    pub fn write_snapshot(&self, w: &mut SnapshotWriter) {
        let inner = self.inner.lock();
        let meta = w.section(store_section::CACHE_META);
        meta.put_u64(self.num_nodes as u64);
        meta.put_u8(crate::snapshot::strategy_tag(self.strategy));
        meta.put_u64(self.base_seed);
        match inner.fingerprint {
            Some(fp) => {
                meta.put_u8(1);
                meta.put_u64(fp);
            }
            None => {
                meta.put_u8(0);
                meta.put_u64(0);
            }
        }
        meta.put_u64(inner.streams.len() as u64);
        for (idx, state) in inner.streams.iter().enumerate() {
            let Some(state) = state else { continue };
            let s = w.section(store_section::CACHE_STREAM_BASE + idx as u32);
            s.put_u64(state.extensions);
            crate::snapshot::write_arena(&state.arena, s);
            crate::snapshot::write_index(&state.index, s);
        }
    }

    /// Serialize the cache into a self-contained snapshot container.
    pub fn to_snapshot_bytes(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        self.write_snapshot(&mut w);
        w.finish()
    }

    /// Persist the cache to `path` (atomic write; see
    /// [`rmsa_store::write_file`]).
    pub fn save_to(&self, path: &std::path::Path) -> Result<(), StoreError> {
        rmsa_store::write_file(path, &self.to_snapshot_bytes())
    }

    /// Rebuild a cache from the snapshot sections of any
    /// [`SectionSource`] — a fully parsed [`SnapshotReader`] (owned
    /// decode) or a [`MappedSnapshot`] (columns borrowed zero-copy from
    /// the file mapping on aligned v2 containers).
    ///
    /// The restored cache is *exactly* the saved one: same collections,
    /// same coverage-index segments, same per-stream extension counters —
    /// so extending it later produces the same RR-sets a never-persisted
    /// cache would have produced (the extend-never-rebuild invariant holds
    /// across the save/load boundary). `num_threads` only parallelises
    /// future extensions; it never changes their content.
    pub fn read_snapshot<S: SectionSource>(
        r: &S,
        num_threads: usize,
    ) -> Result<RrCache, StoreError> {
        // The span doubles as the `snapshot_load_time` statistic; the
        // duration is wall-clock but never serialized.
        let span = Span::child(names::SNAPSHOT_PARSE);
        let mut meta = r.require(store_section::CACHE_META)?;
        let num_nodes = meta.get_u64("cache num_nodes")? as usize;
        let strategy = crate::snapshot::strategy_from_tag(meta.get_u8("cache strategy")?)?;
        let base_seed = meta.get_u64("cache base_seed")?;
        let has_fingerprint = meta.get_u8("cache fingerprint flag")? != 0;
        let fingerprint_value = meta.get_u64("cache fingerprint")?;
        let declared_streams = meta.get_u64("cache stream count")? as usize;

        let mut streams: Vec<Option<StreamState>> = Vec::new();
        streams.resize_with(declared_streams, || None);
        let mut loaded = 0usize;
        // Streams are independent blobs; decode them concurrently — on a
        // warm restart the decode is the whole critical path, and three
        // streams (optimize/validate/evaluate) split it almost perfectly.
        let sections = r.sections_in_range(
            store_section::CACHE_STREAM_BASE,
            store_section::CACHE_STREAM_END,
        );
        let decoded: Vec<Result<(usize, StreamState), StoreError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = sections
                .into_iter()
                .map(|(id, mut cur)| {
                    scope.spawn(move || {
                        let idx = (id - store_section::CACHE_STREAM_BASE) as usize;
                        let extensions = cur.get_u64("stream extensions")?;
                        let arena = crate::snapshot::read_arena(&mut cur)?;
                        if arena.num_nodes() != num_nodes || arena.strategy() != strategy {
                            return Err(StoreError::Corrupt(format!(
                                "rr-stream-{idx} disagrees with the cache meta section"
                            )));
                        }
                        let index = crate::snapshot::read_index(&mut cur, &arena)?;
                        if index.num_rr() != arena.len() {
                            return Err(StoreError::Corrupt(format!(
                                "rr-stream-{idx}: index covers {} of {} cached sets",
                                index.num_rr(),
                                arena.len()
                            )));
                        }
                        Ok((
                            idx,
                            StreamState {
                                arena,
                                index,
                                extensions,
                            },
                        ))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|_| {
                        Err(StoreError::Corrupt(
                            "a stream decode thread panicked".to_string(),
                        ))
                    })
                })
                .collect()
        });
        for result in decoded {
            let (idx, state) = result?;
            loaded += state.arena.len();
            if streams.len() <= idx {
                streams.resize_with(idx + 1, || None);
            }
            streams[idx] = Some(state);
        }
        let (resident, mapped) = streams_bytes(&streams);
        Gauge::ArenaResidentBytes.add(resident);
        Gauge::ArenaMappedBytes.add(mapped);
        if mapped > 0 {
            Counter::SnapshotsMapped.inc();
        }
        let stats = RrCacheStats {
            loaded_from_snapshot: loaded,
            snapshot_load_time: span.finish(),
            ..RrCacheStats::default()
        };
        Ok(RrCache {
            num_nodes,
            strategy,
            num_threads: num_threads.max(1),
            base_seed,
            inner: Mutex::new(Inner {
                fingerprint: has_fingerprint.then_some(fingerprint_value),
                streams,
                stats,
            }),
            workspace: Mutex::new(None),
        })
    }

    /// Load a cache persisted by [`RrCache::save_to`].
    ///
    /// Every failure mode is a typed [`StoreError`] — bad magic,
    /// unsupported version, truncation, checksum mismatch, semantic
    /// corruption — never a panic. A *stale* snapshot (saved under a
    /// different graph, model or CPE line-up) loads successfully but is
    /// rejected on first use: the persisted fingerprint will not match the
    /// live distribution, and revalidation drops the collections instead
    /// of serving them.
    pub fn load_from(path: &std::path::Path, num_threads: usize) -> Result<RrCache, StoreError> {
        let span = Span::child(names::SNAPSHOT_LOAD);
        let bytes = rmsa_store::read_file(path)?;
        let reader = SnapshotReader::parse(&bytes)?;
        let cache = RrCache::read_snapshot(&reader, num_threads)?;
        // Account the file read + container parse into the load time.
        cache.inner.lock().stats.snapshot_load_time = span.finish();
        Ok(cache)
    }

    /// Load a cache zero-copy from a file mapping: on an aligned v2
    /// container the arena and index columns *borrow* the mapped file, so
    /// load time is independent of arena size. With [`VerifyMode::Lazy`],
    /// checksum verification is skipped at open (use
    /// [`MappedSnapshot::verify_all`] through a `--verify` path when the
    /// file is untrusted); [`VerifyMode::Eager`] restores the classic
    /// whole-file check. v1 containers and non-mmap platforms fall back to
    /// the owned decode path transparently — never rejected.
    pub fn load_mapped(
        path: &std::path::Path,
        num_threads: usize,
        verify: VerifyMode,
    ) -> Result<RrCache, StoreError> {
        let span = Span::child(names::SNAPSHOT_LOAD);
        let snap = MappedSnapshot::open(path, verify)?;
        let cache = RrCache::read_snapshot(&snap, num_threads)?;
        cache.inner.lock().stats.snapshot_load_time = span.finish();
        Ok(cache)
    }

    /// Ensure `stream` holds at least `count` RR-sets generated under
    /// `sampler`, extending (never regenerating) the arena and its
    /// coverage index, then hand the stream to `f`. Returns the closure's
    /// value plus this request's [`RrRequestStats`].
    ///
    /// The closure receives a view of the *whole* stream, which may exceed
    /// `count` when earlier requests already grew it — estimates built on
    /// the larger sample are statistically at least as good, but callers
    /// needing an exact sample size must run against a fresh cache.
    ///
    /// The closure runs under the cache lock; snapshot what you need (an
    /// estimator over [`RrStreamView::coverage`] is a few `Arc` bumps) and
    /// return it rather than holding references.
    pub fn with_at_least<M, T>(
        &self,
        graph: &DirectedGraph,
        model: &M,
        sampler: &UniformRrSampler,
        stream: RrStream,
        count: usize,
        f: impl FnOnce(RrStreamView<'_>) -> T,
    ) -> (T, RrRequestStats)
    where
        M: PropagationModel + ?Sized,
    {
        assert_eq!(
            graph.num_nodes(),
            self.num_nodes,
            "cache was created for a different graph"
        );
        let mut inner = self.inner.lock();
        self.revalidate(&mut inner, graph, model, sampler);

        let idx = stream.index();
        if inner.streams.len() <= idx {
            inner.streams.resize_with(idx + 1, || None);
        }
        let strategy = self.strategy;
        let num_nodes = self.num_nodes;
        let state = inner.streams[idx].get_or_insert_with(|| StreamState {
            arena: RrArena::new(num_nodes, strategy),
            index: CoverageIndex::new(num_nodes, sampler.num_ads()),
            extensions: 0,
        });

        let have = state.arena.len();
        let missing = count.saturating_sub(have);
        let res_before = state.resident_bytes();
        let map_before = state.mapped_bytes();
        if missing > 0 {
            state.extensions += 1;
            let seed = self
                .base_seed
                .wrapping_add(stream.seed_tag())
                .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(state.extensions));
            let gen_span = Span::child(names::GENERATE);
            state
                .arena
                .generate_parallel(graph, &model, sampler, missing, self.num_threads, seed);
            Histogram::GenerateSecs.observe_duration(gen_span.finish());
            Counter::RrGeneratedTotal.add(missing as u64);
        }
        // Extend-never-rebuild: index exactly the new sets, in place. A
        // fully warm stream reports exactly zero index time (not timer
        // noise), so "no index work" is testable as `== Duration::ZERO`.
        let index_span = Span::child(names::INDEX);
        let index_extended = state.index.extend_from(&state.arena, self.num_threads);
        let index_measured = index_span.finish();
        let index_extend_time = if index_extended == 0 {
            Duration::ZERO
        } else {
            index_measured
        };
        if index_extended > 0 {
            Counter::IndexExtendedTotal.add(index_extended as u64);
            Histogram::IndexSecs.observe_duration(index_measured);
        }
        let index_reused = state.index.num_rr() - index_extended;
        Gauge::ArenaResidentBytes.add(state.resident_bytes() - res_before);
        Gauge::ArenaMappedBytes.add(state.mapped_bytes() - map_before);

        let result = f(RrStreamView {
            arena: &state.arena,
            index: &state.index,
        });
        inner.stats.requested += count;
        inner.stats.generated += missing;
        inner.stats.served_from_cache += count - missing;
        inner.stats.index_extended += index_extended;
        inner.stats.index_extend_time += index_extend_time;
        (
            result,
            RrRequestStats {
                requested: count,
                generated: missing,
                served_from_cache: count - missing,
                index_extended,
                index_reused,
                index_extend_time,
            },
        )
    }

    /// Invalidate cached collections when the RR-set distribution changed:
    /// a different sampler (CPE line-up), graph shape, or propagation
    /// model.
    fn revalidate<M: PropagationModel + ?Sized>(
        &self,
        inner: &mut Inner,
        graph: &DirectedGraph,
        model: &M,
        sampler: &UniformRrSampler,
    ) {
        let fp = distribution_fingerprint(graph, model, sampler);
        match inner.fingerprint {
            Some(existing) if existing == fp => {}
            Some(_) => {
                let (resident, mapped) = streams_bytes(&inner.streams);
                Gauge::ArenaResidentBytes.add(-resident);
                Gauge::ArenaMappedBytes.add(-mapped);
                inner.streams.clear();
                inner.fingerprint = Some(fp);
                inner.stats.invalidations += 1;
            }
            None => inner.fingerprint = Some(fp),
        }
    }
}

impl Drop for RrCache {
    fn drop(&mut self) {
        // Keep the daemon's arena byte gauges honest when a cache is
        // evicted (LRU registry) or a test tears one down.
        let inner = self.inner.get_mut();
        let (resident, mapped) = streams_bytes(&inner.streams);
        Gauge::ArenaResidentBytes.add(-resident);
        Gauge::ArenaMappedBytes.add(-mapped);
    }
}

/// Hash of everything the RR-set distribution depends on: graph shape, the
/// advertiser-selection distribution, and a deterministic probe of the
/// model's edge probabilities (64 evenly spaced edges per advertiser — a
/// cheap signature that catches model swaps and re-parameterisations
/// without walking every edge on every request). The probe is a heuristic:
/// two models that differ only on a handful of non-probed edges collide,
/// so callers that mutate a model in place should [`RrCache::clear`] the
/// cache explicitly. The `Workbench` owns its model and never swaps it, so
/// this only concerns standalone `RrCache` users.
///
/// Public because snapshot loaders use it to verify that a persisted cache
/// (keyed by [`RrCache::fingerprint`]) still matches the live
/// graph/model/CPE line-up before serving from it.
pub fn distribution_fingerprint<M: PropagationModel + ?Sized>(
    graph: &DirectedGraph,
    model: &M,
    sampler: &UniformRrSampler,
) -> u64 {
    let mut hasher = DefaultHasher::new();
    graph.num_nodes().hash(&mut hasher);
    graph.num_edges().hash(&mut hasher);
    sampler.num_ads().hash(&mut hasher);
    for ad in 0..sampler.num_ads() {
        sampler.cpe(ad).to_bits().hash(&mut hasher);
    }
    model.num_ads().hash(&mut hasher);
    let m = graph.num_edges();
    if m > 0 {
        let probes = m.min(64);
        for ad in 0..model.num_ads() {
            for k in 0..probes {
                let edge = (k * m / probes) as u32;
                model.edge_prob(ad, edge).to_bits().hash(&mut hasher);
            }
        }
    }
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::UniformIc;
    use rmsa_graph::graph_from_edges;

    fn setup() -> (DirectedGraph, UniformIc, UniformRrSampler) {
        let g = graph_from_edges(12, &[(0, 1), (1, 2), (3, 4), (5, 6), (6, 7)]);
        let m = UniformIc::new(2, 0.5);
        let s = UniformRrSampler::new(&[1.0, 2.0]);
        (g, m, s)
    }

    fn roots(view: RrStreamView<'_>) -> Vec<(usize, u32)> {
        view.arena().iter().map(|r| (r.ad, r.root())).collect()
    }

    #[test]
    fn extends_monotonically_instead_of_regenerating() {
        let (g, m, s) = setup();
        let cache = RrCache::new(g.num_nodes(), RrStrategy::Standard, 1, 7);
        let (first, req1) = cache.with_at_least(&g, &m, &s, RrStream::Optimize, 500, roots);
        assert_eq!(req1.generated, 500);
        assert_eq!(req1.served_from_cache, 0);
        assert_eq!(req1.index_extended, 500);
        assert_eq!(req1.index_reused, 0);
        assert_eq!(cache.len(RrStream::Optimize), 500);
        assert_eq!(cache.index_segments(RrStream::Optimize), 1);

        // Growing keeps the existing prefix bit-for-bit and only indexes
        // the new sets.
        let (second, req2) = cache.with_at_least(&g, &m, &s, RrStream::Optimize, 800, roots);
        assert_eq!(req2.generated, 300);
        assert_eq!(req2.served_from_cache, 500);
        assert_eq!(req2.index_extended, 300);
        assert_eq!(req2.index_reused, 500);
        assert_eq!(cache.len(RrStream::Optimize), 800);
        assert_eq!(cache.index_segments(RrStream::Optimize), 2);
        assert_eq!(&second[..500], &first[..]);

        // Shrinking requests are served from cache without generation or
        // index work.
        let (_, req3) = cache.with_at_least(&g, &m, &s, RrStream::Optimize, 100, |v| {
            assert_eq!(v.len(), 800);
        });
        assert_eq!(req3.generated, 0);
        assert_eq!(req3.index_extended, 0);
        assert_eq!(req3.index_reused, 800);
        assert_eq!(cache.index_segments(RrStream::Optimize), 2);
        let stats = cache.stats();
        assert_eq!(stats.generated, 800);
        assert_eq!(stats.requested, 500 + 800 + 100);
        assert_eq!(stats.served_from_cache, 500 + 100);
        assert_eq!(stats.index_extended, 800);
        assert_eq!(stats.invalidations, 0);
    }

    #[test]
    fn coverage_views_at_different_sizes_share_the_index_prefix() {
        let (g, m, s) = setup();
        let cache = RrCache::new(g.num_nodes(), RrStrategy::Standard, 1, 7);
        let (view1, _) = cache.with_at_least(&g, &m, &s, RrStream::Optimize, 600, |v| v.coverage());
        let (view2, _) =
            cache.with_at_least(&g, &m, &s, RrStream::Optimize, 1400, |v| v.coverage());
        assert_eq!(view1.num_rr(), 600);
        assert_eq!(view2.num_rr(), 1400);
        // The θ₁ view's segment is the θ₂ view's first segment — shared,
        // not rebuilt.
        assert!(std::sync::Arc::ptr_eq(
            &view1.segments()[0],
            &view2.segments()[0]
        ));
        // And the smaller view still answers exactly over its prefix.
        for u in 0..g.num_nodes() as u32 {
            assert!(view1.singleton_count(0, u) <= view2.singleton_count(0, u));
        }
    }

    #[test]
    fn streams_are_independent() {
        let (g, m, s) = setup();
        let cache = RrCache::new(g.num_nodes(), RrStrategy::Standard, 1, 7);
        let (opt, _) = cache.with_at_least(&g, &m, &s, RrStream::Optimize, 400, roots);
        let (val, _) = cache.with_at_least(&g, &m, &s, RrStream::Validate, 400, roots);
        assert_ne!(opt, val, "streams must not replay the same RNG stream");
        assert_eq!(cache.len(RrStream::Optimize), 400);
        assert_eq!(cache.len(RrStream::Validate), 400);
        assert_eq!(cache.len(RrStream::Aux(3)), 0);
    }

    #[test]
    fn collections_are_thread_count_independent() {
        let (g, m, s) = setup();
        let serial = RrCache::new(g.num_nodes(), RrStrategy::Standard, 1, 7);
        let threaded = RrCache::new(g.num_nodes(), RrStrategy::Standard, 8, 7);
        let (a, _) = serial.with_at_least(&g, &m, &s, RrStream::Optimize, 5000, roots);
        let (b, _) = threaded.with_at_least(&g, &m, &s, RrStream::Optimize, 5000, roots);
        assert_eq!(a, b, "num_threads must not change the collection");
    }

    /// One stream holds the same sets and reports the same footprint at
    /// 1, 2 and 4 threads, over two extensions of several chunks each.
    #[test]
    fn a_streams_footprint_is_thread_count_independent() {
        let (g, m, s) = setup();
        let grow = |threads: usize| {
            let cache = RrCache::new(g.num_nodes(), RrStrategy::Standard, threads, 7);
            let mut seen = Vec::new();
            for count in [5_000, 12_345] {
                let (state, _) = cache.with_at_least(&g, &m, &s, RrStream::Optimize, count, |v| {
                    let sets: Vec<(usize, Vec<u32>)> =
                        v.arena().iter().map(|r| (r.ad, r.nodes.to_vec())).collect();
                    (sets, v.memory_bytes())
                });
                seen.push(state);
            }
            seen
        };
        let serial = grow(1);
        for threads in [2, 4] {
            for ((sets, bytes), (serial_sets, serial_bytes)) in grow(threads).iter().zip(&serial) {
                assert!(sets == serial_sets, "{threads} threads: other sets");
                assert_eq!(bytes, serial_bytes, "{threads} threads: memory_bytes");
            }
        }
    }

    #[test]
    fn sampler_change_invalidates() {
        let (g, m, s) = setup();
        let cache = RrCache::new(g.num_nodes(), RrStrategy::Standard, 1, 7);
        cache.with_at_least(&g, &m, &s, RrStream::Optimize, 300, |_| ());
        // Same cpe distribution → still cached.
        let same = UniformRrSampler::new(&[1.0, 2.0]);
        cache.with_at_least(&g, &m, &same, RrStream::Optimize, 300, |_| ());
        assert_eq!(cache.stats().invalidations, 0);
        assert_eq!(cache.stats().generated, 300);
        // Different cpe distribution → regenerate.
        let other = UniformRrSampler::new(&[1.0, 3.0]);
        cache.with_at_least(&g, &m, &other, RrStream::Optimize, 300, |_| ());
        let stats = cache.stats();
        assert_eq!(stats.invalidations, 1);
        assert_eq!(stats.generated, 600);
    }

    #[test]
    fn model_change_invalidates() {
        let (g, m, s) = setup();
        let cache = RrCache::new(g.num_nodes(), RrStrategy::Standard, 1, 7);
        cache.with_at_least(&g, &m, &s, RrStream::Optimize, 300, |_| ());
        assert_eq!(cache.stats().invalidations, 0);
        // Same sampler, different edge probabilities → stale RR-sets must
        // not be served.
        let hotter = UniformIc::new(2, 0.9);
        let (len, req) = cache.with_at_least(&g, &hotter, &s, RrStream::Optimize, 300, |v| v.len());
        assert_eq!(cache.stats().invalidations, 1);
        assert_eq!(len, 300);
        assert_eq!(req.generated, 300, "collection must be regenerated");
    }

    #[test]
    fn clear_drops_collections_but_keeps_counters() {
        let (g, m, s) = setup();
        let cache = RrCache::new(g.num_nodes(), RrStrategy::Standard, 1, 7);
        cache.with_at_least(&g, &m, &s, RrStream::Evaluate, 200, |_| ());
        assert!(!cache.is_empty());
        assert!(cache.memory_bytes() > 0);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().generated, 200);
    }

    #[test]
    fn one_workspace_is_lent_out_emptied_and_kept_at_capacity() {
        let (g, m, _) = setup();
        let n = g.num_nodes();
        let cache = RrCache::new(n, RrStrategy::Standard, 1, 7);
        let mut rng = <rand_pcg::Pcg64Mcg as rand::SeedableRng>::seed_from_u64(3);
        let mut first = cache.take_workspace(n, RrStrategy::Standard);
        assert_eq!(
            first.memory_bytes(),
            RrArena::new(n, RrStrategy::Standard).memory_bytes()
        );
        first.generate_for(&g, &m, 0, 500, 1, &mut rng);
        let held = first.resident_bytes();
        // A concurrent solve gets its own arena rather than waiting.
        let second = cache.take_workspace(n, RrStrategy::Standard);
        assert!(second.is_empty());
        cache.restore_workspace(first);
        cache.restore_workspace(second);
        let stats = cache.stats();
        assert_eq!(
            stats.workspace_bytes, held,
            "the first restored arena is kept"
        );
        assert_eq!(stats.resident_bytes, 0, "the workspace is not a stream");

        let again = cache.take_workspace(n, RrStrategy::Standard);
        assert!(again.is_empty());
        assert_eq!(again.resident_bytes(), held);
        assert_eq!(cache.stats().workspace_bytes, 0, "lent out");
        cache.restore_workspace(again);
        // A spare for another strategy is dropped, not lent out.
        let other = cache.take_workspace(n, RrStrategy::Subsim);
        assert_eq!(other.strategy(), RrStrategy::Subsim);
        assert!(other.resident_bytes() < held);
        assert_eq!(cache.stats().workspace_bytes, 0);
        cache.restore_workspace(other);
        cache.clear();
        assert_eq!(cache.stats().workspace_bytes, 0);
    }

    #[test]
    fn snapshot_roundtrip_preserves_collections_and_fingerprint() {
        let (g, m, s) = setup();
        let cache = RrCache::new(g.num_nodes(), RrStrategy::Standard, 2, 7);
        let (original, _) = cache.with_at_least(&g, &m, &s, RrStream::Optimize, 700, roots);
        cache.with_at_least(&g, &m, &s, RrStream::Evaluate, 300, |_| ());

        let bytes = cache.to_snapshot_bytes();
        let loaded = {
            let reader = SnapshotReader::parse(&bytes).unwrap();
            RrCache::read_snapshot(&reader, 2).unwrap()
        };
        assert_eq!(loaded.num_nodes(), cache.num_nodes());
        assert_eq!(loaded.strategy(), cache.strategy());
        assert_eq!(loaded.base_seed(), cache.base_seed());
        assert_eq!(loaded.fingerprint(), cache.fingerprint());
        assert_eq!(loaded.len(RrStream::Optimize), 700);
        assert_eq!(loaded.len(RrStream::Evaluate), 300);
        assert_eq!(loaded.index_segments(RrStream::Optimize), 1);
        let stats = loaded.stats();
        assert_eq!(stats.loaded_from_snapshot, 1000);
        assert_eq!(stats.generated, 0, "loaded sets were not generated here");

        // Serving from the loaded cache returns the same collection
        // without generating anything.
        let (served, req) = loaded.with_at_least(&g, &m, &s, RrStream::Optimize, 700, roots);
        assert_eq!(served, original);
        assert_eq!(req.generated, 0);
        assert_eq!(req.index_extended, 0);
        assert_eq!(loaded.stats().invalidations, 0, "snapshot was not stale");

        // Byte stability: saving the loaded cache reproduces the bytes.
        assert_eq!(loaded.to_snapshot_bytes(), bytes);
    }

    #[test]
    fn extend_after_load_matches_a_never_persisted_cache() {
        // The extend-never-rebuild invariant across a save/load boundary:
        // grow θ₁ → save → load → grow to θ₂ must equal a cache that grew
        // θ₁ → θ₂ without ever touching disk — same sets, same segment
        // structure, same extension accounting.
        let (g, m, s) = setup();
        let witness = RrCache::new(g.num_nodes(), RrStrategy::Standard, 1, 7);
        witness.with_at_least(&g, &m, &s, RrStream::Optimize, 500, |_| ());

        let persisted = RrCache::new(g.num_nodes(), RrStrategy::Standard, 1, 7);
        persisted.with_at_least(&g, &m, &s, RrStream::Optimize, 500, |_| ());
        let bytes = persisted.to_snapshot_bytes();
        let loaded = {
            let reader = SnapshotReader::parse(&bytes).unwrap();
            RrCache::read_snapshot(&reader, 1).unwrap()
        };

        let (grown_cold, _) = witness.with_at_least(&g, &m, &s, RrStream::Optimize, 1200, roots);
        let (grown_loaded, req) = loaded.with_at_least(&g, &m, &s, RrStream::Optimize, 1200, roots);
        assert_eq!(req.generated, 700, "only the extension is generated");
        assert_eq!(
            grown_cold, grown_loaded,
            "extension after load must replay the cold trajectory"
        );
        assert_eq!(
            loaded.index_segments(RrStream::Optimize),
            witness.index_segments(RrStream::Optimize),
            "segment history must survive the save/load boundary"
        );
    }

    #[test]
    fn stale_snapshot_is_rejected_never_silently_reused() {
        let (g, m, s) = setup();
        let cache = RrCache::new(g.num_nodes(), RrStrategy::Standard, 1, 7);
        cache.with_at_least(&g, &m, &s, RrStream::Optimize, 400, |_| ());
        let bytes = cache.to_snapshot_bytes();
        let loaded = {
            let reader = SnapshotReader::parse(&bytes).unwrap();
            RrCache::read_snapshot(&reader, 1).unwrap()
        };
        // The live model changed since the snapshot was taken: the loaded
        // collections must be invalidated and regenerated, not served.
        let hotter = UniformIc::new(2, 0.9);
        let (_, req) = loaded.with_at_least(&g, &hotter, &s, RrStream::Optimize, 400, roots);
        assert_eq!(req.generated, 400, "stale collections must not be served");
        assert_eq!(loaded.stats().invalidations, 1);
    }

    #[test]
    fn mapped_load_is_zero_copy_and_extends_identically() {
        let (g, m, s) = setup();
        let witness = RrCache::new(g.num_nodes(), RrStrategy::Standard, 1, 7);
        let (original, _) = witness.with_at_least(&g, &m, &s, RrStream::Optimize, 500, roots);

        let dir = std::env::temp_dir().join("rmsa_cache_mapped_test");
        let path = dir.join("cache.rmsnap");
        witness.save_to(&path).unwrap();

        let mapped = RrCache::load_mapped(&path, 2, VerifyMode::Lazy).unwrap();
        assert_eq!(mapped.len(RrStream::Optimize), 500);
        assert_eq!(mapped.fingerprint(), witness.fingerprint());
        let stats = mapped.stats();
        assert_eq!(stats.loaded_from_snapshot, 500);
        if rmsa_store::ZERO_COPY_TARGET {
            assert!(
                stats.mapped_bytes > 0,
                "a mapped v2 load must borrow columns from the file"
            );
        }
        assert_eq!(
            stats.resident_bytes + stats.mapped_bytes,
            mapped.memory_bytes()
        );

        // Serving from the mapped cache returns the owned collection.
        let (served, req) = mapped.with_at_least(&g, &m, &s, RrStream::Optimize, 500, roots);
        assert_eq!(served, original);
        assert_eq!(req.generated, 0);

        // Extending promotes written columns to owned and replays the cold
        // trajectory bit-for-bit.
        let (grown_cold, _) = witness.with_at_least(&g, &m, &s, RrStream::Optimize, 1200, roots);
        let (grown_mapped, req) = mapped.with_at_least(&g, &m, &s, RrStream::Optimize, 1200, roots);
        assert_eq!(req.generated, 700);
        assert_eq!(grown_cold, grown_mapped);
        std::fs::remove_file(&path).ok();

        // Eager verification also works end to end.
        witness.save_to(&path).unwrap();
        let eager = RrCache::load_mapped(&path, 1, VerifyMode::Eager).unwrap();
        assert_eq!(eager.len(RrStream::Optimize), 1200);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_to_and_load_from_roundtrip_on_disk() {
        let (g, m, s) = setup();
        let cache = RrCache::new(g.num_nodes(), RrStrategy::Subsim, 1, 9);
        cache.with_at_least(&g, &m, &s, RrStream::Validate, 250, |_| ());
        let dir = std::env::temp_dir().join("rmsa_cache_snapshot_test");
        let path = dir.join("cache.rmsnap");
        cache.save_to(&path).unwrap();
        let loaded = RrCache::load_from(&path, 4).unwrap();
        assert_eq!(loaded.strategy(), RrStrategy::Subsim);
        assert_eq!(loaded.len(RrStream::Validate), 250);
        assert!(loaded.stats().snapshot_load_time > Duration::ZERO);
        std::fs::remove_file(&path).ok();
        let missing = RrCache::load_from(&path, 1).map(|_| ());
        assert!(matches!(missing.unwrap_err(), StoreError::Io(_)));
        // Corrupted files surface typed errors, not panics.
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&path, b"RMSASNAPgarbage").unwrap();
        assert!(RrCache::load_from(&path, 1).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn works_through_a_trait_object_model() {
        let (g, m, s) = setup();
        let boxed: Box<dyn PropagationModel> = Box::new(m);
        let cache = RrCache::new(g.num_nodes(), RrStrategy::Standard, 2, 9);
        let (n, _) = cache.with_at_least(&g, boxed.as_ref(), &s, RrStream::Optimize, 1500, |v| {
            v.len()
        });
        assert_eq!(n, 1500);
    }
}
