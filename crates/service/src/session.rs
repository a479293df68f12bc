//! Warm solving sessions and the LRU-bounded [`SessionRegistry`].
//!
//! A [`Session`] is one resident `Workbench` — graph, propagation model,
//! shared RR-set cache — plus the deterministic instance ingredients
//! (Table-2 advertisers, singleton spreads) for one
//! `(dataset, strategy)` fingerprint. Sessions are built lazily on first
//! use and *warmed* before the first solve: the RR cache is pre-extended
//! to the serving θ on both solver streams and the evaluation stream, so
//! every subsequent solve runs entirely from cache.
//!
//! **The warm invariant is what makes serving deterministic.** A solver
//! run against the shared cache sees the whole cached collection, so its
//! report depends on the cache size at solve time; by pinning every
//! session at a fixed serving θ *before* any solve, each solve becomes a
//! pure function of `(session fingerprint, request parameters)` —
//! independent of worker-thread count, batch composition, and client
//! interleaving. Raising θ later through an explicit `warm` RPC is
//! allowed but changes that function; determinism is guaranteed *per warm
//! history*, and the built-in load generator never issues warms.

use crate::lock_unpoisoned;
use crate::wire::{
    render_result, strategy_name, Algorithm, SessionStatsEntry, SolveRequest, SolveResult,
    WarmRequest,
};
use rmsa::prelude::*;
use rmsa_bench::{default_rma_config, default_ti_config, ExperimentContext};
use rmsa_datasets::Dataset;
use rmsa_obs::{flight, names, Counter, Span};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Memo key of one solve class: `(algorithm, incentive, α bits,
/// evaluate)`. Two requests with equal keys are the *same pure function
/// application* under the warm invariant, so their results are
/// interchangeable bit-for-bit.
pub(crate) type SolveClass = (&'static str, &'static str, u64, bool);

pub(crate) fn solve_class(request: &SolveRequest) -> SolveClass {
    (
        request.algorithm.name(),
        request.incentive.label(),
        request.alpha.to_bits(),
        request.evaluate,
    )
}

/// Most solve classes one session memoizes. Past it the oldest insertion
/// is evicted, so a client that sends a new α with every request cannot
/// grow daemon memory, while a small working set of classes stays hot.
pub(crate) const MEMO_CAPACITY: usize = 256;

/// A solve result together with its compact wire rendering, made once so
/// every response that repeats the result splices the same bytes.
pub(crate) struct RenderedResult {
    pub(crate) result: SolveResult,
    /// [`render_result`] of `result`.
    pub(crate) rendered: String,
}

impl RenderedResult {
    pub(crate) fn new(result: SolveResult) -> RenderedResult {
        let rendered = render_result(&result);
        RenderedResult { result, rendered }
    }
}

/// Memoized solve results by [`SolveClass`], each tagged with the warm
/// epoch it was computed under, holding at most [`MEMO_CAPACITY`] classes.
#[derive(Default)]
pub(crate) struct SolveMemo {
    entries: BTreeMap<SolveClass, (usize, Arc<RenderedResult>)>,
    /// Classes in insertion order, oldest first.
    order: VecDeque<SolveClass>,
}

impl SolveMemo {
    /// Number of memoized classes.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// The result memoized for `class` in warm epoch `epoch`.
    fn get(&self, class: &SolveClass, epoch: usize) -> Option<&Arc<RenderedResult>> {
        match self.entries.get(class) {
            Some((stored, result)) if *stored == epoch => Some(result),
            _ => None,
        }
    }

    /// Memoize `result`, evicting the oldest class when over capacity.
    /// Returns whether a class was evicted.
    fn insert(&mut self, class: SolveClass, epoch: usize, result: Arc<RenderedResult>) -> bool {
        if self.entries.insert(class, (epoch, result)).is_some() {
            return false;
        }
        self.order.push_back(class);
        if self.order.len() <= MEMO_CAPACITY {
            return false;
        }
        if let Some(oldest) = self.order.pop_front() {
            self.entries.remove(&oldest);
        }
        Counter::MemoEvictions.inc();
        true
    }
}

/// Cache fingerprint a request routes to: every request with the same key
/// shares one workbench and therefore one RR-set cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SessionKey {
    /// Dataset (graph + propagation model + advertiser line-up).
    pub dataset: DatasetKind,
    /// RR-set generation strategy of the shared cache.
    pub strategy: RrStrategy,
}

impl SessionKey {
    /// Wire label, `"<dataset>/<strategy>"`.
    pub fn label(&self) -> String {
        format!("{}/{}", self.dataset.name(), strategy_name(self.strategy))
    }
}

impl From<&SolveRequest> for SessionKey {
    fn from(r: &SolveRequest) -> Self {
        SessionKey {
            dataset: r.dataset,
            strategy: r.strategy,
        }
    }
}

impl From<&WarmRequest> for SessionKey {
    fn from(r: &WarmRequest) -> Self {
        SessionKey {
            dataset: r.dataset,
            strategy: r.strategy,
        }
    }
}

/// Result of [`Session::ensure_warm`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WarmOutcome {
    /// Serving θ after the call.
    pub target_rr: usize,
    /// RR-sets generated by this call (0 when already warm).
    pub generated: usize,
    /// True when the session already held the target.
    pub already_warm: bool,
}

/// One warm solving session (see the module docs for the warm invariant).
pub struct Session {
    pub(crate) key: SessionKey,
    pub(crate) dataset: Dataset,
    pub(crate) workbench: Workbench,
    pub(crate) advertisers: Vec<Advertiser>,
    pub(crate) spreads: Vec<Vec<f64>>,
    pub(crate) rma_config: RmaConfig,
    pub(crate) ti_config: TiConfig,
    pub(crate) eval_rr: usize,
    pub(crate) spread_rr: usize,
    pub(crate) default_target: usize,
    /// Current warm level (RR-sets per solver stream); 0 = cold. The lock
    /// doubles as the warm-up critical section, so a batch of concurrent
    /// first requests triggers exactly one cache extension.
    pub(crate) warm_level: Mutex<usize>,
    /// Lock-free mirror of `warm_level` for the `stats` RPC and
    /// [`Session::memo_hit`], so neither ever waits behind an in-progress
    /// warm-up.
    pub(crate) warm_level_hint: AtomicUsize,
    /// Bumped on every cache extension; memoized solve results are valid
    /// only within the epoch they were computed in (the warm invariant
    /// makes solves pure *per warm history*, not across histories).
    pub(crate) warm_epoch: AtomicUsize,
    /// Memoized solve results, each tagged with its warm epoch.
    pub(crate) memo: Mutex<SolveMemo>,
    pub(crate) warm_extensions: AtomicUsize,
    pub(crate) served: AtomicUsize,
    /// True when this session was warm-started from a disk snapshot.
    pub(crate) loaded_from_snapshot: bool,
    /// Wall-clock seconds spent loading that snapshot (0 for cold builds).
    pub(crate) snapshot_load_secs: f64,
}

impl Session {
    /// Deterministically build a session for `key` under `ctx`: dataset,
    /// workbench, Table-2 advertisers and singleton spreads all derive
    /// from `ctx.seed`, so rebuilding an evicted session reproduces it
    /// bit-for-bit.
    pub fn build(key: SessionKey, ctx: &ExperimentContext) -> Session {
        let dataset = ctx.dataset(key.dataset);
        let workbench = ctx.workbench(&dataset, key.strategy);
        let advertisers = rmsa_bench::sweeps::advertisers_for(ctx, key.dataset, ctx.seed ^ 0xAD5);
        let spreads = dataset.singleton_spreads(ctx.spread_rr, ctx.seed ^ 0x5EED);
        let rma_config = default_rma_config(ctx);
        let ti_config = default_ti_config(ctx);
        let default_target = rma_config.max_rr_per_collection;
        Session {
            key,
            dataset,
            workbench,
            advertisers,
            spreads,
            rma_config,
            ti_config,
            eval_rr: ctx.eval_rr,
            spread_rr: ctx.spread_rr,
            default_target,
            warm_level: Mutex::new(0),
            warm_level_hint: AtomicUsize::new(0),
            warm_epoch: AtomicUsize::new(0),
            memo: Mutex::new(SolveMemo::default()),
            warm_extensions: AtomicUsize::new(0),
            served: AtomicUsize::new(0),
            loaded_from_snapshot: false,
            snapshot_load_secs: 0.0,
        }
    }

    /// Build a session for `key`, warm-starting from a snapshot in
    /// `snapshot_dir` when a matching one exists. A missing file is a
    /// silent cold build; a corrupt or stale file is **rejected with a
    /// logged reason** and also falls back to the deterministic cold
    /// build — never served.
    pub fn build_or_load(
        key: SessionKey,
        ctx: &ExperimentContext,
        snapshot_dir: Option<&Path>,
        verify: rmsa_store::VerifyMode,
    ) -> Session {
        Session::build_or_load_logged(key, ctx, snapshot_dir, verify, &mut |line| {
            eprintln!("{line}")
        })
    }

    /// [`Session::build_or_load`], reporting each warm start or rejection
    /// as one line through `log` instead of stderr.
    pub(crate) fn build_or_load_logged(
        key: SessionKey,
        ctx: &ExperimentContext,
        snapshot_dir: Option<&Path>,
        verify: rmsa_store::VerifyMode,
        log: &mut dyn FnMut(String),
    ) -> Session {
        if let Some(dir) = snapshot_dir {
            match crate::snapshot::load_session_with(key, ctx, dir, verify) {
                Ok(Some(session)) => {
                    log(format!(
                        "rmsa serve: warm-started {} from {} in {:.1} ms",
                        key.label(),
                        crate::snapshot::snapshot_path(dir, key).display(),
                        session.snapshot_load_secs * 1e3,
                    ));
                    return session;
                }
                Ok(None) => {}
                Err(e) => log(format!(
                    "rmsa serve: rejecting snapshot for {}: {e}; rebuilding cold",
                    key.label()
                )),
            }
        }
        Session::build(key, ctx)
    }

    /// Persist this session under `dir` (see [`crate::snapshot`]).
    pub fn save_snapshot(&self, dir: &Path) -> Result<std::path::PathBuf, rmsa_store::StoreError> {
        crate::snapshot::save_session(self, dir)
    }

    /// True when the session was warm-started from a disk snapshot.
    pub fn loaded_from_snapshot(&self) -> bool {
        self.loaded_from_snapshot
    }

    /// The session's fingerprint.
    pub fn key(&self) -> SessionKey {
        self.key
    }

    /// The session's workbench (cache accounting lives here).
    pub fn workbench(&self) -> &Workbench {
        &self.workbench
    }

    /// The default serving θ (RMA's per-collection cap under `ctx`).
    pub fn default_target(&self) -> usize {
        self.default_target
    }

    /// The instance for one `(incentive, alpha)` query point. The
    /// advertiser line-up — and with it the CPE distribution the RR cache
    /// fingerprints — is fixed per session, so changing `incentive` or
    /// `alpha` never invalidates cached RR-sets.
    pub fn instance(&self, incentive: IncentiveModel, alpha: f64) -> RmInstance {
        self.dataset.build_instance_from_spreads(
            self.advertisers.clone(),
            &self.spreads,
            incentive,
            alpha,
        )
    }

    /// Bring the session to at least `target_rr` (default: the serving θ)
    /// on both solver streams and the evaluation stream. Concurrent
    /// callers serialize on the warm lock; only the first does cache
    /// work — this is the "one extension serves the whole batch" path.
    pub fn ensure_warm(&self, target_rr: Option<usize>) -> WarmOutcome {
        let target = target_rr.unwrap_or(self.default_target);
        let mut level = lock_unpoisoned(&self.warm_level);
        if *level >= target {
            return WarmOutcome {
                target_rr: *level,
                generated: 0,
                already_warm: true,
            };
        }
        let instance = self.instance(IncentiveModel::Linear, 0.1);
        let stats = self.workbench.warm(&instance, target);
        // Warming the evaluation stream goes through the evaluator path so
        // the coverage snapshot machinery is exercised exactly as solves
        // will exercise it.
        let eval_generated_before = self.workbench.cache_stats().generated;
        let _ = self.workbench.evaluator(&instance, self.eval_rr);
        let eval_generated = self.workbench.cache_stats().generated - eval_generated_before;
        self.warm_extensions.fetch_add(1, Ordering::Relaxed);
        *level = target;
        // Release-publish the new epoch while still holding the warm lock:
        // memoized results from the old history stop being served. The
        // hint follows the epoch, and `memo_hit` reads them in the other
        // order, so a reader that sees this warm level also sees its
        // epoch and never pairs it with an entry of the old history.
        let stale = lock_unpoisoned(&self.memo).len();
        flight::record(names::MEMO_INVALIDATE, stale as u64, 0);
        self.warm_epoch.fetch_add(1, Ordering::Release);
        self.warm_level_hint.store(target, Ordering::Release);
        WarmOutcome {
            target_rr: target,
            generated: stats.generated() + eval_generated,
            already_warm: false,
        }
    }

    /// Serve one solve request. The caller is expected to have warmed the
    /// session first; on a warm session the result is a pure function of
    /// the request.
    pub fn solve(&self, request: &SolveRequest) -> Result<SolveResult, RmError> {
        let instance = self.instance(request.incentive, request.alpha);
        let solver: Box<dyn Solver> = match request.algorithm {
            Algorithm::Rma => Box::new(Rma::new(self.rma_config.clone())),
            Algorithm::OneBatch => {
                Box::new(OneBatch::new(self.rma_config.clone(), self.default_target))
            }
            // Serving solves the instance as given — the experiment-side
            // `(1 + ϱ)` budget-relaxation convention is a comparison
            // protocol, not part of the query semantics.
            Algorithm::TiCarm => Box::new(TiCarm::new(self.ti_config.clone())),
            Algorithm::TiCsrm => Box::new(TiCsrm::new(self.ti_config.clone())),
        };
        let greedy_span = Span::child(names::GREEDY);
        let report = self.workbench.run_solver(solver.as_ref(), &instance)?;
        drop(greedy_span);
        let revenue = request.evaluate.then(|| {
            let _eval_span = Span::child(names::EVALUATE);
            let evaluator = self.workbench.evaluator(&instance, self.eval_rr);
            evaluator.report(&instance, &report.allocation).revenue
        });
        self.served.fetch_add(1, Ordering::Relaxed);
        Ok(SolveResult {
            algorithm: report.solver.clone(),
            revenue,
            revenue_estimate: report.revenue_estimate,
            revenue_lower_bound: report.revenue_lower_bound,
            seeding_cost: report.seeding_cost,
            seeds: report.allocation.total_seeds(),
            feasible: report.feasible,
            capped: report.capped,
            iterations: report.iterations,
            rr_used: report.rr.used,
            rr_generated: report.rr.generated,
            index_extended: report.rr.index_extended,
            allocation_digest: allocation_digest(&report.allocation),
        })
    }

    /// Serve one solve request through the per-class memo: on a warm
    /// session the result is a pure function of the request (module
    /// docs), so requests in the same [`SolveClass`] within one warm
    /// epoch share one solver run — this is what lets a single box
    /// absorb an open-loop arrival rate far above `1 / solve_time`. A
    /// warm-up between compute and insert invalidates the entry via the
    /// epoch tag, so a stale-history result is never served.
    pub fn solve_memoized(&self, request: &SolveRequest) -> Result<SolveResult, RmError> {
        self.solve_rendered(request)
            .map(|entry| entry.result.clone())
    }

    /// [`Session::solve_memoized`], returning the memo entry itself, whose
    /// rendered bytes the worker splices into the response line. The hit
    /// branch still matters on the worker path: duplicates queued behind
    /// a miss of their class find its entry here.
    pub(crate) fn solve_rendered(
        &self,
        request: &SolveRequest,
    ) -> Result<Arc<RenderedResult>, RmError> {
        if let Some(entry) = self.memo_hit(request) {
            return Ok(entry);
        }
        Counter::MemoMisses.inc();
        let epoch = self.warm_epoch.load(Ordering::Acquire);
        let entry = Arc::new(RenderedResult::new(self.solve(request)?));
        let mut memo = lock_unpoisoned(&self.memo);
        // Only cache results whose whole computation happened inside one
        // epoch; a concurrent warm makes this solve's history ambiguous.
        if self.warm_epoch.load(Ordering::Acquire) == epoch {
            memo.insert(solve_class(request), epoch, entry.clone());
        }
        Ok(entry)
    }

    /// The memo entry for `request`, counted as a hit and a served
    /// request, when the session is warm (at least the serving θ) and the
    /// entry belongs to the current warm epoch. Never takes the
    /// `warm_level` lock, which a warm-up holds throughout, so the event
    /// loop can call it: the hint is read before the epoch, the reverse of
    /// the order [`Session::ensure_warm`] publishes them in.
    pub(crate) fn memo_hit(&self, request: &SolveRequest) -> Option<Arc<RenderedResult>> {
        if self.warm_level_hint.load(Ordering::Acquire) < self.default_target {
            return None;
        }
        let epoch = self.warm_epoch.load(Ordering::Acquire);
        let entry = lock_unpoisoned(&self.memo)
            .get(&solve_class(request), epoch)?
            .clone();
        Counter::MemoHits.inc();
        self.served.fetch_add(1, Ordering::Relaxed);
        Some(entry)
    }

    /// Statistics block for the `stats` RPC.
    pub fn stats_entry(&self) -> SessionStatsEntry {
        let cache = self.workbench.cache_stats();
        SessionStatsEntry {
            session: self.key.label(),
            served: self.served.load(Ordering::Relaxed),
            warm_extensions: self.warm_extensions.load(Ordering::Relaxed),
            warm_target: self.warm_level_hint.load(Ordering::Relaxed),
            rr_generated: cache.generated,
            rr_requested: cache.requested,
            index_extended: cache.index_extended,
            memory_bytes: self.workbench.cache().memory_bytes(),
            loaded_from_snapshot: self.loaded_from_snapshot,
            snapshot_load_secs: self.snapshot_load_secs,
        }
    }
}

/// Order-independent digest of an allocation: hex of a 64-bit hash over
/// `(ad, seed set)` pairs. `DefaultHasher` is keyed with constants, so the
/// digest is stable across processes and platforms.
pub fn allocation_digest(allocation: &Allocation) -> String {
    let mut hasher = DefaultHasher::new();
    allocation.seed_sets.len().hash(&mut hasher);
    for (ad, seeds) in allocation.seed_sets.iter().enumerate() {
        ad.hash(&mut hasher);
        let mut sorted: Vec<NodeId> = seeds.clone();
        sorted.sort_unstable();
        sorted.hash(&mut hasher);
    }
    format!("{:016x}", hasher.finish())
}

struct Slot {
    session: OnceLock<Arc<Session>>,
}

/// Registry of resident sessions, keyed by [`SessionKey`], with an LRU
/// bound on the number of simultaneously resident workbenches.
///
/// Building a session (graph generation, spreads, first warm) can take
/// seconds; the registry keeps the build outside its own lock by handing
/// out per-key [`OnceLock`] slots, so a build for one key never blocks
/// requests for another. Evicted sessions stay alive until their last
/// in-flight user drops them, and rebuilding one later reproduces it
/// exactly (see [`Session::build`]).
pub struct SessionRegistry {
    ctx: ExperimentContext,
    max_sessions: usize,
    evictions: AtomicUsize,
    /// Warm-start/persist directory; `None` disables persistence.
    snapshot_dir: Option<std::path::PathBuf>,
    /// Checksum policy for warm starts: `Lazy` (default) maps the file
    /// and skips payload hashing; `Eager` re-hashes every section first.
    snapshot_verify: rmsa_store::VerifyMode,
    /// Recency order: least recently used first.
    inner: Mutex<Vec<(SessionKey, Arc<Slot>)>>,
}

impl SessionRegistry {
    /// A registry holding at most `max_sessions` resident sessions built
    /// under `ctx`.
    pub fn new(ctx: ExperimentContext, max_sessions: usize) -> Self {
        SessionRegistry {
            ctx,
            max_sessions: max_sessions.max(1),
            evictions: AtomicUsize::new(0),
            snapshot_dir: None,
            snapshot_verify: rmsa_store::VerifyMode::Lazy,
            inner: Mutex::new(Vec::new()),
        }
    }

    /// Enable snapshot persistence: sessions are warm-started from `dir`
    /// when a matching snapshot exists, and the daemon persists them back
    /// after cache extensions.
    pub fn with_snapshot_dir(mut self, dir: Option<std::path::PathBuf>) -> Self {
        self.snapshot_dir = dir;
        self
    }

    /// Set the warm-start checksum policy (`--verify-snapshots` makes it
    /// eager; the default lazily trusts the mapped pages and relies on
    /// structural + fingerprint validation).
    pub fn with_snapshot_verify(mut self, verify: rmsa_store::VerifyMode) -> Self {
        self.snapshot_verify = verify;
        self
    }

    /// The snapshot directory, when persistence is enabled.
    pub fn snapshot_dir(&self) -> Option<&Path> {
        self.snapshot_dir.as_deref()
    }

    /// The experiment context sessions are built under.
    pub fn ctx(&self) -> &ExperimentContext {
        &self.ctx
    }

    /// The session for `key` if it is already built, marked most recently
    /// used; `None` when it is absent or still building. Never starts or
    /// waits for a build, so the event loop can look up memo hits with it.
    pub fn resident(&self, key: SessionKey) -> Option<Arc<Session>> {
        let mut inner = lock_unpoisoned(&self.inner);
        let i = inner.iter().position(|(k, _)| *k == key)?;
        let session = inner[i].1.session.get()?.clone();
        let entry = inner.remove(i);
        inner.push(entry);
        Some(session)
    }

    /// The session for `key`, building it on first use and marking it
    /// most recently used.
    pub fn session(&self, key: SessionKey) -> Arc<Session> {
        let slot = {
            let mut inner = lock_unpoisoned(&self.inner);
            let slot = match inner.iter().position(|(k, _)| *k == key) {
                Some(i) => {
                    let entry = inner.remove(i);
                    let slot = entry.1.clone();
                    inner.push(entry);
                    slot
                }
                None => {
                    let slot = Arc::new(Slot {
                        session: OnceLock::new(),
                    });
                    inner.push((key, slot.clone()));
                    slot
                }
            };
            while inner.len() > self.max_sessions {
                inner.remove(0);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
            slot
        };
        slot.session
            .get_or_init(|| {
                Arc::new(Session::build_or_load(
                    key,
                    &self.ctx,
                    self.snapshot_dir.as_deref(),
                    self.snapshot_verify,
                ))
            })
            .clone()
    }

    /// Sessions evicted by the LRU bound since creation.
    pub fn evictions(&self) -> usize {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Per-session statistics, least recently used first. Slots still
    /// building are skipped (they have no cache to report yet).
    pub fn stats(&self) -> Vec<SessionStatsEntry> {
        let slots: Vec<Arc<Slot>> = {
            let inner = lock_unpoisoned(&self.inner);
            inner.iter().map(|(_, s)| s.clone()).collect()
        };
        slots
            .iter()
            .filter_map(|slot| slot.session.get())
            .map(|s| s.stats_entry())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::tiny_ctx;

    fn key(dataset: DatasetKind) -> SessionKey {
        SessionKey {
            dataset,
            strategy: RrStrategy::Standard,
        }
    }

    #[test]
    fn sessions_are_cached_and_lru_evicted() {
        let registry = SessionRegistry::new(tiny_ctx(), 1);
        let a = registry.session(key(DatasetKind::LastfmSyn));
        let a2 = registry.session(key(DatasetKind::LastfmSyn));
        assert!(Arc::ptr_eq(&a, &a2), "same key must reuse the session");
        assert_eq!(registry.evictions(), 0);
        let _b = registry.session(key(DatasetKind::FlixsterSyn));
        assert_eq!(registry.evictions(), 1, "bound 1 evicts the LRU session");
        // The evicted session rebuilds deterministically.
        let a3 = registry.session(key(DatasetKind::LastfmSyn));
        assert!(!Arc::ptr_eq(&a, &a3));
        assert_eq!(a3.key().label(), "lastfm-syn/standard");
        assert_eq!(registry.evictions(), 2);
    }

    #[test]
    fn resident_lookups_never_build_and_keep_a_session_recent() {
        let registry = SessionRegistry::new(tiny_ctx(), 2);
        let (a, b, c) = (
            key(DatasetKind::LastfmSyn),
            key(DatasetKind::FlixsterSyn),
            key(DatasetKind::DblpSyn),
        );
        assert!(registry.resident(a).is_none());
        assert!(
            registry.stats().is_empty(),
            "a resident miss builds nothing"
        );
        registry.session(a);
        registry.session(b);
        // Touching `a` makes `b` the least recently used one.
        assert!(registry.resident(a).is_some());
        registry.session(c);
        assert_eq!(registry.evictions(), 1);
        assert!(registry.resident(a).is_some(), "a looked-up session stays");
        assert!(
            registry.resident(b).is_none(),
            "the idle session is evicted"
        );
    }

    #[test]
    fn warm_then_solve_generates_nothing_new() {
        let registry = SessionRegistry::new(tiny_ctx(), 2);
        let session = registry.session(key(DatasetKind::LastfmSyn));
        let warm = session.ensure_warm(None);
        assert!(!warm.already_warm);
        assert!(warm.generated > 0);
        let again = session.ensure_warm(None);
        assert!(again.already_warm);
        assert_eq!(again.generated, 0);

        let request = crate::test_util::solve_request(1, Algorithm::Rma, 0.1);
        let result = session.solve(&request).unwrap();
        assert_eq!(result.rr_generated, 0, "warm session must not generate");
        assert_eq!(result.index_extended, 0);
        assert!(result.revenue.is_some());
        assert!(result.rr_used > 0);
        let stats = session.stats_entry();
        assert_eq!(stats.served, 1);
        assert_eq!(stats.warm_extensions, 1);
    }

    #[test]
    fn solves_are_pure_functions_of_the_request_once_warm() {
        let build = || {
            let registry = SessionRegistry::new(tiny_ctx(), 2);
            let session = registry.session(key(DatasetKind::LastfmSyn));
            session.ensure_warm(None);
            session
        };
        let s1 = build();
        let s2 = build();
        for algorithm in [Algorithm::Rma, Algorithm::OneBatch, Algorithm::TiCarm] {
            let request = crate::test_util::solve_request(1, algorithm, 0.3);
            // Different solve orders on s2 must not change anything.
            let _noise = s2.solve(&crate::test_util::solve_request(
                9,
                Algorithm::OneBatch,
                0.1,
            ));
            assert_eq!(
                s1.solve(&request).unwrap(),
                s2.solve(&request).unwrap(),
                "{algorithm:?} must be deterministic on a warm session"
            );
        }
    }

    #[test]
    fn memoized_solves_match_fresh_ones_and_respect_warm_epochs() {
        let registry = SessionRegistry::new(tiny_ctx(), 2);
        let session = registry.session(key(DatasetKind::LastfmSyn));
        session.ensure_warm(None);
        let request = crate::test_util::solve_request(1, Algorithm::OneBatch, 0.1);
        let fresh = session.solve(&request).unwrap();
        let first = session.solve_memoized(&request).unwrap();
        let hit = session.solve_memoized(&request).unwrap();
        assert_eq!(first, fresh, "memo path must match the direct path");
        assert_eq!(hit, fresh, "memo hits must be bit-identical");
        assert_eq!(
            session.stats_entry().served,
            3,
            "memo hits still count as served requests"
        );
        // Raising the warm target starts a new epoch: the memo entry is
        // stale and the next call re-solves against the new history.
        let target = session.default_target() + 64;
        session.ensure_warm(Some(target));
        let warmer = session.solve_memoized(&request).unwrap();
        assert_eq!(
            warmer,
            session.solve(&request).unwrap(),
            "post-warm memo result must match a fresh post-warm solve"
        );
        assert_eq!(session.stats_entry().warm_target, target);
    }

    #[test]
    fn memo_hits_need_a_warm_session_and_the_current_epoch() {
        let registry = SessionRegistry::new(tiny_ctx(), 2);
        let key = key(DatasetKind::LastfmSyn);
        assert!(registry.resident(key).is_none(), "nothing is built yet");
        let session = registry.session(key);
        let resident = registry.resident(key).expect("built sessions are resident");
        assert!(Arc::ptr_eq(&session, &resident));
        let request = crate::test_util::solve_request(1, Algorithm::OneBatch, 0.1);
        assert!(session.memo_hit(&request).is_none(), "cold session");

        // Below the serving θ an entry is memoized but never served.
        session.ensure_warm(Some(session.default_target() / 4));
        session.solve_memoized(&request).unwrap();
        assert!(
            session.memo_hit(&request).is_none(),
            "a session below the serving θ is not warm"
        );

        // Warming to the default starts a new epoch: the entry is stale.
        session.ensure_warm(None);
        assert!(
            session.memo_hit(&request).is_none(),
            "an entry of an older epoch is never a hit"
        );
        let served = session.stats_entry().served;
        let result = session.solve_memoized(&request).unwrap();
        let hit = session.memo_hit(&request).expect("memoized in this epoch");
        assert_eq!(hit.result, result);
        assert_eq!(hit.rendered, render_result(&result));
        assert_eq!(
            session.stats_entry().served,
            served + 2,
            "hits count as served"
        );
        let other = crate::test_util::solve_request(2, Algorithm::OneBatch, 0.2);
        assert!(session.memo_hit(&other).is_none(), "another class misses");
    }

    #[test]
    fn memo_stays_bounded_under_distinct_alphas_and_repeats_still_hit() {
        let result = RenderedResult::new(SolveResult {
            algorithm: "RMA".to_string(),
            revenue: None,
            revenue_estimate: 1.0,
            revenue_lower_bound: None,
            seeding_cost: 0.0,
            seeds: 0,
            feasible: true,
            capped: false,
            iterations: 1,
            rr_used: 0,
            rr_generated: 0,
            index_extended: 0,
            allocation_digest: String::new(),
        });
        let result = Arc::new(result);
        let class = |alpha: f64| ("rma", "linear", alpha.to_bits(), true);
        let hot = class(0.25);
        let mut memo = SolveMemo::default();
        let (mut repeats, mut hits, mut inserts, mut evictions) = (0, 0, 0, 0);
        let mut insert = |memo: &mut SolveMemo, class| {
            inserts += 1;
            evictions += usize::from(memo.insert(class, 0, result.clone()));
        };
        for i in 0..10_000u32 {
            insert(&mut memo, class(0.1 + f64::from(i) * 1e-5));
            assert!(memo.len() <= MEMO_CAPACITY);
            if i % 16 == 0 {
                repeats += 1;
                if memo.get(&hot, 0).is_some() {
                    hits += 1;
                } else {
                    insert(&mut memo, hot);
                }
            }
        }
        assert_eq!(memo.len(), MEMO_CAPACITY);
        // Every insert above adds a new class, and each one past the
        // capacity evicts exactly one.
        assert_eq!(evictions, inserts - MEMO_CAPACITY);
        // The hot class is evicted once per MEMO_CAPACITY distinct inserts,
        // i.e. it misses one repeat in MEMO_CAPACITY / 16.
        assert!(hits * 10 >= repeats * 9, "{hits} hits of {repeats} repeats");
    }

    #[test]
    fn allocation_digest_is_order_independent_and_stable() {
        let mut a = Allocation::empty(2);
        a.seed_sets[0] = vec![3, 1, 2];
        a.seed_sets[1] = vec![7];
        let mut b = Allocation::empty(2);
        b.seed_sets[0] = vec![1, 2, 3];
        b.seed_sets[1] = vec![7];
        assert_eq!(allocation_digest(&a), allocation_digest(&b));
        let mut c = Allocation::empty(2);
        c.seed_sets[0] = vec![1, 2];
        c.seed_sets[1] = vec![7, 3];
        assert_ne!(allocation_digest(&a), allocation_digest(&c));
        assert_eq!(allocation_digest(&a).len(), 16);
    }
}
