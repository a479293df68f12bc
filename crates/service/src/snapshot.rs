//! Persistent session snapshots: everything a warm [`Session`] is made of
//! — graph CSR, propagation-model parameters, Table-2 advertisers,
//! singleton spreads, and the full RR-set cache (arenas + coverage
//! indexes + extension counters) — in one `rmsa-store` container, so
//! `rmsa serve --snapshot-dir` restarts warm instead of regenerating
//! minutes of RR samples.
//!
//! ## Staleness — rejected, never silently reused
//!
//! A snapshot is keyed twice:
//!
//! 1. the **meta section** records the deterministic build inputs
//!    (dataset, strategy, scale, seed, advertiser count, spread sample
//!    size); any mismatch with the serving context rejects the file with a
//!    reason, and
//! 2. the persisted **RR-cache fingerprint** (CPE line-up + model probe,
//!    see [`rmsa_diffusion::distribution_fingerprint`]) is re-derived from
//!    the *loaded* graph/model/advertisers and compared — a file whose
//!    collections do not match its own ingredients is rejected too. Even
//!    if both checks were bypassed, the cache's own revalidation on first
//!    use would drop mismatched collections rather than serve them.
//!
//! A rejected or corrupt snapshot falls back to the deterministic cold
//! build; the daemon logs why.

use crate::lock_unpoisoned;
use crate::session::{Session, SessionKey, SolveMemo};
use crate::wire::strategy_name;
use rmsa::prelude::*;
use rmsa_bench::ExperimentContext;
use rmsa_datasets::{Dataset, DatasetModel};
use rmsa_diffusion::snapshot::ModelSnapshot;
use rmsa_diffusion::{RrCache, UniformRrSampler};
use rmsa_obs::{names, Counter, Histogram, Span};
use rmsa_store::{
    section, MappedSnapshot, SectionSource, SnapshotReader, SnapshotWriter, StoreError, VerifyMode,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicUsize;
use std::sync::Mutex;

/// Snapshot kind tag stored in the meta section.
pub const SESSION_SNAPSHOT_KIND: &str = "rmsa-session";

/// Session-snapshot schema version (independent of the container version).
/// Version 2 stores advertiser-major coverage postings; version-1 files
/// (node-major postings plus an advertiser column) are rejected and the
/// session is rebuilt cold.
pub const SESSION_SNAPSHOT_VERSION: u32 = 2;

/// Canonical file name of a session snapshot inside a snapshot directory.
pub fn snapshot_path(dir: &Path, key: SessionKey) -> PathBuf {
    dir.join(format!(
        "{}-{}.rmsnap",
        key.dataset.name(),
        strategy_name(key.strategy)
    ))
}

/// The meta section of a session snapshot: the deterministic build inputs
/// the file is keyed by, plus the warm level to restore.
#[derive(Clone, Debug, PartialEq)]
pub struct SessionMeta {
    /// Dataset name (`lastfm-syn`, …).
    pub dataset: String,
    /// RR strategy wire name (`standard` / `subsim`).
    pub strategy: String,
    /// Dataset scale the graph was built at.
    pub scale: f64,
    /// Master seed of the serving context.
    pub seed: u64,
    /// Advertiser count.
    pub num_ads: usize,
    /// RR-sets per advertiser behind the persisted singleton spreads.
    pub spread_rr: usize,
    /// Size of the independent evaluation collection.
    pub eval_rr: usize,
    /// Warm level (serving θ) at save time; restored so a warm-started
    /// session reports `warm_extensions == 0`.
    pub warm_level: usize,
}

fn write_meta(meta: &SessionMeta, w: &mut SnapshotWriter) {
    let s = w.section(section::META);
    s.put_str(SESSION_SNAPSHOT_KIND);
    s.put_u32(SESSION_SNAPSHOT_VERSION);
    s.put_str(&meta.dataset);
    s.put_str(&meta.strategy);
    s.put_f64(meta.scale);
    s.put_u64(meta.seed);
    s.put_u64(meta.num_ads as u64);
    s.put_u64(meta.spread_rr as u64);
    s.put_u64(meta.eval_rr as u64);
    s.put_u64(meta.warm_level as u64);
}

fn read_meta<S: SectionSource>(r: &S) -> Result<SessionMeta, StoreError> {
    let mut c = r.require(section::META)?;
    let kind = c.get_str("snapshot kind")?;
    if kind != SESSION_SNAPSHOT_KIND {
        return Err(StoreError::Mismatch(format!(
            "snapshot kind is {kind:?}, expected {SESSION_SNAPSHOT_KIND:?}"
        )));
    }
    let version = c.get_u32("session snapshot version")?;
    if version != SESSION_SNAPSHOT_VERSION {
        return Err(stale(format!(
            "session snapshot schema version is {version}, this build reads version \
             {SESSION_SNAPSHOT_VERSION} (advertiser-major coverage index)"
        )));
    }
    Ok(SessionMeta {
        dataset: c.get_str("meta dataset")?,
        strategy: c.get_str("meta strategy")?,
        scale: c.get_f64("meta scale")?,
        seed: c.get_u64("meta seed")?,
        num_ads: c.get_usize("meta num_ads")?,
        spread_rr: c.get_usize("meta spread_rr")?,
        eval_rr: c.get_usize("meta eval_rr")?,
        warm_level: c.get_usize("meta warm_level")?,
    })
}

/// Serialize a session into snapshot bytes.
pub fn session_to_bytes(session: &Session) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    // Hold the warm lock (the session's warm-up critical section) across
    // the whole serialization: a concurrent Warm RPC must not extend the
    // cache between the meta block and the cache sections, or the file
    // would record a warm level below its own collections — and a restart
    // from it would re-extend.
    let warm_level = lock_unpoisoned(&session.warm_level);
    let meta = SessionMeta {
        dataset: session.key.dataset.name().to_string(),
        strategy: strategy_name(session.key.strategy).to_string(),
        scale: session.dataset.scale,
        seed: session.workbench.cache().base_seed(),
        num_ads: session.dataset.num_ads,
        spread_rr: session.spread_rr,
        eval_rr: session.eval_rr,
        warm_level: *warm_level,
    };
    write_meta(&meta, &mut w);
    rmsa_graph::snapshot::write_graph(&session.dataset.graph, w.section(section::GRAPH));
    let model = match &session.dataset.model {
        DatasetModel::Tic(m) => ModelSnapshot::Materialized(m.clone()),
        DatasetModel::WeightedCascade(m) => ModelSnapshot::WeightedCascade(m.clone()),
    };
    rmsa_diffusion::snapshot::write_model(&model, w.section(section::MODEL));
    let ads = w.section(section::ADVERTISERS);
    ads.put_u64(session.advertisers.len() as u64);
    for a in &session.advertisers {
        ads.put_f64(a.budget);
        ads.put_f64(a.cpe);
    }
    let spreads = w.section(section::SPREADS);
    spreads.put_u64(session.spreads.len() as u64);
    for row in &session.spreads {
        spreads.put_f64_slice(row);
    }
    session.workbench.cache().write_snapshot(&mut w);
    w.finish()
}

/// Persist a session under `dir` (atomic write). Returns the file path.
pub fn save_session(session: &Session, dir: &Path) -> Result<PathBuf, StoreError> {
    let span = Span::child(names::SNAPSHOT_PERSIST);
    let path = snapshot_path(dir, session.key());
    rmsa_store::write_file(&path, &session_to_bytes(session))?;
    Counter::SnapshotsPersisted.inc();
    Histogram::SnapshotPersistSecs.observe_duration(span.finish());
    Ok(path)
}

/// Why a present, well-formed-enough-to-read snapshot was not used.
fn stale(why: String) -> StoreError {
    StoreError::Mismatch(why)
}

/// Rebuild a [`Session`] from snapshot bytes, verifying the snapshot
/// matches `key` and `ctx` (see the module docs for the rejection rules).
///
/// This decodes every collection into owned memory. The serve daemon's
/// warm-start path goes through [`load_session`] instead, which reads the
/// same sections through a [`MappedSnapshot`] so large columns stay
/// borrowed from the page cache.
pub fn session_from_bytes(
    bytes: &[u8],
    key: SessionKey,
    ctx: &ExperimentContext,
) -> Result<Session, StoreError> {
    let r = SnapshotReader::parse(bytes)?;
    session_from_source(&r, key, ctx)
}

/// Rebuild a [`Session`] from any parsed snapshot source — an eager
/// in-memory [`SnapshotReader`] or a zero-copy [`MappedSnapshot`]. The
/// staleness checks are identical either way; only column ownership
/// differs.
pub fn session_from_source<S: SectionSource>(
    r: &S,
    key: SessionKey,
    ctx: &ExperimentContext,
) -> Result<Session, StoreError> {
    // The span doubles as the load-time statistic reported by the stats
    // RPC; the duration is wall-clock but never serialized.
    let span = Span::child(names::SNAPSHOT_PARSE);
    let meta = read_meta(r)?;

    // Key/context checks: every deterministic build input must match.
    let expected_scale = key.dataset.default_scale() * ctx.scale;
    let checks: [(&str, String, String); 6] = [
        ("dataset", meta.dataset.clone(), key.dataset.name().into()),
        (
            "strategy",
            meta.strategy.clone(),
            strategy_name(key.strategy).into(),
        ),
        ("seed", meta.seed.to_string(), ctx.seed.to_string()),
        ("num_ads", meta.num_ads.to_string(), ctx.num_ads.to_string()),
        (
            "spread_rr",
            meta.spread_rr.to_string(),
            ctx.spread_rr.to_string(),
        ),
        ("eval_rr", meta.eval_rr.to_string(), ctx.eval_rr.to_string()),
    ];
    for (field, found, expected) in checks {
        if found != expected {
            return Err(stale(format!(
                "{field} is {found} but the serving context expects {expected}"
            )));
        }
    }
    if (meta.scale - expected_scale).abs() > 1e-12 * expected_scale.abs().max(1.0) {
        return Err(stale(format!(
            "scale is {} but the serving context expects {expected_scale}",
            meta.scale
        )));
    }

    let graph = rmsa_graph::snapshot::read_graph(&mut r.require(section::GRAPH)?)?;
    let model = rmsa_diffusion::snapshot::read_model(&mut r.require(section::MODEL)?)?;
    model.check_dimensions(&graph, ctx.num_ads)?;
    let model = match model {
        ModelSnapshot::Materialized(m) => DatasetModel::Tic(m),
        ModelSnapshot::WeightedCascade(m) => DatasetModel::WeightedCascade(m),
        ModelSnapshot::UniformIc(_) => {
            return Err(StoreError::Corrupt(
                "session snapshots never carry a uniform-IC model".to_string(),
            ))
        }
    };

    let mut ads = r.require(section::ADVERTISERS)?;
    let h = ads.get_usize("advertiser count")?;
    if h != ctx.num_ads {
        return Err(stale(format!(
            "snapshot has {h} advertisers, context expects {}",
            ctx.num_ads
        )));
    }
    let mut advertisers = Vec::with_capacity(h);
    for _ in 0..h {
        let budget = ads.get_f64("advertiser budget")?;
        let cpe = ads.get_f64("advertiser cpe")?;
        advertisers.push(
            Advertiser::try_new(budget, cpe)
                .map_err(|e| StoreError::Corrupt(format!("invalid persisted advertiser: {e}")))?,
        );
    }

    let mut spreads_cur = r.require(section::SPREADS)?;
    let rows = spreads_cur.get_usize("spread row count")?;
    if rows != h {
        return Err(StoreError::Corrupt(format!(
            "{rows} spread rows for {h} advertisers"
        )));
    }
    let mut spreads = Vec::with_capacity(rows);
    for _ in 0..rows {
        let row = spreads_cur.get_f64_vec("spread row")?;
        if row.len() != graph.num_nodes() {
            return Err(StoreError::Corrupt(
                "spread row length disagrees with the graph".to_string(),
            ));
        }
        spreads.push(row);
    }

    let cache = RrCache::read_snapshot(r, ctx.threads)?;
    if cache.num_nodes() != graph.num_nodes() {
        return Err(StoreError::Corrupt(
            "cache node count disagrees with the graph".to_string(),
        ));
    }
    // Fingerprint check: the persisted collections must have been drawn
    // from exactly the distribution the loaded ingredients induce.
    let cpes: Vec<f64> = advertisers.iter().map(|a| a.cpe).collect();
    let sampler = UniformRrSampler::new(&cpes);
    let expected_fp = rmsa_diffusion::distribution_fingerprint(&graph, &model, &sampler);
    match cache.fingerprint() {
        Some(fp) if fp == expected_fp => {}
        Some(fp) => {
            return Err(stale(format!(
                "RR-cache fingerprint {fp:016x} does not match the live distribution \
                 {expected_fp:016x}"
            )))
        }
        None if meta.warm_level > 0 => {
            return Err(StoreError::Corrupt(
                "warm snapshot without a cache fingerprint".to_string(),
            ))
        }
        None => {}
    }

    let dataset = Dataset {
        kind: key.dataset,
        graph: graph.clone(),
        model,
        num_ads: h,
        scale: meta.scale,
    };
    let workbench = Workbench::builder()
        .graph(graph)
        .model(dataset.model.clone())
        .strategy(key.strategy)
        .threads(ctx.threads)
        .seed(ctx.seed)
        .preloaded_cache(cache)
        .build()
        .map_err(|e| StoreError::Corrupt(format!("workbench rebuild failed: {e}")))?;
    let rma_config = rmsa_bench::default_rma_config(ctx);
    let ti_config = rmsa_bench::default_ti_config(ctx);
    let default_target = rma_config.max_rr_per_collection;
    let snapshot_load_secs = span.finish().as_secs_f64();
    Ok(Session {
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
        warm_level: Mutex::new(meta.warm_level),
        warm_level_hint: AtomicUsize::new(meta.warm_level),
        warm_epoch: AtomicUsize::new(0),
        memo: Mutex::new(SolveMemo::default()),
        warm_extensions: AtomicUsize::new(0),
        served: AtomicUsize::new(0),
        loaded_from_snapshot: true,
        snapshot_load_secs,
    })
}

/// Load the session snapshot for `key` from `dir`.
///
/// * `Ok(Some(session))` — warm-started from disk;
/// * `Ok(None)` — no snapshot file exists (cold build, nothing logged);
/// * `Err(e)` — a file exists but is corrupt or stale; the caller falls
///   back to a cold build and reports `e` (rejected, never silently
///   reused).
///
/// The file is memory-mapped and opened with [`VerifyMode::Lazy`]: the
/// section table is walked but payloads are not hashed, so a multi-GB v2
/// snapshot warm-starts in microseconds with its columns borrowed from
/// the page cache. Structural validation, the staleness checks, and the
/// distribution-fingerprint check still run in full. Pass
/// [`VerifyMode::Eager`] through [`load_session_with`] to hash every
/// payload up front (the daemon's `--verify-snapshots` flag).
pub fn load_session(
    key: SessionKey,
    ctx: &ExperimentContext,
    dir: &Path,
) -> Result<Option<Session>, StoreError> {
    load_session_with(key, ctx, dir, VerifyMode::Lazy)
}

/// [`load_session`] with an explicit checksum policy.
pub fn load_session_with(
    key: SessionKey,
    ctx: &ExperimentContext,
    dir: &Path,
    verify: VerifyMode,
) -> Result<Option<Session>, StoreError> {
    let path = snapshot_path(dir, key);
    if !path.exists() {
        return Ok(None);
    }
    let span = Span::child(names::SNAPSHOT_LOAD);
    let snap = MappedSnapshot::open(&path, verify)?;
    let mut session = session_from_source(&snap, key, ctx)?;
    // Include the open/mapping step in the reported load time.
    let loaded = span.finish();
    session.snapshot_load_secs = loaded.as_secs_f64();
    Histogram::SnapshotLoadSecs.observe_duration(loaded);
    Ok(Some(session))
}

/// Per-stream summary used by `rmsa snapshot inspect` and
/// `rmsa dataset info`.
#[derive(Clone, Debug, PartialEq)]
pub struct StreamInfo {
    /// Stream slot (0 = Optimize, 1 = Validate, 2 = Evaluate, 3+ = Aux).
    pub index: usize,
    /// Cached RR-sets.
    pub sets: usize,
    /// Total member entries across those sets.
    pub entries: usize,
    /// Mean RR-set size.
    pub mean_size: f64,
    /// Arena extensions recorded (one immutable index segment each).
    pub extensions: u64,
}

/// Everything `rmsa snapshot inspect` prints about a snapshot file.
#[derive(Clone, Debug)]
pub struct SnapshotInfo {
    /// File size in bytes.
    pub file_bytes: usize,
    /// Container version (1 = legacy packed, 2 = 8-byte-aligned).
    pub container_version: u32,
    /// True when column reads from this file can borrow the mapping:
    /// the aligned v2 layout on a little-endian 64-bit target.
    pub zero_copy_eligible: bool,
    /// Raw section table (id, registry name, payload length, file
    /// offset, trailing padding).
    pub sections: Vec<rmsa_store::SectionInfo>,
    /// Session meta, when the file is a session snapshot.
    pub meta: Option<SessionMeta>,
    /// Graph dimensions, when a graph section is present.
    pub graph: Option<(usize, usize)>,
    /// RR-cache fingerprint, when a cache-meta section is present.
    pub cache_fingerprint: Option<u64>,
    /// Per-stream RR summaries.
    pub streams: Vec<StreamInfo>,
}

impl SnapshotInfo {
    /// Mean RR-set size of the Optimize stream (the figure Table 1 quotes
    /// as "mean RR size"), when the snapshot holds one.
    pub fn mean_rr_size(&self) -> Option<f64> {
        self.streams
            .iter()
            .find(|s| s.index == 0 && s.sets > 0)
            .map(|s| s.mean_size)
    }
}

/// Inspect a snapshot file without rebuilding a session: validates the
/// container (magic, version, and — eagerly, this is the `--verify`
/// path — every section checksum) and decodes the summary blocks.
pub fn inspect(path: &Path) -> Result<SnapshotInfo, StoreError> {
    let r = MappedSnapshot::open(path, VerifyMode::Eager)?;
    let meta = match r.section(section::META) {
        Some(_) => read_meta(&r).ok(),
        None => None,
    };
    let graph = match r.section(section::GRAPH) {
        Some(_) => {
            let g = rmsa_graph::snapshot::read_graph(&mut r.require(section::GRAPH)?)?;
            Some((g.num_nodes(), g.num_edges()))
        }
        None => None,
    };
    let cache_fingerprint = match r.section(section::CACHE_META) {
        Some(mut c) => {
            let _num_nodes = c.get_u64("cache num_nodes")?;
            let _strategy = c.get_u8("cache strategy")?;
            let _seed = c.get_u64("cache base_seed")?;
            let has_fp = c.get_u8("cache fingerprint flag")? != 0;
            let fp = c.get_u64("cache fingerprint")?;
            has_fp.then_some(fp)
        }
        None => None,
    };
    let mut streams = Vec::new();
    for (id, mut cur) in r.sections_in_range(section::CACHE_STREAM_BASE, section::CACHE_STREAM_END)
    {
        let extensions = cur.get_u64("stream extensions")?;
        let arena = rmsa_diffusion::snapshot::read_arena(&mut cur)?;
        streams.push(StreamInfo {
            index: rmsa_store::to_usize(
                u64::from(id - section::CACHE_STREAM_BASE),
                "stream index",
            )?,
            sets: arena.len(),
            entries: arena.total_entries(),
            mean_size: arena.mean_size(),
            extensions,
        });
    }
    streams.sort_by_key(|s| s.index);
    Ok(SnapshotInfo {
        file_bytes: r.file_bytes(),
        container_version: r.version(),
        zero_copy_eligible: r.zero_copy_eligible(),
        sections: r.sections(),
        meta,
        graph,
        cache_fingerprint,
        streams,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::tiny_ctx;
    use crate::wire::Algorithm;
    use rmsa_datasets::DatasetKind;
    use rmsa_diffusion::{MaterializedModel, RrStrategy};

    fn key() -> SessionKey {
        SessionKey {
            dataset: DatasetKind::LastfmSyn,
            strategy: RrStrategy::Standard,
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rmsa_session_snapshot_{tag}"));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn warm_session_roundtrips_and_solves_identically() {
        let ctx = tiny_ctx();
        let cold = Session::build(key(), &ctx);
        cold.ensure_warm(None);
        let request = crate::test_util::solve_request(1, Algorithm::Rma, 0.2);
        let cold_result = cold.solve(&request).unwrap();

        let dir = temp_dir("roundtrip");
        let path = save_session(&cold, &dir).unwrap();
        let warm = load_session(key(), &ctx, &dir)
            .unwrap()
            .expect("file exists");
        assert!(warm.loaded_from_snapshot);
        assert!(warm.snapshot_load_secs > 0.0);

        // The restored session is already at the serving θ: warming is a
        // no-op and the solve is bit-identical to the cold session's.
        let outcome = warm.ensure_warm(None);
        assert!(outcome.already_warm, "snapshot must restore the warm level");
        assert_eq!(outcome.generated, 0);
        let warm_result = warm.solve(&request).unwrap();
        assert_eq!(warm_result, cold_result, "solve must be bit-identical");
        assert_eq!(warm.stats_entry().warm_extensions, 0);
        assert_eq!(warm_result.rr_generated, 0);

        let info = inspect(&path).unwrap();
        assert_eq!(info.meta.as_ref().unwrap().dataset, "lastfm-syn");
        assert!(info.mean_rr_size().unwrap() >= 1.0);
        assert!(info.graph.unwrap().0 >= 32);
        assert!(info.cache_fingerprint.is_some());
        assert!(info.streams.len() >= 3, "optimize/validate/evaluate");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A session restored through the mapped, lazily verified path solves
    /// the twelve classes of the `hot` mix (both RM algorithms, the three
    /// incentive models, two α) exactly as a cold build does: first from
    /// its mapped columns with nothing derived yet, then again with the
    /// per-view caches filled by its own history, which differs from the
    /// cold session's.
    #[test]
    fn mapped_restore_solves_every_hot_class_like_a_cold_build() {
        use crate::test_util::solve_request;
        use rmsa_datasets::IncentiveModel;
        let ctx = tiny_ctx();
        let cold = Session::build(key(), &ctx);
        cold.ensure_warm(None);
        let dir = temp_dir("hot_classes");
        save_session(&cold, &dir).unwrap();
        let warm = load_session_with(key(), &ctx, &dir, VerifyMode::Lazy)
            .unwrap()
            .expect("file exists");
        assert!(warm.workbench().cache_stats().mapped_bytes > 0);
        let mut classes = Vec::new();
        for algorithm in [Algorithm::Rma, Algorithm::OneBatch] {
            for incentive in IncentiveModel::all() {
                for alpha in [0.2, 0.4] {
                    let request = solve_request(0, algorithm, alpha);
                    classes.push(crate::wire::SolveRequest {
                        incentive,
                        ..request
                    });
                }
            }
        }
        let mut expected: Vec<_> = (classes.iter().rev())
            .map(|request| cold.solve(request).unwrap())
            .collect();
        expected.reverse();
        for pass in 0..2 {
            for (request, cold_result) in classes.iter().zip(&expected) {
                let warm_result = warm.solve(request).unwrap();
                assert_eq!(&warm_result, cold_result, "pass {pass}: {request:?}");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_is_a_clean_cold_start() {
        let dir = temp_dir("missing");
        std::fs::remove_file(snapshot_path(&dir, key())).ok();
        assert!(load_session(key(), &tiny_ctx(), &dir).unwrap().is_none());
    }

    #[test]
    fn stale_snapshots_are_rejected_with_reasons() {
        let ctx = tiny_ctx();
        let session = Session::build(key(), &ctx);
        session.ensure_warm(None);
        let dir = temp_dir("stale");
        save_session(&session, &dir).unwrap();

        // A different master seed must reject the file…
        let mut other = ctx.clone();
        other.seed ^= 1;
        let err = load_session(key(), &other, &dir).map(|_| ()).unwrap_err();
        assert!(matches!(err, StoreError::Mismatch(_)), "{err:?}");
        assert!(err.to_string().contains("seed"), "{err}");

        // …and so must a different advertiser line-up.
        let mut more_ads = ctx.clone();
        more_ads.num_ads += 1;
        let err = load_session(key(), &more_ads, &dir)
            .map(|_| ())
            .unwrap_err();
        assert!(err.to_string().contains("num_ads"), "{err}");

        // A truncated file is corrupt, not silently cold.
        let path = snapshot_path(&dir, key());
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(load_session(key(), &ctx, &dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A checksummed snapshot whose model does not fit its own graph is a
    /// typed corruption error, not an out-of-bounds panic in the
    /// fingerprint probe or at the first RR set. Every row is one entry
    /// short, so the rows agree with each other and pass the codec's own
    /// width check.
    #[test]
    fn snapshots_with_short_model_rows_are_rejected_as_corrupt() {
        let ctx = tiny_ctx();
        let dir = temp_dir("short_rows");
        let mut session = Session::build(key(), &ctx);
        let DatasetModel::Tic(model) = &session.dataset.model else {
            panic!("lastfm-syn runs the TIC model");
        };
        let rows = (0..ctx.num_ads)
            .map(|ad| {
                let row = model.row(ad);
                row[..row.len() - 1].to_vec()
            })
            .collect();
        session.dataset.model = DatasetModel::Tic(MaterializedModel::from_rows(rows));
        save_session(&session, &dir).unwrap();
        let err = load_session(key(), &ctx, &dir).map(|_| ()).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)), "{err:?}");
        assert!(err.to_string().contains("probability row"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A session snapshot written under the previous schema version (whose
    /// streams carry node-major coverage postings) is never read: the
    /// loader names the version, and `build_or_load` logs that reason and
    /// rebuilds the session cold.
    #[test]
    fn old_schema_snapshot_falls_back_to_a_cold_build_with_a_logged_reason() {
        let ctx = tiny_ctx();
        let dir = temp_dir("old_schema");
        let mut w = SnapshotWriter::new();
        let meta = w.section(section::META);
        meta.put_str(SESSION_SNAPSHOT_KIND);
        meta.put_u32(1);
        meta.put_str(key().dataset.name());
        meta.put_str(strategy_name(key().strategy));
        meta.put_f64(key().dataset.default_scale() * ctx.scale);
        meta.put_u64(ctx.seed);
        for field in [ctx.num_ads, ctx.spread_rr, ctx.eval_rr, 0] {
            meta.put_u64(field as u64);
        }
        rmsa_store::write_file(&snapshot_path(&dir, key()), &w.finish()).unwrap();

        let err = load_session(key(), &ctx, &dir).map(|_| ()).unwrap_err();
        assert!(matches!(err, StoreError::Mismatch(_)), "{err:?}");
        assert!(err.to_string().contains("schema version is 1"), "{err}");

        let mut log = Vec::new();
        let session =
            Session::build_or_load_logged(key(), &ctx, Some(&dir), VerifyMode::Lazy, &mut |line| {
                log.push(line)
            });
        assert!(
            !session.loaded_from_snapshot(),
            "the old file must not be used"
        );
        assert_eq!(log.len(), 1, "{log:?}");
        assert!(log[0].contains("rejecting snapshot"), "{log:?}");
        assert!(log[0].contains("schema version is 1"), "{log:?}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
