//! Snapshot codecs for the diffusion layer: [`RrArena`], [`CoverageIndex`]
//! and the propagation models.
//!
//! The arena's three columns and the index's CSR segments are written
//! verbatim — loading restores not just the same RR-sets but the same
//! *extension history* (segment boundaries, per-stream extension counters
//! via [`crate::RrCache`]), which is what keeps a loaded cache on the exact
//! deterministic trajectory a cold cache would have taken: the
//! extend-never-rebuild invariant holds across a save/load boundary.
//!
//! All readers return typed [`StoreError`]s and never panic on corrupt
//! bytes; container checksums have already been verified by the time these
//! codecs run, so the checks here are semantic (consistent lengths, valid
//! tags, ids in range).

use crate::arena::{CoverageIndex, CoverageSegment, RrArena};
use crate::models::{MaterializedModel, UniformIc, WeightedCascade};
use crate::rr::RrStrategy;
use rmsa_graph::DirectedGraph;
use rmsa_store::{Cursor, SectionBuf, StoreError};
use std::sync::Arc;

pub(crate) fn strategy_tag(strategy: RrStrategy) -> u8 {
    match strategy {
        RrStrategy::Standard => 0,
        RrStrategy::Subsim => 1,
    }
}

pub(crate) fn strategy_from_tag(tag: u8) -> Result<RrStrategy, StoreError> {
    match tag {
        0 => Ok(RrStrategy::Standard),
        1 => Ok(RrStrategy::Subsim),
        other => Err(StoreError::Corrupt(format!(
            "unknown RR strategy tag {other}"
        ))),
    }
}

/// Write an arena's columnar buffers.
pub fn write_arena(arena: &RrArena, out: &mut SectionBuf) {
    out.put_u64(arena.num_nodes as u64);
    out.put_u8(strategy_tag(arena.strategy));
    out.put_u32_slice(&arena.ads);
    out.put_usize_slice(&arena.offsets);
    out.put_u32_slice(&arena.nodes);
}

/// Read an arena back, validating the CSR structure.
///
/// Columns come back as `rmsa_store::Column`s: owned when `cur` reads
/// in-memory bytes, borrowed zero-copy when it reads an aligned v2 file
/// mapping.
pub fn read_arena(cur: &mut Cursor<'_>) -> Result<RrArena, StoreError> {
    let num_nodes = cur.get_usize("arena num_nodes")?;
    let strategy = strategy_from_tag(cur.get_u8("arena strategy")?)?;
    let ads = cur.get_u32_col("arena ads")?;
    let offsets = cur.get_usize_col("arena offsets")?;
    let nodes = cur.get_u32_col("arena nodes")?;

    let corrupt = |why: &str| StoreError::Corrupt(format!("arena section: {why}"));
    if offsets.len() != ads.len() + 1 {
        return Err(corrupt("offsets/ads length mismatch"));
    }
    if offsets.first() != Some(&0) || offsets.last() != Some(&nodes.len()) {
        return Err(corrupt("offsets do not cover the node buffer"));
    }
    if u32::try_from(num_nodes).is_err() {
        return Err(corrupt("node count exceeds the u32 id space"));
    }
    // Deep O(total-entries) validation runs only for owned decodes. A
    // mapped v2 load is O(sections) by design — touching every member
    // here would forfeit the zero-copy win — so bit rot detection is the
    // checksum layer's job there (`VerifyMode::Eager`, `verify_all`, or
    // the `--verify` paths).
    if !(ads.is_mapped() && offsets.is_mapped() && nodes.is_mapped()) {
        if offsets.windows(2).any(|w| w[0] >= w[1]) && !ads.is_empty() {
            // An RR-set always contains at least its root.
            return Err(corrupt("offsets are not strictly monotone"));
        }
        if nodes.iter().any(|&u| u64::from(u) >= num_nodes as u64) {
            return Err(corrupt("a member node id is out of range"));
        }
    }
    Ok(RrArena {
        num_nodes,
        strategy,
        nodes,
        offsets,
        ads,
    })
}

/// Write a coverage index: segment CSR blocks plus the shared singleton
/// column.
pub fn write_index(index: &CoverageIndex, out: &mut SectionBuf) {
    out.put_u64(index.num_nodes as u64);
    out.put_u64(index.num_ads as u64);
    out.put_u64(index.num_rr as u64);
    out.put_u64(index.segments.len() as u64);
    for segment in &index.segments {
        out.put_u32(segment.rr_base);
        out.put_u32(segment.num_sets);
        out.put_u32_slice(&segment.offsets);
        out.put_u32_slice(&segment.entries);
    }
    out.put_u32_slice(&index.singleton);
}

/// The typed rejection of an index in the node-major layout older builds
/// wrote (one posting group per node plus an advertiser column): reading
/// it as advertiser-major groups would silently mix advertisers.
fn node_major_layout(why: String) -> StoreError {
    StoreError::Mismatch(format!(
        "coverage-index section: {why}; this is the node-major index layout of older \
         builds, and this build reads only advertiser-major posting groups — rebuild \
         the snapshot"
    ))
}

/// Read a coverage index back, validating segment structure against the
/// arena it indexes. An index in the older node-major layout is rejected
/// with a [`StoreError::Mismatch`] naming that layout, never misread.
pub fn read_index(cur: &mut Cursor<'_>, arena: &RrArena) -> Result<CoverageIndex, StoreError> {
    let corrupt = |why: String| StoreError::Corrupt(format!("coverage-index section: {why}"));
    let num_nodes = cur.get_usize("index num_nodes")?;
    let num_ads = cur.get_usize("index num_ads")?;
    let num_rr = cur.get_usize("index num_rr")?;
    let num_segments = cur.get_usize("index num_segments")?;
    if num_nodes != arena.num_nodes() {
        return Err(corrupt(format!(
            "index covers {num_nodes} nodes but the arena has {}",
            arena.num_nodes()
        )));
    }
    if num_ads == 0 {
        return Err(corrupt("zero advertisers".to_string()));
    }
    let groups = num_ads
        .checked_mul(num_nodes)
        .ok_or_else(|| corrupt(format!("{num_ads} advertisers overflow the group count")))?;
    if num_rr > arena.len() {
        return Err(corrupt(format!(
            "index claims {num_rr} RR-sets but the arena holds {}",
            arena.len()
        )));
    }
    // `num_segments` is untrusted: cap the preallocation by what the
    // remaining bytes could hold (a segment is at least 24 bytes) so a
    // crafted count errors as Truncated instead of aborting on an absurd
    // allocation.
    let mut segments = Vec::with_capacity(num_segments.min(cur.remaining() / 24));
    let mut expected_base = 0u32;
    for i in 0..num_segments {
        let rr_base = cur.get_u32("segment rr_base")?;
        let num_sets = cur.get_u32("segment num_sets")?;
        let offsets = cur.get_u32_col("segment offsets")?;
        let entries = cur.get_u32_col("segment entries")?;
        if rr_base != expected_base {
            return Err(corrupt(format!(
                "segment {i} starts at RR {rr_base}, expected {expected_base}"
            )));
        }
        if num_ads > 1 && offsets.len() == num_nodes + 1 {
            return Err(node_major_layout(format!(
                "segment {i} has {} offsets, one group per node for {num_ads} advertisers",
                offsets.len()
            )));
        }
        if offsets.len() != groups + 1
            || offsets.first() != Some(&0)
            || offsets.last().map(|&v| u64::from(v)) != Some(entries.len() as u64)
        {
            return Err(corrupt(format!("segment {i} has an inconsistent CSR")));
        }
        let end = rr_base as u64 + num_sets as u64;
        // Per-element CSR validation only for owned decodes (see
        // `read_arena`): mapped segments stay O(1) per segment.
        if !(offsets.is_mapped() && entries.is_mapped()) {
            if offsets.windows(2).any(|w| w[0] > w[1]) {
                return Err(corrupt(format!("segment {i} has an inconsistent CSR")));
            }
            if entries
                .iter()
                .any(|&rr| (rr as u64) < rr_base as u64 || rr as u64 >= end)
            {
                return Err(corrupt(format!("segment {i} has an RR id out of range")));
            }
            // Group `ad · n + u` may only list RR-sets of advertiser `ad`
            // (an id past the arena reads as misfiled, not as a panic).
            let idx = |v: u32| usize::try_from(v).unwrap_or(usize::MAX);
            let misfiled = offsets.windows(2).enumerate().any(|(g, w)| {
                entries[idx(w[0])..idx(w[1])]
                    .iter()
                    .any(|&rr| arena.ads.get(idx(rr)).map(|&ad| idx(ad)) != Some(g / num_nodes))
            });
            if misfiled {
                return Err(corrupt(format!(
                    "segment {i} files an RR-set under another advertiser"
                )));
            }
        }
        expected_base = u32::try_from(end)
            .map_err(|_| corrupt(format!("segment {i} extends past the u32 RR id space")))?;
        segments.push(Arc::new(CoverageSegment {
            rr_base,
            num_sets,
            offsets,
            entries,
        }));
    }
    if u64::from(expected_base) != num_rr as u64 {
        return Err(corrupt(format!(
            "segments cover {expected_base} RR-sets, header says {num_rr}"
        )));
    }
    let singleton = cur.get_u32_col("index singleton")?;
    if cur.remaining() > 0 {
        // Older builds wrote an advertiser column between the segments and
        // the singleton counts; with one advertiser their segments are
        // otherwise indistinguishable from advertiser-major ones.
        return Err(node_major_layout(
            "a column follows the singleton counts".to_string(),
        ));
    }
    if singleton.len() != groups {
        return Err(corrupt("singleton column length mismatch".to_string()));
    }
    Ok(CoverageIndex {
        num_nodes,
        num_ads,
        num_rr,
        segments,
        singleton: Arc::new(singleton),
        derived: Arc::default(),
    })
}

/// The model variants the snapshot format can persist. [`crate::TicModel`]
/// is stored in its materialised form — the representation every serving
/// and experiment path runs on.
#[derive(Clone, Debug)]
pub enum ModelSnapshot {
    /// Per-ad per-edge probability rows.
    Materialized(MaterializedModel),
    /// Weighted cascade (`p = 1/indeg`).
    WeightedCascade(WeightedCascade),
    /// One constant probability everywhere.
    UniformIc(UniformIc),
}

impl ModelSnapshot {
    /// Check a loaded model against the graph and advertiser count it is
    /// paired with: one probability row per advertiser, one entry per edge
    /// in every row (Weighted-Cascade: one per edge and one per node). A
    /// mismatch is [`StoreError::Corrupt`]; unchecked, it would surface as
    /// an out-of-bounds panic at the first probe or RR set.
    pub fn check_dimensions(
        &self,
        graph: &DirectedGraph,
        num_ads: usize,
    ) -> Result<(), StoreError> {
        let corrupt = |why: String| Err(StoreError::Corrupt(format!("model section: {why}")));
        let (m, n) = (graph.num_edges(), graph.num_nodes());
        let model_ads = match self {
            ModelSnapshot::Materialized(model) => {
                if let Some(row) = model.per_ad.iter().find(|row| row.len() != m) {
                    return corrupt(format!(
                        "a probability row has {} entries but the graph has {m} edges",
                        row.len()
                    ));
                }
                model.per_ad.len()
            }
            ModelSnapshot::WeightedCascade(model) => {
                if model.edge_probs.len() != m || model.node_probs.len() != n {
                    return corrupt(format!(
                        "{} edge and {} node probabilities for a graph of {m} edges and {n} nodes",
                        model.edge_probs.len(),
                        model.node_probs.len()
                    ));
                }
                model.num_ads
            }
            ModelSnapshot::UniformIc(model) => model.num_ads,
        };
        if model_ads != num_ads {
            return corrupt(format!(
                "the model covers {model_ads} advertisers, expected {num_ads}"
            ));
        }
        Ok(())
    }
}

const MODEL_MATERIALIZED: u8 = 1;
const MODEL_WC: u8 = 2;
const MODEL_UNIFORM: u8 = 3;

/// Write propagation-model parameters.
pub fn write_model(model: &ModelSnapshot, out: &mut SectionBuf) {
    match model {
        ModelSnapshot::Materialized(m) => {
            out.put_u8(MODEL_MATERIALIZED);
            out.put_u64(m.per_ad.len() as u64);
            for row in &m.per_ad {
                out.put_f32_slice(row);
            }
        }
        ModelSnapshot::WeightedCascade(m) => {
            out.put_u8(MODEL_WC);
            out.put_u64(m.num_ads as u64);
            out.put_f32_slice(&m.edge_probs);
            out.put_f32_slice(&m.node_probs);
        }
        ModelSnapshot::UniformIc(m) => {
            out.put_u8(MODEL_UNIFORM);
            out.put_u64(m.num_ads as u64);
            out.put_f64(m.prob);
        }
    }
}

/// Read propagation-model parameters back.
pub fn read_model(cur: &mut Cursor<'_>) -> Result<ModelSnapshot, StoreError> {
    let corrupt = |why: &str| StoreError::Corrupt(format!("model section: {why}"));
    match cur.get_u8("model tag")? {
        MODEL_MATERIALIZED => {
            let h = cur.get_usize("model num_ads")?;
            if h == 0 {
                return Err(corrupt("zero advertisers"));
            }
            // Untrusted count: cap by the bytes a row prefix needs.
            let mut per_ad = Vec::with_capacity(h.min(cur.remaining() / 8));
            let mut width = None;
            for i in 0..h {
                let row = cur.get_f32_vec("model probability row")?;
                if row.iter().any(|p| !(0.0..=1.0).contains(p)) {
                    return Err(corrupt("a probability is outside [0, 1]"));
                }
                if *width.get_or_insert(row.len()) != row.len() {
                    return Err(StoreError::Corrupt(format!(
                        "model section: row {i} has a different edge count"
                    )));
                }
                per_ad.push(row);
            }
            Ok(ModelSnapshot::Materialized(MaterializedModel { per_ad }))
        }
        MODEL_WC => {
            let num_ads = cur.get_usize("model num_ads")?;
            if num_ads == 0 {
                return Err(corrupt("zero advertisers"));
            }
            let edge_probs = cur.get_f32_vec("model edge probabilities")?;
            let node_probs = cur.get_f32_vec("model node probabilities")?;
            if edge_probs
                .iter()
                .chain(&node_probs)
                .any(|p| !(0.0..=1.0).contains(p))
            {
                return Err(corrupt("a probability is outside [0, 1]"));
            }
            Ok(ModelSnapshot::WeightedCascade(WeightedCascade {
                num_ads,
                edge_probs,
                node_probs,
            }))
        }
        MODEL_UNIFORM => {
            let num_ads = cur.get_usize("model num_ads")?;
            let prob = cur.get_f64("model probability")?;
            if num_ads == 0 || !(0.0..=1.0).contains(&prob) {
                return Err(corrupt("invalid uniform-IC parameters"));
            }
            Ok(ModelSnapshot::UniformIc(UniformIc { num_ads, prob }))
        }
        other => Err(StoreError::Corrupt(format!("unknown model tag {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::PropagationModel;
    use crate::sampler::UniformRrSampler;
    use rmsa_graph::generators::barabasi_albert;
    use rmsa_graph::graph_from_edges;
    use rmsa_store::{section, SnapshotReader, SnapshotWriter};

    fn sample_arena(strategy: RrStrategy, count: usize) -> (rmsa_graph::DirectedGraph, RrArena) {
        let mut rng = <rand_pcg::Pcg64Mcg as rand::SeedableRng>::seed_from_u64(11);
        let g = barabasi_albert(200, 3, &mut rng);
        let m = crate::models::WeightedCascade::new(&g, 2);
        let sampler = UniformRrSampler::new(&[1.0, 2.0]);
        let mut arena = RrArena::new(g.num_nodes(), strategy);
        arena.generate_parallel(&g, &m, &sampler, count, 2, 77);
        (g, arena)
    }

    fn arena_bytes(arena: &RrArena) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        write_arena(arena, w.section(section::CACHE_STREAM_BASE));
        w.finish()
    }

    /// Byte-and-semantics round trip for both RR strategies (the PR-1
    /// seeded-loop style: several seeds, several sizes).
    #[test]
    fn arena_roundtrips_for_both_strategies() {
        for strategy in [RrStrategy::Standard, RrStrategy::Subsim] {
            for count in [1usize, 500, 3000] {
                let (_, arena) = sample_arena(strategy, count);
                let bytes = arena_bytes(&arena);
                let r = SnapshotReader::parse(&bytes).unwrap();
                let restored =
                    read_arena(&mut r.require(section::CACHE_STREAM_BASE).unwrap()).unwrap();
                assert_eq!(restored.len(), arena.len());
                assert_eq!(restored.strategy(), strategy);
                assert_eq!(restored.num_nodes(), arena.num_nodes());
                let sets = |a: &RrArena| {
                    a.iter()
                        .map(|s| (s.ad, s.nodes.to_vec()))
                        .collect::<Vec<_>>()
                };
                assert_eq!(sets(&arena), sets(&restored), "{strategy:?}/{count}");
                // Byte stability: save(load(save(x))) == save(x).
                assert_eq!(arena_bytes(&restored), bytes);
            }
        }
    }

    /// Satellite invariant: graph + arena + coverage-index save/load is
    /// byte- and semantics-identical across all five generator families
    /// and both RR strategies (seeded loops, PR-1 style).
    #[test]
    fn full_roundtrip_across_generator_families_and_strategies() {
        use rmsa_graph::generators;
        for seed in [5u64, 23] {
            let mut rng = <rand_pcg::Pcg64Mcg as rand::SeedableRng>::seed_from_u64(seed);
            let graphs: Vec<(&str, rmsa_graph::DirectedGraph)> = vec![
                ("erdos_renyi", generators::erdos_renyi(90, 0.06, &mut rng)),
                (
                    "barabasi_albert",
                    generators::barabasi_albert(120, 3, &mut rng),
                ),
                (
                    "power_law_configuration",
                    generators::power_law_configuration(120, 2.4, 3.0, 25, &mut rng),
                ),
                (
                    "watts_strogatz",
                    generators::watts_strogatz(100, 4, 0.15, &mut rng),
                ),
                ("celebrity_graph", generators::celebrity_graph(3, 8)),
            ];
            for (family, graph) in &graphs {
                for strategy in [RrStrategy::Standard, RrStrategy::Subsim] {
                    let model = crate::models::WeightedCascade::new(graph, 2);
                    let sampler = UniformRrSampler::new(&[1.0, 1.5]);
                    let mut arena = RrArena::new(graph.num_nodes(), strategy);
                    let mut index = CoverageIndex::new(graph.num_nodes(), 2);
                    // Two extensions, so segment history is non-trivial.
                    arena.generate_parallel(graph, &model, &sampler, 400, 2, seed ^ 0xA1);
                    index.extend_from(&arena, 1);
                    arena.generate_parallel(graph, &model, &sampler, 300, 2, seed ^ 0xB2);
                    index.extend_from(&arena, 1);

                    let serialize =
                        |g: &rmsa_graph::DirectedGraph, a: &RrArena, i: &CoverageIndex| {
                            let mut w = SnapshotWriter::new();
                            rmsa_graph::snapshot::write_graph(g, w.section(section::GRAPH));
                            write_arena(a, w.section(section::CACHE_STREAM_BASE));
                            write_index(i, w.section(section::CACHE_STREAM_BASE + 1));
                            w.finish()
                        };
                    let bytes = serialize(graph, &arena, &index);
                    let r = SnapshotReader::parse(&bytes).unwrap();
                    let graph2 =
                        rmsa_graph::snapshot::read_graph(&mut r.require(section::GRAPH).unwrap())
                            .unwrap();
                    let arena2 =
                        read_arena(&mut r.require(section::CACHE_STREAM_BASE).unwrap()).unwrap();
                    let index2 = read_index(
                        &mut r.require(section::CACHE_STREAM_BASE + 1).unwrap(),
                        &arena2,
                    )
                    .unwrap();

                    // Byte equality: re-serializing the loaded state is a
                    // fixed point.
                    assert_eq!(
                        serialize(&graph2, &arena2, &index2),
                        bytes,
                        "{family}/{strategy:?} (seed {seed}) not byte-stable"
                    );
                    // Semantic equality: graph edges, every RR-set, and
                    // every coverage answer.
                    assert_eq!(
                        graph.edges().collect::<Vec<_>>(),
                        graph2.edges().collect::<Vec<_>>()
                    );
                    let sets = |a: &RrArena| {
                        a.iter()
                            .map(|s| (s.ad, s.nodes.to_vec()))
                            .collect::<Vec<_>>()
                    };
                    assert_eq!(sets(&arena), sets(&arena2));
                    assert_eq!(index2.num_segments(), 2);
                    let (va, vb) = (index.view(), index2.view());
                    for ad in 0..2 {
                        for u in (0..graph.num_nodes() as u32).step_by(7) {
                            assert_eq!(
                                va.singleton_count(ad, u),
                                vb.singleton_count(ad, u),
                                "{family}/{strategy:?}: singleton diverged at {u}"
                            );
                        }
                        let seeds: Vec<u32> = (0..15).collect();
                        assert_eq!(va.coverage_count(ad, &seeds), vb.coverage_count(ad, &seeds));
                    }
                }
            }
        }
    }

    /// Satellite invariant: a zero-copy mapped load is indistinguishable
    /// from the owned decode path across all five generator families and
    /// both RR strategies — same sets, same coverage answers, byte-stable
    /// re-serialization — while *borrowing* the file's columns on
    /// eligible targets instead of copying them.
    #[test]
    fn mapped_load_is_equivalent_to_owned_load_across_families() {
        use rmsa_graph::generators;
        use rmsa_store::{MappedSnapshot, SectionSource, VerifyMode, ZERO_COPY_TARGET};
        let dir = std::env::temp_dir().join("rmsa_mapped_equivalence_test");
        std::fs::create_dir_all(&dir).unwrap();
        let mut rng = <rand_pcg::Pcg64Mcg as rand::SeedableRng>::seed_from_u64(31);
        let graphs: Vec<(&str, rmsa_graph::DirectedGraph)> = vec![
            ("erdos_renyi", generators::erdos_renyi(90, 0.06, &mut rng)),
            (
                "barabasi_albert",
                generators::barabasi_albert(120, 3, &mut rng),
            ),
            (
                "power_law_configuration",
                generators::power_law_configuration(120, 2.4, 3.0, 25, &mut rng),
            ),
            (
                "watts_strogatz",
                generators::watts_strogatz(100, 4, 0.15, &mut rng),
            ),
            ("celebrity_graph", generators::celebrity_graph(3, 8)),
        ];
        for (family, graph) in &graphs {
            for strategy in [RrStrategy::Standard, RrStrategy::Subsim] {
                let model = crate::models::WeightedCascade::new(graph, 2);
                let sampler = UniformRrSampler::new(&[1.0, 1.5]);
                let mut arena = RrArena::new(graph.num_nodes(), strategy);
                let mut index = CoverageIndex::new(graph.num_nodes(), 2);
                arena.generate_parallel(graph, &model, &sampler, 500, 2, 91);
                index.extend_from(&arena, 1);

                let mut w = SnapshotWriter::new();
                rmsa_graph::snapshot::write_graph(graph, w.section(section::GRAPH));
                write_arena(&arena, w.section(section::CACHE_STREAM_BASE));
                write_index(&index, w.section(section::CACHE_STREAM_BASE + 1));
                let bytes = w.finish();
                let path = dir.join(format!("{family}_{strategy:?}.rmsnap"));
                rmsa_store::write_file(&path, &bytes).unwrap();

                // Owned path.
                let r = SnapshotReader::parse(&bytes).unwrap();
                let arena_o =
                    read_arena(&mut r.require(section::CACHE_STREAM_BASE).unwrap()).unwrap();

                // Mapped path: lazy verification, columns borrowed.
                let snap = MappedSnapshot::open(&path, VerifyMode::Lazy).unwrap();
                let graph_m =
                    rmsa_graph::snapshot::read_graph(&mut snap.require(section::GRAPH).unwrap())
                        .unwrap();
                let arena_m =
                    read_arena(&mut snap.require(section::CACHE_STREAM_BASE).unwrap()).unwrap();
                let index_m = read_index(
                    &mut snap.require(section::CACHE_STREAM_BASE + 1).unwrap(),
                    &arena_m,
                )
                .unwrap();

                let sets = |a: &RrArena| {
                    a.iter()
                        .map(|s| (s.ad, s.nodes.to_vec()))
                        .collect::<Vec<_>>()
                };
                assert_eq!(sets(&arena_o), sets(&arena_m), "{family}/{strategy:?}");
                assert_eq!(
                    graph.edges().collect::<Vec<_>>(),
                    graph_m.edges().collect::<Vec<_>>()
                );
                let (va, vb) = (index.view(), index_m.view());
                for ad in 0..2 {
                    for u in (0..graph.num_nodes() as u32).step_by(9) {
                        assert_eq!(va.singleton_count(ad, u), vb.singleton_count(ad, u));
                    }
                    let seeds: Vec<u32> = (0..15).collect();
                    assert_eq!(va.coverage_count(ad, &seeds), vb.coverage_count(ad, &seeds));
                }
                assert!(
                    !snap.zero_copy_eligible() || ZERO_COPY_TARGET,
                    "eligibility implies a zero-copy target"
                );
                if snap.zero_copy_eligible() {
                    assert!(
                        arena_m.mapped_bytes() > 0,
                        "{family}/{strategy:?}: v2 mapped load must borrow arena columns"
                    );
                    assert!(
                        index_m.mapped_bytes() > 0,
                        "{family}/{strategy:?}: v2 mapped load must borrow index columns"
                    );
                }
                assert_eq!(arena_o.mapped_bytes(), 0, "owned path never maps");

                // Re-serializing the mapped state reproduces the bytes.
                let mut w = SnapshotWriter::new();
                rmsa_graph::snapshot::write_graph(&graph_m, w.section(section::GRAPH));
                write_arena(&arena_m, w.section(section::CACHE_STREAM_BASE));
                write_index(&index_m, w.section(section::CACHE_STREAM_BASE + 1));
                assert_eq!(w.finish(), bytes, "{family}/{strategy:?} not byte-stable");
                std::fs::remove_file(&path).ok();
            }
        }
    }

    /// v2-loader corruption coverage: truncation anywhere and flipped
    /// payload bytes surface typed errors through the mapped path — eager
    /// at open, lazy at verify — never a panic or a silent wrong answer.
    #[test]
    fn mapped_loader_rejects_truncation_and_corruption() {
        use rmsa_store::{MappedSnapshot, VerifyMode};
        let (_, arena) = sample_arena(RrStrategy::Standard, 600);
        let bytes = arena_bytes(&arena);
        let dir = std::env::temp_dir().join("rmsa_mapped_corruption_test");
        std::fs::create_dir_all(&dir).unwrap();

        // Truncation at several cut points: header, section header, mid-payload.
        for cut in [4usize, 20, bytes.len() / 2, bytes.len() - 3] {
            let path = dir.join(format!("truncated_{cut}.rmsnap"));
            rmsa_store::write_file(&path, &bytes[..cut]).unwrap();
            let err = MappedSnapshot::open(&path, VerifyMode::Eager).map(|_| ());
            assert!(err.is_err(), "cut at {cut} must fail eager open");
            std::fs::remove_file(&path).ok();
        }

        // A flipped payload byte passes a lazy open but fails verification,
        // and the eager path refuses it outright.
        let mut corrupt = bytes.clone();
        let mid = corrupt.len() / 2; // well inside the arena payload
        corrupt[mid] ^= 0xFF;
        let path = dir.join("corrupt.rmsnap");
        rmsa_store::write_file(&path, &corrupt).unwrap();
        assert!(MappedSnapshot::open(&path, VerifyMode::Eager).is_err());
        let lazy = MappedSnapshot::open(&path, VerifyMode::Lazy).unwrap();
        assert!(
            lazy.verify_all().is_err(),
            "lazy verify must catch the flip"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn index_roundtrips_with_its_segment_structure() {
        let (g, mut arena) = sample_arena(RrStrategy::Standard, 1200);
        let m = crate::models::WeightedCascade::new(&g, 2);
        let sampler = UniformRrSampler::new(&[1.0, 2.0]);
        let mut index = CoverageIndex::new(g.num_nodes(), 2);
        index.extend_to(&arena, 700, 1);
        arena.generate_parallel(&g, &m, &sampler, 800, 2, 78);
        index.extend_from(&arena, 1);
        assert_eq!(index.num_segments(), 2);

        let mut w = SnapshotWriter::new();
        write_arena(&arena, w.section(section::CACHE_STREAM_BASE));
        write_index(&index, w.section(section::CACHE_STREAM_BASE + 1));
        let bytes = w.finish();
        let r = SnapshotReader::parse(&bytes).unwrap();
        let arena2 = read_arena(&mut r.require(section::CACHE_STREAM_BASE).unwrap()).unwrap();
        let index2 = read_index(
            &mut r.require(section::CACHE_STREAM_BASE + 1).unwrap(),
            &arena2,
        )
        .unwrap();

        // Segment structure (the extension history) is preserved…
        assert_eq!(index2.num_segments(), 2);
        assert_eq!(index2.num_rr(), index.num_rr());
        // …and every coverage answer matches.
        let (va, vb) = (index.view(), index2.view());
        for ad in 0..2 {
            for u in (0..g.num_nodes() as u32).step_by(13) {
                assert_eq!(va.singleton_count(ad, u), vb.singleton_count(ad, u));
            }
            let seeds: Vec<u32> = (0..25).collect();
            assert_eq!(va.coverage_count(ad, &seeds), vb.coverage_count(ad, &seeds));
        }
    }

    #[test]
    fn models_roundtrip_bit_for_bit() {
        let mut rng = <rand_pcg::Pcg64Mcg as rand::SeedableRng>::seed_from_u64(3);
        let g = barabasi_albert(60, 2, &mut rng);
        let models = [
            ModelSnapshot::Materialized(MaterializedModel::from_rows(vec![
                vec![0.25; g.num_edges()],
                vec![0.5; g.num_edges()],
            ])),
            ModelSnapshot::WeightedCascade(WeightedCascade::new(&g, 3)),
            ModelSnapshot::UniformIc(UniformIc::new(2, 0.125)),
        ];
        for model in &models {
            let mut w = SnapshotWriter::new();
            write_model(model, w.section(section::MODEL));
            let bytes = w.finish();
            let r = SnapshotReader::parse(&bytes).unwrap();
            let restored = read_model(&mut r.require(section::MODEL).unwrap()).unwrap();
            let (a, b): (&dyn PropagationModel, &dyn PropagationModel) = (
                match model {
                    ModelSnapshot::Materialized(m) => m,
                    ModelSnapshot::WeightedCascade(m) => m,
                    ModelSnapshot::UniformIc(m) => m,
                },
                match &restored {
                    ModelSnapshot::Materialized(m) => m,
                    ModelSnapshot::WeightedCascade(m) => m,
                    ModelSnapshot::UniformIc(m) => m,
                },
            );
            assert_eq!(a.num_ads(), b.num_ads());
            for ad in 0..a.num_ads() {
                for e in 0..g.num_edges() as u32 {
                    assert_eq!(a.edge_prob(ad, e).to_bits(), b.edge_prob(ad, e).to_bits());
                }
            }
        }
    }

    #[test]
    fn absurd_declared_counts_error_instead_of_allocating() {
        // A checksum-valid section whose declared segment count is absurd
        // must fail with a typed error, not a capacity-overflow abort.
        let (_, arena) = sample_arena(RrStrategy::Standard, 8);
        let mut w = SnapshotWriter::new();
        let s = w.section(section::CACHE_STREAM_BASE + 1);
        s.put_u64(arena.num_nodes() as u64);
        s.put_u64(2);
        s.put_u64(8);
        s.put_u64(u64::MAX); // num_segments
        let bytes = w.finish();
        let r = SnapshotReader::parse(&bytes).unwrap();
        let err = read_index(
            &mut r.require(section::CACHE_STREAM_BASE + 1).unwrap(),
            &arena,
        )
        .map(|_| ())
        .unwrap_err();
        assert!(
            matches!(err, StoreError::Truncated { .. } | StoreError::Corrupt(_)),
            "{err:?}"
        );

        // Same for a materialized model declaring u64::MAX advertisers.
        let mut w = SnapshotWriter::new();
        let s = w.section(section::MODEL);
        s.put_u8(1); // materialized tag
        s.put_u64(u64::MAX);
        let bytes = w.finish();
        let r = SnapshotReader::parse(&bytes).unwrap();
        let err = read_model(&mut r.require(section::MODEL).unwrap())
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, StoreError::Truncated { .. }), "{err:?}");
    }

    #[test]
    fn models_that_do_not_fit_the_graph_are_corrupt() {
        let g = graph_from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        let fits = |model: ModelSnapshot, num_ads: usize| model.check_dimensions(&g, num_ads);
        let rows = |widths: &[usize]| {
            ModelSnapshot::Materialized(MaterializedModel {
                per_ad: widths.iter().map(|&w| vec![0.5; w]).collect(),
            })
        };
        assert!(fits(rows(&[3, 3]), 2).is_ok());
        let wc = WeightedCascade::new(&g, 2);
        assert!(fits(ModelSnapshot::WeightedCascade(wc.clone()), 2).is_ok());
        assert!(fits(ModelSnapshot::UniformIc(UniformIc::new(2, 0.5)), 2).is_ok());

        let mut short_nodes = wc.clone();
        short_nodes.node_probs.pop();
        let mut short_edges = wc;
        short_edges.edge_probs.pop();
        for (model, num_ads) in [
            (rows(&[2, 2]), 2),
            (rows(&[3, 2]), 2),
            (rows(&[3, 3]), 3),
            (ModelSnapshot::WeightedCascade(short_nodes), 2),
            (ModelSnapshot::WeightedCascade(short_edges), 2),
            (ModelSnapshot::UniformIc(UniformIc::new(2, 0.5)), 1),
        ] {
            let err = fits(model, num_ads).unwrap_err();
            assert!(matches!(err, StoreError::Corrupt(_)), "{err:?}");
        }
    }

    #[test]
    fn semantic_corruption_is_rejected() {
        let (_, arena) = sample_arena(RrStrategy::Standard, 64);
        // Arena whose offsets disagree with the node buffer.
        let mut w = SnapshotWriter::new();
        let s = w.section(section::CACHE_STREAM_BASE);
        s.put_u64(arena.num_nodes() as u64);
        s.put_u8(0);
        s.put_u32_slice(&[0, 1]); // two sets claimed
        s.put_usize_slice(&[0, 1]); // but offsets describe one
        s.put_u32_slice(&[0]);
        let bytes = w.finish();
        let r = SnapshotReader::parse(&bytes).unwrap();
        assert!(matches!(
            read_arena(&mut r.require(section::CACHE_STREAM_BASE).unwrap()).unwrap_err(),
            StoreError::Corrupt(_)
        ));

        // Unknown strategy and model tags.
        let mut w = SnapshotWriter::new();
        w.section(section::MODEL).put_u8(200);
        let bytes = w.finish();
        let r = SnapshotReader::parse(&bytes).unwrap();
        assert!(matches!(
            read_model(&mut r.require(section::MODEL).unwrap()).unwrap_err(),
            StoreError::Corrupt(_)
        ));
    }

    /// A stream section in the node-major layout older builds wrote: one
    /// posting group per node, then an advertiser column before the
    /// singleton counts.
    fn write_node_major_stream(arena: &RrArena, num_ads: usize, out: &mut SectionBuf) {
        let n = arena.num_nodes();
        let mut offsets = vec![0u32; n + 1];
        let mut singleton = vec![0u32; num_ads * n];
        for set in arena.iter() {
            for &u in set.nodes {
                offsets[u as usize + 1] += 1;
                singleton[set.ad * n + u as usize] += 1;
            }
        }
        for u in 0..n {
            offsets[u + 1] += offsets[u];
        }
        let mut cursor = offsets.clone();
        let mut entries = vec![0u32; arena.total_entries()];
        for (i, set) in arena.iter().enumerate() {
            for &u in set.nodes {
                entries[cursor[u as usize] as usize] = i as u32;
                cursor[u as usize] += 1;
            }
        }
        out.put_u64(1); // extensions
        write_arena(arena, out);
        out.put_u64(n as u64);
        out.put_u64(num_ads as u64);
        out.put_u64(arena.len() as u64);
        out.put_u64(1);
        out.put_u32(0);
        out.put_u32(arena.len() as u32);
        out.put_u32_slice(&offsets);
        out.put_u32_slice(&entries);
        out.put_u32_slice(&arena.ads);
        out.put_u32_slice(&singleton);
    }

    /// Old snapshots are rejected with an error naming the node-major
    /// layout — for three advertisers by the segment's group count, and
    /// for one (where the segments coincide byte for byte) by the trailing
    /// advertiser column — never misread as advertiser-major groups.
    #[test]
    fn node_major_stream_sections_are_rejected_by_name() {
        let mut rng = <rand_pcg::Pcg64Mcg as rand::SeedableRng>::seed_from_u64(13);
        let g = barabasi_albert(150, 3, &mut rng);
        for cpes in [vec![1.0, 2.0, 1.5], vec![1.0]] {
            let h = cpes.len();
            let m = crate::models::WeightedCascade::new(&g, h);
            let sampler = UniformRrSampler::new(&cpes);
            let mut arena = RrArena::new(g.num_nodes(), RrStrategy::Standard);
            arena.generate_parallel(&g, &m, &sampler, 900, 2, 5);

            let mut w = SnapshotWriter::new();
            let meta = w.section(section::CACHE_META);
            meta.put_u64(g.num_nodes() as u64);
            meta.put_u8(strategy_tag(RrStrategy::Standard));
            meta.put_u64(5);
            meta.put_u8(0);
            meta.put_u64(0);
            meta.put_u64(1);
            write_node_major_stream(&arena, h, w.section(section::CACHE_STREAM_BASE));
            let bytes = w.finish();
            let r = SnapshotReader::parse(&bytes).unwrap();

            let mut cur = r.require(section::CACHE_STREAM_BASE).unwrap();
            cur.get_u64("stream extensions").unwrap();
            let arena2 = read_arena(&mut cur).unwrap();
            let err = read_index(&mut cur, &arena2).map(|_| ()).unwrap_err();
            assert!(matches!(err, StoreError::Mismatch(_)), "h = {h}: {err:?}");
            assert!(err.to_string().contains("node-major"), "h = {h}: {err}");

            let err = crate::RrCache::read_snapshot(&r, 1)
                .map(|_| ())
                .unwrap_err();
            assert!(err.to_string().contains("node-major"), "h = {h}: {err}");
        }
    }
}
