//! Registry snapshots: encode a trained serving stack into one `.mmkg`
//! file and boot a [`ModelRegistry`] back from it in milliseconds.
//!
//! A registry snapshot holds, in one memory-mappable file (see
//! `docs/snapshot-format.md` and `mmkgr_kg::store`):
//!
//! - the graph's CSR arrays (loaded back zero-copy via mmap);
//! - optional entity/relation name tables (synthetic datasets omit them
//!   and fall back to the `e{i}`/`r{i}` convention);
//! - per-entity modality flags and relation training frequencies
//!   (additive sections — older snapshots omit them and boot with the
//!   topology-only retriever fallback);
//! - one weight section per model — flat f32 parameters for the KGE
//!   family, the self-contained JSON checkpoint for MMKGR policies;
//! - a JSON [`RegistryManifest`] tying sections to models.
//!
//! KGE decoding re-runs the model's deterministic constructor (same
//! `(entities, relations, dim, seed)` as training — the [`KgeSpec`](crate::KgeSpec)
//! recorded at write time), which rebuilds a parameter arena of
//! identical shape, then overwrites every tensor from the snapshot's
//! flat section. Answers served from a loaded snapshot are therefore
//! bit-identical to the freshly-trained registry — pinned by the
//! round-trip tests below and the `snapshot_e2e` HTTP harness.
//!
//! Baseline walkers (MINERVA/RLH/FIRE) and the modal scorers (IKRL,
//! TransAE, MTRL, …) have no snapshot encoding — writing one is a typed
//! [`SnapshotBuildError::Unsupported`], not a silent omission.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

use mmkgr_core::serve::{
    KgReasoner, LiveGraphStore, ModelRegistry, NameIndex, PolicyReasoner, Retriever,
    ScorerReasoner, ServeConfig, ShardedReasoner,
};
use mmkgr_core::MmkgrModel;
use mmkgr_embed::{ComplEx, ConvE, DistMult, Hole, Rescal, TransD, TransE};
use mmkgr_kg::store::SectionKind;
use mmkgr_kg::{
    GraphHandle, KnowledgeGraph, ModalPresence, RelationId, Snapshot, SnapshotError, SnapshotWriter,
};
use mmkgr_nn::Params;
use serde::{Deserialize, Serialize};

use crate::harness::Harness;
use crate::serving::{train_model, KgeModel, ModelChoice, TrainedModel, TrainedModelKind};

/// `manifest.kind` tag for registry snapshots.
pub const REGISTRY_KIND: &str = "mmkgr-registry";

/// One model's manifest entry: which section holds its weights and how
/// to reconstruct it.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ModelEntry {
    /// Registry/display name (e.g. `"MMKGR"`, `"TransE"`).
    pub name: String,
    /// `"mmkgr"` (JSON checkpoint blob) or `"kge"` (flat f32 params).
    pub family: String,
    /// KGE kind tag (`"TransE"`, `"ConvE"`, …); unused for `"mmkgr"`.
    #[serde(default)]
    pub model: String,
    /// Constructor embedding dimension (KGE only).
    #[serde(default)]
    pub dim: usize,
    /// Constructor init seed (KGE only).
    #[serde(default)]
    pub seed: u64,
    /// `[img_h, img_w, channels]` for ConvE's image-plane constructor.
    #[serde(default)]
    pub img: Vec<usize>,
    /// Section index of the weights (F32Tensor for kge, Blob for mmkgr).
    pub section: usize,
}

/// The snapshot's model manifest (stored as the JSON Manifest section).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RegistryManifest {
    /// Always [`REGISTRY_KIND`].
    pub kind: String,
    /// Name of the registry's default model (the first one written).
    pub default_model: String,
    /// Serving defaults the registry was built with.
    pub serve: ServeConfig,
    pub models: Vec<ModelEntry>,
    /// WAL watermark: the next WAL sequence number *not* folded into
    /// this snapshot's graph. Recovery replays records with
    /// `seq >= wal_seq` and skips older ones (already compacted in).
    /// Pre-mutation snapshots parse as 0 — replay everything.
    #[serde(default)]
    pub wal_seq: u64,
}

/// Why a registry snapshot could not be written or loaded.
#[derive(Debug)]
pub enum SnapshotBuildError {
    /// This model family has no snapshot encoding (walkers, modal
    /// scorers).
    Unsupported(String),
    /// Underlying `.mmkg` format error.
    Snapshot(SnapshotError),
    /// Manifest missing, malformed, or of the wrong kind.
    BadManifest(String),
    /// A weight section's scalar count disagrees with the reconstructed
    /// parameter arena.
    WeightCountMismatch {
        model: String,
        expected: usize,
        got: usize,
    },
    /// WAL recovery failed on a live boot (corrupt log interior, or a
    /// replayed record no longer applies to the snapshot's graph).
    Wal(String),
}

impl std::fmt::Display for SnapshotBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotBuildError::Unsupported(name) => {
                write!(f, "model `{name}` has no snapshot encoding")
            }
            SnapshotBuildError::Snapshot(e) => write!(f, "snapshot: {e}"),
            SnapshotBuildError::BadManifest(why) => write!(f, "bad registry manifest: {why}"),
            SnapshotBuildError::WeightCountMismatch {
                model,
                expected,
                got,
            } => write!(
                f,
                "model `{model}`: weight section holds {got} scalars but the \
                 reconstructed arena needs {expected}"
            ),
            SnapshotBuildError::Wal(why) => write!(f, "WAL recovery: {why}"),
        }
    }
}

impl std::error::Error for SnapshotBuildError {}

impl From<SnapshotError> for SnapshotBuildError {
    fn from(e: SnapshotError) -> Self {
        SnapshotBuildError::Snapshot(e)
    }
}

/// Write per-entity modality flags as the additive [`SectionKind::ModalPresence`]
/// section: `n` has-image bytes then `n` has-text bytes, `extra = n`.
fn write_modal_presence(
    w: &mut SnapshotWriter,
    presence: &ModalPresence,
) -> Result<(), SnapshotBuildError> {
    let (img, txt) = presence.flags();
    let mut payload = Vec::with_capacity(img.len() + txt.len());
    payload.extend(img.iter().map(|&b| b as u8));
    payload.extend(txt.iter().map(|&b| b as u8));
    w.add_bytes(SectionKind::ModalPresence, img.len() as u64, &payload)?;
    Ok(())
}

/// Write relation training frequencies as the additive
/// [`SectionKind::RelationFreqs`] section: flattened `u64 [rel, count]`
/// pairs in ascending relation order (deterministic bytes), `extra` =
/// pair count.
fn write_relation_freqs(
    w: &mut SnapshotWriter,
    freqs: &HashMap<RelationId, usize>,
) -> Result<(), SnapshotBuildError> {
    let mut pairs: Vec<(u32, u64)> = freqs.iter().map(|(r, &c)| (r.0, c as u64)).collect();
    pairs.sort_unstable();
    let mut payload = Vec::with_capacity(pairs.len() * 16);
    for &(r, c) in &pairs {
        payload.extend_from_slice(&(r as u64).to_ne_bytes());
        payload.extend_from_slice(&c.to_ne_bytes());
    }
    w.add_bytes(SectionKind::RelationFreqs, pairs.len() as u64, &payload)?;
    Ok(())
}

fn decode_modal_presence(
    snap: &Snapshot,
    index: usize,
) -> Result<ModalPresence, SnapshotBuildError> {
    let n = snap.sections()[index].extra as usize;
    let bytes = snap.section_bytes(index)?;
    if bytes.len() != n * 2 {
        return Err(SnapshotBuildError::BadManifest(format!(
            "ModalPresence section holds {} bytes for {n} entities (want {})",
            bytes.len(),
            n * 2
        )));
    }
    Ok(ModalPresence::from_flags(
        bytes[..n].iter().map(|&b| b != 0).collect(),
        bytes[n..].iter().map(|&b| b != 0).collect(),
    ))
}

fn decode_relation_freqs(
    snap: &Snapshot,
    index: usize,
) -> Result<HashMap<RelationId, usize>, SnapshotBuildError> {
    let pairs = snap.sections()[index].extra as usize;
    let bytes = snap.section_bytes(index)?;
    if bytes.len() != pairs * 16 {
        return Err(SnapshotBuildError::BadManifest(format!(
            "RelationFreqs section holds {} bytes for {pairs} pairs (want {})",
            bytes.len(),
            pairs * 16
        )));
    }
    let mut freqs = HashMap::with_capacity(pairs);
    for chunk in bytes.chunks_exact(16) {
        let r = u64::from_ne_bytes(chunk[..8].try_into().unwrap());
        let c = u64::from_ne_bytes(chunk[8..].try_into().unwrap());
        freqs.insert(RelationId(r as u32), c as usize);
    }
    Ok(freqs)
}

/// Flatten a parameter arena in insertion order (the order every
/// deterministic constructor re-creates).
fn flatten_params(p: &Params) -> Vec<f32> {
    let mut flat = Vec::with_capacity(p.num_scalars());
    for (_, _, value) in p.iter() {
        flat.extend_from_slice(value.as_slice());
    }
    flat
}

/// Overwrite `p`'s tensors from a flat slice written by
/// [`flatten_params`] on an identically-shaped arena.
fn restore_params(model: &str, p: &mut Params, flat: &[f32]) -> Result<(), SnapshotBuildError> {
    if p.num_scalars() != flat.len() {
        return Err(SnapshotBuildError::WeightCountMismatch {
            model: model.to_string(),
            expected: p.num_scalars(),
            got: flat.len(),
        });
    }
    let mut off = 0;
    for (_, value, _) in p.iter_mut() {
        let n = value.len();
        value.as_mut_slice().copy_from_slice(&flat[off..off + n]);
        off += n;
    }
    Ok(())
}

fn encode_model(
    w: &mut SnapshotWriter,
    tm: TrainedModel,
) -> Result<ModelEntry, SnapshotBuildError> {
    match tm.kind {
        TrainedModelKind::Mmkgr(model) => {
            let section = w.add_blob(model.to_json().as_bytes())?;
            Ok(ModelEntry {
                name: tm.name,
                family: "mmkgr".to_string(),
                model: String::new(),
                dim: 0,
                seed: 0,
                img: Vec::new(),
                section,
            })
        }
        TrainedModelKind::Kge { model, spec } => {
            let flat = flatten_params(model.params());
            let section = w.add_f32(&flat, 1, flat.len())?;
            Ok(ModelEntry {
                name: tm.name,
                family: "kge".to_string(),
                model: spec.model.to_string(),
                dim: spec.dim,
                seed: spec.seed,
                img: spec.img.map(|(h, w, c)| vec![h, w, c]).unwrap_or_default(),
                section,
            })
        }
        TrainedModelKind::Opaque(_) => Err(SnapshotBuildError::Unsupported(tm.name)),
    }
}

/// Train `choices` over `h` and write graph + weights + manifest to a
/// registry snapshot at `path`. The first choice becomes the registry
/// default on load, mirroring [`crate::serving::build_registry`].
pub fn write_registry_snapshot(
    path: &Path,
    h: &Harness,
    choices: &[ModelChoice],
    serve: ServeConfig,
) -> Result<(), SnapshotBuildError> {
    write_registry_snapshot_with_vocab(path, h, choices, serve, None)
}

/// [`write_registry_snapshot`] plus an optional `(entities, relations)`
/// name table. Datasets ingested from a TSV carry real names; writing
/// them into the snapshot lets `load_registry_snapshot` serve those
/// names on the wire instead of the synthetic `e{i}`/`r{i}` fallback.
pub fn write_registry_snapshot_with_vocab(
    path: &Path,
    h: &Harness,
    choices: &[ModelChoice],
    serve: ServeConfig,
    vocab: Option<(&[String], &[String])>,
) -> Result<(), SnapshotBuildError> {
    let mut w = SnapshotWriter::create(path)?;
    w.add_graph(&h.kg.graph)?;
    if let Some((ents, rels)) = vocab {
        w.add_vocab(ents, rels)?;
    }
    // Carry modality flags + relation training frequencies so snapshot
    // boots (and replication followers) serve the same /v1/retrieve
    // annotations as the freshly-trained stack — without these sections
    // a booted retriever degrades to all-`false` modality and
    // all-few-shot tags.
    write_modal_presence(&mut w, &ModalPresence::from_bank(&h.kg.modal))?;
    write_relation_freqs(
        &mut w,
        &crate::fewshot::relation_frequencies(&h.kg.split.train),
    )?;
    let mut models = Vec::with_capacity(choices.len());
    for &choice in choices {
        models.push(encode_model(&mut w, train_model(h, choice, serve))?);
    }
    let manifest = RegistryManifest {
        kind: REGISTRY_KIND.to_string(),
        default_model: models.first().map(|m| m.name.clone()).unwrap_or_default(),
        serve,
        models,
        wal_seq: 0,
    };
    let json = serde_json::to_string(&manifest)
        .map_err(|e| SnapshotBuildError::BadManifest(e.to_string()))?;
    w.add_manifest(&json)?;
    w.finish()?;
    Ok(())
}

fn reconstruct_kge(
    entry: &ModelEntry,
    n_ent: usize,
    n_rel: usize,
    flat: &[f32],
) -> Result<KgeModel, SnapshotBuildError> {
    let (dim, seed) = (entry.dim, entry.seed);
    Ok(match entry.model.as_str() {
        "TransE" => {
            let mut m = TransE::new(n_ent, n_rel, dim, seed);
            restore_params(&entry.name, &mut m.params, flat)?;
            KgeModel::TransE(Arc::new(m))
        }
        "ConvE" => {
            let [img_h, img_w, channels]: [usize; 3] =
                entry.img.as_slice().try_into().map_err(|_| {
                    SnapshotBuildError::BadManifest(
                        "ConvE entry needs img = [h, w, channels]".to_string(),
                    )
                })?;
            let mut m = ConvE::new(n_ent, n_rel, img_h, img_w, channels, seed);
            restore_params(&entry.name, &mut m.params, flat)?;
            KgeModel::ConvE(Arc::new(m))
        }
        "TransD" => {
            let mut m = TransD::new(n_ent, n_rel, dim, seed);
            restore_params(&entry.name, &mut m.params, flat)?;
            KgeModel::TransD(m)
        }
        "DistMult" => {
            let mut m = DistMult::new(n_ent, n_rel, dim, seed);
            restore_params(&entry.name, &mut m.params, flat)?;
            KgeModel::DistMult(m)
        }
        "ComplEx" => {
            let mut m = ComplEx::new(n_ent, n_rel, dim, seed);
            restore_params(&entry.name, &mut m.params, flat)?;
            KgeModel::ComplEx(m)
        }
        "RESCAL" => {
            let mut m = Rescal::new(n_ent, n_rel, dim, seed);
            restore_params(&entry.name, &mut m.params, flat)?;
            KgeModel::Rescal(m)
        }
        "HolE" => {
            let mut m = Hole::new(n_ent, n_rel, dim, seed);
            restore_params(&entry.name, &mut m.params, flat)?;
            KgeModel::Hole(m)
        }
        other => {
            return Err(SnapshotBuildError::Unsupported(format!(
                "{} (kge kind `{other}`)",
                entry.name
            )))
        }
    })
}

fn decode_model(
    snap: &Snapshot,
    graph: &Arc<KnowledgeGraph>,
    handle: &GraphHandle,
    entry: &ModelEntry,
    serve: ServeConfig,
    shards: usize,
) -> Result<Arc<dyn KgReasoner + Send + Sync>, SnapshotBuildError> {
    let n_ent = graph.num_entities();
    let rs = graph.relations();
    match entry.family.as_str() {
        "mmkgr" => {
            let json = std::str::from_utf8(snap.blob(entry.section)?).map_err(|_| {
                SnapshotBuildError::BadManifest("mmkgr checkpoint not UTF-8".to_string())
            })?;
            let model = MmkgrModel::from_json(json)
                .map_err(|e| SnapshotBuildError::BadManifest(format!("mmkgr checkpoint: {e}")))?;
            // Built over the *shared* handle, so a live boot's published
            // mutations become visible to the policy's beam walks. Served
            // whole at any shard count: beam search cannot be range-split.
            Ok(Arc::new(
                PolicyReasoner::try_new_live(entry.name.clone(), model, handle.clone(), serve)
                    .map_err(|e| SnapshotBuildError::BadManifest(format!("serve config: {e}")))?,
            ))
        }
        "kge" => {
            let (flat, _, _) = snap.f32_tensor(entry.section)?;
            let kge = reconstruct_kge(entry, n_ent, rs.total(), &flat)?;
            if shards > 1 {
                Ok(Arc::new(
                    ShardedReasoner::from_scorer(entry.name.clone(), kge, n_ent, rs, shards)
                        .map_err(|e| SnapshotBuildError::BadManifest(format!("sharding: {e}")))?,
                ))
            } else {
                Ok(Arc::new(ScorerReasoner::new(
                    entry.name.clone(),
                    kge,
                    n_ent,
                    rs,
                )))
            }
        }
        other => Err(SnapshotBuildError::BadManifest(format!(
            "unknown model family `{other}`"
        ))),
    }
}

/// A registry booted from a snapshot.
pub struct LoadedRegistry {
    pub registry: ModelRegistry,
    pub graph: Arc<KnowledgeGraph>,
    pub manifest: RegistryManifest,
    /// True when the CSR arrays are mmap-backed (zero-copy boot).
    pub mapped: bool,
}

/// One opened registry snapshot: the parsed manifest plus everything
/// both boot paths (read-only and live) need.
struct OpenedRegistry {
    snap: Snapshot,
    mapped: bool,
    base: Arc<KnowledgeGraph>,
    manifest: RegistryManifest,
    names: NameIndex,
}

fn open_registry(path: &Path) -> Result<OpenedRegistry, SnapshotBuildError> {
    // Chaos hook: an installed `io_error` fault fails the load exactly
    // like a broken disk would, exercising callers' typed error paths.
    if let Some(e) = mmkgr_core::serve::faults::maybe_io_error("registry snapshot load") {
        return Err(SnapshotBuildError::Snapshot(SnapshotError::Io(e)));
    }
    let snap = Snapshot::open(path)?;
    let mapped = snap.is_mapped();
    let base = Arc::new(snap.graph()?);
    let manifest_json = snap
        .manifest()?
        .ok_or_else(|| SnapshotBuildError::BadManifest("no manifest section".to_string()))?;
    let manifest: RegistryManifest = serde_json::from_str(manifest_json)
        .map_err(|e| SnapshotBuildError::BadManifest(e.to_string()))?;
    if manifest.kind != REGISTRY_KIND {
        return Err(SnapshotBuildError::BadManifest(format!(
            "kind `{}` is not `{REGISTRY_KIND}`",
            manifest.kind
        )));
    }
    let names = match snap.find(SectionKind::EntNameOffsets) {
        Some(_) => {
            let (ents, rels) = snap.vocab_names()?;
            NameIndex::new(ents, rels)
        }
        None => NameIndex::synthetic(base.num_entities(), base.relations().base()),
    };
    Ok(OpenedRegistry {
        snap,
        mapped,
        base,
        manifest,
        names,
    })
}

/// Shared tail of both boot paths: decode every model over `handle`,
/// attach the retriever, assemble the [`LoadedRegistry`].
fn finish_boot(
    opened: OpenedRegistry,
    graph: Arc<KnowledgeGraph>,
    handle: GraphHandle,
    serve_override: Option<ServeConfig>,
    shards: usize,
) -> Result<LoadedRegistry, SnapshotBuildError> {
    let serve = serve_override.unwrap_or(opened.manifest.serve);
    let mut registry = ModelRegistry::new(opened.names);
    for entry in &opened.manifest.models {
        registry.register(decode_model(
            &opened.snap,
            &graph,
            &handle,
            entry,
            serve,
            shards,
        )?);
    }
    // Rehydrate modality flags + relation frequencies from their
    // additive sections when present; older snapshots (which lack them)
    // fall back to the topology-only retriever — all-`false` modality,
    // every relation tagged few-shot.
    let mut retriever = Retriever::new_live(handle);
    if let Some(idx) = opened.snap.find(SectionKind::ModalPresence) {
        retriever = retriever.with_modal_presence(decode_modal_presence(&opened.snap, idx)?);
    }
    if let Some(idx) = opened.snap.find(SectionKind::RelationFreqs) {
        retriever = retriever.with_relation_frequencies(decode_relation_freqs(&opened.snap, idx)?);
    }
    registry.set_retriever(Arc::new(retriever));
    Ok(LoadedRegistry {
        registry,
        graph,
        manifest: opened.manifest,
        mapped: opened.mapped,
    })
}

/// Boot a [`ModelRegistry`] from a registry snapshot. No training runs:
/// the graph is mmap-loaded and each model's weights are restored from
/// their sections, so boot time is file-open + parameter copy.
///
/// `serve_override` replaces the snapshot's recorded [`ServeConfig`];
/// `shards > 1` splits each KGE scorer's entity range across a
/// [`ShardedReasoner`]. Path models are served unsharded.
pub fn load_registry_snapshot(
    path: &Path,
    serve_override: Option<ServeConfig>,
    shards: usize,
) -> Result<LoadedRegistry, SnapshotBuildError> {
    let opened = open_registry(path)?;
    let graph = Arc::clone(&opened.base);
    let handle = GraphHandle::new(Arc::clone(&graph));
    finish_boot(opened, graph, handle, serve_override, shards)
}

/// [`load_registry_snapshot`] plus crash-safe live mutation: open (or
/// create) the WAL at `wal_path`, replay every record at or past the
/// snapshot's `wal_seq` watermark onto the graph, and wire one shared
/// [`GraphHandle`] through the reasoners, the retriever, and a
/// [`LiveGraphStore`] attached to the registry — so
/// `POST /v1/admin/mutate` publishes epochs every query path sees.
///
/// `compact_every > 0` folds the delta overlay back into the CSR every
/// that-many batches, atomically rewrites the snapshot at `path` with
/// the new watermark, and truncates the WAL. With `0` the WAL grows
/// until a manual [`LiveGraphStore::compact`] (which, lacking a rewrite
/// hook here, is a no-op) — fine for tests, not for long-lived servers.
pub fn load_registry_snapshot_live(
    path: &Path,
    serve_override: Option<ServeConfig>,
    shards: usize,
    wal_path: &Path,
    compact_every: u64,
) -> Result<LoadedRegistry, SnapshotBuildError> {
    let opened = open_registry(path)?;
    let mut live =
        LiveGraphStore::open(Arc::clone(&opened.base), wal_path, opened.manifest.wal_seq)
            .map_err(|e| SnapshotBuildError::Wal(e.to_string()))?;
    if compact_every > 0 {
        let src = path.to_path_buf();
        live = live.with_compaction(
            compact_every,
            Box::new(move |folded, wal_seq| {
                rewrite_registry_snapshot(&src, &src, folded, wal_seq)
                    .map_err(std::io::Error::other)
            }),
        );
    }
    let live = Arc::new(live);
    let handle = live.handle();
    // The post-replay view: committed-but-uncompacted WAL records are
    // already applied here.
    let graph = live.pin();
    let mut loaded = finish_boot(opened, graph, handle, serve_override, shards)?;
    loaded.registry.set_live(live);
    Ok(loaded)
}

/// Rewrite the registry snapshot at `src` to `dst` with `folded` as its
/// graph and `wal_seq` as the new WAL watermark, copying every model
/// section and the vocabulary through unchanged. The write is atomic
/// (temp file + rename), so a crash mid-rewrite leaves the old snapshot
/// intact — which is exactly what compaction's crash-safety needs: the
/// WAL is only truncated after this returns.
pub fn rewrite_registry_snapshot(
    src: &Path,
    dst: &Path,
    folded: &KnowledgeGraph,
    wal_seq: u64,
) -> Result<(), SnapshotBuildError> {
    let opened = open_registry(src)?;
    let mut w = SnapshotWriter::create(dst)?;
    w.add_graph(folded)?;
    if opened.snap.find(SectionKind::EntNameOffsets).is_some() {
        let (ents, rels) = opened.snap.vocab_names()?;
        w.add_vocab(&ents, &rels)?;
    }
    // Modality flags and relation frequencies ride through compaction
    // byte-for-byte — mutation changes topology, not features.
    for kind in [SectionKind::ModalPresence, SectionKind::RelationFreqs] {
        if let Some(idx) = opened.snap.find(kind) {
            let extra = opened.snap.sections()[idx].extra;
            w.add_bytes(kind, extra, opened.snap.section_bytes(idx)?)?;
        }
    }
    let mut models = Vec::with_capacity(opened.manifest.models.len());
    for entry in &opened.manifest.models {
        let section = match entry.family.as_str() {
            "mmkgr" => w.add_blob(opened.snap.blob(entry.section)?)?,
            "kge" => {
                let (flat, rows, cols) = opened.snap.f32_tensor(entry.section)?;
                w.add_f32(&flat, rows, cols)?
            }
            other => {
                return Err(SnapshotBuildError::BadManifest(format!(
                    "unknown model family `{other}`"
                )))
            }
        };
        models.push(ModelEntry {
            section,
            ..entry.clone()
        });
    }
    let manifest = RegistryManifest {
        models,
        wal_seq,
        ..opened.manifest
    };
    let json = serde_json::to_string(&manifest)
        .map_err(|e| SnapshotBuildError::BadManifest(e.to_string()))?;
    w.add_manifest(&json)?;
    w.finish()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{Dataset, HarnessConfig, ScaleChoice};
    use crate::serving::build_reasoner;
    use mmkgr_core::serve::Query;
    use mmkgr_core::Variant;

    fn tiny_harness() -> Harness {
        let mut cfg = HarnessConfig::new(Dataset::Tiny, ScaleChoice::Quick);
        cfg.rl_epochs = 1;
        cfg.kge_epochs = 2;
        cfg.max_eval = 6;
        Harness::new(cfg)
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("mmkgr_regsnap_{}_{name}.mmkg", std::process::id()))
    }

    #[test]
    fn kge_registry_round_trips_bit_exact_and_sharded() {
        let h = tiny_harness();
        let serve = ServeConfig::default();
        let path = tmp("kge");
        write_registry_snapshot(&path, &h, &[ModelChoice::TransE], serve).unwrap();

        let fresh = build_reasoner(&h, ModelChoice::TransE, serve);
        for shards in [1usize, 4] {
            let loaded = load_registry_snapshot(&path, None, shards).unwrap();
            assert_eq!(loaded.manifest.default_model, "TransE");
            assert_eq!(loaded.graph.num_entities(), h.kg.num_entities());
            let (_, booted) = loaded.registry.get(Some("TransE")).unwrap();
            for t in h.eval_triples.iter().take(4) {
                let q = Query::new(t.s, t.r).with_top_k(0);
                assert_eq!(
                    booted.answer(&q),
                    fresh.answer(&q),
                    "snapshot-booted TransE must answer bit-identically (shards={shards})"
                );
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mmkgr_policy_round_trips_through_json_blob() {
        let h = tiny_harness();
        let serve = ServeConfig::default().with_cache(64);
        let path = tmp("mmkgr");
        write_registry_snapshot(&path, &h, &[ModelChoice::Mmkgr(Variant::Full)], serve).unwrap();

        let fresh = build_reasoner(&h, ModelChoice::Mmkgr(Variant::Full), serve);
        let queries: Vec<Query> = h
            .eval_triples
            .iter()
            .take(3)
            .map(|t| {
                Query::new(t.s, t.r)
                    .with_beam(8)
                    .with_steps(3)
                    .with_top_k(0)
            })
            .collect();
        let keys: std::collections::HashSet<_> =
            queries.iter().map(|q| (q.source, q.relation)).collect();
        let mut stats = Vec::new();
        for shards in [1usize, 4] {
            let loaded = load_registry_snapshot(&path, None, shards).unwrap();
            let (_, booted) = loaded.registry.get(Some("MMKGR")).unwrap();
            assert!(booted.has_path_evidence());
            for q in queries.iter().chain(&queries) {
                assert_eq!(booted.answer(q), fresh.answer(q), "shards={shards}");
            }
            // One reasoner with one cache at any shard count.
            let s = booted.cache_stats().expect("the cache is configured");
            assert_eq!(s.entries, keys.len(), "shards={shards}");
            assert_eq!(s.capacity, 64, "shards={shards}");
            stats.push(s);
        }
        assert_eq!(stats[0], stats[1]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn snapshot_boot_keeps_retrieve_annotations() {
        use mmkgr_core::serve::RetrieveRequest;

        let h = tiny_harness();
        let serve = ServeConfig::default();
        let path = tmp("retrieve");
        write_registry_snapshot(&path, &h, &[ModelChoice::TransE], serve).unwrap();

        let fresh = crate::serving::build_registry(&h, &[ModelChoice::TransE], serve);
        let loaded = load_registry_snapshot(&path, None, 1).unwrap();
        let mut req = RetrieveRequest::new(["e0", "e1"]);
        req.max_paths = 6;
        let a = serde_json::to_string(&fresh.retrieve(&req).unwrap()).unwrap();
        let b = serde_json::to_string(&loaded.registry.retrieve(&req).unwrap()).unwrap();
        assert_eq!(
            a, b,
            "snapshot-booted retriever must keep modality flags and few-shot tags"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn walkers_are_a_typed_unsupported_error() {
        let h = tiny_harness();
        let path = tmp("walker");
        let err =
            write_registry_snapshot(&path, &h, &[ModelChoice::Minerva], ServeConfig::default())
                .unwrap_err();
        assert!(matches!(err, SnapshotBuildError::Unsupported(ref n) if n == "MINERVA"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn manifest_survives_its_own_json() {
        let m = RegistryManifest {
            kind: REGISTRY_KIND.to_string(),
            default_model: "TransE".to_string(),
            serve: ServeConfig::default(),
            models: vec![ModelEntry {
                name: "ConvE".to_string(),
                family: "kge".to_string(),
                model: "ConvE".to_string(),
                dim: 32,
                seed: 99,
                img: vec![4, 8, 6],
                section: 5,
            }],
            wal_seq: 17,
        };
        let json = serde_json::to_string(&m).unwrap();
        let back: RegistryManifest = serde_json::from_str(&json).unwrap();
        assert_eq!(back, m);
    }
}
