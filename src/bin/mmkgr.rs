//! `mmkgr` — command-line front end for the library.
//!
//! Subcommands cover the full downstream workflow without writing Rust:
//!
//! ```text
//! mmkgr generate --dataset wn9 --scale 0.1 --out data/wn9      # synthesize + export TSV
//! mmkgr train    --dataset wn9 --scale 0.1 --epochs 25 \
//!                --out runs/wn9                                # train + checkpoint
//! mmkgr eval     --run runs/wn9                                # MRR / Hits@N of a checkpoint
//! mmkgr answer   --run runs/wn9 --source 17 --relation 3       # ranked answers + evidence
//! mmkgr explain  --run runs/wn9 --source 17 --relation 3       # top reasoning paths
//! mmkgr serve    --dataset tiny --models MMKGR,ConvE --port 0  # HTTP front end
//! ```
//!
//! `answer` and `explain` drive the unified serving API
//! (`mmkgr::core::serve`): the checkpoint is wrapped in a
//! [`PolicyReasoner`] and every query goes through [`KgReasoner::answer`]
//! / [`KgReasoner::explain`]. `serve` trains a registry of models over
//! one dataset and exposes the v1 wire protocol
//! (`mmkgr::core::serve::protocol`) over HTTP.
//!
//! Argument parsing is hand-rolled (`--flag value` pairs, plus bare
//! boolean switches like `--live`) to keep the dependency set at the
//! workspace's sanctioned crates.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use std::sync::Arc;

use mmkgr::core::prelude::*;
use mmkgr::core::serve::{
    Evidence, KgReasoner, PolicyReasoner, Query, RetrieveRequest, ServeConfig,
};
use mmkgr::core::HistoryEncoder;
use mmkgr::datagen::{generate, GenConfig};
use mmkgr::embed::{ConvE, KgeTrainConfig, TransE};
use mmkgr::eval::{
    build_registry, eval_policy_entity, load_registry_snapshot, load_registry_snapshot_live, pct,
    write_registry_snapshot_with_vocab, Dataset, Harness, HarnessConfig, ModelChoice, ScaleChoice,
    ServeOverride,
};
use mmkgr::kg::io::{read_triples, write_triples, Vocab};
use mmkgr::kg::{KnowledgeGraph, ModalBank, MultiModalKG, Split};

const USAGE: &str = "\
mmkgr — Multi-hop Multi-modal Knowledge Graph Reasoning (ICDE 2023)

USAGE: mmkgr <command> [--flag value]...

COMMANDS
  generate   synthesize a multi-modal KG and export its triple splits
             --dataset wn9|fb|tiny   --scale <f64>   --seed <u64>
             --out <dir>
  train      train an MMKGR variant and write a checkpoint directory
             --dataset wn9|fb|tiny   --scale <f64>   --seed <u64>
             --epochs <n>  --variant MMKGR|OSKGR|STKGR|SIKGR|FAKGR|FGKGR|
                                      DEKGR|DSKGR|DVKGR|ZOKGR
             --history lstm|gru|ema  --shaper conve|none
             --out <dir>
  eval       evaluate a checkpoint (entity link prediction)
             --run <dir>   [--beam <n>]  [--steps <n>]  [--max-eval <n>]
  answer     answer a (source, relation, ?) query: ranked entities, each
             with the reasoning path that found it
             --run <dir>   --source <entity-id>  --relation <relation-id>
             [--beam <n>]  [--steps <n>]  [--top <n>]
  explain    print the highest-probability reasoning paths for a query
             --run <dir>   --source <entity-id>  --relation <relation-id>
             [--beam <n>]  [--steps <n>]  [--top <n>]
  stats      profile a dataset (degrees, components, relation skew,
             k-hop reachability, modality shape)
             --dataset wn9|fb|tiny   --scale <f64>   --seed <u64>
  serve      train a registry of models over one dataset and serve the
             v1 wire protocol over HTTP (POST /v1/answer,
             /v1/answer_batch, /v1/explain; GET /v1/models, /healthz,
             /metrics)
             --dataset wn9|fb|tiny    --size quick|standard|full
             --models MMKGR,ConvE,…   --addr <ip>     --port <n> (0 = ephemeral)
             [--threads <n>] [--workers <n>] [--cache <n>]
             [--beam <n>] [--steps <n>] [--rl-epochs <n>] [--kge-epochs <n>]
             [--dataset-scale <f64>] [--seed <u64>]
             [--timeout-ms <n>]        default per-request deadline
                                       (504 past it; 0 = none)
             [--max-queue <n>]         shed (503 + Retry-After) past this
                                       many queued connections (0 = off)
             [--model-inflight <n>]    per-model in-flight cap (0 = off)
             MMKGR_FAULTS=<spec>       env: chaos fault injection, e.g.
                                       shard_latency=*:200,shard_panic=1
             [--snapshot <file.mmkg>]  boot from a registry snapshot
                                       instead of training (no dataset
                                       flags needed); --beam, --steps
                                       and --cache each override only
                                       their own recorded setting
             [--shards <n>]            split each KGE scorer's entity
                                       range across n shards; path
                                       models are served unsharded
                                       (snapshot boot only)
             [--live]                  accept POST /v1/admin/mutate: WAL-
                                       backed crash-safe triple insert/
                                       delete (snapshot boot only)
             [--wal <file>]            WAL path (default <snapshot>.wal;
                                       implies --live)
             [--compact-every <n>]     fold the delta overlay back into
                                       the CSR + rewrite the snapshot
                                       every n mutation batches (0 = off;
                                       default 256 when --live)
             [--replicate-from <addr>] boot as a read-only follower of a
                                       running primary: fetch its .mmkg
                                       snapshot over /v1/admin/replicate,
                                       replay, then tail committed WAL
                                       frames live. --snapshot names the
                                       local file the fetched snapshot
                                       lands in (default follower.mmkg);
                                       POST /v1/admin/mutate answers 409
                                       not_primary until promoted
             A primary served with --snapshot and --live/--wal ships both
             over POST /v1/admin/replicate automatically.
             GET /readyz returns 503 until the snapshot is loaded and the
             WAL is replayed (followers: until caught up with the
             primary), then 200 (use /healthz for liveness).
  promote    flip a caught-up follower into a writable primary, fenced
             at its committed seq watermark (POST /v1/admin/promote)
             --addr <host:port>
  snapshot   train a registry of models and write one `.mmkg` registry
             snapshot (graph CSR + model weights + manifest) that
             `serve --snapshot` boots in milliseconds
             --out <file.mmkg>
             --dataset wn9|fb|tiny    --size quick|standard|full
             --models MMKGR,ConvE,…   [--beam <n>] [--steps <n>] [--cache <n>]
             [--rl-epochs <n>] [--kge-epochs <n>]
             [--dataset-scale <f64>] [--seed <u64>]
             [--from-tsv <triples.tsv>]  ingest a real triples file
                                      (head<TAB>rel<TAB>tail) instead of
                                      the synthetic generator; the
                                      snapshot carries the name tables so
                                      booted servers answer by name
  verify-snapshot
             walk every section of a `.mmkg` snapshot and check bounds,
             64-byte alignment, and per-section CRC32s; prints one line
             per section and exits non-zero on corruption
             mmkgr verify-snapshot <file.mmkg>
  retrieve   extract a k-hop multi-modal subgraph around seed entities
             plus diversity-ranked reasoning-path contexts — the KG-RAG
             surface `POST /v1/retrieve` serves
             --seeds <e1,e2,…>        [--relation <r>]  [--model <name>]
             [--hops <n>]  [--max-entities <n>]  [--max-paths <n>]
             [--diversity <0..1>]     MMR weight (0 = pure score order)
             [--snapshot <file.mmkg>] boot from a snapshot instead of
                                      training; otherwise the serve/
                                      snapshot dataset flags apply

The dataset is regenerated deterministically from (dataset, scale, seed)
recorded in the checkpoint's meta.json, so checkpoints stay portable.
Registry snapshots carry the graph and weights themselves (see
docs/snapshot-format.md) and need no regeneration at boot.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    // verify-snapshot takes a positional path, which parse_flags rejects.
    if command == "verify-snapshot" {
        return match cmd_verify_snapshot(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let flags = match parse_flags(&args[1..]) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}\n");
            eprint!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match command.as_str() {
        "generate" => cmd_generate(&flags),
        "train" => cmd_train(&flags),
        "eval" => cmd_eval(&flags),
        "answer" => cmd_answer(&flags),
        "explain" => cmd_explain(&flags),
        "stats" => cmd_stats(&flags),
        "serve" => cmd_serve(&flags),
        "promote" => cmd_promote(&flags),
        "snapshot" => cmd_snapshot(&flags),
        "retrieve" => cmd_retrieve(&flags),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------- flags

fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut it = args.iter().peekable();
    while let Some(k) = it.next() {
        let Some(name) = k.strip_prefix("--") else {
            return Err(format!("expected --flag, got `{k}`"));
        };
        // A flag followed by another flag (or by nothing) is a bare
        // boolean switch (`--live`); everything else is a `--flag value`
        // pair.
        let v = match it.peek() {
            Some(next) if !next.starts_with("--") => it.next().unwrap().clone(),
            _ => "true".to_string(),
        };
        flags.insert(name.to_string(), v);
    }
    Ok(flags)
}

fn flag<'a>(flags: &'a HashMap<String, String>, name: &str) -> Option<&'a str> {
    flags.get(name).map(String::as_str)
}

fn parse_or<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    name: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{name}: cannot parse `{v}`")),
    }
}

// ---------------------------------------------------------------- dataset

#[derive(serde::Serialize, serde::Deserialize)]
struct RunMeta {
    dataset: String,
    scale: f64,
    seed: u64,
    variant: String,
    history: String,
    epochs: usize,
}

fn dataset_config(
    flags: &HashMap<String, String>,
) -> Result<(String, f64, u64, GenConfig), String> {
    let name = flag(flags, "dataset").unwrap_or("tiny").to_string();
    let scale: f64 = parse_or(flags, "scale", 1.0)?;
    let seed: u64 = parse_or(flags, "seed", 0)?;
    let cfg = build_gen_config(&name, scale, seed)?;
    Ok((name, scale, seed, cfg))
}

fn build_gen_config(name: &str, scale: f64, seed: u64) -> Result<GenConfig, String> {
    let base = match name {
        "wn9" => GenConfig::wn9_img_txt(),
        "fb" => GenConfig::fb_img_txt(),
        "tiny" => GenConfig::tiny(),
        other => return Err(format!("unknown dataset `{other}` (wn9|fb|tiny)")),
    };
    let base = if (scale - 1.0).abs() > 1e-12 {
        base.scaled(scale)
    } else {
        base
    };
    Ok(if seed != 0 {
        base.with_seed(seed)
    } else {
        base
    })
}

fn synthetic_vocab(kg: &MultiModalKG) -> Vocab {
    let mut vocab = Vocab::default();
    for e in 0..kg.num_entities() {
        vocab.entity_id(&format!("e{e}"));
    }
    for r in 0..kg.num_base_relations() {
        vocab.relation_id(&format!("r{r}"));
    }
    vocab
}

// ---------------------------------------------------------------- generate

fn cmd_generate(flags: &HashMap<String, String>) -> Result<(), String> {
    let (name, scale, seed, gen_cfg) = dataset_config(flags)?;
    let out = PathBuf::from(flag(flags, "out").ok_or("--out <dir> is required")?);
    std::fs::create_dir_all(&out).map_err(|e| format!("create {}: {e}", out.display()))?;
    let kg = generate(&gen_cfg);
    println!("{}", kg.stats());
    println!("{}", mmkgr::kg::GraphProfile::compute(&kg.graph, 128));
    let vocab = synthetic_vocab(&kg);
    for (file, triples) in [
        ("train.tsv", &kg.split.train),
        ("valid.tsv", &kg.split.valid),
        ("test.tsv", &kg.split.test),
    ] {
        let path = out.join(file);
        write_triples(&path, triples, &vocab).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote {} ({} triples)", path.display(), triples.len());
    }
    let meta = serde_json::json!({
        "dataset": name, "scale": scale, "seed": seed,
        "entities": kg.num_entities(),
        "base_relations": kg.num_base_relations(),
        "text_dim": kg.modal.text_dim(),
        "image_dim": kg.modal.image_dim(),
        "images_total": kg.modal.total_images(),
    });
    let meta_path = out.join("dataset.json");
    std::fs::write(&meta_path, serde_json::to_string_pretty(&meta).unwrap())
        .map_err(|e| format!("{}: {e}", meta_path.display()))?;
    println!("wrote {}", meta_path.display());
    Ok(())
}

// ---------------------------------------------------------------- train

fn parse_variant(s: &str) -> Result<Variant, String> {
    Ok(match s.to_ascii_uppercase().as_str() {
        "MMKGR" | "FULL" => Variant::Full,
        "OSKGR" => Variant::Oskgr,
        "STKGR" => Variant::Stkgr,
        "SIKGR" => Variant::Sikgr,
        "FAKGR" => Variant::Fakgr,
        "FGKGR" => Variant::Fgkgr,
        "DEKGR" => Variant::Dekgr,
        "DSKGR" => Variant::Dskgr,
        "DVKGR" => Variant::Dvkgr,
        "ZOKGR" => Variant::Zokgr,
        other => return Err(format!("unknown variant `{other}`")),
    })
}

fn parse_history(s: &str) -> Result<HistoryEncoder, String> {
    Ok(match s.to_ascii_lowercase().as_str() {
        "lstm" => HistoryEncoder::Lstm,
        "gru" => HistoryEncoder::Gru,
        "ema" => HistoryEncoder::Ema,
        other => return Err(format!("unknown history encoder `{other}`")),
    })
}

fn cmd_train(flags: &HashMap<String, String>) -> Result<(), String> {
    let (name, scale, seed, gen_cfg) = dataset_config(flags)?;
    let out = PathBuf::from(flag(flags, "out").ok_or("--out <dir> is required")?);
    std::fs::create_dir_all(&out).map_err(|e| format!("create {}: {e}", out.display()))?;
    let epochs: usize = parse_or(flags, "epochs", 15)?;
    let variant = parse_variant(flag(flags, "variant").unwrap_or("MMKGR"))?;
    let history = parse_history(flag(flags, "history").unwrap_or("lstm"))?;
    let shaper = flag(flags, "shaper").unwrap_or("conve");

    let kg = generate(&gen_cfg);
    println!("{}", kg.stats());

    let cfg = MmkgrConfig {
        epochs,
        seed: seed ^ 0x33,
        history,
        ..MmkgrConfig::default()
    }
    .variant(variant);
    cfg.validate().map_err(|e| format!("config: {e}"))?;

    // Structural init (paper §IV-B1): TransE over the training split.
    println!("training TransE structural init…");
    let mut transe = TransE::new(
        kg.num_entities(),
        kg.graph.relations().total(),
        cfg.struct_dim,
        seed,
    );
    let known = kg.all_known();
    transe.train(
        &kg.split.train,
        &known,
        &KgeTrainConfig::default()
            .with_epochs(epochs.min(25))
            .with_seed(seed),
    );

    let model = MmkgrModel::new(&kg, cfg.clone(), Some(&transe));
    let report = match shaper {
        "conve" => {
            println!("training ConvE reward shaper…");
            let mut conve = ConvE::new(
                kg.num_entities(),
                kg.graph.relations().total(),
                4,
                8,
                6,
                seed ^ 0xC0,
            );
            conve.train(
                &kg.split.train,
                &known,
                &KgeTrainConfig {
                    epochs: epochs.min(20),
                    batch_size: 128,
                    lr: 3e-3,
                    margin: 1.0,
                    seed: seed ^ 0xC1,
                },
            );
            println!(
                "training {} ({} epochs, {} encoder)…",
                variant.name(),
                epochs,
                history.name()
            );
            let engine = RewardEngine::new(&cfg, Some(conve));
            let mut trainer = Trainer::new(model, engine);
            let report = trainer.train(&kg, 0);
            save_run(
                &out,
                &trainer.model,
                &name,
                scale,
                seed,
                variant,
                history,
                epochs,
            )?;
            report
        }
        "none" => {
            println!(
                "training {} ({} epochs, {} encoder, unshaped)…",
                variant.name(),
                epochs,
                history.name()
            );
            let engine = RewardEngine::new(&cfg, Some(NoShaper));
            let mut trainer = Trainer::new(model, engine);
            let report = trainer.train(&kg, 0);
            save_run(
                &out,
                &trainer.model,
                &name,
                scale,
                seed,
                variant,
                history,
                epochs,
            )?;
            report
        }
        other => return Err(format!("unknown shaper `{other}` (conve|none)")),
    };
    if let Some(last) = report.epochs.last() {
        println!(
            "final epoch: mean reward {:.3}, success rate {:.1}%",
            last.mean_reward,
            last.success_rate * 100.0
        );
    }
    println!("checkpoint written to {}", out.display());
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn save_run(
    out: &Path,
    model: &MmkgrModel,
    dataset: &str,
    scale: f64,
    seed: u64,
    variant: Variant,
    history: HistoryEncoder,
    epochs: usize,
) -> Result<(), String> {
    let meta = RunMeta {
        dataset: dataset.to_string(),
        scale,
        seed,
        variant: variant.name().to_string(),
        history: history.name().to_string(),
        epochs,
    };
    std::fs::write(
        out.join("meta.json"),
        serde_json::to_string_pretty(&meta).unwrap(),
    )
    .map_err(|e| format!("meta.json: {e}"))?;
    model
        .save(&out.join("model.json"))
        .map_err(|e| format!("model.json: {e}"))?;
    Ok(())
}

fn load_run(
    flags: &HashMap<String, String>,
) -> Result<(RunMeta, MmkgrModel, MultiModalKG), String> {
    let run = PathBuf::from(flag(flags, "run").ok_or("--run <dir> is required")?);
    let meta: RunMeta = serde_json::from_str(
        &std::fs::read_to_string(run.join("meta.json"))
            .map_err(|e| format!("{}/meta.json: {e}", run.display()))?,
    )
    .map_err(|e| format!("meta.json: {e}"))?;
    let model = MmkgrModel::load(&run.join("model.json"))
        .map_err(|e| format!("{}/model.json: {e}", run.display()))?;
    let gen_cfg = build_gen_config(&meta.dataset, meta.scale, meta.seed)?;
    let kg = generate(&gen_cfg);
    if model.ent.count != kg.num_entities() {
        return Err(format!(
            "checkpoint/dataset mismatch: model has {} entities, dataset {}",
            model.ent.count,
            kg.num_entities()
        ));
    }
    Ok((meta, model, kg))
}

// ---------------------------------------------------------------- eval

fn cmd_eval(flags: &HashMap<String, String>) -> Result<(), String> {
    let (meta, model, kg) = load_run(flags)?;
    let beam: usize = parse_or(flags, "beam", 16)?;
    let steps: usize = parse_or(flags, "steps", model.cfg.max_steps)?;
    let max_eval: usize = parse_or(flags, "max-eval", 500)?;
    let known = kg.all_known();
    let triples: Vec<_> = kg.split.test.iter().copied().take(max_eval).collect();
    println!(
        "evaluating {} ({} on {}@{}) on {} test triples (beam {beam}, T={steps})…",
        meta.variant,
        meta.history,
        meta.dataset,
        meta.scale,
        triples.len()
    );
    let r = eval_policy_entity(&model, &kg.graph, &triples, &known, beam, steps);
    println!(
        "MRR {}  Hits@1 {}  Hits@5 {}  Hits@10 {}  ({} queries)",
        pct(r.mrr),
        pct(r.hits1),
        pct(r.hits5),
        pct(r.hits10),
        r.queries
    );
    Ok(())
}

// ------------------------------------------------------- answer / explain

/// Parse the `(source, relation)` of a query, defaulting to the first
/// test triple so `answer --run X` just works; validate against the KG.
fn query_flags(flags: &HashMap<String, String>, kg: &MultiModalKG) -> Result<(u32, u32), String> {
    let default = kg.split.test.first().copied();
    let source: u32 = match flag(flags, "source") {
        Some(v) => v.parse().map_err(|_| "--source: not an id".to_string())?,
        None => default
            .map(|t| t.s.0)
            .ok_or("--source required (empty test split)")?,
    };
    let relation: u32 = match flag(flags, "relation") {
        Some(v) => v.parse().map_err(|_| "--relation: not an id".to_string())?,
        None => default.map(|t| t.r.0).ok_or("--relation required")?,
    };
    if source as usize >= kg.num_entities() {
        return Err(format!(
            "entity e{source} out of range (< {})",
            kg.num_entities()
        ));
    }
    if relation as usize >= kg.graph.relations().total() {
        return Err(format!(
            "relation r{relation} out of range (< {})",
            kg.graph.relations().total()
        ));
    }
    Ok((source, relation))
}

/// Wrap a loaded checkpoint in the unified serving protocol. Interactive
/// serving keeps a modest frontier cache so repeated questions in one
/// session (or one batch file) come back instantly.
fn reasoner_for_run(
    meta: &RunMeta,
    model: MmkgrModel,
    kg: &MultiModalKG,
    beam: usize,
    steps: usize,
) -> PolicyReasoner<MmkgrModel> {
    PolicyReasoner::new(
        meta.variant.clone(),
        model,
        Arc::new(kg.graph.clone()),
        ServeConfig {
            beam_width: beam,
            max_steps: steps,
            ..ServeConfig::default()
        }
        .with_cache(1024),
    )
}

fn cmd_answer(flags: &HashMap<String, String>) -> Result<(), String> {
    let (meta, model, kg) = load_run(flags)?;
    let beam: usize = parse_or(flags, "beam", 16)?;
    let steps: usize = parse_or(flags, "steps", model.cfg.max_steps)?;
    let top: usize = parse_or(flags, "top", 10)?;
    let (source, relation) = query_flags(flags, &kg)?;
    let reasoner = reasoner_for_run(&meta, model, &kg, beam, steps);
    let rs = kg.graph.relations();
    println!(
        "query (e{source}, r{relation}, ?) on {}@{} — {} answers, beam {beam}, T={steps}",
        meta.dataset,
        meta.scale,
        reasoner.name()
    );
    let answer = reasoner.answer(
        &Query::new(mmkgr::kg::EntityId(source), mmkgr::kg::RelationId(relation)).with_top_k(top),
    );
    for (i, c) in answer.ranked.iter().enumerate() {
        let evidence = c
            .evidence
            .as_ref()
            .map(|e| format!("{} hops: {}", e.hops, e.render(&rs)))
            .unwrap_or_else(|| "(no path evidence)".to_string());
        println!(
            "#{:<2} e{:<6} score {:>8.3}  {}",
            i + 1,
            c.entity.0,
            c.score,
            evidence
        );
    }
    if answer.ranked.is_empty() {
        println!("(no candidate reached within T={steps})");
    }
    Ok(())
}

/// Unlike `answer` (one best path per entity, the serving protocol),
/// `explain` enumerates raw beam paths — including several distinct
/// derivations of the same answer — which is the point of the command.
/// Routed through [`KgReasoner::explain`], the same surface
/// `POST /v1/explain` serves.
fn cmd_explain(flags: &HashMap<String, String>) -> Result<(), String> {
    let (meta, model, kg) = load_run(flags)?;
    let beam: usize = parse_or(flags, "beam", 16)?;
    let steps: usize = parse_or(flags, "steps", model.cfg.max_steps)?;
    let top: usize = parse_or(flags, "top", 5)?;
    let (source, relation) = query_flags(flags, &kg)?;
    println!(
        "query (e{source}, r{relation}, ?) on {}@{} — {} paths, beam {beam}, T={steps}",
        meta.dataset, meta.scale, meta.variant
    );
    let reasoner = reasoner_for_run(&meta, model, &kg, beam, steps);
    let paths = reasoner
        .explain(
            &Query::new(mmkgr::kg::EntityId(source), mmkgr::kg::RelationId(relation))
                .with_top_k(top),
        )
        .expect("path reasoners explain");
    let rs = kg.graph.relations();
    for (i, p) in paths.iter().take(top).enumerate() {
        let evidence = Evidence {
            relations: p.relations.clone(),
            hops: p.hops,
            logp: p.logp,
        };
        println!(
            "#{:<2} → e{:<6} logp {:>8.3}  hops {}  path: {}",
            i + 1,
            p.entity.0,
            p.logp,
            p.hops,
            if p.relations.is_empty() {
                "(source)".to_string()
            } else {
                evidence.render(&rs)
            }
        );
    }
    if paths.is_empty() {
        println!("(no path found within T={steps})");
    }
    Ok(())
}

// ---------------------------------------------------------------- serve

/// Parse the dataset/scale/training flags shared by `serve` and
/// `snapshot` into a [`HarnessConfig`].
fn harness_flags(flags: &HashMap<String, String>) -> Result<HarnessConfig, String> {
    let dataset = match flag(flags, "dataset").unwrap_or("tiny") {
        "tiny" => Dataset::Tiny,
        "wn9" => Dataset::Wn9ImgTxt,
        "fb" => Dataset::FbImgTxt,
        other => return Err(format!("unknown dataset `{other}` (wn9|fb|tiny)")),
    };
    let size = match flag(flags, "size").unwrap_or("quick") {
        "quick" => ScaleChoice::Quick,
        "standard" => ScaleChoice::Standard,
        "full" => ScaleChoice::Full,
        other => return Err(format!("unknown size `{other}` (quick|standard|full)")),
    };
    let mut hcfg = HarnessConfig::new(dataset, size);
    if let Some(v) = flags.get("dataset-scale") {
        hcfg.dataset_scale = v
            .parse()
            .map_err(|_| format!("--dataset-scale: cannot parse `{v}`"))?;
    }
    hcfg.rl_epochs = parse_or(flags, "rl-epochs", hcfg.rl_epochs)?;
    hcfg.kge_epochs = parse_or(flags, "kge-epochs", hcfg.kge_epochs)?;
    hcfg.seed = parse_or(flags, "seed", hcfg.seed)?;
    Ok(hcfg)
}

fn model_choice_flags(flags: &HashMap<String, String>) -> Result<Vec<ModelChoice>, String> {
    let models_spec = flag(flags, "models").unwrap_or("MMKGR,ConvE");
    let mut choices: Vec<ModelChoice> = Vec::new();
    for spec in models_spec.split(',').filter(|s| !s.trim().is_empty()) {
        let choice = ModelChoice::parse(spec.trim())?;
        // Aliases ("MMKGR", "FULL") resolve to one registry entry —
        // don't train the same model twice only to have the second
        // registration replace the first.
        if !choices.contains(&choice) {
            choices.push(choice);
        }
    }
    if choices.is_empty() {
        return Err("--models needs at least one model".to_string());
    }
    Ok(choices)
}

fn serve_config_flags(
    flags: &HashMap<String, String>,
    default_beam: usize,
) -> Result<ServeConfig, String> {
    let cfg = ServeConfig {
        beam_width: parse_or(flags, "beam", default_beam)?,
        max_steps: parse_or(flags, "steps", 4)?,
        ..ServeConfig::default()
    }
    .with_cache(parse_or(flags, "cache", 1024)?);
    cfg.validate().map_err(|e| format!("config: {e}"))?;
    Ok(cfg)
}

/// `--beam`/`--steps`/`--cache` on a snapshot boot: each flag given
/// replaces only its own field of the snapshot's recorded ServeConfig.
fn serve_override_flags(flags: &HashMap<String, String>) -> Result<ServeOverride, String> {
    let field = |name: &str| {
        flags
            .get(name)
            .map(|_| parse_or(flags, name, 0))
            .transpose()
    };
    let o = ServeOverride {
        beam_width: field("beam")?,
        max_steps: field("steps")?,
        cache_capacity: field("cache")?,
    };
    // The defaults are valid, so this rejects exactly a zero flag.
    o.apply(ServeConfig::default())
        .validate()
        .map_err(|e| format!("config: {e}"))?;
    Ok(o)
}

/// Bind the HTTP front end and serve until killed. `--port 0` binds an
/// ephemeral port; the `listening on` line (flushed before serving)
/// tells scripts where.
fn serve_registry(
    flags: &HashMap<String, String>,
    registry: std::sync::Arc<mmkgr::core::serve::ModelRegistry>,
) -> Result<(), String> {
    serve_registry_as(flags, registry, None)
}

/// [`serve_registry`], optionally as a replication follower: the tailer
/// thread is spawned against the primary and `/readyz` stays 503 until
/// the follower has applied up to the primary's head.
fn serve_registry_as(
    flags: &HashMap<String, String>,
    registry: std::sync::Arc<mmkgr::core::serve::ModelRegistry>,
    follower: Option<std::sync::Arc<mmkgr::core::serve::ReplicationState>>,
) -> Result<(), String> {
    use std::io::Write as _;

    let addr = flag(flags, "addr").unwrap_or("127.0.0.1");
    let port: u16 = parse_or(flags, "port", 8080)?;
    let defaults = mmkgr::core::serve::HttpServerConfig::default();
    let http_cfg = mmkgr::core::serve::HttpServerConfig {
        conn_threads: parse_or(flags, "threads", 4)?,
        pool_workers: parse_or(flags, "workers", 2)?,
        default_timeout_ms: parse_or(flags, "timeout-ms", defaults.default_timeout_ms)?,
        max_queue_depth: parse_or(flags, "max-queue", defaults.max_queue_depth)?,
        model_inflight_limit: parse_or(flags, "model-inflight", defaults.model_inflight_limit)?,
        ..defaults
    };
    // Bind not-ready so /readyz answers 503 until boot work (snapshot
    // load, WAL replay, follower catch-up) visible to this function is
    // done.
    let http_cfg = mmkgr::core::serve::HttpServerConfig {
        start_ready: false,
        ..http_cfg
    };
    let server = mmkgr::core::serve::HttpServer::bind(
        (addr, port),
        std::sync::Arc::clone(&registry),
        http_cfg,
    )
    .map_err(|e| format!("bind {addr}:{port}: {e}"))?;
    println!("listening on http://{}", server.local_addr());
    // Scripts (CI smoke, tests) parse the line above from a pipe.
    let _ = std::io::stdout().flush();
    match follower {
        None => {
            server.mark_ready();
            server.serve();
        }
        Some(rep) => {
            let tail_registry = std::sync::Arc::clone(&registry);
            let tail_rep = std::sync::Arc::clone(&rep);
            std::thread::spawn(move || {
                mmkgr::core::serve::replication::run_tailer(tail_registry, tail_rep)
            });
            let running = server.spawn();
            while !rep.is_caught_up() {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            let lag = registry.replication_metrics().follower_lag_seq;
            println!("caught up with primary (lag {lag} seq); ready");
            let _ = std::io::stdout().flush();
            running.mark_ready();
            running.join();
        }
    }
    Ok(())
}

/// Train a registry of models over one dataset (or boot one from a
/// `.mmkg` registry snapshot via `--snapshot`) and serve the v1 wire
/// protocol over HTTP until killed.
fn cmd_serve(flags: &HashMap<String, String>) -> Result<(), String> {
    if let Some(primary) = flag(flags, "replicate-from") {
        return cmd_serve_follower(flags, primary);
    }
    if let Some(snap) = flag(flags, "snapshot") {
        // Snapshot boot: no training, no dataset regeneration. Each of
        // `--beam`/`--steps`/`--cache` overrides only its own field;
        // every unflagged field keeps the snapshot's recorded value, so
        // answers stay byte-identical to the writing process.
        let shards: usize = parse_or(flags, "shards", 1)?;
        let serve_override = Some(serve_override_flags(flags)?);
        let live = flags.contains_key("live") || flags.contains_key("wal");
        let loaded = if live {
            let wal = flag(flags, "wal")
                .map(PathBuf::from)
                .unwrap_or_else(|| PathBuf::from(format!("{snap}.wal")));
            let compact_every: u64 = parse_or(flags, "compact-every", 256)?;
            let mut loaded = load_registry_snapshot_live(
                Path::new(snap),
                serve_override,
                shards,
                &wal,
                compact_every,
            )
            .map_err(|e| format!("{snap}: {e}"))?;
            let replayed = loaded.registry.live().map_or(0, |l| l.replayed());
            println!(
                "live mutation on: wal={} ({replayed} record(s) replayed, compact every {})",
                wal.display(),
                if compact_every == 0 {
                    "∞".to_string()
                } else {
                    compact_every.to_string()
                }
            );
            // A live snapshot boot has everything a replication primary
            // ships (the snapshot file + its WAL), so it is one: POST
            // /v1/admin/replicate serves follower bootstraps and tails.
            use mmkgr::core::serve::{ReplicaSource, ReplicationState};
            loaded
                .registry
                .set_replication(std::sync::Arc::new(ReplicationState::primary(
                    ReplicaSource {
                        snapshot: PathBuf::from(snap),
                        wal,
                    },
                )));
            loaded
        } else {
            load_registry_snapshot(Path::new(snap), serve_override, shards)
                .map_err(|e| format!("{snap}: {e}"))?
        };
        println!(
            "booted {} model(s) [{}] from {snap} ({}, {} entities{})",
            loaded.registry.len(),
            loaded.registry.model_names().join(", "),
            if loaded.mapped { "mmap" } else { "read" },
            loaded.graph.num_entities(),
            if shards > 1 {
                format!(", {shards} shards")
            } else {
                String::new()
            }
        );
        return serve_registry(flags, std::sync::Arc::new(loaded.registry));
    }

    let hcfg = harness_flags(flags)?;
    let choices = model_choice_flags(flags)?;
    let serve_cfg = serve_config_flags(flags, hcfg.beam)?;
    let names: Vec<&str> = choices.iter().map(|c| c.name()).collect();
    println!(
        "training {} model(s) [{}] on {}@{}…",
        choices.len(),
        names.join(", "),
        hcfg.dataset.name(),
        hcfg.dataset_scale
    );
    let harness = Harness::new(hcfg);
    let registry = std::sync::Arc::new(build_registry(&harness, &choices, serve_cfg));
    println!("models: {}", names.join(", "));
    serve_registry(flags, registry)
}

/// Boot as a read-only replication follower: fetch the primary's
/// current `.mmkg` snapshot over `/v1/admin/replicate`, boot from it
/// exactly like a local live snapshot boot (local WAL replay included,
/// so a restarted follower resumes from its last applied seq), then
/// tail committed WAL frames until promoted.
fn cmd_serve_follower(flags: &HashMap<String, String>, primary: &str) -> Result<(), String> {
    use mmkgr::core::serve::{replication, ReplicaSource, ReplicationState};

    let snap = flag(flags, "snapshot")
        .unwrap_or("follower.mmkg")
        .to_string();
    let wal = flag(flags, "wal")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(format!("{snap}.wal")));
    let compact_every: u64 = parse_or(flags, "compact-every", 256)?;
    let shards: usize = parse_or(flags, "shards", 1)?;
    let serve_override = Some(serve_override_flags(flags)?);

    // A restarted follower already has a snapshot + WAL: reuse them and
    // let the tail catch up from the last applied seq instead of
    // re-downloading everything. First boots fetch.
    if Path::new(&snap).exists() {
        println!("reusing local snapshot {snap} (restart); tail will catch up");
    } else {
        println!("bootstrapping from {primary}…");
        let mut attempt = 0u32;
        let head_seq = loop {
            match replication::fetch_snapshot(primary, Path::new(&snap), 10) {
                Ok(seq) => break seq,
                // The primary may still be binding (CI boots both sides
                // near-simultaneously) — connection errors retry too.
                Err(e) if attempt < 10 => {
                    attempt += 1;
                    eprintln!("snapshot fetch (attempt {attempt}): {e}; retrying");
                    std::thread::sleep(std::time::Duration::from_millis(500));
                }
                Err(e) => return Err(format!("snapshot fetch from {primary}: {e}")),
            }
        };
        println!("fetched snapshot from {primary} (head seq {head_seq})");
    }

    let mut loaded = load_registry_snapshot_live(
        Path::new(&snap),
        serve_override,
        shards,
        &wal,
        compact_every,
    )
    .map_err(|e| format!("{snap}: {e}"))?;
    let replayed = loaded.registry.live().map_or(0, |l| l.replayed());
    println!(
        "live mutation on: wal={} ({replayed} record(s) replayed, compact every {})",
        wal.display(),
        if compact_every == 0 {
            "∞".to_string()
        } else {
            compact_every.to_string()
        }
    );
    let rep = std::sync::Arc::new(ReplicationState::follower(
        primary,
        ReplicaSource {
            snapshot: PathBuf::from(&snap),
            wal,
        },
    ));
    loaded.registry.set_replication(std::sync::Arc::clone(&rep));
    println!(
        "booted {} model(s) [{}] as follower of {primary} ({} entities)",
        loaded.registry.len(),
        loaded.registry.model_names().join(", "),
        loaded.graph.num_entities(),
    );
    serve_registry_as(flags, std::sync::Arc::new(loaded.registry), Some(rep))
}

/// Promote a follower over the wire: `POST /v1/admin/promote`.
fn cmd_promote(flags: &HashMap<String, String>) -> Result<(), String> {
    use std::net::ToSocketAddrs as _;

    let addr = flag(flags, "addr").ok_or("--addr <host:port> is required")?;
    let sock = addr
        .to_socket_addrs()
        .map_err(|e| format!("--addr {addr}: {e}"))?
        .next()
        .ok_or_else(|| format!("--addr {addr}: no address"))?;
    let (status, body) =
        mmkgr::core::serve::http::request_with_retries(sock, "POST", "/v1/admin/promote", "{}", 3)
            .map_err(|e| format!("promote {addr}: {e}"))?;
    if status != 200 {
        return Err(format!("promote {addr}: HTTP {status}: {body}"));
    }
    println!("{body}");
    Ok(())
}

/// Walk every section of a `.mmkg` snapshot and check bounds, 64-byte
/// alignment, and per-section CRC32s. One line per section; non-zero
/// exit (an `Err`) when anything fails, so scripts can gate on it.
fn cmd_verify_snapshot(args: &[String]) -> Result<(), String> {
    let path = match args {
        [p] if !p.starts_with("--") => PathBuf::from(p),
        _ => {
            let flags = parse_flags(args)?;
            PathBuf::from(
                flag(&flags, "snapshot").ok_or("usage: mmkgr verify-snapshot <file.mmkg>")?,
            )
        }
    };
    let report = mmkgr::kg::store::verify(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "{}: {} bytes, {} section(s), crcs {}",
        path.display(),
        report.file_len,
        report.sections.len(),
        if report.has_crcs { "present" } else { "absent" }
    );
    for s in &report.sections {
        let status = if s.ok() {
            "ok".to_string()
        } else {
            let mut bad = Vec::new();
            if !s.in_bounds {
                bad.push("out-of-bounds");
            }
            if !s.aligned {
                bad.push("misaligned");
            }
            if !s.crc_ok {
                bad.push("crc-mismatch");
            }
            bad.join(",")
        };
        println!(
            "  [{:>2}] {:<12} offset={:<10} len={:<10} {status}",
            s.index,
            mmkgr::kg::store::section_kind_name(s.kind),
            s.offset,
            s.len
        );
    }
    let bad = report.bad_sections();
    if bad == 0 {
        println!("OK");
        Ok(())
    } else {
        let indices: Vec<String> = report
            .sections
            .iter()
            .filter(|s| !s.ok())
            .map(|s| s.index.to_string())
            .collect();
        Err(format!(
            "{}: {bad} corrupt section(s): [{}]",
            path.display(),
            indices.join(", ")
        ))
    }
}

// ---------------------------------------------------------------- snapshot

/// Build a [`MultiModalKG`] from one triples TSV: symbols interned in
/// file order, a deterministic 90/5/5 split (every 20th triple → test,
/// every 20th+1 → valid), the graph over the training triples only, and
/// an empty modal bank (real modality vectors would come from a separate
/// ingestion step).
fn ingest_tsv(path: &Path) -> Result<(MultiModalKG, Vocab), String> {
    let mut vocab = Vocab::default();
    let triples = read_triples(path, &mut vocab).map_err(|e| format!("{}: {e}", path.display()))?;
    if triples.is_empty() {
        return Err(format!("{}: no triples", path.display()));
    }
    let mut split = Split::default();
    for (i, t) in triples.iter().enumerate() {
        match i % 20 {
            0 if triples.len() >= 20 => split.test.push(*t),
            1 if triples.len() >= 20 => split.valid.push(*t),
            _ => split.train.push(*t),
        }
    }
    let n_ent = vocab.entities.len();
    let graph =
        KnowledgeGraph::from_triples(n_ent, vocab.relations.len(), split.train.clone(), None);
    let name = path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "tsv".to_string());
    let kg = MultiModalKG::new(name, graph, ModalBank::empty(n_ent), split);
    Ok((kg, vocab))
}

/// Train a registry and persist it as one `.mmkg` registry snapshot
/// that `serve --snapshot` boots without retraining. With `--from-tsv`
/// the dataset is ingested from a real triples file and the snapshot
/// additionally carries the entity/relation name tables.
fn cmd_snapshot(flags: &HashMap<String, String>) -> Result<(), String> {
    let out = PathBuf::from(flag(flags, "out").ok_or("--out <file.mmkg> is required")?);
    let hcfg = harness_flags(flags)?;
    let choices = model_choice_flags(flags)?;
    let serve_cfg = serve_config_flags(flags, hcfg.beam)?;
    let names: Vec<&str> = choices.iter().map(|c| c.name()).collect();
    let (harness, vocab) = match flag(flags, "from-tsv") {
        Some(tsv) => {
            let (kg, vocab) = ingest_tsv(Path::new(tsv))?;
            println!(
                "ingested {tsv}: {} entities, {} relations, {} triples",
                kg.num_entities(),
                kg.num_base_relations(),
                kg.split.total()
            );
            println!(
                "training {} model(s) [{}]…",
                choices.len(),
                names.join(", ")
            );
            (Harness::from_parts(hcfg, kg), Some(vocab))
        }
        None => {
            println!(
                "training {} model(s) [{}] on {}@{}…",
                choices.len(),
                names.join(", "),
                hcfg.dataset.name(),
                hcfg.dataset_scale
            );
            (Harness::new(hcfg), None)
        }
    };
    write_registry_snapshot_with_vocab(
        &out,
        &harness,
        &choices,
        serve_cfg,
        vocab
            .as_ref()
            .map(|v| (v.entities.as_slice(), v.relations.as_slice())),
    )
    .map_err(|e| e.to_string())?;
    let bytes = std::fs::metadata(&out).map(|m| m.len()).unwrap_or(0);
    println!(
        "wrote {} ({} bytes, {} entities, {} model(s))",
        out.display(),
        bytes,
        harness.kg.num_entities(),
        choices.len()
    );
    Ok(())
}

// ---------------------------------------------------------------- retrieve

/// One-shot KG-RAG retrieval: the same pipeline `POST /v1/retrieve`
/// serves, against either a snapshot-booted registry or a freshly
/// trained one.
fn cmd_retrieve(flags: &HashMap<String, String>) -> Result<(), String> {
    let seeds: Vec<String> = flag(flags, "seeds")
        .ok_or("--seeds <e1,e2,…> is required")?
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    let mut req = RetrieveRequest::new(seeds)
        .with_hops(parse_or(flags, "hops", RetrieveRequest::DEFAULT_HOPS)?)
        .with_max_entities(parse_or(
            flags,
            "max-entities",
            RetrieveRequest::DEFAULT_MAX_ENTITIES,
        )?)
        .with_max_paths(parse_or(
            flags,
            "max-paths",
            RetrieveRequest::DEFAULT_MAX_PATHS,
        )?)
        .with_diversity(parse_or(flags, "diversity", 0.0f32)?);
    if let Some(m) = flag(flags, "model") {
        req = req.with_model(m);
    }
    if let Some(r) = flag(flags, "relation") {
        req = req.with_relation(r);
    }

    let registry = if let Some(snap) = flag(flags, "snapshot") {
        load_registry_snapshot(Path::new(snap), None, 1)
            .map_err(|e| format!("{snap}: {e}"))?
            .registry
    } else {
        let hcfg = harness_flags(flags)?;
        let choices = model_choice_flags(flags)?;
        let serve_cfg = serve_config_flags(flags, hcfg.beam)?;
        println!(
            "training {} model(s) on {}@{}…",
            choices.len(),
            hcfg.dataset.name(),
            hcfg.dataset_scale
        );
        let harness = Harness::new(hcfg);
        build_registry(&harness, &choices, serve_cfg)
    };

    let resp = registry.retrieve(&req).map_err(|e| e.to_string())?;
    println!(
        "model {}  seeds [{}]  hops {}",
        resp.model,
        resp.seeds.join(", "),
        resp.hops
    );
    println!(
        "subgraph: {} entities, {} triples{}",
        resp.subgraph.entities.len(),
        resp.subgraph.triples.len(),
        if resp.subgraph.truncated {
            " (truncated)"
        } else {
            ""
        }
    );
    for e in resp.subgraph.entities.iter().take(40) {
        let mut tags = String::new();
        if e.has_image {
            tags.push_str(" [img]");
        }
        if e.has_text {
            tags.push_str(" [txt]");
        }
        println!("  {:<12} hop {}{}", e.entity, e.hops, tags);
    }
    if resp.subgraph.entities.len() > 40 {
        println!("  … {} more", resp.subgraph.entities.len() - 40);
    }
    println!(
        "paths ({} selected of {} considered):",
        resp.paths.len(),
        resp.paths_considered
    );
    for (i, p) in resp.paths.iter().enumerate() {
        println!(
            "#{:<2} {} ⇒ {}  score {:>8.3}  hops {}  via {}",
            i + 1,
            p.source,
            p.entity,
            p.score,
            p.hops,
            if p.path.is_empty() {
                "(seed)".to_string()
            } else {
                p.path.join(" → ")
            }
        );
    }
    if let Some(fs) = &resp.few_shot {
        println!(
            "relation {}: {} training triple(s){}",
            fs.relation,
            fs.train_frequency,
            if fs.few_shot { " — few-shot" } else { "" }
        );
    }
    Ok(())
}

// ---------------------------------------------------------------- stats

fn cmd_stats(flags: &HashMap<String, String>) -> Result<(), String> {
    let (_, _, _, gen_cfg) = dataset_config(flags)?;
    let kg = generate(&gen_cfg);
    println!("{}", kg.stats());
    println!("{}", mmkgr::kg::GraphProfile::compute(&kg.graph, 256));

    // Relation frequency head: which relations dominate the training set.
    let freq = mmkgr::eval::relation_frequencies(&kg.split.train);
    let mut by_count: Vec<(u32, usize)> = freq.iter().map(|(r, &n)| (r.0, n)).collect();
    by_count.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    println!("top relations by training frequency:");
    for (r, n) in by_count.iter().take(10) {
        println!("  r{r:<6} {n}");
    }
    let few = by_count.iter().filter(|(_, n)| *n <= 10).count();
    println!(
        "few-shot relations (≤10 training triples): {few} of {}",
        by_count.len()
    );
    println!(
        "modalities: {} images total ({} per entity avg), image_dim {}, text_dim {}",
        kg.modal.total_images(),
        kg.modal.total_images() / kg.num_entities().max(1),
        kg.modal.image_dim(),
        kg.modal.text_dim(),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_parser_roundtrip() {
        let args: Vec<String> = ["--dataset", "wn9", "--scale", "0.1"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let f = parse_flags(&args).unwrap();
        assert_eq!(flag(&f, "dataset"), Some("wn9"));
        assert_eq!(parse_or::<f64>(&f, "scale", 1.0).unwrap(), 0.1);
        assert_eq!(parse_or::<usize>(&f, "missing", 7).unwrap(), 7);
    }

    #[test]
    fn flag_parser_rejects_bare_values() {
        let args: Vec<String> = ["wn9"].iter().map(|s| s.to_string()).collect();
        assert!(parse_flags(&args).is_err());
    }

    #[test]
    fn flag_parser_accepts_bare_switches() {
        // A flag with no value (end of args, or followed by another
        // flag) is a boolean switch: it parses to "true".
        let args: Vec<String> = ["--live"].iter().map(|s| s.to_string()).collect();
        let f = parse_flags(&args).unwrap();
        assert_eq!(flag(&f, "live"), Some("true"));
        let args: Vec<String> = ["--live", "--wal", "g.wal"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let f = parse_flags(&args).unwrap();
        assert_eq!(flag(&f, "live"), Some("true"));
        assert_eq!(flag(&f, "wal"), Some("g.wal"));
    }

    #[test]
    fn variant_and_history_parsing() {
        assert_eq!(parse_variant("mmkgr").unwrap(), Variant::Full);
        assert_eq!(parse_variant("OSKGR").unwrap(), Variant::Oskgr);
        assert!(parse_variant("nope").is_err());
        assert_eq!(parse_history("GRU").unwrap(), HistoryEncoder::Gru);
        assert!(parse_history("transformer").is_err());
    }

    #[test]
    fn snapshot_serve_flags_override_only_their_own_field() {
        let flags = |args: &[&str]| {
            let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            parse_flags(&args).unwrap()
        };
        let recorded = ServeConfig {
            beam_width: 8,
            max_steps: 3,
            cache_capacity: 64,
        };
        let boot = |args: &[&str]| serve_override_flags(&flags(args)).unwrap().apply(recorded);
        assert_eq!(boot(&[]), recorded);
        assert_eq!(boot(&["--shards", "4"]), recorded);
        assert_eq!(
            boot(&["--cache", "1024"]),
            ServeConfig {
                cache_capacity: 1024,
                ..recorded
            }
        );
        assert_eq!(
            boot(&["--beam", "16", "--steps", "5"]),
            ServeConfig {
                beam_width: 16,
                max_steps: 5,
                ..recorded
            }
        );
        assert!(serve_override_flags(&flags(&["--beam", "0"])).is_err());
        assert!(serve_override_flags(&flags(&["--steps", "x"])).is_err());
    }

    #[test]
    fn gen_config_rejects_unknown_dataset() {
        assert!(build_gen_config("freebase", 1.0, 0).is_err());
        assert!(build_gen_config("wn9", 0.05, 1).is_ok());
    }
}
