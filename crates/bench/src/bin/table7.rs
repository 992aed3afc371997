//! Table VII — what happens when *naive* multi-modal fusion (Attention /
//! Concatenation) is bolted onto existing multi-hop methods (FB-IMG-TXT).
//!
//! RL walkers (MINERVA, FIRE, RLH) get the [`FusedWalker`](mmkgr_baselines::FusedWalker) treatment
//! (early fusion into state/action representations); non-RL models
//! (GAATs, NeuralLP) get [`ModalLateFusion`]. Reported: % change of
//! accumulated rewards (RL only) and of Hits@1 versus the unfused model.

use mmkgr_baselines::{ModalLateFusion, NaiveFusion};
use mmkgr_bench::Stopwatch;
use mmkgr_eval::{pct_delta, save_json, Dataset, Harness, HarnessConfig, ScaleChoice, Table};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    model: String,
    fusion: String,
    delta_reward: Option<f64>,
    delta_hits1: f64,
}

fn rel_change(before: f64, after: f64) -> f64 {
    if before.abs() < 1e-9 {
        0.0
    } else {
        (after - before) / before
    }
}

fn main() {
    let scale = ScaleChoice::from_args();
    let sw = Stopwatch::start();
    let h = Harness::new(HarnessConfig::new(Dataset::FbImgTxt, scale));
    println!("{}", h.kg.stats());

    let mut rows: Vec<Row> = Vec::new();

    // ---- RL walkers: plain vs fused (early fusion) ----------------------
    let (minerva, minerva_trace) = h.train_minerva();
    let minerva_h1 = h.eval_policy(&minerva).hits1;
    let minerva_r = *minerva_trace.last().unwrap_or(&0.0) as f64;
    sw.lap("MINERVA plain");
    let (fire, fire_trace) = h.train_fire();
    let fire_h1 = h.eval_policy(&fire).hits1;
    let fire_r = *fire_trace.last().unwrap_or(&0.0) as f64;
    sw.lap("FIRE plain");
    let (rlh, rlh_trace) = h.train_rlh();
    let rlh_h1 = h.eval_policy(&rlh).hits1;
    let rlh_r = *rlh_trace.last().unwrap_or(&0.0) as f64;
    sw.lap("RLH plain");

    for fusion in [NaiveFusion::Attention, NaiveFusion::Concatenation] {
        for (name, base_h1, base_r) in [
            ("MINERVA", minerva_h1, minerva_r),
            ("FIRE", fire_h1, fire_r),
            ("RLH", rlh_h1, rlh_r),
        ] {
            let (fused, trace) = h.train_fused(fusion);
            let fused_h1 = h.eval_policy(&fused).hits1;
            let fused_r = *trace.last().unwrap_or(&0.0) as f64;
            sw.lap(&format!("{name}+{}", fusion.name()));
            rows.push(Row {
                model: name.into(),
                fusion: fusion.name().into(),
                delta_reward: Some(rel_change(base_r, fused_r)),
                delta_hits1: rel_change(base_h1, fused_h1),
            });
        }
    }

    // ---- non-RL baselines: plain vs late fusion --------------------------
    let gaats = h.train_gaats();
    let gaats_h1 = h.eval_scorer(&gaats).hits1;
    sw.lap("GAATs plain");
    let nlp = h.train_neurallp();
    let nlp_h1 = h.eval_scorer(&nlp).hits1;
    sw.lap("NeuralLP plain");
    for fusion in [NaiveFusion::Attention, NaiveFusion::Concatenation] {
        let weight = match fusion {
            NaiveFusion::Attention => 0.3,
            NaiveFusion::Concatenation => 0.6,
        };
        let fused_gaats = ModalLateFusion::new(h.train_gaats(), &h.kg, fusion, weight);
        let g_h1 = h.eval_scorer(&fused_gaats).hits1;
        rows.push(Row {
            model: "GAATs".into(),
            fusion: fusion.name().into(),
            delta_reward: None,
            delta_hits1: rel_change(gaats_h1, g_h1),
        });
        let fused_nlp = ModalLateFusion::new(h.train_neurallp(), &h.kg, fusion, weight);
        let n_h1 = h.eval_scorer(&fused_nlp).hits1;
        rows.push(Row {
            model: "NeuralLP".into(),
            fusion: fusion.name().into(),
            delta_reward: None,
            delta_hits1: rel_change(nlp_h1, n_h1),
        });
        sw.lap(&format!("late fusion {}", fusion.name()));
    }

    let mut table = Table::new(
        "Table VII — naive fusion on existing multi-hop models (FB-IMG-TXT)",
        &[
            "Model",
            "Attn ΔRewards",
            "Attn ΔHits@1",
            "Concat ΔRewards",
            "Concat ΔHits@1",
        ],
    );
    for model in ["GAATs", "NeuralLP", "MINERVA", "FIRE", "RLH"] {
        let get = |fusion: &str| rows.iter().find(|r| r.model == model && r.fusion == fusion);
        let a = get("Attention");
        let c = get("Concatenation");
        let fmt_r = |r: Option<&Row>| {
            r.and_then(|r| r.delta_reward)
                .map(pct_delta)
                .unwrap_or_else(|| "—".into())
        };
        let fmt_h = |r: Option<&Row>| {
            r.map(|r| pct_delta(r.delta_hits1))
                .unwrap_or_else(|| "—".into())
        };
        table.push_row(vec![
            model.to_string(),
            fmt_r(a),
            fmt_h(a),
            fmt_r(c),
            fmt_h(c),
        ]);
    }
    table.print();
    save_json("table7", &rows);
}
