//! Deviation ablation — is the LSTM history encoder (Eq. 1) load-bearing?
//!
//! The paper fixes an LSTM for `h_t`. This binary trains MMKGR with the
//! LSTM, a GRU, and a deliberately weak gate-free EMA encoder, holding
//! everything else fixed. Expected: LSTM ≈ GRU (gating matters, which
//! gate less so) with EMA trailing — path history must be *selectively*
//! remembered for multi-hop decisions.
//!
//! Usage: `cargo run --release -p mmkgr-bench --bin ablation_history [-- --scale quick|standard|full]`

use mmkgr_bench::ModelRow;
use mmkgr_core::HistoryEncoder;
use mmkgr_eval::{save_json, Dataset, Harness, HarnessConfig, ScaleChoice, Table};

fn main() {
    let scale = ScaleChoice::from_args();
    let h = Harness::new(HarnessConfig::new(Dataset::Wn9ImgTxt, scale));
    println!("{} ({} eval triples)", h.kg.stats(), h.eval_triples.len());
    let mut table = Table::new(
        "History encoder ablation (Eq. 1) on WN9-IMG-TXT",
        &["Encoder", "MRR", "Hits@1", "Hits@5", "Hits@10", "params"],
    );
    let mut dump = Vec::new();
    for kind in [
        HistoryEncoder::Lstm,
        HistoryEncoder::Gru,
        HistoryEncoder::Ema,
    ] {
        let (trainer, _) = h.train_mmkgr_with(|c| c.history = kind, 0);
        let r = h.eval_policy(&trainer.model);
        let row = ModelRow::new(kind.name(), &r);
        let mut cells = row.cells();
        cells.push(trainer.model.params().num_scalars().to_string());
        table.push_row(cells);
        dump.push((kind.name().to_string(), row));
    }
    table.print();
    save_json("ablation_history", &dump);
}
