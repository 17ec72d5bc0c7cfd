//! Flexibility by design (paper Section 4.6 / Figure 3).
//!
//! The same workload is run three times, changing one `BflConfig` field
//! (`mode`): as the full FAIR-BFL system, as the degraded FL-only
//! composition (Procedures I, II, IV — no exchange, no mining), and as
//! the degraded chain-only composition (Procedures II, III, V — no
//! learning). The example prints the per-procedure delay budget of each
//! mode and what each mode produces (a model, a ledger, or both).
//!
//! Run with: `cargo run --release --example flexibility_modes`

use fair_bfl::core::{BflConfig, FlexibilityMode, Scenario};
use fair_bfl::data::{SynthMnist, SynthMnistConfig};
use fair_bfl::fl::config::FlConfig;
use fair_bfl::ml::optimizer::LocalTrainingConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(7);
    let (train, test) = SynthMnist::new(SynthMnistConfig {
        train_samples: 1000,
        test_samples: 200,
        ..SynthMnistConfig::default()
    })
    .generate(&mut rng);

    println!(
        "{:<12} {:>9} {:>9} {:>8} {:>8} {:>8} {:>8} {:>8}  artifacts",
        "mode", "accuracy", "delay(s)", "T_local", "T_up", "T_ex", "T_gl", "T_bl"
    );

    for (mode, label) in [
        (FlexibilityMode::FullBfl, "FAIR-BFL"),
        (FlexibilityMode::FlOnly, "FL-only"),
        (FlexibilityMode::ChainOnly, "chain-only"),
    ] {
        // One config per mode — everything else stays at the paper's
        // defaults, so the three scenarios differ only in which
        // procedures run.
        let scenario = Scenario::from_config(BflConfig {
            mode,
            fl: FlConfig {
                clients: 20,
                rounds: 8,
                participation_ratio: 0.5,
                local: LocalTrainingConfig {
                    epochs: 2,
                    ..LocalTrainingConfig::default()
                },
                ..FlConfig::default()
            },
            ..BflConfig::default()
        })
        .expect("scenario is consistent");

        let result = scenario
            .run(&train, &test)
            .expect("simulation should complete");

        let mean = |f: fn(&fair_bfl::core::DelayBreakdown) -> f64| -> f64 {
            result.outcomes.iter().map(|o| f(&o.breakdown)).sum::<f64>()
                / result.outcomes.len() as f64
        };
        let artifacts = match (&result.chain, result.final_params.is_empty()) {
            (Some(chain), false) => format!("model + ledger (height {})", chain.height()),
            (Some(chain), true) => format!("ledger only (height {})", chain.height()),
            (None, false) => "model only".to_string(),
            (None, true) => "nothing".to_string(),
        };
        println!(
            "{:<12} {:>9.3} {:>9.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2}  {}",
            label,
            result.final_accuracy().unwrap_or(0.0),
            result.mean_delay(),
            mean(|b| b.t_local),
            mean(|b| b.t_up),
            mean(|b| b.t_ex),
            mean(|b| b.t_gl),
            mean(|b| b.t_bl),
            artifacts
        );
    }

    println!(
        "\nRemoving Procedures III+V recovers pure FL; removing I+IV recovers a pure blockchain."
    );
}
