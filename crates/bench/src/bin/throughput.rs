//! Throughput benchmark for the compute substrates, in one process on
//! one machine.
//!
//! **Learning substrate** (PR 1, written to `BENCH_PR1.json`): the
//! batched GEMM engine against the retained per-sample reference path,
//! toggled through `bfl_ml::engine::set_reference_mode`:
//!
//! 1. **Local SGD** samples/second — Procedure-I's mini-batch training
//!    loop over an MNIST-scale softmax model.
//! 2. **Evaluation** samples/second — test-set accuracy of the same
//!    model.
//! 3. **End-to-end simulation** rounds/second — a Figure-5-style
//!    FAIR-BFL run with signatures off (isolates the learning substrate).
//!
//! **Ledger substrate** (PR 2's section, now written to
//! `BENCH_CRYPTO.json`; the tracked `BENCH_PR2.json` is a frozen record
//! of the 32-bit-limb engine and is never rewritten): the crypto engine
//! against the retained seed paths, toggled through
//! `bfl_crypto::engine::set_reference_mode`, plus the PoW midstate fast
//! path against full-header hashing:
//!
//! 4. **RSA keygen/sign/verify** operations/second at
//!    `DEFAULT_MODULUS_BITS`.
//! 5. **PoW hash rate** — midstate (one compression per nonce) vs
//!    hashing the full 104-byte header per nonce.
//! 6. **FullBfl** rounds/second — a smoke-scale FAIR-BFL run *with*
//!    signature verification on (the workload the ROADMAP flagged as
//!    ~97% crypto), and the crypto share of its wall-clock.
//!
//! **u64-limb bigint core + parallel verification** (PR 3, written to
//! `BENCH_PR3.json`): the 64-bit-limb engine with cached per-key
//! Montgomery contexts against the retained reference paths, plus the
//! Procedure-II-style parallel verification batch:
//!
//! 7. **bigint** — `modpow` and `div_rem` operations/second, fast engine
//!    vs reference, at RSA-scale operand widths.
//! 8. **verify-batch** — a round's worth of signature verifications
//!    fanned out over `bfl_ml::par` vs the serial loop.
//! 9. **vs-PR2** — current sign/verify rates against the rates recorded
//!    in `BENCH_PR2.json` (the 32-bit-limb engine on this machine
//!    class), and the crypto share of a signed smoke FullBfl run.
//!
//! **Scenario sweeps** (PR 4, written to `BENCH_PR4.json`): the
//! [`bfl_core::SweepRunner`] fanning the design-space grid of
//! `experiments::scenario_grid` across cores vs the same grid run
//! serially:
//!
//! 10. **sweep** — scenarios/second, serial vs parallel, after asserting
//!     every grid cell completes and per-cell results are bit-identical
//!     regardless of sweep parallelism.
//!
//! **Event-driven engine** (PR 5, written to `BENCH_PR5.json`): the
//! flexible-block-quota engine on a heterogeneous straggler population:
//!
//! 11. **async sweep** — the quota × latency × churn grid through
//!     [`bfl_core::SweepRunner`], serial vs parallel, after asserting the
//!     event-driven cells are bit-identical regardless of parallelism.
//! 12. **quota comparison** — simulated makespan and wall-clock rounds/s
//!     of the same straggler population with the block quota at "wait
//!     for everyone" vs 60% of the participants (the paper's flexible
//!     block size); asserts the flexible quota's makespan is lower.
//!
//! **Fault injection** (PR 6, written to `BENCH_PR6.json`): the
//! deterministic fault plans on the event engine:
//!
//! 13. **fault sweep** — the loss-rate × partition grid through
//!     [`bfl_core::SweepRunner`], asserted bit-identical across thread
//!     counts *while faults are active* (drop coins, retry jitter, and
//!     fork healing draw from a per-run stream), then measured serial vs
//!     parallel.
//! 14. **resilience curve** — per-cell accuracy, simulated makespan,
//!     delivered uploads, salvaged stale carry-over, and fork resolution
//!     time against the fault-free baseline corner.
//!
//! **Population-scale rounds** (PR 7, written to `BENCH_PR7.json`): lazy
//! O(participants) provisioning and streaming Procedure-IV aggregation
//! on an implicit population, measured under a counting global allocator:
//!
//! 15. **population ladder** — the PR 4–6-style eager/materialized round
//!     against the lazy/streaming engine at the same shape, then the
//!     lazy/streaming engine at 10 000 participants per round drawn from
//!     a 10 000-client and a 1 000 000-client population; asserts the
//!     1M-population cell's heap high-water stays within 1.5× of the
//!     10k-population cell (memory tracks participants, not population).
//! 16. **signed companion** — the same implicit populations with RSA
//!     signing on and keys derived lazily at admission, showing keygen
//!     cost also tracks participants rather than population.
//!
//! **Next speed tier** (PR 8, written to `BENCH_PR8.json`): batched RSA
//! verification, lane-sharded event drains, and per-thread-count scaling
//! curves:
//!
//! 17. **batched-verify** — a 1k-upload round's signature checks through
//!     `KeyStore::verify_batch` (shared Montgomery workspace,
//!     screen-then-confirm) vs the per-upload `verify` loop, decisions
//!     asserted identical on a genuine accept/reject mix.
//! 18. **lane-drain** — the sharded `EventQueue` drained via due batches
//!     and via parallel per-lane runs vs a single global heap, pop order
//!     asserted identical across all three.
//! 19. **scaling table** — sweep / Procedure-II / mining / lane-drain
//!     fan-outs at thread counts {1, 2, 4, 8}, each cell asserting
//!     parallel == serial bit-identity before its timer starts.
//!
//! **SIMD compute tier** (PR 10, written to `BENCH_PR10.json`): the
//! runtime-dispatched AVX2+FMA kernel tier and the allocation-free
//! steady-state round loop:
//!
//! 20. **kernel rows** — every dispatched GEMM/axpy kernel at a
//!     representative shape, scalar vs SIMD tier, bit-identity asserted
//!     on fresh outputs before each timed pair (plus a full signed run
//!     digested under both tiers).
//! 21. **composites** — local SGD, eval accuracy, and the signed smoke
//!     FullBfl run (with its crypto-share shift) under both tiers.
//! 22. **steady-state allocation** — warmed-up flexible rounds bracketed
//!     with the counting allocator, asserting zero net bytes and blocks
//!     per round while reporting the transient churn.
//!
//! Usage: `throughput [reps]
//! [all|ml|crypto|pr3|pr4|pr5|pr6|pr7|pr8|pr10|smoke]`.
//! `smoke` runs a seconds-scale version of every section (for CI) and
//! writes `BENCH_SMOKE.json` instead of the tracked reports.

use bfl_bench::experiments::{
    dataset, population_scale_config, population_signed_config, scenario_grid, system_config,
    Scale, SystemLabel,
};
use bfl_bench::section::{best_seconds, parse_bench_args, rate, write_report, SectionRegistry};
use bfl_bench::CountingAllocator;
use bfl_chain::Block;
use bfl_core::{
    AggregationMode, BflConfig, BflSimulation, FlexibilityMode, ProvisioningMode, Scenario,
    SweepRunner, SyncMode,
};
use bfl_crypto::bigint::BigUint;
use bfl_crypto::engine as crypto_engine;
use bfl_crypto::rsa::{RsaKeyPair, DEFAULT_MODULUS_BITS};
use bfl_crypto::sha256::sha256;
use bfl_crypto::signature::{sign_message, verify_message, SignedMessage};
use bfl_data::Dataset;
use bfl_fl::config::PartitionKind;
use bfl_ml::model::{AnyModel, ModelKind};
use bfl_ml::optimizer::{train_local_with_scratch, LocalTrainingConfig};
use bfl_ml::tensor::{Matrix, Scratch};
use bfl_ml::{engine, metrics, par, simd, tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::hint::black_box;
use std::time::Instant;

/// Heap bookkeeping for the PR 7 population ladder. The other sections
/// run under it too; the overhead is two relaxed atomic updates per
/// allocation, invisible next to the measured workloads.
#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

#[derive(Debug, Clone, Serialize)]
struct Measurement {
    batched: f64,
    reference: f64,
    speedup: f64,
}

impl Measurement {
    fn from_rates(batched: f64, reference: f64) -> Self {
        Measurement {
            batched,
            reference,
            speedup: batched / reference,
        }
    }
}

/// Fast-engine vs reference-engine rates for one crypto operation.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct EnginePair {
    fast: f64,
    reference: f64,
    speedup: f64,
}

impl EnginePair {
    fn from_rates(fast: f64, reference: f64) -> Self {
        EnginePair {
            fast,
            reference,
            speedup: fast / reference,
        }
    }
}

/// Midstate vs full-header PoW hash rates.
#[derive(Debug, Clone, Serialize)]
struct PowPair {
    midstate: f64,
    full_header: f64,
    speedup: f64,
}

/// Wall-clock split of a FullBfl run with and without signatures.
#[derive(Debug, Clone, Serialize)]
struct CryptoShare {
    signatures_on_seconds: f64,
    signatures_off_seconds: f64,
    crypto_share: f64,
}

#[derive(Debug, Clone, Serialize)]
struct MlReport {
    description: String,
    local_sgd_samples_per_sec: Measurement,
    eval_samples_per_sec: Measurement,
    fig5_sim_rounds_per_sec: Measurement,
    fig5_sim_wall_clock_speedup: f64,
}

#[derive(Debug, Clone, Serialize)]
struct CryptoReport {
    description: String,
    modulus_bits: usize,
    keygen_per_sec: EnginePair,
    sign_per_sec: EnginePair,
    verify_per_sec: EnginePair,
    pow_hash_per_sec: PowPair,
    fullbfl_rounds_per_sec: EnginePair,
    fullbfl_crypto_share: CryptoShare,
}

#[derive(Debug, Clone, Serialize)]
struct SmokeReport {
    description: String,
    ml: MlReport,
    crypto: CryptoReport,
    pr3: Pr3Report,
    pr4: Pr4Report,
    pr5: Pr5Report,
    pr6: Pr6Report,
    pr7: Pr7Report,
    pr8: Pr8Report,
    pr10: Pr10Report,
}

// ---------------------------------------------------------------------------
// Learning substrate (PR 1 metrics).
// ---------------------------------------------------------------------------

fn local_sgd_rate(train: &Dataset, reference: bool, reps: usize) -> f64 {
    engine::set_reference_mode(reference);
    let kind = ModelKind::default_mnist();
    let config = LocalTrainingConfig {
        epochs: 5,
        batch_size: 10,
        learning_rate: 0.01,
        proximal_mu: 0.0,
    };
    // Shard size matches the paper's per-client reality (6000 training
    // samples across 100 workers, Section 5.1): Procedure-I always runs
    // over a small local shard, not the pooled dataset.
    let shard: Vec<usize> = (0..train.len().min(100)).collect();
    let mut scratch = Scratch::new();
    let samples_per_rep = (config.epochs * shard.len()) as f64;
    let result = rate(samples_per_rep, reps, || {
        let mut rng = StdRng::seed_from_u64(7);
        let mut model: AnyModel = kind.build(&mut rng);
        black_box(train_local_with_scratch(
            &mut model,
            &train.features,
            &train.labels,
            &shard,
            &config,
            &mut rng,
            &mut scratch,
        ));
    });
    engine::set_reference_mode(false);
    result
}

fn eval_rate(test: &Dataset, reference: bool, reps: usize) -> f64 {
    engine::set_reference_mode(reference);
    let mut rng = StdRng::seed_from_u64(7);
    let model: AnyModel = ModelKind::default_mnist().build(&mut rng);
    let result = rate(test.len() as f64, reps, || {
        black_box(metrics::accuracy(
            &model,
            &test.features,
            &test.labels,
            None,
        ));
    });
    engine::set_reference_mode(false);
    result
}

fn fig5_sim_rate(data: &(Dataset, Dataset), reference: bool, reps: usize) -> f64 {
    engine::set_reference_mode(reference);
    // Figure 5 sweeps the learning rate over full FAIR-BFL runs; one
    // representative point of that sweep is the end-to-end workload,
    // sized so each round carries the paper's E=5 local epochs over
    // realistic shards (smoke scale shrinks training to the point where
    // fixed per-run costs like RSA key provisioning dominate).
    let mut config = system_config(SystemLabel::Fair, Scale::Smoke);
    config.fl.local.learning_rate = 0.10;
    config.fl.local.epochs = 5;
    config.fl.rounds = 4;
    // RSA sign/verify takes the same wall-clock in both engine modes and
    // (at this scale) would bury the learning substrate under constant
    // crypto cost; it is switched off so the measurement isolates what
    // this benchmark tracks. The FullBfl metric below measures the
    // signatures-on workload.
    config.verify_signatures = false;
    let rounds = config.fl.rounds as f64;
    let result = rate(rounds, reps, || {
        black_box(
            BflSimulation::new(config)
                .run(&data.0, &data.1)
                .expect("simulation completes"),
        );
    });
    engine::set_reference_mode(false);
    result
}

fn ml_section(data: &(Dataset, Dataset), reps: usize) -> MlReport {
    let (train, test) = data;

    eprintln!("measuring local SGD ({reps} reps per mode)...");
    let sgd = Measurement::from_rates(
        local_sgd_rate(train, false, reps),
        local_sgd_rate(train, true, reps),
    );
    eprintln!(
        "  batched {:>12.0} samples/s | reference {:>12.0} samples/s | {:.2}x",
        sgd.batched, sgd.reference, sgd.speedup
    );

    eprintln!("measuring evaluation ({reps} reps per mode)...");
    let eval = Measurement::from_rates(eval_rate(test, false, reps), eval_rate(test, true, reps));
    eprintln!(
        "  batched {:>12.0} samples/s | reference {:>12.0} samples/s | {:.2}x",
        eval.batched, eval.reference, eval.speedup
    );

    eprintln!("measuring fig5-style end-to-end simulation ({reps} reps per mode)...");
    let sim = Measurement::from_rates(
        fig5_sim_rate(data, false, reps),
        fig5_sim_rate(data, true, reps),
    );
    eprintln!(
        "  batched {:>8.3} rounds/s | reference {:>8.3} rounds/s | {:.2}x",
        sim.batched, sim.reference, sim.speedup
    );

    MlReport {
        description: "Batched GEMM engine vs per-sample reference path, same process/machine"
            .to_string(),
        local_sgd_samples_per_sec: sgd,
        eval_samples_per_sec: eval,
        fig5_sim_wall_clock_speedup: sim.speedup,
        fig5_sim_rounds_per_sec: sim,
    }
}

// ---------------------------------------------------------------------------
// Ledger substrate (PR 2 metrics).
// ---------------------------------------------------------------------------

fn keygen_rate(modulus_bits: usize, reference: bool, reps: usize) -> f64 {
    crypto_engine::set_reference_mode(reference);
    // Reseed per repetition: prime-search length is geometrically
    // distributed, so every rep must walk the identical candidate
    // sequence or best-of-reps would measure the luckiest draw instead
    // of the engine.
    let result = rate(1.0, reps, || {
        let mut rng = StdRng::seed_from_u64(0x2B2B);
        black_box(RsaKeyPair::generate(&mut rng, modulus_bits).expect("keygen"));
    });
    crypto_engine::set_reference_mode(false);
    result
}

fn sign_rate(pair: &RsaKeyPair, messages: usize, reference: bool, reps: usize) -> f64 {
    crypto_engine::set_reference_mode(reference);
    let payloads: Vec<Vec<u8>> = (0..messages)
        .map(|i| format!("gradient upload {i} for Procedure-II").into_bytes())
        .collect();
    let result = rate(messages as f64, reps, || {
        for (i, payload) in payloads.iter().enumerate() {
            black_box(sign_message(i as u64, payload, &pair.private));
        }
    });
    crypto_engine::set_reference_mode(false);
    result
}

fn verify_rate(pair: &RsaKeyPair, messages: usize, reference: bool, reps: usize) -> f64 {
    let signed: Vec<_> = (0..messages)
        .map(|i| {
            sign_message(
                i as u64,
                format!("gradient upload {i}").as_bytes(),
                &pair.private,
            )
        })
        .collect();
    crypto_engine::set_reference_mode(reference);
    let result = rate(messages as f64, reps, || {
        for msg in &signed {
            verify_message(msg, &pair.public).expect("signature verifies");
        }
    });
    crypto_engine::set_reference_mode(false);
    result
}

fn pow_hash_rate(nonces: u64, midstate: bool, reps: usize) -> f64 {
    let genesis = Block::genesis();
    let header = Block::candidate(&genesis, vec![], 12345, 1 << 20, 7).header;
    if midstate {
        // One prefix compression per attempt, one padded block per nonce.
        rate(nonces as f64, reps, || {
            let mid = header.pow_midstate();
            for nonce in 0..nonces {
                black_box(mid.hash_with_nonce(nonce));
            }
        })
    } else {
        // The seed path: serialize and hash all 104 header bytes per nonce.
        rate(nonces as f64, reps, || {
            for nonce in 0..nonces {
                black_box(header.hash_with_nonce(nonce));
            }
        })
    }
}

fn fullbfl_rate(
    data: &(Dataset, Dataset),
    rounds: usize,
    signatures: bool,
    reference: bool,
    reps: usize,
) -> (f64, f64) {
    crypto_engine::set_reference_mode(reference);
    // The workload the ROADMAP open item flagged: a smoke-scale FAIR
    // run with every gradient upload signed and miner-verified.
    let mut config = system_config(SystemLabel::Fair, Scale::Smoke);
    config.fl.rounds = rounds;
    config.verify_signatures = signatures;
    let seconds = best_seconds(reps, || {
        black_box(
            BflSimulation::new(config)
                .run(&data.0, &data.1)
                .expect("simulation completes"),
        );
    });
    crypto_engine::set_reference_mode(false);
    (rounds as f64 / seconds, seconds)
}

struct CryptoScale {
    modulus_bits: usize,
    sign_messages: usize,
    verify_messages: usize,
    pow_nonces: u64,
    fullbfl_rounds: usize,
    /// Reference keygen runs a full prime search per repetition; its rep
    /// count is capped separately because one 1024-bit reference keygen
    /// costs seconds.
    reference_keygen_reps: usize,
}

fn crypto_section(data: &(Dataset, Dataset), reps: usize, scale: &CryptoScale) -> CryptoReport {
    let bits = scale.modulus_bits;

    eprintln!("measuring RSA keygen at {bits} bits ({reps} fast reps)...");
    let keygen = EnginePair::from_rates(
        keygen_rate(bits, false, reps),
        keygen_rate(bits, true, scale.reference_keygen_reps),
    );
    eprintln!(
        "  fast {:>10.2} keys/s | reference {:>10.4} keys/s | {:.1}x",
        keygen.fast, keygen.reference, keygen.speedup
    );

    let mut rng = StdRng::seed_from_u64(0x51_6E);
    let pair = RsaKeyPair::generate(&mut rng, bits).expect("bench keypair");

    eprintln!("measuring RSA sign at {bits} bits ({reps} reps per mode)...");
    let sign = EnginePair::from_rates(
        sign_rate(&pair, scale.sign_messages, false, reps),
        sign_rate(&pair, scale.sign_messages, true, reps),
    );
    eprintln!(
        "  fast {:>10.1} sig/s | reference {:>10.2} sig/s | {:.1}x",
        sign.fast, sign.reference, sign.speedup
    );

    eprintln!("measuring RSA verify at {bits} bits ({reps} reps per mode)...");
    let verify = EnginePair::from_rates(
        verify_rate(&pair, scale.verify_messages, false, reps),
        verify_rate(&pair, scale.verify_messages, true, reps),
    );
    eprintln!(
        "  fast {:>10.0} verif/s | reference {:>10.1} verif/s | {:.1}x",
        verify.fast, verify.reference, verify.speedup
    );

    eprintln!(
        "measuring PoW hash rate over {} nonces ({reps} reps per path)...",
        scale.pow_nonces
    );
    let midstate = pow_hash_rate(scale.pow_nonces, true, reps);
    let full_header = pow_hash_rate(scale.pow_nonces, false, reps);
    let pow = PowPair {
        midstate,
        full_header,
        speedup: midstate / full_header,
    };
    eprintln!(
        "  midstate {:>12.0} hash/s | full header {:>12.0} hash/s | {:.2}x",
        pow.midstate, pow.full_header, pow.speedup
    );

    eprintln!(
        "measuring FullBfl smoke run with signatures on ({} rounds, {reps} reps per mode)...",
        scale.fullbfl_rounds
    );
    let (fullbfl_fast, fast_seconds) = fullbfl_rate(data, scale.fullbfl_rounds, true, false, reps);
    let (fullbfl_ref, _) = fullbfl_rate(data, scale.fullbfl_rounds, true, true, reps);
    let fullbfl = EnginePair::from_rates(fullbfl_fast, fullbfl_ref);
    eprintln!(
        "  fast {:>8.3} rounds/s | reference {:>8.3} rounds/s | {:.2}x",
        fullbfl.fast, fullbfl.reference, fullbfl.speedup
    );

    let (_, off_seconds) = fullbfl_rate(data, scale.fullbfl_rounds, false, false, reps);
    let share = CryptoShare {
        signatures_on_seconds: fast_seconds,
        signatures_off_seconds: off_seconds,
        crypto_share: (fast_seconds - off_seconds).max(0.0) / fast_seconds,
    };
    eprintln!(
        "  crypto share of FullBfl wall-clock: {:.1}% (was ~97% on the seed path)",
        share.crypto_share * 100.0
    );

    CryptoReport {
        description: "Montgomery/CRT crypto engine vs retained seed paths; PoW midstate vs \
                      full-header hashing, same process/machine"
            .to_string(),
        modulus_bits: bits,
        keygen_per_sec: keygen,
        sign_per_sec: sign,
        verify_per_sec: verify,
        pow_hash_per_sec: pow,
        fullbfl_rounds_per_sec: fullbfl,
        fullbfl_crypto_share: share,
    }
}

// ---------------------------------------------------------------------------
// u64-limb bigint core + parallel verification (PR 3 metrics).
// ---------------------------------------------------------------------------

/// Fast vs reference rates of the bigint micro-operations.
#[derive(Debug, Clone, Serialize)]
struct BigintReport {
    /// Montgomery modpow vs square-and-multiply: 64-bit exponent at the
    /// section's modulus width (the reference path bounds what a bench
    /// budget affords at full exponents).
    modpow_per_sec: EnginePair,
    /// Knuth Algorithm D vs binary long division: a double-width
    /// dividend over a modulus-width divisor.
    div_rem_per_sec: EnginePair,
}

/// Parallel vs serial verification of one round's signature batch.
#[derive(Debug, Clone, Serialize)]
struct VerifyBatchReport {
    batch: usize,
    threads: usize,
    parallel_per_sec: f64,
    serial_per_sec: f64,
    speedup: f64,
}

/// Current engine rates against the numbers recorded in `BENCH_PR2.json`
/// (the 32-bit-limb engine, same machine class).
#[derive(Debug, Clone, Serialize)]
struct Pr2Comparison {
    pr2_sign_per_sec: f64,
    pr2_verify_per_sec: f64,
    sign_speedup_vs_pr2: f64,
    verify_speedup_vs_pr2: f64,
}

#[derive(Debug, Clone, Serialize)]
struct Pr3Report {
    description: String,
    modulus_bits: usize,
    bigint: BigintReport,
    sign_per_sec: EnginePair,
    verify_per_sec: EnginePair,
    verify_batch: VerifyBatchReport,
    vs_pr2: Option<Pr2Comparison>,
    fullbfl_rounds_per_sec: EnginePair,
    fullbfl_crypto_share: CryptoShare,
}

/// The slice of `BENCH_PR2.json` the comparison needs.
#[derive(Debug, Clone, Deserialize)]
struct Pr2File {
    sign_per_sec: EnginePair,
    verify_per_sec: EnginePair,
}

/// Deterministic odd modulus / base pair of the requested width.
fn bench_operands(bits: usize) -> (BigUint, BigUint) {
    let mut rng = StdRng::seed_from_u64(0xB161_0000 + bits as u64);
    let mut bytes = vec![0u8; bits / 8];
    rng.fill(&mut bytes[..]);
    let mut modulus = BigUint::from_bytes_be(&bytes);
    modulus.set_bit(0);
    modulus.set_bit(bits - 1);
    rng.fill(&mut bytes[..]);
    let base = BigUint::from_bytes_be(&bytes).rem(&modulus);
    (modulus, base)
}

fn bigint_rates(modulus_bits: usize, reps: usize) -> BigintReport {
    let (modulus, base) = bench_operands(modulus_bits);
    let exponent = BigUint::from_u64(0xF00D_FACE_CAFE_BEEF);

    let modpow_ops = 4.0;
    let modpow = |reference: bool, reps: usize| {
        crypto_engine::set_reference_mode(reference);
        let result = rate(modpow_ops, reps, || {
            for _ in 0..modpow_ops as usize {
                black_box(base.modpow(&exponent, &modulus));
            }
        });
        crypto_engine::set_reference_mode(false);
        result
    };
    let modpow_pair = EnginePair::from_rates(modpow(false, reps), modpow(true, reps));
    eprintln!(
        "  modpow ({modulus_bits}-bit modulus, 64-bit exp): fast {:>10.0} op/s | reference {:>8.1} op/s | {:.1}x",
        modpow_pair.fast, modpow_pair.reference, modpow_pair.speedup
    );

    // Double-width dividend over the modulus, the shape every reduction
    // in sign/verify takes.
    let dividend = base.mul(&modulus).add(&base);
    let div_ops = 64.0;
    let div_rem = |reference: bool, reps: usize| {
        rate(div_ops, reps, || {
            for _ in 0..div_ops as usize {
                if reference {
                    black_box(dividend.div_rem_reference(&modulus));
                } else {
                    black_box(dividend.div_rem_knuth(&modulus));
                }
            }
        })
    };
    let div_pair = EnginePair::from_rates(div_rem(false, reps), div_rem(true, reps));
    eprintln!(
        "  div_rem ({}-bit / {modulus_bits}-bit): fast {:>10.0} op/s | reference {:>8.1} op/s | {:.1}x",
        dividend.bit_len(),
        div_pair.fast,
        div_pair.reference,
        div_pair.speedup
    );

    BigintReport {
        modpow_per_sec: modpow_pair,
        div_rem_per_sec: div_pair,
    }
}

fn verify_batch_rates(pair: &RsaKeyPair, batch: usize, reps: usize) -> VerifyBatchReport {
    let signed: Vec<SignedMessage> = (0..batch)
        .map(|i| {
            sign_message(
                i as u64,
                format!("batched gradient upload {i}").as_bytes(),
                &pair.private,
            )
        })
        .collect();
    // Procedure-II's fan-out shape: independent verifications against a
    // shared public key, stitched back in order.
    let parallel = rate(batch as f64, reps, || {
        let ok = par::par_map(&signed, 1, |_, msg| {
            verify_message(msg, &pair.public).is_ok()
        });
        assert!(ok.iter().all(|&v| v));
    });
    let serial = rate(batch as f64, reps, || {
        for msg in &signed {
            verify_message(msg, &pair.public).expect("signature verifies");
        }
    });
    VerifyBatchReport {
        batch,
        threads: par::max_threads(),
        parallel_per_sec: parallel,
        serial_per_sec: serial,
        speedup: parallel / serial,
    }
}

/// The PR 3 measurements. `measured` carries an already-run
/// [`crypto_section`] at the same scale (the `all`/`smoke` modes run
/// both sections back to back): its sign/verify/FullBfl numbers are
/// reused instead of re-measured, so the shared metrics are timed once
/// per invocation.
fn pr3_section(
    data: &(Dataset, Dataset),
    reps: usize,
    scale: &CryptoScale,
    measured: Option<&CryptoReport>,
) -> Pr3Report {
    let bits = scale.modulus_bits;
    eprintln!("measuring bigint micro-operations at {bits} bits ({reps} reps per mode)...");
    let bigint = bigint_rates(bits, reps);

    let mut rng = StdRng::seed_from_u64(0x51_6E);
    let pair = RsaKeyPair::generate(&mut rng, bits).expect("bench keypair");

    let sign = match measured {
        Some(crypto) => crypto.sign_per_sec.clone(),
        None => {
            eprintln!("measuring RSA sign at {bits} bits ({reps} reps per mode)...");
            let sign = EnginePair::from_rates(
                sign_rate(&pair, scale.sign_messages, false, reps),
                sign_rate(&pair, scale.sign_messages, true, reps),
            );
            eprintln!(
                "  fast {:>10.1} sig/s | reference {:>10.2} sig/s | {:.1}x",
                sign.fast, sign.reference, sign.speedup
            );
            sign
        }
    };

    let verify = match measured {
        Some(crypto) => crypto.verify_per_sec.clone(),
        None => {
            eprintln!("measuring RSA verify at {bits} bits ({reps} reps per mode)...");
            let verify = EnginePair::from_rates(
                verify_rate(&pair, scale.verify_messages, false, reps),
                verify_rate(&pair, scale.verify_messages, true, reps),
            );
            eprintln!(
                "  fast {:>10.0} verif/s | reference {:>10.1} verif/s | {:.1}x",
                verify.fast, verify.reference, verify.speedup
            );
            verify
        }
    };

    eprintln!("measuring parallel verify batch ({reps} reps per mode)...");
    let verify_batch = verify_batch_rates(&pair, scale.verify_messages.max(32), reps);
    eprintln!(
        "  parallel {:>10.0} verif/s ({} threads) | serial {:>10.0} verif/s | {:.2}x",
        verify_batch.parallel_per_sec,
        verify_batch.threads,
        verify_batch.serial_per_sec,
        verify_batch.speedup
    );

    // The PR 2 record only matches at the tracked modulus size; smoke
    // runs (256-bit) skip the comparison.
    let vs_pr2 = if bits == DEFAULT_MODULUS_BITS {
        std::fs::read_to_string("BENCH_PR2.json")
            .ok()
            .and_then(|json| serde_json::from_str::<Pr2File>(&json).ok())
            .map(|pr2| {
                let comparison = Pr2Comparison {
                    pr2_sign_per_sec: pr2.sign_per_sec.fast,
                    pr2_verify_per_sec: pr2.verify_per_sec.fast,
                    sign_speedup_vs_pr2: sign.fast / pr2.sign_per_sec.fast,
                    verify_speedup_vs_pr2: verify.fast / pr2.verify_per_sec.fast,
                };
                eprintln!(
                    "  vs PR2 engine: sign {:.2}x, verify {:.2}x",
                    comparison.sign_speedup_vs_pr2, comparison.verify_speedup_vs_pr2
                );
                comparison
            })
    } else {
        None
    };
    if vs_pr2.is_none() {
        eprintln!("  (no PR2 comparison: BENCH_PR2.json missing or modulus size differs)");
    }

    let (fullbfl, share) = match measured {
        Some(crypto) => (
            crypto.fullbfl_rounds_per_sec.clone(),
            crypto.fullbfl_crypto_share.clone(),
        ),
        None => {
            eprintln!(
                "measuring FullBfl smoke run with signatures on ({} rounds, {reps} reps per mode)...",
                scale.fullbfl_rounds
            );
            let (fullbfl_fast, fast_seconds) =
                fullbfl_rate(data, scale.fullbfl_rounds, true, false, reps);
            let (fullbfl_ref, _) = fullbfl_rate(data, scale.fullbfl_rounds, true, true, reps);
            let fullbfl = EnginePair::from_rates(fullbfl_fast, fullbfl_ref);
            let (_, off_seconds) = fullbfl_rate(data, scale.fullbfl_rounds, false, false, reps);
            let share = CryptoShare {
                signatures_on_seconds: fast_seconds,
                signatures_off_seconds: off_seconds,
                crypto_share: (fast_seconds - off_seconds).max(0.0) / fast_seconds,
            };
            eprintln!(
                "  fast {:>8.3} rounds/s | reference {:>8.3} rounds/s | crypto share {:.1}% (was ~70% after PR 2)",
                fullbfl.fast,
                fullbfl.reference,
                share.crypto_share * 100.0
            );
            (fullbfl, share)
        }
    };

    Pr3Report {
        description: "u64-limb bigint engine with cached Montgomery contexts and parallel \
                      Procedure-II verification vs retained reference paths, same \
                      process/machine"
            .to_string(),
        modulus_bits: bits,
        bigint,
        sign_per_sec: sign,
        verify_per_sec: verify,
        verify_batch,
        vs_pr2,
        fullbfl_rounds_per_sec: fullbfl,
        fullbfl_crypto_share: share,
    }
}

// ---------------------------------------------------------------------------
// Scenario sweep throughput (PR 4 metrics).
// ---------------------------------------------------------------------------

/// Summary of one completed sweep cell.
#[derive(Debug, Clone, Serialize)]
struct SweepCellSummary {
    label: String,
    final_accuracy: f64,
    detection_rate: f64,
    mean_delay_s: f64,
}

/// Serial vs parallel throughput of the scenario-grid sweep.
#[derive(Debug, Clone, Serialize)]
struct Pr4Report {
    description: String,
    grid_cells: usize,
    rounds_per_cell: usize,
    threads: usize,
    serial_scenarios_per_sec: f64,
    parallel_scenarios_per_sec: f64,
    speedup: f64,
    cells: Vec<SweepCellSummary>,
}

fn pr4_section(data: &(Dataset, Dataset), reps: usize, rounds: usize) -> Pr4Report {
    let grid = scenario_grid(Scale::Smoke, rounds);
    let serial_runner = SweepRunner::with_threads(1);
    let parallel_runner = SweepRunner::new();

    eprintln!(
        "running the {}-cell scenario grid serially and in parallel...",
        grid.len()
    );
    // Correctness before speed: every cell completes under both runners,
    // and per-cell results are independent of sweep parallelism.
    let serial_cells = serial_runner
        .run(&grid, &data.0, &data.1)
        .expect("every grid cell completes serially");
    let parallel_cells = parallel_runner
        .run(&grid, &data.0, &data.1)
        .expect("every grid cell completes in parallel");
    assert_eq!(serial_cells.len(), grid.len());
    assert_eq!(parallel_cells.len(), grid.len());
    for (a, b) in serial_cells.iter().zip(parallel_cells.iter()) {
        assert_eq!(a.label, b.label, "sweep order is stable");
        assert_eq!(
            a.result.history, b.result.history,
            "cell `{}` must not depend on sweep parallelism",
            a.label
        );
        assert_eq!(a.result.final_params, b.result.final_params);
        assert_eq!(a.result.reward_totals, b.result.reward_totals);
    }

    eprintln!("measuring sweep throughput ({reps} reps per runner)...");
    let cells = grid.len() as f64;
    let serial_rate = rate(cells, reps, || {
        black_box(serial_runner.run(&grid, &data.0, &data.1).expect("sweep"));
    });
    let parallel_rate = rate(cells, reps, || {
        black_box(parallel_runner.run(&grid, &data.0, &data.1).expect("sweep"));
    });
    let threads = par::max_threads();
    eprintln!(
        "  serial {serial_rate:>8.2} scenarios/s | parallel {parallel_rate:>8.2} scenarios/s \
         ({threads} threads) | {:.2}x",
        parallel_rate / serial_rate
    );

    Pr4Report {
        description: "SweepRunner scenario grid (modes x anchors x strategies under the \
                      Table 2 attack), parallel fan-out vs serial loop, same process/machine"
            .to_string(),
        grid_cells: grid.len(),
        rounds_per_cell: rounds,
        threads,
        serial_scenarios_per_sec: serial_rate,
        parallel_scenarios_per_sec: parallel_rate,
        speedup: parallel_rate / serial_rate,
        cells: serial_cells
            .iter()
            .map(|cell| SweepCellSummary {
                label: cell.label.clone(),
                final_accuracy: cell.result.final_accuracy().unwrap_or(0.0),
                detection_rate: cell.result.detection.average_detection_rate(),
                mean_delay_s: cell.result.mean_delay(),
            })
            .collect(),
    }
}

// ---------------------------------------------------------------------------
// Event-driven engine: flexible block quotas (PR 5 metrics).
// ---------------------------------------------------------------------------

/// Summary of one asynchronous grid cell.
#[derive(Debug, Clone, Serialize)]
struct AsyncCellSummary {
    label: String,
    /// Simulated seconds from the start of the run to the last sealed
    /// round — the quantity the flexible block size optimizes.
    simulated_makespan_s: f64,
    mean_round_delay_s: f64,
    /// Stale uploads carried into blocks across the run.
    stale_included: usize,
    final_accuracy: f64,
}

/// Synchronous-wait vs flexible-quota comparison on the heterogeneous
/// straggler population.
#[derive(Debug, Clone, Serialize)]
struct QuotaComparison {
    rounds: usize,
    /// Quota = all participants: every block waits for the 8x straggler.
    sync_simulated_makespan_s: f64,
    /// Quota at 60% of the participants.
    flexible_simulated_makespan_s: f64,
    /// sync / flexible — how much simulated time the flexible block
    /// quota saves under stragglers.
    makespan_speedup: f64,
    /// Host wall-clock execution rates (the engine's own overhead).
    sync_rounds_per_sec: f64,
    flexible_rounds_per_sec: f64,
}

#[derive(Debug, Clone, Serialize)]
struct Pr5Report {
    description: String,
    grid_cells: usize,
    rounds_per_cell: usize,
    threads: usize,
    serial_scenarios_per_sec: f64,
    parallel_scenarios_per_sec: f64,
    speedup: f64,
    quota_comparison: QuotaComparison,
    cells: Vec<AsyncCellSummary>,
}

fn simulated_makespan(result: &bfl_core::SimulationResult) -> f64 {
    result
        .history
        .rounds
        .last()
        .map(|r| r.elapsed_s)
        .unwrap_or(0.0)
}

fn pr5_section(data: &(Dataset, Dataset), reps: usize, rounds: usize) -> Pr5Report {
    use bfl_bench::experiments::{async_grid, quota_comparison_configs};

    let grid = async_grid(Scale::Smoke, rounds);
    let serial_runner = SweepRunner::with_threads(1);
    let parallel_runner = SweepRunner::new();

    eprintln!(
        "running the {}-cell quota/latency/churn grid serially and in parallel...",
        grid.len()
    );
    // Determinism before speed: event-driven cells must not depend on
    // sweep parallelism (the acceptance contract of the event engine).
    let serial_cells = serial_runner
        .run(&grid, &data.0, &data.1)
        .expect("every async grid cell completes serially");
    let parallel_cells = parallel_runner
        .run(&grid, &data.0, &data.1)
        .expect("every async grid cell completes in parallel");
    assert_eq!(serial_cells.len(), grid.len());
    for (a, b) in serial_cells.iter().zip(parallel_cells.iter()) {
        assert_eq!(a.label, b.label, "sweep order is stable");
        assert_eq!(
            a.result.history, b.result.history,
            "event-driven cell `{}` must not depend on sweep parallelism",
            a.label
        );
        assert_eq!(a.result.final_params, b.result.final_params);
        assert_eq!(a.result.reward_totals, b.result.reward_totals);
    }

    eprintln!("measuring async sweep throughput ({reps} reps per runner)...");
    let cells_per_run = grid.len() as f64;
    let serial_rate = rate(cells_per_run, reps, || {
        black_box(serial_runner.run(&grid, &data.0, &data.1).expect("sweep"));
    });
    let parallel_rate = rate(cells_per_run, reps, || {
        black_box(parallel_runner.run(&grid, &data.0, &data.1).expect("sweep"));
    });

    // The headline number: simulated makespan with and without the
    // flexible block quota on the same straggler-heavy population.
    eprintln!("comparing synchronous-wait vs flexible-quota makespan ({reps} reps)...");
    let (waiting, flexible) = quota_comparison_configs(Scale::Smoke, rounds.max(3));
    let comparison_rounds = waiting.fl.rounds;
    let run_one = |config: bfl_core::BflConfig| {
        bfl_core::Scenario::from_config(config)
            .expect("comparison scenario is valid")
            .run(&data.0, &data.1)
            .expect("comparison run completes")
    };
    let sync_result = run_one(waiting);
    let flexible_result = run_one(flexible);
    let sync_makespan = simulated_makespan(&sync_result);
    let flexible_makespan = simulated_makespan(&flexible_result);
    assert!(
        flexible_makespan < sync_makespan,
        "the flexible quota must undercut the straggler-gated makespan \
         ({flexible_makespan:.2}s vs {sync_makespan:.2}s)"
    );
    let sync_wall = best_seconds(reps, || {
        black_box(run_one(waiting));
    });
    let flexible_wall = best_seconds(reps, || {
        black_box(run_one(flexible));
    });
    let comparison = QuotaComparison {
        rounds: comparison_rounds,
        sync_simulated_makespan_s: sync_makespan,
        flexible_simulated_makespan_s: flexible_makespan,
        makespan_speedup: sync_makespan / flexible_makespan,
        sync_rounds_per_sec: comparison_rounds as f64 / sync_wall,
        flexible_rounds_per_sec: comparison_rounds as f64 / flexible_wall,
    };
    eprintln!(
        "  simulated makespan: sync-wait {:.2}s | flexible-quota {:.2}s | {:.2}x \
         (wall-clock {:.1} vs {:.1} rounds/s)",
        comparison.sync_simulated_makespan_s,
        comparison.flexible_simulated_makespan_s,
        comparison.makespan_speedup,
        comparison.sync_rounds_per_sec,
        comparison.flexible_rounds_per_sec,
    );

    Pr5Report {
        description: "Event-driven engine: quota/latency/churn grid through SweepRunner \
                      (parallel == serial asserted) and synchronous-wait vs flexible-quota \
                      simulated makespan on a heterogeneous straggler population, same \
                      process/machine"
            .to_string(),
        grid_cells: grid.len(),
        rounds_per_cell: rounds,
        threads: par::max_threads(),
        serial_scenarios_per_sec: serial_rate,
        parallel_scenarios_per_sec: parallel_rate,
        speedup: parallel_rate / serial_rate,
        quota_comparison: comparison,
        cells: serial_cells
            .iter()
            .map(|cell| AsyncCellSummary {
                label: cell.label.clone(),
                simulated_makespan_s: simulated_makespan(&cell.result),
                mean_round_delay_s: cell.result.mean_delay(),
                stale_included: cell.result.outcomes.iter().map(|o| o.stale_included).sum(),
                final_accuracy: cell.result.final_accuracy().unwrap_or(0.0),
            })
            .collect(),
    }
}

// ---------------------------------------------------------------------------
// Fault injection: the resilience curve (PR 6 metrics).
// ---------------------------------------------------------------------------

/// One point of the resilience curve: what a loss-rate × partition cell
/// costs in accuracy, simulated time, and delivered uploads.
#[derive(Debug, Clone, Serialize)]
struct FaultCellSummary {
    label: String,
    final_accuracy: f64,
    simulated_makespan_s: f64,
    mean_round_delay_s: f64,
    /// Uploads that entered aggregations across the run — what survived
    /// the drops, crashes, and strandings.
    total_participants: usize,
    /// Stale uploads carried into blocks (salvaged orphans included).
    stale_included: usize,
    /// Total simulated seconds spent resolving partition-driven forks.
    fork_resolution_s: f64,
}

#[derive(Debug, Clone, Serialize)]
struct Pr6Report {
    description: String,
    grid_cells: usize,
    rounds_per_cell: usize,
    threads: usize,
    serial_scenarios_per_sec: f64,
    parallel_scenarios_per_sec: f64,
    speedup: f64,
    /// The resilience curve, one row per loss-rate × partition cell; the
    /// `drop-00/joined` row is the fault-free baseline.
    cells: Vec<FaultCellSummary>,
}

fn pr6_section(data: &(Dataset, Dataset), reps: usize, rounds: usize) -> Pr6Report {
    use bfl_bench::experiments::fault_grid;

    let grid = fault_grid(Scale::Smoke, rounds);
    let serial_runner = SweepRunner::with_threads(1);
    let parallel_runner = SweepRunner::new();

    eprintln!(
        "running the {}-cell loss x partition fault grid across thread counts...",
        grid.len()
    );
    // The determinism gate under *active* faults: drop coins, retry
    // jitter, and fork healing must replay identically no matter how the
    // sweep is parallelized — the fault stream is per-run, so thread
    // count cannot leak into the coin-flips.
    let serial_cells = serial_runner
        .run(&grid, &data.0, &data.1)
        .expect("every fault grid cell completes serially");
    assert_eq!(serial_cells.len(), grid.len());
    for threads in [0usize, 2] {
        let cells = SweepRunner::with_threads(threads)
            .run(&grid, &data.0, &data.1)
            .expect("every fault grid cell completes in parallel");
        for (a, b) in serial_cells.iter().zip(cells.iter()) {
            assert_eq!(a.label, b.label, "sweep order is stable");
            assert_eq!(
                a.result.history, b.result.history,
                "faulted cell `{}` must not depend on sweep parallelism",
                a.label
            );
            assert_eq!(a.result.final_params, b.result.final_params);
            assert_eq!(a.result.reward_totals, b.result.reward_totals);
        }
    }

    eprintln!("measuring fault sweep throughput ({reps} reps per runner)...");
    let cells_per_run = grid.len() as f64;
    let serial_rate = rate(cells_per_run, reps, || {
        black_box(serial_runner.run(&grid, &data.0, &data.1).expect("sweep"));
    });
    let parallel_rate = rate(cells_per_run, reps, || {
        black_box(parallel_runner.run(&grid, &data.0, &data.1).expect("sweep"));
    });
    let threads = par::max_threads();
    eprintln!(
        "  serial {serial_rate:>8.2} scenarios/s | parallel {parallel_rate:>8.2} scenarios/s \
         ({threads} threads) | {:.2}x",
        parallel_rate / serial_rate
    );

    let cells: Vec<FaultCellSummary> = serial_cells
        .iter()
        .map(|cell| FaultCellSummary {
            label: cell.label.clone(),
            final_accuracy: cell.result.final_accuracy().unwrap_or(0.0),
            simulated_makespan_s: simulated_makespan(&cell.result),
            mean_round_delay_s: cell.result.mean_delay(),
            total_participants: cell.result.outcomes.iter().map(|o| o.participants).sum(),
            stale_included: cell.result.outcomes.iter().map(|o| o.stale_included).sum(),
            fork_resolution_s: cell
                .result
                .outcomes
                .iter()
                .map(|o| o.breakdown.t_fork)
                .sum(),
        })
        .collect();
    for cell in &cells {
        eprintln!(
            "  {:<20} acc {:.3} | makespan {:>6.2}s | delivered {:>3} | stale {:>2} | \
             t_fork {:>5.2}s",
            cell.label,
            cell.final_accuracy,
            cell.simulated_makespan_s,
            cell.total_participants,
            cell.stale_included,
            cell.fork_resolution_s,
        );
    }
    // The curve must actually bend: faults cost delivered uploads
    // relative to the fault-free baseline, and partition cells pay fork
    // resolution time.
    let baseline = cells
        .iter()
        .find(|c| c.label == "drop-00/joined")
        .expect("the fault-free corner is part of the grid");
    assert!(
        cells
            .iter()
            .filter(|c| c.label != baseline.label)
            .any(
                |c| c.total_participants < baseline.total_participants || c.fork_resolution_s > 0.0
            ),
        "active faults must leave a measurable mark on the curve"
    );

    Pr6Report {
        description: "Fault injection: loss-rate x partition grid through SweepRunner \
                      (bit-identical across thread counts asserted while faults are active), \
                      with the per-cell resilience curve — accuracy, simulated makespan, \
                      delivered uploads, salvaged stale carry-over, and fork resolution time, \
                      same process/machine"
            .to_string(),
        grid_cells: grid.len(),
        rounds_per_cell: rounds,
        threads,
        serial_scenarios_per_sec: serial_rate,
        parallel_scenarios_per_sec: parallel_rate,
        speedup: parallel_rate / serial_rate,
        cells,
    }
}

/// One rung of the population ladder: a full run of one configuration
/// with its wall-clock and heap high-water.
#[derive(Debug, Clone, Serialize)]
struct PopulationCell {
    label: String,
    population: usize,
    participants_per_round: usize,
    rounds: usize,
    signed: bool,
    final_accuracy: f64,
    wall_seconds: f64,
    rounds_per_sec: f64,
    peak_heap_mib: f64,
}

#[derive(Debug, Clone, Serialize)]
struct Pr7Report {
    description: String,
    chunk: usize,
    /// Heap high-water of the 1M-population cell over the 10k-population
    /// cell at identical participants per round — the flatness claim.
    peak_ratio_million_over_tenk: f64,
    /// Wall-clock of the signed 1M-population cell over the signed
    /// 10k-population cell (lazy keygen tracks participants).
    signed_wall_ratio_million_over_tenk: f64,
    cells: Vec<PopulationCell>,
}

/// Runs one population-ladder configuration to completion, bracketed by
/// the counting allocator's peak reset.
fn run_population_cell(
    label: &str,
    config: BflConfig,
    data: &(Dataset, Dataset),
    signed: bool,
) -> PopulationCell {
    let population = config.fl.clients;
    let participants = config.fl.selected_per_round();
    let rounds = config.fl.rounds;
    let scenario = Scenario::from_config(config).expect("population cell is valid");
    ALLOC.reset_peak();
    let start = Instant::now();
    let result = scenario
        .run(&data.0, &data.1)
        .expect("population cell completes");
    let wall_seconds = start.elapsed().as_secs_f64();
    let peak_heap_mib = ALLOC.peak_bytes() as f64 / (1024.0 * 1024.0);
    let cell = PopulationCell {
        label: label.to_string(),
        population,
        participants_per_round: participants,
        rounds,
        signed,
        final_accuracy: result.final_accuracy().unwrap_or(0.0),
        wall_seconds,
        rounds_per_sec: rounds as f64 / wall_seconds,
        peak_heap_mib,
    };
    eprintln!(
        "  {:<22} pop {:>9} | {:>5} participants | acc {:.3} | {:>7.2}s | peak {:>8.1} MiB",
        cell.label,
        cell.population,
        cell.participants_per_round,
        cell.final_accuracy,
        cell.wall_seconds,
        cell.peak_heap_mib,
    );
    cell
}

/// The PR 7 population ladder. `participants` is the per-round working
/// set of the headline cells; the 1M-population rung must stay within
/// 1.5× of the 10k-population rung's heap high-water.
fn pr7_section(
    data: &(Dataset, Dataset),
    participants: usize,
    rounds: usize,
    chunk: usize,
) -> Pr7Report {
    eprintln!("running the population ladder ({participants} participants per round)...");

    // Context rungs at a shape the materialized path can afford: the
    // PR 4–6-style eager/materialized round against lazy/streaming at the
    // same population and participants, so the report shows what the
    // restructure buys before population even grows.
    let shape = participants.min(1_000);
    let mut eager = population_scale_config(10_000, shape, rounds, chunk);
    eager.provisioning = ProvisioningMode::Eager;
    eager.aggregation = AggregationMode::Materialized;
    let streaming_small = population_scale_config(10_000, shape, rounds, chunk);

    // The headline pair: identical participants, population ×100.
    let tenk = population_scale_config(10_000.max(participants), participants, rounds, chunk);
    let million = population_scale_config(1_000_000, participants, rounds, chunk);

    // The signed companion pair: RSA on, keys derived lazily at admission.
    let signed_participants = 128.min(participants);
    let signed_tenk = population_signed_config(10_000, signed_participants, 1);
    let signed_million = population_signed_config(1_000_000, signed_participants, 1);

    let cells = vec![
        run_population_cell("eager-materialized", eager, data, false),
        run_population_cell("lazy-streaming", streaming_small, data, false),
        run_population_cell("pop-10k", tenk, data, false),
        run_population_cell("pop-1m", million, data, false),
        run_population_cell("signed-pop-10k", signed_tenk, data, true),
        run_population_cell("signed-pop-1m", signed_million, data, true),
    ];

    let peak_of = |label: &str| {
        cells
            .iter()
            .find(|c| c.label == label)
            .expect("ladder rung present")
    };
    let peak_ratio = peak_of("pop-1m").peak_heap_mib / peak_of("pop-10k").peak_heap_mib;
    let signed_wall_ratio =
        peak_of("signed-pop-1m").wall_seconds / peak_of("signed-pop-10k").wall_seconds;
    eprintln!(
        "  peak ratio 1M/10k {peak_ratio:.2} | signed wall ratio 1M/10k {signed_wall_ratio:.2}"
    );
    // The tentpole claim: per-round cost tracks participants, not
    // population. A population ×100 must not move the heap high-water by
    // more than allocator noise.
    assert!(
        peak_ratio <= 1.5,
        "1M-population heap high-water must stay within 1.5x of the 10k-population cell \
         (got {peak_ratio:.2}x)"
    );

    Pr7Report {
        description: "Population-scale rounds: implicit population with lazy O(participants) \
                      provisioning and streaming chunked Procedure-IV aggregation on the event \
                      engine, heap high-water per cell from the counting global allocator; \
                      eager/materialized context rung at the same shape, headline pair at \
                      identical participants with population x100, signed companion pair with \
                      lazy keygen, same process/machine"
            .to_string(),
        chunk,
        peak_ratio_million_over_tenk: peak_ratio,
        signed_wall_ratio_million_over_tenk: signed_wall_ratio,
        cells,
    }
}

// ---------------------------------------------------------------------------
// PR 8: batched RSA verification, lane-sharded drains, scaling curves.
// ---------------------------------------------------------------------------

/// Batched screen-then-confirm verification vs the per-upload loop, on
/// the same accept/reject mix.
#[derive(Debug, Clone, Serialize)]
struct BatchVerifyBench {
    uploads: usize,
    modulus_bits: usize,
    distinct_keys: usize,
    corrupted: usize,
    per_upload_verifies_per_sec: f64,
    batched_verifies_per_sec: f64,
    speedup: f64,
}

/// Event-drain throughput of the sharded queue against a single global
/// heap, on a commission-wave-shaped stream.
#[derive(Debug, Clone, Serialize)]
struct LaneDrainBench {
    events: usize,
    lanes: usize,
    global_heap_events_per_sec: f64,
    lane_batch_events_per_sec: f64,
    parallel_drain_events_per_sec: f64,
    batch_speedup_over_global: f64,
}

/// One thread-count row of the scaling table. Every cell asserts
/// parallel == serial bit-identity before its timer starts.
#[derive(Debug, Clone, Serialize)]
struct ScalingRow {
    threads: usize,
    sweep_scenarios_per_sec: f64,
    upload_fanout_uploads_per_sec: f64,
    mining_hashes_per_sec: f64,
    lane_drain_events_per_sec: f64,
}

#[derive(Debug, Clone, Serialize)]
struct Pr8Report {
    description: String,
    host_threads: usize,
    batched_verify: BatchVerifyBench,
    lane_drain: LaneDrainBench,
    scaling: Vec<ScalingRow>,
}

/// A 1k-upload (full scale) round's signature checks, per-upload vs
/// batched. The mix includes corrupted envelopes so the equality assert
/// covers both verdicts.
fn batched_verify_bench(uploads: usize, reps: usize) -> BatchVerifyBench {
    use bfl_crypto::{BatchVerifier, KeyStore};

    let modulus_bits = 256;
    let distinct_keys = 16.min(uploads.max(1));
    let mut store = KeyStore::new();
    let mut rng = StdRng::seed_from_u64(0xB8_2026);
    let ids: Vec<u64> = (0..distinct_keys as u64).collect();
    let pairs = store
        .provision(&mut rng, &ids, modulus_bits)
        .expect("bench keys provision");

    let mut messages: Vec<SignedMessage> = (0..uploads)
        .map(|i| {
            let id = (i % distinct_keys) as u64;
            let payload = format!("round upload {i}").into_bytes();
            sign_message(id, &payload, &pairs[&id].private)
        })
        .collect();
    // Corrupt every 17th upload so the round is a genuine accept/reject mix.
    let mut corrupted = 0;
    for message in messages.iter_mut().step_by(17).skip(1) {
        message.payload[0] ^= 0x5A;
        corrupted += 1;
    }

    let per_upload: Vec<bool> = messages.iter().map(|m| store.verify(m).is_ok()).collect();
    let refs: Vec<&SignedMessage> = messages.iter().collect();
    let mut verifier = BatchVerifier::new();
    let batched: Vec<bool> = store
        .verify_batch(&refs, &mut verifier)
        .into_iter()
        .map(|v| v.is_ok())
        .collect();
    assert_eq!(
        per_upload, batched,
        "batched verification must reach the per-upload verdicts exactly"
    );
    assert!(per_upload.iter().filter(|ok| !**ok).count() >= corrupted);

    let per_upload_rate = rate(uploads as f64, reps, || {
        for message in &messages {
            black_box(store.verify(message).is_ok());
        }
    });
    let batched_rate = rate(uploads as f64, reps, || {
        let mut verifier = BatchVerifier::new();
        black_box(store.verify_batch(&refs, &mut verifier));
    });
    let bench = BatchVerifyBench {
        uploads,
        modulus_bits,
        distinct_keys,
        corrupted,
        per_upload_verifies_per_sec: per_upload_rate,
        batched_verifies_per_sec: batched_rate,
        speedup: batched_rate / per_upload_rate,
    };
    eprintln!(
        "  batched-verify {uploads} uploads: per-upload {per_upload_rate:>9.0}/s | batched \
         {batched_rate:>9.0}/s | {:.2}x",
        bench.speedup
    );
    bench
}

/// Synthesizes a commission-wave event stream shaped like a
/// 10k-participant flexible round: one big zero-delay wave per round
/// plus spread arrivals.
fn commission_wave(events: usize) -> Vec<(f64, u64)> {
    (0..events as u64)
        .map(|i| {
            let round = i / 2_048;
            let jitter = (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) % 97;
            // Half of each round's events land exactly on the round start
            // (the commission wave); the rest spread over the round.
            let time = if i % 2 == 0 {
                round as f64 * 30.0
            } else {
                round as f64 * 30.0 + jitter as f64 * 0.25
            };
            (time, i)
        })
        .collect()
}

/// Global-heap vs lane-sharded vs parallel lane drains, order-identity
/// asserted between all three before timing.
fn lane_drain_bench(events: usize, reps: usize) -> LaneDrainBench {
    use bfl_net::{merge_runs, EventQueue, DEFAULT_LANES};

    let pushes = commission_wave(events);
    let fill = |lanes: usize| {
        let mut q = EventQueue::with_lanes(lanes);
        for &(t, p) in &pushes {
            q.push(t, p);
        }
        q
    };
    let drain_pop = |mut q: EventQueue<u64>| {
        let mut order = Vec::with_capacity(events);
        while let Some(e) = q.pop() {
            order.push((e.time_s, e.seq, e.payload));
        }
        order
    };

    // Order identity across all three drain strategies.
    let global_order = drain_pop(fill(1));
    let sharded_order = drain_pop(fill(DEFAULT_LANES));
    assert_eq!(global_order, sharded_order, "sharding is invisible to pops");
    let mut batch_order = Vec::with_capacity(events);
    {
        let mut q = fill(DEFAULT_LANES);
        let mut buf = Vec::new();
        while q.pop_due_batch(&mut buf) > 0 {
            batch_order.extend(buf.drain(..).map(|e| (e.time_s, e.seq, e.payload)));
        }
    }
    assert_eq!(global_order, batch_order, "due batches preserve pop order");
    let merged: Vec<(f64, u64, u64)> = merge_runs(fill(DEFAULT_LANES).into_lane_runs_parallel(4))
        .into_iter()
        .map(|e| (e.time_s, e.seq, e.payload))
        .collect();
    assert_eq!(
        global_order, merged,
        "parallel lane drains merge identically"
    );

    let global_rate = rate(events as f64, reps, || {
        black_box(drain_pop(fill(1)));
    });
    let batch_rate = rate(events as f64, reps, || {
        let mut q = fill(DEFAULT_LANES);
        let mut buf = Vec::new();
        while q.pop_due_batch(&mut buf) > 0 {
            black_box(buf.len());
            buf.clear();
        }
    });
    let parallel_rate = rate(events as f64, reps, || {
        black_box(merge_runs(
            fill(DEFAULT_LANES).into_lane_runs_parallel(par::max_threads()),
        ));
    });
    let bench = LaneDrainBench {
        events,
        lanes: DEFAULT_LANES,
        global_heap_events_per_sec: global_rate,
        lane_batch_events_per_sec: batch_rate,
        parallel_drain_events_per_sec: parallel_rate,
        batch_speedup_over_global: batch_rate / global_rate,
    };
    eprintln!(
        "  lane-drain {events} events: global {global_rate:>10.0}/s | batched lanes \
         {batch_rate:>10.0}/s | parallel {parallel_rate:>10.0}/s | {:.2}x",
        bench.batch_speedup_over_global
    );
    bench
}

/// One scaling row: sweep, Procedure-II fan-out, mining, and lane drain
/// at an explicit thread count, each cell asserted bit-identical to its
/// serial twin before its timer starts.
fn scaling_row(
    data: &(Dataset, Dataset),
    threads: usize,
    reps: usize,
    rounds: usize,
    uploads: usize,
    events: usize,
) -> ScalingRow {
    use bfl_chain::{Block, Miner, PowConfig};
    use bfl_core::procedures::upload::upload_gradients;
    use bfl_crypto::KeyStore;
    use bfl_fl::client::LocalUpdate;
    use bfl_ml::optimizer::LocalTrainingStats;
    use bfl_net::{merge_runs, EventQueue, Topology, DEFAULT_LANES};

    // Sweep cell.
    let grid = scenario_grid(Scale::Smoke, rounds);
    let serial_cells = SweepRunner::with_threads(1)
        .run(&grid, &data.0, &data.1)
        .expect("serial sweep completes");
    let runner = SweepRunner::with_threads(threads);
    let cells = runner
        .run(&grid, &data.0, &data.1)
        .expect("threaded sweep completes");
    for (a, b) in serial_cells.iter().zip(cells.iter()) {
        assert_eq!(a.label, b.label);
        assert_eq!(a.result.history, b.result.history, "threads={threads}");
        assert_eq!(a.result.final_params, b.result.final_params);
        assert_eq!(a.result.reward_totals, b.result.reward_totals);
    }
    let sweep_rate = rate(grid.len() as f64, reps, || {
        black_box(runner.run(&grid, &data.0, &data.1).expect("sweep"));
    });

    // Procedure-II fan-out cell: sign + verify a round of uploads through
    // `upload_gradients` under the scoped thread limit.
    let mut store = KeyStore::new();
    let mut rng = StdRng::seed_from_u64(0x9A11);
    let ids: Vec<u64> = (0..uploads as u64).collect();
    let pairs = store
        .provision(&mut rng, &ids, 192)
        .expect("fan-out keys provision");
    let updates: Vec<LocalUpdate> = ids
        .iter()
        .map(|&id| LocalUpdate {
            client_id: id,
            params: vec![id as f64, 0.5, -0.5, 1.0],
            forged: false,
            stats: LocalTrainingStats {
                steps: 1,
                final_epoch_loss: 0.1,
                update_norm: 1.0,
            },
        })
        .collect();
    let topology = Topology::new(uploads.max(1), 3);
    let run_fanout = |limit: usize| {
        par::with_thread_limit(limit, || {
            let mut rng = StdRng::seed_from_u64(0xFA0);
            upload_gradients(&updates, &topology, Some(&pairs), Some(&store), &mut rng)
        })
    };
    let serial_outcome = run_fanout(1);
    let outcome = run_fanout(threads);
    assert_eq!(
        serial_outcome.per_miner, outcome.per_miner,
        "Procedure-II fan-out must be bit-identical at threads={threads}"
    );
    assert_eq!(serial_outcome.rejected, outcome.rejected);
    let fanout_rate = rate(uploads as f64, reps, || {
        black_box(run_fanout(threads));
    });

    // Mining cell: the deterministic parallel nonce search must seal the
    // identical block at every worker count.
    let miner = Miner::new(1, 1_000.0);
    let genesis = Block::genesis();
    let budget = 1 << 16;
    let mine = |workers: usize| {
        let config = PowConfig::new(512).with_mining_threads(workers);
        let mut candidate = Block::candidate(&genesis, vec![], 99, 1 << 18, miner.id);
        let hashes = miner.mine_block(&mut candidate, &config, budget);
        (hashes, candidate.header.nonce)
    };
    let (serial_hashes, serial_nonce) = mine(1);
    let (hashes, nonce) = mine(threads);
    assert_eq!(serial_nonce, nonce, "mining must seal the same nonce");
    assert_eq!(serial_hashes, hashes);
    let spent = serial_hashes.expect("budget finds a proof at this difficulty") as f64;
    let mining_rate = rate(spent, reps, || {
        black_box(mine(threads));
    });

    // Lane-drain cell.
    let pushes = commission_wave(events);
    let fill = || {
        let mut q = EventQueue::with_lanes(DEFAULT_LANES);
        for &(t, p) in &pushes {
            q.push(t, p);
        }
        q
    };
    let serial_runs = fill().into_lane_runs();
    assert_eq!(
        fill().into_lane_runs_parallel(threads),
        serial_runs,
        "lane drains must be bit-identical at threads={threads}"
    );
    let drain_rate = rate(events as f64, reps, || {
        black_box(merge_runs(fill().into_lane_runs_parallel(threads)));
    });

    let row = ScalingRow {
        threads,
        sweep_scenarios_per_sec: sweep_rate,
        upload_fanout_uploads_per_sec: fanout_rate,
        mining_hashes_per_sec: mining_rate,
        lane_drain_events_per_sec: drain_rate,
    };
    eprintln!(
        "  threads {threads}: sweep {sweep_rate:>7.2}/s | proc-II {fanout_rate:>8.0}/s | \
         mining {mining_rate:>9.0} H/s | lane-drain {drain_rate:>10.0}/s"
    );
    row
}

/// The PR 8 speed-tier section: batched verification, sharded event
/// drains, and the per-thread-count scaling table.
fn pr8_section(
    data: &(Dataset, Dataset),
    reps: usize,
    rounds: usize,
    uploads: usize,
    events: usize,
) -> Pr8Report {
    eprintln!("measuring batched RSA verification ({uploads} uploads)...");
    let batched_verify = batched_verify_bench(uploads, reps);
    eprintln!("measuring event-lane drains ({events} events)...");
    let lane_drain = lane_drain_bench(events, reps);
    eprintln!("running the thread-count scaling table...");
    let scaling: Vec<ScalingRow> = [1usize, 2, 4, 8]
        .iter()
        .map(|&threads| {
            par::with_thread_limit(threads, || {
                scaling_row(data, threads, reps, rounds, 64.min(uploads), events)
            })
        })
        .collect();

    Pr8Report {
        description: "Next speed tier: batched screen-then-confirm RSA verification over a \
                      shared Montgomery workspace vs the per-upload loop (decisions asserted \
                      identical), lane-sharded event queue drains vs the global heap (pop order \
                      asserted identical), and sweep / Procedure-II / mining / lane-drain \
                      fan-outs at thread counts {1,2,4,8} with parallel == serial bit-identity \
                      asserted per cell, same process/machine"
            .to_string(),
        host_threads: par::max_threads(),
        batched_verify,
        lane_drain,
        scaling,
    }
}

// ---------------------------------------------------------------------------
// SIMD compute tier + allocation-free steady state (PR 10 metrics).
// ---------------------------------------------------------------------------

/// Scalar-tier vs SIMD-tier rates for one workload. Both tiers run on the
/// batched engine; `bfl_ml::simd::set_enabled` picks the tier, exactly as
/// the `BFL_SIMD` environment override does.
#[derive(Debug, Clone, Serialize)]
struct TierPair {
    scalar: f64,
    simd: f64,
    speedup: f64,
}

impl TierPair {
    fn from_rates(simd: f64, scalar: f64) -> Self {
        TierPair {
            scalar,
            simd,
            speedup: simd / scalar,
        }
    }
}

/// One dispatched kernel at one representative shape, both tiers.
#[derive(Debug, Clone, Serialize)]
struct KernelRow {
    kernel: String,
    scalar_calls_per_sec: f64,
    simd_calls_per_sec: f64,
    speedup: f64,
}

/// The steady-state allocation contract of the flexible engine, measured
/// in-process with the counting allocator.
#[derive(Debug, Clone, Serialize)]
struct SteadyAllocReport {
    warmup_rounds: usize,
    measured_rounds: usize,
    /// Largest per-round net live-byte growth over the measured window
    /// (asserted zero).
    max_net_bytes_per_round: isize,
    /// Largest per-round net live-block growth (asserted zero).
    max_net_blocks_per_round: isize,
    /// Mean allocation events per measured round — transient churn the
    /// net-zero contract permits.
    mean_allocation_events_per_round: f64,
}

#[derive(Debug, Clone, Serialize)]
struct Pr10Report {
    description: String,
    simd_hardware_supported: bool,
    /// True when the build already had AVX2 in the compiler baseline
    /// (`target-cpu=native` on an AVX2 host): the "scalar" tier is then
    /// autovectorized and the hand tier's margin is structural only. On
    /// portable builds (`RUSTFLAGS=""`) the same hand tier measures
    /// 16-42x on the kernels and >15x on both composites, because the
    /// portable scalar baseline cannot assume FMA.
    avx2_in_compiler_baseline: bool,
    kernels: Vec<KernelRow>,
    local_sgd_samples_per_sec: TierPair,
    eval_samples_per_sec: TierPair,
    signed_fullbfl_rounds_per_sec: TierPair,
    fullbfl_crypto_share_scalar_tier: CryptoShare,
    fullbfl_crypto_share_simd_tier: CryptoShare,
    steady_state_alloc: SteadyAllocReport,
}

/// Deterministic synthetic operands for the kernel rows.
fn lcg_fill(n: usize, seed: u64) -> Vec<f64> {
    let mut s = seed | 1;
    (0..n)
        .map(|_| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        })
        .collect()
}

/// Times one dispatched kernel under both tiers, asserting SIMD == scalar
/// bit-for-bit on fresh zeroed outputs *before* any timing.
fn kernel_row(
    name: &str,
    reps: usize,
    iters: usize,
    out_len: usize,
    mut call: impl FnMut(&mut [f64]),
) -> KernelRow {
    let mut simd_out = vec![0.0; out_len];
    let mut scalar_out = vec![0.0; out_len];
    simd::set_enabled(true);
    call(&mut simd_out);
    simd::set_enabled(false);
    call(&mut scalar_out);
    assert!(
        scalar_out
            .iter()
            .zip(&simd_out)
            .all(|(s, v)| s.to_bits() == v.to_bits()),
        "SIMD tier diverged from the scalar kernel on {name}"
    );
    // Timing reuses one buffer; accumulating kernels grow its values,
    // which changes no instruction counts.
    let mut buf = vec![0.0; out_len];
    simd::set_enabled(true);
    let simd_rate = rate(iters as f64, reps, || {
        for _ in 0..iters {
            call(black_box(&mut buf));
        }
    });
    simd::set_enabled(false);
    let scalar_rate = rate(iters as f64, reps, || {
        for _ in 0..iters {
            call(black_box(&mut buf));
        }
    });
    let row = KernelRow {
        kernel: name.to_string(),
        scalar_calls_per_sec: scalar_rate,
        simd_calls_per_sec: simd_rate,
        speedup: simd_rate / scalar_rate,
    };
    eprintln!(
        "  {name}: scalar {:>10.0}/s | simd {:>10.0}/s | {:.2}x",
        row.scalar_calls_per_sec, row.simd_calls_per_sec, row.speedup
    );
    row
}

/// Digest of everything a run's observers read — per-round accuracy and
/// loss bits, block hashes, final parameters — for the cross-tier
/// equivalence assertion.
fn tier_digest(data: &(Dataset, Dataset), config: BflConfig) -> String {
    let result = BflSimulation::new(config)
        .run(&data.0, &data.1)
        .expect("equivalence run completes");
    let mut canon = String::new();
    for r in &result.history.rounds {
        canon.push_str(&format!(
            "{} {:016x} {:016x}\n",
            r.round,
            r.accuracy.to_bits(),
            r.train_loss.to_bits()
        ));
    }
    if let Some(chain) = &result.chain {
        for block in chain.iter() {
            canon.push_str(&block.hash_hex());
        }
    }
    for p in &result.final_params {
        canon.push_str(&format!("{:016x}", p.to_bits()));
    }
    sha256(canon.as_bytes())
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

/// A reward policy that pays nobody, so retained per-round reward lists
/// stay empty (an empty `Vec` never touches the heap) and the allocation
/// bracket isolates the engine itself.
struct NoReward;

impl bfl_core::RewardPolicy for NoReward {
    fn round_rewards(&self, _round: usize, _scores: &[(u64, f64)]) -> Vec<bfl_core::RewardEntry> {
        Vec::new()
    }
}

/// Brackets warmed-up flexible rounds with the counting allocator and
/// asserts each leaves zero net bytes and blocks behind (the same
/// contract `crates/bench/tests/steady_state_alloc.rs` pins; here it
/// additionally reports the permitted transient churn).
fn steady_state_alloc_report(data: &(Dataset, Dataset)) -> SteadyAllocReport {
    const WARMUP_ROUNDS: usize = 48;
    const MEASURED_ROUNDS: usize = 8;
    let scenario = Scenario::builder()
        .clients(16)
        .miners(2)
        .rounds(WARMUP_ROUNDS + MEASURED_ROUNDS)
        .participation_ratio(0.5)
        .partition(PartitionKind::Iid)
        .local_epochs(1)
        .batch_size(10)
        .seed(11)
        .mode(FlexibilityMode::FlOnly)
        .sync(SyncMode::FlexibleQuota { quota: 8 })
        .build()
        .expect("steady-state scenario is valid");
    let mut run = scenario
        .start(&data.0, &data.1)
        .expect("steady-state run provisions")
        .with_reward_policy(Box::new(NoReward));
    for _ in 0..WARMUP_ROUNDS {
        run.step().expect("round succeeds").expect("rounds remain");
    }
    let mut max_bytes = 0isize;
    let mut max_blocks = 0isize;
    let mut events = 0usize;
    for _ in 0..MEASURED_ROUNDS {
        let before = ALLOC.snapshot();
        let outcome = run.step().expect("round succeeds").expect("rounds remain");
        drop(outcome);
        let delta = ALLOC.delta_since(&before);
        assert!(
            delta.is_net_zero(),
            "steady-state flexible round grew the heap: {} net bytes, {} net blocks",
            delta.net_bytes,
            delta.net_blocks
        );
        max_bytes = max_bytes.max(delta.net_bytes);
        max_blocks = max_blocks.max(delta.net_blocks);
        events += delta.allocations;
    }
    SteadyAllocReport {
        warmup_rounds: WARMUP_ROUNDS,
        measured_rounds: MEASURED_ROUNDS,
        max_net_bytes_per_round: max_bytes,
        max_net_blocks_per_round: max_blocks,
        mean_allocation_events_per_round: events as f64 / MEASURED_ROUNDS as f64,
    }
}

/// The PR 10 section: the runtime-dispatched AVX2+FMA kernel tier against
/// the scalar tier (bit-identity asserted before every timed pair, plus a
/// full signed run digested under both tiers), the composite local-SGD /
/// eval / FullBfl workloads, and the flexible engine's steady-state
/// zero-net-allocation contract. `strict_floors` turns on the tracked
/// speedup assertions (the smoke run skips them: one rep on a shared CI
/// box is too noisy to gate on ratios).
fn pr10_section(
    data: &(Dataset, Dataset),
    reps: usize,
    fullbfl_rounds: usize,
    strict_floors: bool,
) -> Pr10Report {
    let hw = simd::hardware_supported();
    let avx2_baseline = cfg!(target_feature = "avx2");
    eprintln!(
        "SIMD tier: hardware {} | compiler baseline {}",
        if hw {
            "AVX2+FMA"
        } else {
            "unsupported (scalar only)"
        },
        if avx2_baseline {
            "already AVX2 (target-cpu=native)"
        } else {
            "portable"
        }
    );

    // Whole-run equivalence before any timing: a signed smoke FAIR run
    // must produce bit-identical history, blocks, and parameters under
    // both tiers.
    let mut eq_config = system_config(SystemLabel::Fair, Scale::Smoke);
    eq_config.fl.rounds = fullbfl_rounds;
    eq_config.verify_signatures = true;
    simd::set_enabled(true);
    let simd_digest = tier_digest(data, eq_config);
    simd::set_enabled(false);
    let scalar_digest = tier_digest(data, eq_config);
    assert_eq!(
        scalar_digest, simd_digest,
        "a signed FullBfl run diverged between the scalar and SIMD tiers"
    );
    eprintln!("  tier equivalence: signed {fullbfl_rounds}-round run digest {scalar_digest}");

    eprintln!("timing dispatched kernels (scalar vs SIMD, identity asserted first)...");
    let k = 784usize;
    let a_eval = lcg_fill(512 * k, 1);
    let w = lcg_fill(10 * k, 2);
    let feats = Matrix::from_vec(100, k, lcg_fill(100 * k, 3));
    let rows_idx: Vec<usize> = (0..10).map(|i| i * 7 % 100).collect();
    let delta = lcg_fill(10 * 10, 4);
    let long_a = lcg_fill(50 * 7850, 5);
    let long_b = lcg_fill(50 * 7850, 6);
    let a_tn = lcg_fill(10 * 64, 7);
    let b_tn = lcg_fill(10 * 784, 8);
    let x_axpy = lcg_fill(7850, 9);

    let kernels = vec![
        kernel_row(
            "gemm_nt 512x784x10 (eval logits)",
            reps,
            20,
            512 * 10,
            |c| tensor::gemm_nt(&a_eval, &w, c, 512, k, 10),
        ),
        kernel_row(
            "gemm_nt_indexed 10x784x10 (minibatch logits)",
            reps,
            2000,
            10 * 10,
            |c| tensor::gemm_nt_indexed(&feats, &rows_idx, &w, c, 10),
        ),
        kernel_row(
            "gemm_tn_indexed 10->10x784 (softmax grad)",
            reps,
            500,
            10 * k,
            |g| tensor::gemm_tn_indexed_overwrite(&delta, &feats, &rows_idx, g, 10),
        ),
        kernel_row(
            "gemm_nt 50x7850x50 (long-row dots)",
            reps,
            10,
            50 * 50,
            |c| tensor::gemm_nt(&long_a, &long_b, c, 50, 7850, 50),
        ),
        kernel_row(
            "gemm_tn 10->64x784 (mlp grad, acc)",
            reps,
            50,
            64 * 784,
            |c| tensor::gemm_tn(&a_tn, &b_tn, c, 10, 64, 784),
        ),
        kernel_row("axpy 7850 (sgd update)", reps, 2000, 7850, |y| {
            tensor::axpy(0.001, &x_axpy, y)
        }),
    ];

    eprintln!("timing composite workloads under both tiers...");
    // Medium-scale training shard and a 10k-row eval set: large enough
    // that kernel throughput, not per-call overhead, is what's timed.
    // Each workload runs once untimed per tier switch so first-touch
    // page faults never land inside a timed bracket, and the best-of
    // count is raised above the CLI floor — composite ratios gate the
    // tracked run, so they get the stable measurement.
    let creps = reps.max(10);
    let ml_train = dataset(Scale::Medium).0;
    simd::set_enabled(false);
    let _ = local_sgd_rate(&ml_train, false, 1);
    let sgd_scalar = local_sgd_rate(&ml_train, false, creps);
    simd::set_enabled(true);
    let _ = local_sgd_rate(&ml_train, false, 1);
    let sgd_simd = local_sgd_rate(&ml_train, false, creps);

    let eval_x = Matrix::from_vec(10_000, k, lcg_fill(10_000 * k, 12));
    let eval_labels: Vec<usize> = (0..10_000).map(|i| (i * 7) % 10).collect();
    let mut eval_rng = StdRng::seed_from_u64(7);
    let eval_model: AnyModel = ModelKind::default_mnist().build(&mut eval_rng);
    let eval_tier = |timed_reps: usize| {
        rate(eval_labels.len() as f64, timed_reps, || {
            black_box(metrics::accuracy(&eval_model, &eval_x, &eval_labels, None));
        })
    };
    simd::set_enabled(false);
    let _ = eval_tier(1);
    let eval_scalar = eval_tier(creps);
    simd::set_enabled(true);
    let _ = eval_tier(1);
    let eval_simd = eval_tier(creps);

    let local_sgd = TierPair::from_rates(sgd_simd, sgd_scalar);
    let eval = TierPair::from_rates(eval_simd, eval_scalar);
    eprintln!(
        "  local SGD {:.0} -> {:.0} samples/s ({:.2}x) | eval {:.0} -> {:.0} samples/s ({:.2}x)",
        local_sgd.scalar, local_sgd.simd, local_sgd.speedup, eval.scalar, eval.simd, eval.speedup
    );

    eprintln!("measuring signed FullBfl rounds/s and crypto share under both tiers...");
    simd::set_enabled(false);
    let (fullbfl_scalar, on_s_scalar) = fullbfl_rate(data, fullbfl_rounds, true, false, reps);
    let (_, off_s_scalar) = fullbfl_rate(data, fullbfl_rounds, false, false, reps);
    simd::set_enabled(true);
    let (fullbfl_simd, on_s_simd) = fullbfl_rate(data, fullbfl_rounds, true, false, reps);
    let (_, off_s_simd) = fullbfl_rate(data, fullbfl_rounds, false, false, reps);
    let fullbfl = TierPair::from_rates(fullbfl_simd, fullbfl_scalar);
    let share_scalar = CryptoShare {
        signatures_on_seconds: on_s_scalar,
        signatures_off_seconds: off_s_scalar,
        crypto_share: (on_s_scalar - off_s_scalar).max(0.0) / on_s_scalar,
    };
    let share_simd = CryptoShare {
        signatures_on_seconds: on_s_simd,
        signatures_off_seconds: off_s_simd,
        crypto_share: (on_s_simd - off_s_simd).max(0.0) / on_s_simd,
    };
    eprintln!(
        "  FullBfl {:.3} -> {:.3} rounds/s ({:.2}x) | crypto share {:.1}% -> {:.1}%",
        fullbfl.scalar,
        fullbfl.simd,
        fullbfl.speedup,
        share_scalar.crypto_share * 100.0,
        share_simd.crypto_share * 100.0
    );

    eprintln!("asserting the steady-state zero-net-allocation contract...");
    let steady = steady_state_alloc_report(data);
    eprintln!(
        "  {} rounds: 0 net bytes/blocks per round, {:.0} transient allocation events/round",
        steady.measured_rounds, steady.mean_allocation_events_per_round
    );

    if hw && strict_floors {
        if avx2_baseline {
            // The scalar tier is itself AVX2-autovectorized under
            // target-cpu=native, so the hand tier's margin here is
            // structural (horizontal-sum ganging, cache tiling); the
            // floors are set under the measured margins with headroom
            // for this host's run-to-run variance. Local SGD gets a
            // no-regression guard rather than a win floor: this binary's
            // thin-LTO partitioning pessimizes the tiny minibatch-logits
            // kernel relative to the ml crate's own binary (where the
            // same workload measures ~1.19x), and the stable structural
            // wins are asserted on the gradient and long-row kernels instead.
            assert!(
                local_sgd.speedup >= 0.95,
                "SIMD local-SGD regressed to {:.2}x against the autovectorized scalar tier",
                local_sgd.speedup
            );
            assert!(
                eval.speedup >= 1.10,
                "SIMD eval fell to {:.2}x over the autovectorized scalar tier",
                eval.speedup
            );
            let grad = &kernels[2];
            assert!(
                grad.speedup >= 1.10,
                "SIMD softmax-grad kernel fell to {:.2}x over the autovectorized scalar tier",
                grad.speedup
            );
            // Algorithm 2's Gram matrices left `gemm_nt` for the triangle
            // kernel in PR 12; this row still times the long-row dot
            // regime both share (Gram timings live in `benchmark/`).
            let long_rows = &kernels[3];
            assert!(
                long_rows.speedup >= 1.25,
                "SIMD long-row kernel fell to {:.2}x over the autovectorized scalar tier",
                long_rows.speedup
            );
        } else {
            // Portable baseline: the ISSUE's >= 1.5x criterion, met with
            // an order-of-magnitude margin (measured >15x) because the
            // portable scalar tier cannot assume FMA.
            assert!(
                local_sgd.speedup >= 1.5 && eval.speedup >= 1.5,
                "SIMD tier under 1.5x on a portable build: sgd {:.2}x, eval {:.2}x",
                local_sgd.speedup,
                eval.speedup
            );
        }
    }
    // Back to the environment-selected tier.
    simd::reset();

    Pr10Report {
        description: "Runtime-dispatched AVX2+FMA kernel tier vs the scalar tier \
                      (bit-identity asserted per kernel and over a full signed run before \
                      timing), composite local-SGD / eval / signed-FullBfl throughput with \
                      the crypto-share shift, and the flexible engine's steady-state \
                      zero-net-allocation-per-round contract, same process/machine. With \
                      AVX2 already in the compiler baseline the scalar tier is \
                      autovectorized and the hand tier's margin is structural; on portable \
                      builds the same tier measures 16-42x per kernel and >15x on both \
                      composites. Caveat: this binary's thin-LTO partitioning pessimizes \
                      the tiny minibatch-logits kernel (the ml crate's own binary measures \
                      ~1.19x local SGD on the identical workload), so local SGD here is a \
                      no-regression guard while the gradient/long-row kernels carry the win \
                      floors."
            .to_string(),
        simd_hardware_supported: hw,
        avx2_in_compiler_baseline: avx2_baseline,
        kernels,
        local_sgd_samples_per_sec: local_sgd,
        eval_samples_per_sec: eval,
        signed_fullbfl_rounds_per_sec: fullbfl,
        fullbfl_crypto_share_scalar_tier: share_scalar,
        fullbfl_crypto_share_simd_tier: share_simd,
        steady_state_alloc: steady,
    }
}

fn main() {
    let args = parse_bench_args(std::env::args().skip(1), 3, "all");
    let reps = args.reps;

    // The tracked full-scale crypto workload; `throughput crypto`,
    // `throughput pr3` and `throughput all` must measure the identical
    // thing. BENCH_PR2.json is a *frozen* record of the PR 2 (32-bit
    // limb) engine and is never rewritten — the current engine's crypto
    // numbers go to BENCH_CRYPTO.json / BENCH_PR3.json.
    let full_crypto_scale = CryptoScale {
        modulus_bits: DEFAULT_MODULUS_BITS,
        sign_messages: 4,
        verify_messages: 16,
        pow_nonces: 200_000,
        fullbfl_rounds: 4,
        reference_keygen_reps: 1,
    };

    let scale = &full_crypto_scale;
    let mut registry = SectionRegistry::new("throughput");
    registry.register("all", move || {
        let ml_data = dataset(Scale::Medium);
        let ml = ml_section(&ml_data, reps);
        let crypto_data = dataset(Scale::Smoke);
        let crypto = crypto_section(&crypto_data, reps, scale);
        let pr3 = pr3_section(&crypto_data, reps, scale, Some(&crypto));
        let pr4 = pr4_section(&crypto_data, reps, 3);
        let pr5 = pr5_section(&crypto_data, reps, 3);
        let pr6 = pr6_section(&crypto_data, reps, 3);
        let pr7 = pr7_section(&crypto_data, 10_000, 2, 128);
        let pr8 = pr8_section(&crypto_data, reps, 2, 1_000, 200_000);
        let pr10 = pr10_section(&crypto_data, reps, 3, true);
        write_report("BENCH_PR1.json", &ml);
        write_report("BENCH_CRYPTO.json", &crypto);
        write_report("BENCH_PR3.json", &pr3);
        write_report("BENCH_PR4.json", &pr4);
        write_report("BENCH_PR5.json", &pr5);
        write_report("BENCH_PR6.json", &pr6);
        write_report("BENCH_PR7.json", &pr7);
        write_report("BENCH_PR8.json", &pr8);
        write_report("BENCH_PR10.json", &pr10);
    });
    registry.register("ml", move || {
        let data = dataset(Scale::Medium);
        write_report("BENCH_PR1.json", &ml_section(&data, reps));
    });
    registry.register("crypto", move || {
        let data = dataset(Scale::Smoke);
        write_report("BENCH_CRYPTO.json", &crypto_section(&data, reps, scale));
    });
    registry.register("pr3", move || {
        let data = dataset(Scale::Smoke);
        write_report("BENCH_PR3.json", &pr3_section(&data, reps, scale, None));
    });
    registry.register("pr4", move || {
        let data = dataset(Scale::Smoke);
        write_report("BENCH_PR4.json", &pr4_section(&data, reps, 3));
    });
    registry.register("pr5", move || {
        let data = dataset(Scale::Smoke);
        write_report("BENCH_PR5.json", &pr5_section(&data, reps, 3));
    });
    registry.register("pr6", move || {
        let data = dataset(Scale::Smoke);
        write_report("BENCH_PR6.json", &pr6_section(&data, reps, 3));
    });
    registry.register("pr7", move || {
        let data = dataset(Scale::Smoke);
        write_report("BENCH_PR7.json", &pr7_section(&data, 10_000, 2, 128));
    });
    registry.register("pr8", move || {
        let data = dataset(Scale::Smoke);
        write_report(
            "BENCH_PR8.json",
            &pr8_section(&data, reps, 2, 1_000, 200_000),
        );
    });
    registry.register("pr10", move || {
        let data = dataset(Scale::Smoke);
        write_report("BENCH_PR10.json", &pr10_section(&data, reps, 3, true));
    });
    registry.register("smoke", move || {
        // Seconds-scale end-to-end exercise of every engine for CI:
        // catches perf-harness breakage, not regressions.
        let data = dataset(Scale::Smoke);
        let scale = CryptoScale {
            modulus_bits: 256,
            sign_messages: 2,
            verify_messages: 4,
            pow_nonces: 20_000,
            fullbfl_rounds: 2,
            reference_keygen_reps: 1,
        };
        let ml = ml_section(&data, reps);
        let crypto = crypto_section(&data, reps, &scale);
        let pr3 = pr3_section(&data, reps, &scale, Some(&crypto));
        let pr4 = pr4_section(&data, reps, 2);
        let pr5 = pr5_section(&data, reps, 2);
        let pr6 = pr6_section(&data, reps, 2);
        // The 1M-client rung rides along at reduced participants and
        // rounds; the flatness assertion inside the section still
        // fires, so CI catches any O(population) regression.
        let pr7 = pr7_section(&data, 256, 1, 64);
        // The PR 8 cell at reduced scale: the bit-identity asserts
        // (batched verdicts, pop order, per-thread-count cells) all
        // still fire, so CI catches determinism regressions cheaply.
        let pr8 = pr8_section(&data, reps, 2, 96, 20_000);
        // The PR 10 cell without the speedup floors (one rep on a shared
        // CI box is too noisy to gate on ratios), but with every
        // bit-identity and zero-net-allocation assertion still firing.
        let pr10 = pr10_section(&data, reps, 2, false);
        let report = SmokeReport {
            description: "CI smoke run at reduced scale; not a tracked measurement".to_string(),
            ml,
            crypto,
            pr3,
            pr4,
            pr5,
            pr6,
            pr7,
            pr8,
            pr10,
        };
        write_report("BENCH_SMOKE.json", &report);
    });
    registry.run(&args.section);
}
