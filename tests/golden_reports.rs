//! Golden report digests: pinned FNV-1a 64 fingerprints of full serving
//! reports (and one flight-recorder stream) across the simulator's decode
//! paths — corpus replay on the pinned deployment, a disaggregated cluster,
//! static SD with optimistic admission and preemption, and adaptive SD on
//! the model-free drafter. `Debug` prints every `f64` in its shortest
//! round-trip form, so an unchanged digest means every field kept its bits.
//!
//! A change that is meant to be output-preserving (a hot-path rewrite, a
//! refactor) must leave these digests alone. A change that alters simulated
//! behaviour on purpose updates them and says why.

use tlt::obs::{install, uninstall, FlightRecorder};
use tlt::{replay_deployment, ServingExperimentConfig, ServingSdPolicy};
use tlt_rollout::{SdManagerConfig, SdMode, SdStrategy};
use tlt_serve::{simulate_disagg, simulate_serving, AutoscaleConfig, DisaggConfig, SloSpec};
use tlt_trace::{record_serving, CorpusPreset, Trace};

/// FNV-1a 64 of a value's `Debug` rendering.
fn digest(value: &impl std::fmt::Debug) -> u64 {
    format!("{value:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

fn corpus_trace(preset: CorpusPreset) -> Trace {
    let path = format!(
        "{}/../../corpus/{}",
        env!("CARGO_MANIFEST_DIR"),
        preset.file_name()
    );
    Trace::read_file(&path).expect("the corpus trace is committed")
}

/// Asserts every `(case, digest)` against its pinned value, reporting all
/// mismatches at once so a deliberate update can be made in one pass.
fn assert_digests(got: &[(&str, u64)], pinned: &[(&str, u64)]) {
    let mismatches: Vec<String> = got
        .iter()
        .zip(pinned)
        .filter(|(g, p)| g != p)
        .map(|((case, g), (_, p))| format!("{case}: got {g:#018x}, pinned {p:#018x}"))
        .collect();
    assert_eq!(got.len(), pinned.len());
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

#[test]
fn corpus_replay_reports_match_their_golden_digests() {
    let got: Vec<(&str, u64)> = CorpusPreset::all()
        .iter()
        .map(|&p| (p.name(), digest(&tlt::run_replay(&corpus_trace(p), 4))))
        .collect();
    assert_digests(
        &got,
        &[
            ("chat", 0xa175_ab62_6c1c_a852),
            ("agentic", 0x9a79_3ff7_16e8_3dab),
            ("batch_rl", 0x8906_b9d3_7479_1594),
            ("bursty_mobile", 0x7581_d704_5f6b_fa00),
        ],
    );
}

#[test]
fn recorded_replay_trace_and_flight_recorder_stream_match_their_golden_digests() {
    // The SD accept bitstream the trace recorder persists and every
    // flight-recorder event (the Chrome trace's only input).
    let arrivals = corpus_trace(CorpusPreset::Chat).arrivals().to_vec();
    install(FlightRecorder::new(1 << 16));
    let (report, trace) = record_serving("golden", 1_000, &replay_deployment(2), &arrivals);
    let events = uninstall().expect("recorder installed").events();
    assert_digests(
        &[
            ("report", digest(&report)),
            ("trace bytes", digest(&trace.to_bytes())),
            ("events", digest(&events)),
        ],
        &[
            ("report", 0xada4_945d_4dab_305a),
            ("trace bytes", 0x3cc6_d402_5855_a998),
            ("events", 0x1e7c_4599_0701_5409),
        ],
    );
}

#[test]
fn disagg_prefix_cluster_report_matches_its_golden_digest() {
    // The 3-prefill + 5-decode cluster of the `disagg_prefix` benchmark
    // workload (prefix-affinity routing, KV migration, autoscaler), over a
    // short horizon.
    let mut load = ServingExperimentConfig::qwen7b_bursty(8, 10.0).with_prefix_share(0.6, 768);
    load.prompt_len_range = (1024, 3072);
    load.slo = SloSpec {
        ttft_s: 2.0,
        tpot_s: 0.010,
    };
    load.horizon_s = 40.0;
    load.seed = 1;
    let mut base = load.serve_config(ServingSdPolicy::Disabled);
    base.kv_memory_fraction = 0.25;
    let autoscale = AutoscaleConfig {
        interval_s: 1.0,
        min_prefill: 1,
        max_prefill: 3,
        min_decode: 1,
        max_decode: 5,
        prefill_queue_high: 4.0,
        prefill_queue_low: 0.5,
        decode_tokens_high: 12_000.0,
        decode_tokens_low: 2_500.0,
        spawn_delay_s: 0.5,
    };
    let config = DisaggConfig::new(base, 3, 5).with_autoscale(autoscale);
    let report = simulate_disagg(config, &load.arrivals());
    assert_digests(
        &[("disagg", digest(&report))],
        &[("disagg", 0xd0f8_67d8_bd13_fb6f)],
    );
}

#[test]
fn static_sd_with_preemption_report_matches_its_golden_digest() {
    // Static SD below a live-load threshold (both decode branches run) on
    // flat-token KV with optimistic admission, so preemption fires.
    let load = ServingExperimentConfig::qwen7b_bursty(1, 16.0);
    let mut config = load
        .serve_config(ServingSdPolicy::Disabled)
        .with_sd_mode(SdMode::Static {
            strategy: SdStrategy::default(),
            threshold: 12,
        })
        .with_preemption();
    config.kv_memory_fraction = 0.195;
    let report = simulate_serving(&config, &load.arrivals());
    assert!(report.replicas.iter().any(|r| r.preemptions > 0));
    assert!(report.mean_sd_fraction() > 0.0 && report.mean_sd_fraction() < 1.0);
    assert_digests(
        &[("static", digest(&report))],
        &[("static", 0x6e9c_2c76_4a4f_4300)],
    );
}

#[test]
fn model_free_adaptive_sd_report_matches_its_golden_digest() {
    // Adaptive SD without a learned drafter: every speculative step takes the
    // model-free acceptance profile. Conservative flat-token admission.
    let load = ServingExperimentConfig::qwen7b_bursty(3, 8.0);
    let config = load
        .serve_config(ServingSdPolicy::Disabled)
        .with_sd_mode(SdMode::Adaptive {
            config: SdManagerConfig {
                learned_drafter_available: false,
                ..SdManagerConfig::default()
            },
        });
    let report = simulate_serving(&config, &load.arrivals());
    assert!(report.mean_sd_fraction() > 0.0);
    assert_digests(
        &[("model_free", digest(&report))],
        &[("model_free", 0xf03e_5918_a526_8ec1)],
    );
}
