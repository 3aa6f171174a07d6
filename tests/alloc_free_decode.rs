//! Asserts the workspace decode path performs **zero heap allocations** in steady
//! state, via a counting global allocator.
//!
//! The first decode step after a prefill may still grow workspace buffers (they
//! are sized lazily); every subsequent step must allocate nothing: embeddings,
//! per-layer temporaries, attention scores, logits, KV appends, and sampling all
//! run out of preallocated memory.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tlt_model::{
    probs_from_logits_into, sample_from_probs, DecodeWorkspace, ModelConfig, SamplingParams, TinyLm,
};

thread_local! {
    /// Per-thread allocation counter: the libtest harness runs tests (and its own
    /// bookkeeping) on several threads at once, so a process-global counter would
    /// pick up unrelated allocations and flake. Const-initialised so reading it
    /// inside the allocator never allocates.
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump_thread_count() {
    // `try_with` tolerates TLS teardown; a missed count there is harmless (the
    // measuring sections only run on live test threads).
    let _ = THREAD_ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump_thread_count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump_thread_count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations performed by the *current* thread so far.
fn allocation_count() -> u64 {
    THREAD_ALLOCATIONS.with(Cell::get)
}

#[test]
fn steady_state_decode_steps_allocate_nothing() {
    let model = TinyLm::new(ModelConfig::tiny(), 42);
    let mut cache = model.new_cache();
    let mut ws = DecodeWorkspace::new(&model.config);
    let prompt = [3u32, 1, 4, 1, 5];
    model.forward_into(&prompt, &mut cache, &mut ws);

    // Warm-up: the first single-token step may still size buffers.
    let _ = model.decode_step(9, &mut cache, &mut ws);

    let before = allocation_count();
    for i in 0..32u32 {
        let logits = model.decode_step(i % 90, &mut cache, &mut ws);
        assert_eq!(logits.rows(), 1);
    }
    let after = allocation_count();
    assert_eq!(
        after - before,
        0,
        "steady-state decode steps must not allocate"
    );
}

#[test]
fn steady_state_sampling_loop_allocates_nothing() {
    // The full vanilla-generation inner loop — decode step, probability
    // conversion into a reused buffer, and sampling — is allocation-free too.
    let model = TinyLm::new(ModelConfig::tiny(), 43);
    let mut cache = model.new_cache();
    let mut ws = DecodeWorkspace::new(&model.config);
    let mut probs = Vec::with_capacity(model.config.vocab_size);
    let mut rng = StdRng::seed_from_u64(7);
    let params = SamplingParams::rollout();
    model.forward_into(&[1, 2, 3], &mut cache, &mut ws);
    let mut next = 5u32;
    // Warm-up step sizes the single-row buffers.
    model.forward_into(&[next], &mut cache, &mut ws);

    let before = allocation_count();
    for _ in 0..32 {
        probs_from_logits_into(ws.logits().row(0), params, &mut probs);
        next = sample_from_probs(&probs, &mut rng) as u32;
        model.forward_into(&[next], &mut cache, &mut ws);
    }
    let after = allocation_count();
    assert_eq!(
        after - before,
        0,
        "the decode-sample loop must not allocate in steady state"
    );
}

#[test]
fn decode_steps_with_model_hooks_enabled_allocate_nothing() {
    // The tlt-obs decode-step hooks are relaxed atomic bumps: enabling them
    // must not introduce a single allocation into the steady-state loop.
    let model = TinyLm::new(ModelConfig::tiny(), 44);
    let mut cache = model.new_cache();
    let mut ws = DecodeWorkspace::new(&model.config);
    model.forward_into(&[3, 1, 4], &mut cache, &mut ws);
    let _ = model.decode_step(9, &mut cache, &mut ws);

    tlt::obs::hooks::reset();
    tlt::obs::hooks::enable();
    let before = allocation_count();
    for i in 0..32u32 {
        let logits = model.decode_step(i % 90, &mut cache, &mut ws);
        assert_eq!(logits.rows(), 1);
    }
    let after = allocation_count();
    tlt::obs::hooks::disable();
    assert_eq!(
        after - before,
        0,
        "decode steps with obs hooks enabled must not allocate"
    );
    assert!(
        tlt::obs::hooks::snapshot().decode_steps >= 32,
        "hooks were enabled but counted nothing"
    );
}

#[test]
fn recording_into_a_warm_flight_recorder_allocates_nothing() {
    use tlt::obs::{record, EventKind, FlightRecorder, ObsEvent, Track, NO_REQ};

    // With no recorder installed on this thread, record() is a single relaxed
    // atomic load and an early return — trivially allocation-free.
    let disabled_event = ObsEvent::instant(0.0, Track::Frontend, EventKind::Decode, NO_REQ);
    let before = allocation_count();
    for _ in 0..64 {
        record(disabled_event);
    }
    let after = allocation_count();
    assert_eq!(after - before, 0, "disabled record() must not allocate");

    // Installed path: each track's ring is preallocated the first time the
    // track is seen, so after one warm-up event per track every subsequent
    // record() — including wraparound past capacity — is allocation-free.
    tlt::obs::install(FlightRecorder::new(16));
    for track in [Track::Frontend, Track::Replica(0), Track::Coordinator] {
        record(ObsEvent::instant(0.0, track, EventKind::Decode, NO_REQ));
    }
    let before = allocation_count();
    for i in 0..128u64 {
        let track = match i % 3 {
            0 => Track::Frontend,
            1 => Track::Replica(0),
            _ => Track::Coordinator,
        };
        record(ObsEvent::instant(i as f64, track, EventKind::Decode, i).with_args(1.0, 2.0));
    }
    let after = allocation_count();
    let recorder = tlt::obs::uninstall().expect("recorder installed above");
    assert_eq!(
        after - before,
        0,
        "record() into warm rings must not allocate, even across wraparound"
    );
    assert_eq!(recorder.recorded(), 3 + 128);
}

/// Sanity check that the counting allocator actually observes allocations (so a
/// zero count above means "no allocations", not "broken instrumentation").
#[test]
fn counting_allocator_observes_allocations() {
    let before = allocation_count();
    let v: Vec<u8> = Vec::with_capacity(4096);
    std::hint::black_box(&v);
    let after = allocation_count();
    assert!(after > before, "allocator instrumentation must count");
    drop(v);
}

#[test]
fn steady_state_streamed_trace_decode_allocates_nothing() {
    // The chunked TLTR reader decodes through a fixed buffer and a fixed
    // prefix ring: after open() (which allocates the buffer and name once),
    // pulling every record of a prefix-heavy trace performs zero allocations —
    // the constant-memory guarantee behind million-request streamed replay.
    use std::io::Cursor;
    use tlt_trace::{Trace, TraceReader};
    use tlt_workload::{generate_arrivals, ArrivalConfig};

    let arrivals = generate_arrivals(&ArrivalConfig::constant(20.0, 20.0, 11).with_prefix(0.6, 96));
    let trace = Trace::from_arrivals("alloc-free", 1_000, &arrivals);
    let bytes = trace.to_bytes();
    let total = arrivals.len();

    // A small capacity forces many shift-and-refill cycles through the
    // measured section; refills reuse the fixed buffer.
    let mut reader = TraceReader::open_with_capacity(Cursor::new(&bytes[..]), 64).expect("opens");

    let before = allocation_count();
    let mut decoded = 0usize;
    while let Some(a) = reader.next_arrival().expect("clean stream") {
        std::hint::black_box(&a);
        decoded += 1;
    }
    let after = allocation_count();
    assert_eq!(decoded, total);
    assert_eq!(
        after - before,
        0,
        "streamed trace decode must not allocate after open()"
    );
}

#[test]
fn steady_state_adaptive_sd_serving_steps_allocate_almost_nothing() {
    // A replica step under adaptive SD reuses everything it touches: the
    // memoised accept length, the running batch, the metrics registry, the
    // tuner's windows and the event heap. Only the per-replica logs grow, by
    // amortised doubling — `sd_accepts` by one byte per SD step here (nothing
    // completes in the measured stretch, so `completed` does not grow).
    use tlt_serve::{DriveOutcome, ServeRequest, ServeSim};

    const MEASURED_STEPS: u64 = 10_000;
    let mut config = tlt::replay_deployment(1);
    config.max_output_tokens = 150_000;
    let mut sim = ServeSim::new(&config);
    // Four long requests keep the live load well under the elastic
    // threshold, so every decode step speculates.
    for id in 0..4u64 {
        sim.offer(ServeRequest {
            id,
            arrival_s: 0.0,
            prompt_len: 512,
            output_len: 150_000,
            prefix_id: 0,
            prefix_len: 0,
        });
    }
    let sd_steps = |sim: &ServeSim| sim.replicas()[0].metrics().sd_steps();
    let mut t = 0.0;
    let mut drive_to = |sim: &mut ServeSim, steps: u64| {
        while sd_steps(sim) < steps {
            t += 1.0;
            assert_eq!(sim.advance_before(t), DriveOutcome::Completed);
        }
    };

    // Warm-up: prefill, the tuner's reward windows and the event heap reach
    // their steady sizes.
    drive_to(&mut sim, 1_000);
    let (sd_before, decode_before) = (sd_steps(&sim), sim.replicas()[0].metrics().decode_steps());
    let before = allocation_count();
    drive_to(&mut sim, sd_before + MEASURED_STEPS);
    let after = allocation_count();
    let replica = &sim.replicas()[0];
    let measured = sd_steps(&sim) - sd_before;
    assert_eq!(
        replica.metrics().decode_steps() - decode_before,
        measured,
        "every measured decode step speculates"
    );
    assert_eq!(
        replica.metrics().completed(),
        0,
        "no request completes in the measured stretch"
    );
    assert!(
        after - before <= 32,
        "{} allocations over {measured} steady-state SD steps",
        after - before
    );
}
