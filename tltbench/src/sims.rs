//! The two serving-simulator workloads.
//!
//! - `replay_stream`: streamed TLTR replay through `ServeSim` on
//!   `tlt::replay_deployment(4)`, the path behind `experiments replay
//!   --stream`. The stream is derived like `tlt_trace::write_derived_trace`
//!   (corpus presets rate-scaled x2, tiles tenant-shuffled and time-shifted)
//!   with the workload seed mixed into every tile's shuffle seed.
//! - `disagg_prefix`: a 3-prefill + 5-decode `ClusterSim` built the way
//!   `tlt::run_disagg_comparison` builds it, under a long bursty load.
//!
//! The untraced runs call `tlt::run_replay_streamed` and
//! `tlt_serve::simulate_disagg`. The traced runs re-drive the same loops
//! through `TraceReader::next_arrival`, `advance_before`, `offer`,
//! `run_until_drained` and `into_report`, and must reproduce the untraced
//! report bit for bit.

use crate::metrics::Values;
use crate::probe::{Layer, Probe};
use crate::{Run, Workload};
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write as _};
use std::path::PathBuf;
use tlt::{ServingExperimentConfig, ServingSdPolicy};
use tlt_serve::{
    AutoscaleConfig, ClusterReport, ClusterSim, DisaggConfig, DriveOutcome, ServeReport,
    ServeRequest, ServeSim, SloSpec,
};
use tlt_trace::{CorpusPreset, Trace, TraceReader, TraceWriter, CORPUS_TICK_NS};
use tlt_workload::RequestArrival;

/// Requests in the derived `replay_stream` trace.
pub const REPLAY_REQUESTS: u64 = 50_000;
/// Replicas of the pinned replay deployment.
pub const REPLAY_REPLICAS: usize = 4;
/// Prefill and decode pool sizes of `disagg_prefix`.
pub const DISAGG_POOLS: (usize, usize) = (3, 5);
/// Mean arrival rate of `disagg_prefix`, requests per simulated second.
pub const DISAGG_MEAN_RPS: f64 = 10.0;
/// Arrival horizon of `disagg_prefix`, simulated seconds.
pub const DISAGG_HORIZON_S: f64 = 3_000.0;

/// The steppable simulators share one drive loop.
trait Sim {
    type Report;
    fn advance_before(&mut self, t: f64) -> DriveOutcome;
    fn offer(&mut self, req: ServeRequest);
    fn run_until_drained(&mut self) -> DriveOutcome;
    fn into_report(self) -> Self::Report;
}

impl Sim for ServeSim {
    type Report = ServeReport;
    fn advance_before(&mut self, t: f64) -> DriveOutcome {
        ServeSim::advance_before(self, t)
    }
    fn offer(&mut self, req: ServeRequest) {
        ServeSim::offer(self, req)
    }
    fn run_until_drained(&mut self) -> DriveOutcome {
        ServeSim::run_until_drained(self)
    }
    fn into_report(self) -> ServeReport {
        ServeSim::into_report(self)
    }
}

impl Sim for ClusterSim {
    type Report = ClusterReport;
    fn advance_before(&mut self, t: f64) -> DriveOutcome {
        ClusterSim::advance_before(self, t)
    }
    fn offer(&mut self, req: ServeRequest) {
        ClusterSim::offer(self, req)
    }
    fn run_until_drained(&mut self) -> DriveOutcome {
        ClusterSim::run_until_drained(self)
    }
    fn into_report(self) -> ClusterReport {
        ClusterSim::into_report(self)
    }
}

fn within_budget(outcome: DriveOutcome) -> Result<(), String> {
    if outcome.budget_exhausted() {
        Err("simulation exhausted its event budget".to_string())
    } else {
        Ok(())
    }
}

/// The frontends' drive loop (`replay_serving_streamed`, `simulate_disagg`)
/// with every per-arrival call timed into the probe. `next` yields arrival
/// `i` and may time its own decode.
fn drive<S: Sim>(
    mut sim: S,
    probe: &mut Probe,
    items: u64,
    mut next: impl FnMut(&mut Probe, u64) -> Result<Option<RequestArrival>, String>,
) -> Result<S::Report, String> {
    probe.set_items(items);
    let mut i = 0u64;
    while let Some(arrival) = next(probe, i)? {
        let outcome = probe.item(Layer::ServeAdvance, i, || {
            sim.advance_before(arrival.time_s())
        });
        within_budget(outcome)?;
        probe.item(Layer::ServeOffer, i, || {
            sim.offer(ServeRequest::from_arrival(&arrival))
        });
        i += 1;
    }
    within_budget(probe.span(Layer::ServeDrain, None, || sim.run_until_drained()))?;
    Ok(probe.span(Layer::ServeReport, None, || sim.into_report()))
}

/// FNV-1a 64 over text, fed piecewise so a report never has to exist as one
/// string.
struct Fnv(u64);

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}

/// Fingerprint of a report's every field. `Debug` prints each `f64` in its
/// shortest round-trip form, so equal fingerprints mean equal bits; hashing
/// keeps the reference report from doubling the run's memory.
fn fingerprint(report: &impl std::fmt::Debug) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    write!(h, "{report:?}").expect("hashing cannot fail");
    h.0
}

/// Checks a run's report against the first one seen.
fn check_same(reference: &mut Option<u64>, fp: u64) -> Result<(), String> {
    match *reference {
        None => {
            *reference = Some(fp);
            Ok(())
        }
        Some(first) if first == fp => Ok(()),
        Some(_) => {
            Err("report differs from the first run's (traced vs untraced, or run to run)".into())
        }
    }
}

/// Checks that completed plus dropped requests equal those offered.
fn check_conservation(report: &ServeReport, offered: u64) -> Result<u64, String> {
    let finished = (report.completed.len() + report.dropped) as u64;
    if finished != offered {
        return Err(format!(
            "{} completed + {} dropped != {offered} offered",
            report.completed.len(),
            report.dropped
        ));
    }
    Ok(report.dropped as u64)
}

/// Mean accepted tokens per speculative step over the replicas that
/// speculated; 1.0 (one token per target step) when none did.
fn accept_len(report: &ServeReport) -> f64 {
    let sd: Vec<f64> = report
        .replicas
        .iter()
        .filter(|r| r.sd_step_fraction > 0.0)
        .map(|r| r.mean_accept_length)
        .collect();
    if sd.is_empty() {
        1.0
    } else {
        sd.iter().sum::<f64>() / sd.len() as f64
    }
}

fn summarize(report: &ServeReport, offered: u64, wall_s: f64) -> Result<Run, String> {
    let failed = check_conservation(report, offered)?;
    Ok(Run {
        wall_s,
        part_walls: vec![wall_s],
        tokens: report.total_output_tokens,
        requests: offered,
        attempted: offered,
        failed,
        accept_len: accept_len(report),
    })
}

/// Per-layer figures of the serve layer common to both simulators.
fn serve_values(
    report: &ServeReport,
    probe: &Probe,
    offered: u64,
    wall_s: f64,
    values: &mut Values,
) {
    let advance = probe.stats(Layer::ServeAdvance);
    let offer = probe.stats(Layer::ServeOffer);
    let n = offered.max(1) as f64;
    values.set("serve.advance_ns_per_req", advance.all.ns as f64 / n);
    values.set("serve.advance_share", advance.secs() / wall_s);
    values.set("serve.advance_growth", advance.growth());
    values.set("serve.offer_ns_per_req", offer.all.ns as f64 / n);
    values.set("serve.drain_s", probe.stats(Layer::ServeDrain).secs());
    values.set("serve.report_s", probe.stats(Layer::ServeReport).secs());
    values.set("serve.utilization", report.mean_utilization());
    values.set("serve.sd_step_fraction", report.mean_sd_fraction());
    values.set(
        "serve.preemptions",
        report.replicas.iter().map(|r| r.preemptions).sum::<u64>() as f64,
    );
    values.set("serve.prefix_hit_rate", report.mean_prefix_hit_rate());
    values.set("serve.pool_utilization", report.mean_pool_utilization());
    values.set("serve.goodput_rps", report.goodput_rps);
    values.set("serve.slo_attainment", report.slo_attainment);
    values.set("serve.ttft_p99_s", report.ttft.p99_s);
    values.set("serve.tpot_p99_s", report.tpot.p99_s);
}

/// Per-tile shuffle seed of the derived stream: `write_derived_trace`'s
/// splitmix-style spread of the tile index, with the workload seed mixed in.
fn tile_seed(tile: u64, seed: u64) -> u64 {
    0x9e37_79b9_7f4a_7c15u64.wrapping_mul(tile + 1)
        ^ 0x0051_7eed
        ^ seed.wrapping_mul(0xbf58_476d_1ce4_e5b9)
}

/// Writes the seeded derived stream of `requests` arrivals and returns the
/// writer's checksum.
fn write_stream(sink: impl std::io::Write, requests: u64, seed: u64) -> Result<u64, String> {
    let bases: Vec<Trace> = CorpusPreset::all()
        .iter()
        .map(|p| p.build().rate_scaled(2.0))
        .collect();
    let name = format!("bench-derived-{requests}-seed{seed}");
    let err = |e| format!("trace derivation failed: {e:?}");
    let mut writer = TraceWriter::new(sink, &name, CORPUS_TICK_NS, requests).map_err(err)?;
    let (mut written, mut offset_ticks, mut tile) = (0u64, 0u64, 0u64);
    while written < requests {
        let base = &bases[(tile % bases.len() as u64) as usize];
        let shuffled = base.tenant_shuffled(tile_seed(tile, seed));
        let mut last_ticks = offset_ticks;
        for a in shuffled
            .arrivals()
            .iter()
            .take((requests - written) as usize)
        {
            let ticks = offset_ticks + a.time_ns / CORPUS_TICK_NS;
            writer
                .push(&RequestArrival {
                    time_ns: ticks * CORPUS_TICK_NS,
                    ..*a
                })
                .map_err(err)?;
            last_ticks = ticks;
            written += 1;
        }
        // The same inter-tile gap as the derived million-request trace.
        offset_ticks = last_ticks + 1_000;
        tile += 1;
    }
    writer.finish().map_err(err)
}

/// Removes the derived trace file when the workload ends.
struct TempFile(PathBuf);

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// The `replay_stream` workload.
pub struct ReplayStream {
    seed: u64,
    requests: u64,
    file: TempFile,
    reference: Option<u64>,
}

impl ReplayStream {
    /// The workload over `requests` derived arrivals; the trace is written
    /// next to the benchmark's executable, inside the build directory.
    pub fn new(seed: u64, requests: u64) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("no executable path: {e}"))?;
        let path = exe.with_file_name(format!("tltbench-{}-seed{seed}.tltr", std::process::id()));
        Ok(ReplayStream {
            seed,
            requests,
            file: TempFile(path),
            reference: None,
        })
    }

    fn open(&self) -> Result<TraceReader<File>, String> {
        let path = self.file.0.to_str().ok_or("trace path is not UTF-8")?;
        TraceReader::<File>::open_file(path).map_err(|e| format!("cannot open trace: {e:?}"))
    }

    /// After a replay: every declared request was decoded and the trailer
    /// checksum verified (the reader reports the end only after it has).
    fn check_reader(&self, reader: &mut TraceReader<File>) -> Result<(), String> {
        if reader.request_count() != self.requests || reader.decoded() != self.requests {
            return Err(format!(
                "decoded {} of {} requests",
                reader.decoded(),
                self.requests
            ));
        }
        match reader.next_arrival() {
            Ok(None) => Ok(()),
            other => Err(format!("trace did not end cleanly: {other:?}")),
        }
    }
}

impl Workload for ReplayStream {
    fn setup(&mut self) -> Result<(), String> {
        let file = File::create(&self.file.0).map_err(|e| format!("cannot create trace: {e}"))?;
        let mut sink = BufWriter::new(file);
        let checksum = write_stream(&mut sink, self.requests, self.seed)?;
        sink.flush()
            .map_err(|e| format!("cannot write trace: {e}"))?;
        drop(sink);
        // The trailer the reader will verify must be the checksum the writer
        // computed.
        let mut trailer = [0u8; 8];
        File::open(&self.file.0)
            .and_then(|mut f| {
                f.seek(SeekFrom::End(-8))?;
                f.read_exact(&mut trailer)
            })
            .map_err(|e| format!("cannot read trace trailer: {e}"))?;
        if u64::from_le_bytes(trailer) != checksum {
            return Err("trace trailer does not hold the writer's checksum".to_string());
        }
        Ok(())
    }

    fn run(&mut self) -> Result<Run, String> {
        let start = std::time::Instant::now();
        let mut reader = self.open()?;
        let report = tlt::run_replay_streamed(&mut reader, REPLAY_REPLICAS)
            .map_err(|e| format!("streamed replay failed: {e:?}"))?;
        let wall_s = start.elapsed().as_secs_f64();
        self.check_reader(&mut reader)?;
        check_same(&mut self.reference, fingerprint(&report))?;
        summarize(&report, self.requests, wall_s)
    }

    fn run_traced(&mut self, probe: &mut Probe, values: &mut Values) -> Result<Run, String> {
        let start = std::time::Instant::now();
        let mut reader = self.open()?;
        let sim = ServeSim::new(&tlt::replay_deployment(REPLAY_REPLICAS));
        let report = drive(sim, probe, self.requests, |probe, i| {
            probe
                .item(Layer::TraceDecode, i, || reader.next_arrival())
                .map_err(|e| format!("trace decode failed: {e:?}"))
        })?;
        let wall_s = start.elapsed().as_secs_f64();
        self.check_reader(&mut reader)?;
        check_same(&mut self.reference, fingerprint(&report))?;
        let decode = probe.stats(Layer::TraceDecode);
        values.set(
            "trace.decode_ns_per_req",
            decode.all.ns as f64 / self.requests as f64,
        );
        values.set("trace.share", decode.secs() / wall_s);
        serve_values(&report, probe, self.requests, wall_s, values);
        summarize(&report, self.requests, wall_s)
    }
}

/// The disaggregated deployment and load of `disagg_prefix`:
/// `tlt::run_disagg_comparison`'s cluster configuration (prefix-affinity
/// routing, KV migration link, autoscaler, 1-3k-token prompts with 60%
/// sharing a 768-token prefix, memory-tight replicas) over a long bursty
/// horizon.
pub fn disagg_setup(seed: u64, horizon_s: f64) -> (DisaggConfig, ServingExperimentConfig) {
    let (prefill, decode) = DISAGG_POOLS;
    let mut load = ServingExperimentConfig::qwen7b_bursty(prefill + decode, DISAGG_MEAN_RPS)
        .with_prefix_share(0.6, 768);
    load.prompt_len_range = (1024, 3072);
    load.slo = SloSpec {
        ttft_s: 2.0,
        tpot_s: 0.010,
    };
    load.horizon_s = horizon_s;
    load.seed = seed;
    let mut base = load.serve_config(ServingSdPolicy::Disabled);
    base.kv_memory_fraction = 0.25;
    let autoscale = AutoscaleConfig {
        interval_s: 1.0,
        min_prefill: 1,
        max_prefill: prefill,
        min_decode: 1,
        max_decode: decode,
        prefill_queue_high: 4.0,
        prefill_queue_low: 0.5,
        decode_tokens_high: 12_000.0,
        decode_tokens_low: 2_500.0,
        spawn_delay_s: 0.5,
    };
    let cluster = DisaggConfig::new(base, prefill, decode).with_autoscale(autoscale);
    (cluster, load)
}

/// The `disagg_prefix` workload.
pub struct DisaggPrefix {
    config: DisaggConfig,
    load: ServingExperimentConfig,
    arrivals: Vec<RequestArrival>,
    reference: Option<u64>,
}

impl DisaggPrefix {
    /// The workload for `seed` over `horizon_s` simulated seconds.
    pub fn new(seed: u64, horizon_s: f64) -> Self {
        let (config, load) = disagg_setup(seed, horizon_s);
        DisaggPrefix {
            config,
            load,
            arrivals: Vec::new(),
            reference: None,
        }
    }

    fn offered(&self) -> u64 {
        self.arrivals.len() as u64
    }

    fn check(&mut self, report: &ClusterReport) -> Result<(), String> {
        if report.aborted_transfers != 0 {
            return Err(format!(
                "{} KV transfers aborted in a fault-free run",
                report.aborted_transfers
            ));
        }
        check_same(&mut self.reference, fingerprint(report))
    }
}

impl Workload for DisaggPrefix {
    fn setup(&mut self) -> Result<(), String> {
        self.arrivals = self.load.arrivals();
        if self.arrivals.is_empty() {
            return Err("disagg load generated no arrivals".to_string());
        }
        Ok(())
    }

    fn run(&mut self) -> Result<Run, String> {
        let start = std::time::Instant::now();
        let report = tlt_serve::simulate_disagg(self.config.clone(), &self.arrivals);
        let wall_s = start.elapsed().as_secs_f64();
        self.check(&report)?;
        summarize(&report.serve, self.offered(), wall_s)
    }

    fn run_traced(&mut self, probe: &mut Probe, values: &mut Values) -> Result<Run, String> {
        let start = std::time::Instant::now();
        let sim = ClusterSim::new(self.config.clone());
        let mut feed = self.arrivals.iter();
        let report = drive(sim, probe, self.offered(), |_, _| Ok(feed.next().copied()))?;
        let wall_s = start.elapsed().as_secs_f64();
        self.check(&report)?;
        let offered = self.offered();
        serve_values(&report.serve, probe, offered, wall_s, values);
        values.set("transfer.migrations", report.migrations as f64);
        values.set(
            "transfer.busy_share",
            report.transfer_busy_s / report.serve.makespan_s.max(1e-12),
        );
        values.set("transfer.mean_s", report.mean_transfer_s);
        values.set("cluster.scale_ups", report.scale_ups as f64);
        values.set("cluster.scale_downs", report.scale_downs as f64);
        values.set("cluster.avg_active_replicas", report.avg_active_replicas);
        values.set("cluster.goodput_per_replica", report.goodput_per_replica);
        summarize(&report.serve, offered, wall_s)
    }
}
