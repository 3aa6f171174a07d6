//! The repository benchmark.
//!
//! ```text
//! tltbench --workload <rl_tlt|replay_stream|disagg_prefix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` sets up the workload several times (`setup_s` is the median),
//! then repeats the untraced run for `--seconds` and prints the end-to-end
//! metrics (`tok_per_s` from each timed part's fastest repetition).
//! `--trace 1` alternates untraced and traced repetitions for `--seconds` and
//! prints the per-layer metrics.
//! Every repetition's report must equal the first one's bit for bit, and a
//! traced report must equal the untraced one; any failed check exits
//! non-zero without a result line. The last line of standard output is the
//! JSON result. See `README.md` in this directory.

mod env;
mod metrics;
mod probe;
mod rl;
mod sims;

use metrics::{median, render, Values, END_TO_END, PER_LAYER};
use probe::Probe;
use std::time::Instant;
use tlt::obs::hooks;

/// What one repetition of a workload did.
#[derive(Debug, Clone)]
pub struct Run {
    /// Host seconds the repetition took.
    pub wall_s: f64,
    /// Host seconds of each separately timed part of the repetition (one
    /// RL training each, or the whole simulation); the same parts, doing the
    /// same work, in every repetition.
    pub part_walls: Vec<f64>,
    /// Tokens generated (RL rollouts) or simulated as output (sims).
    pub tokens: u64,
    /// RL responses rolled out, or simulated requests offered.
    pub requests: u64,
    /// Operations attempted: RL steps, or requests offered.
    pub attempted: u64,
    /// Attempted operations that failed: RL steps with a non-finite update,
    /// or requests dropped, orphaned or left unfinished.
    pub failed: u64,
    /// Mean accepted tokens per speculative target step (1.0 without
    /// speculation).
    pub accept_len: f64,
}

/// A benchmark workload: inputs built by `setup`, then repeatable runs.
pub trait Workload {
    /// Builds the workload's inputs from its seed (repeatable).
    fn setup(&mut self) -> Result<(), String>;
    /// One untraced run through the program's top-level function.
    fn run(&mut self) -> Result<Run, String>;
    /// One traced run: the same loop re-driven call by call through `probe`,
    /// filling the workload's per-layer metrics into `values`.
    fn run_traced(&mut self, probe: &mut Probe, values: &mut Values) -> Result<Run, String>;
}

/// Least set-up repetitions per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// Cheap set-ups repeat until this many seconds have passed, so their median
/// spans more than a moment of the host's load.
const SETUP_SECONDS: f64 = 1.0;
/// Least repetitions of the measured run, however long each takes.
const MIN_REPS: usize = 3;
/// The untimed remainder of a traced run (wall time not covered by a timed
/// layer) must lie in `[0, UNTIMED_TOLERANCE]` of the traced wall time.
const UNTIMED_TOLERANCE: f64 = 0.05;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("expected an integer"))?,
                )
            }
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("expected a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(bad("expected 0 or 1")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn workload(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "rl_tlt" => Box::new(rl::RlTlt::new(rl::configs(seed))),
        "replay_stream" => Box::new(sims::ReplayStream::new(seed, sims::REPLAY_REQUESTS)?),
        "disagg_prefix" => Box::new(sims::DisaggPrefix::new(seed, sims::DISAGG_HORIZON_S)),
        _ => {
            return Err(format!(
                "unknown workload {name:?} (rl_tlt, replay_stream, disagg_prefix)"
            ))
        }
    })
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Tokens of one repetition over the sum, part by part, of each part's
/// fastest time across the repetitions. Every repetition does the same work
/// (the checks hold each report equal to the first), and a neighbour on a
/// shared host can only slow a part down, so the fastest time of each part
/// estimates its cost on an uncontended core; the median of the repetitions
/// tracks the neighbours' load instead.
fn best_tok_per_s(runs: &[Run]) -> f64 {
    let best: f64 = (0..runs[0].part_walls.len())
        .map(|k| {
            runs.iter()
                .map(|r| r.part_walls[k])
                .fold(f64::INFINITY, f64::min)
        })
        .sum();
    runs[0].tokens as f64 / best
}

/// Untraced: set-up repetitions, then measured repetitions for `seconds`.
fn untraced(w: &mut dyn Workload, seconds: f64) -> Result<(Values, u64, u64), String> {
    let mut setups = Vec::new();
    let setup_start = Instant::now();
    while setups.len() < SETUP_REPS || setup_start.elapsed().as_secs_f64() < SETUP_SECONDS {
        let start = Instant::now();
        w.setup()?;
        setups.push(start.elapsed().as_secs_f64());
    }
    let mut runs = Vec::new();
    let start = Instant::now();
    while runs.len() < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        runs.push(w.run()?);
    }
    let (attempted, failed) = runs
        .iter()
        .fold((0, 0), |(a, f), r| (a + r.attempted, f + r.failed));
    let mut v = Values::default();
    v.set("setup_s", median(&mut setups));
    v.set("tok_per_s", best_tok_per_s(&runs));
    v.set("accept_len", runs[0].accept_len);
    v.set("completed_share", 1.0 - failed as f64 / attempted as f64);
    v.set("peak_rss_mb", peak_rss_mb()?);
    let walls: Vec<String> = runs.iter().map(|r| format!("{:.4}", r.wall_s)).collect();
    println!(
        "repetitions: {} set-up, {} measured, wall s [{}]",
        setups.len(),
        runs.len(),
        walls.join(" ")
    );
    Ok((v, attempted, failed))
}

/// Traced: untraced and traced repetitions alternate for `seconds`; every
/// per-layer metric is the median over the traced repetitions.
fn traced(
    w: &mut dyn Workload,
    seconds: f64,
    span_file: &std::path::Path,
) -> Result<(Values, u64, u64), String> {
    w.setup()?;
    let mut plain = Vec::new();
    let mut per_rep = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut last_probe = None;
    let start = Instant::now();
    while per_rep.is_empty() || start.elapsed().as_secs_f64() < seconds {
        plain.push(w.run()?.wall_s);

        let mut probe = Probe::timed();
        let mut v = Values::default();
        hooks::reset();
        hooks::enable();
        let traced = w.run_traced(&mut probe, &mut v);
        hooks::disable();
        let run = traced?;
        let counters = hooks::snapshot();
        let untimed = run.wall_s - probe.leaf_secs();
        let share = untimed / run.wall_s;
        if !(0.0..=UNTIMED_TOLERANCE).contains(&share) {
            return Err(format!(
                "timed layers cover {:.4} s of a {:.4} s traced run (untimed share {share:.4}, \
                 allowed 0..{UNTIMED_TOLERANCE})",
                probe.leaf_secs(),
                run.wall_s
            ));
        }
        v.set("obs.traced_wall_s", run.wall_s);
        v.set("untimed.share", share);
        v.set("model.init_s", probe.stats(probe::Layer::ModelInit).secs());
        v.set("workload.tasks_s", probe.stats(probe::Layer::Tasks).secs());
        v.set("workload.requests", run.requests as f64);
        v.set("workload.tokens", run.tokens as f64);
        v.set("model.decode_steps", counters.decode_steps as f64);
        v.set("model.prefill_tokens", counters.prefill_tokens as f64);
        v.set("rollout.sd_rounds", counters.sd_rounds as f64);
        v.set(
            "serve.events_per_req",
            counters.sim_events as f64 / run.requests as f64,
        );
        let popped = counters.sim_events + counters.sim_stale_events;
        v.set(
            "serve.stale_event_share",
            if popped == 0 {
                0.0
            } else {
                counters.sim_stale_events as f64 / popped as f64
            },
        );
        attempted += run.attempted;
        failed += run.failed;
        per_rep.push((run.wall_s, v));
        last_probe = Some(probe);
    }
    let mut traced_walls: Vec<f64> = per_rep.iter().map(|(w, _)| *w).collect();
    let overhead = median(&mut traced_walls) / median(&mut plain) - 1.0;
    let mut values = Values::median_of(&per_rep.into_iter().map(|(_, v)| v).collect::<Vec<_>>());
    values.set("obs.trace_overhead", overhead);
    if let Some(probe) = last_probe {
        write_spans(span_file, &probe)?;
    }
    Ok((values, attempted, failed))
}

/// Writes the last traced repetition's spans and per-layer aggregates as JSON.
fn write_spans(path: &std::path::Path, probe: &Probe) -> Result<(), String> {
    use tlt::obs::json::JsonValue;
    let spans = probe
        .spans()
        .iter()
        .map(|s| {
            JsonValue::object(vec![
                ("layer", JsonValue::string(s.layer.name())),
                (
                    "parent",
                    s.parent
                        .map_or(JsonValue::Null, |p| JsonValue::Number(p as f64)),
                ),
                ("start_ns", JsonValue::Number(s.start_ns as f64)),
                ("end_ns", JsonValue::Number(s.end_ns as f64)),
            ])
        })
        .collect();
    let layers = probe::Layer::ALL
        .iter()
        .map(|&l| {
            let s = probe.stats(l);
            let totals = |t: probe::Totals| {
                JsonValue::object(vec![
                    ("calls", JsonValue::Number(t.calls as f64)),
                    ("ns", JsonValue::Number(t.ns as f64)),
                ])
            };
            JsonValue::object(vec![
                ("layer", JsonValue::string(l.name())),
                ("all", totals(s.all)),
                ("first_decile", totals(s.first_decile)),
                ("last_decile", totals(s.last_decile)),
            ])
        })
        .collect();
    let doc = JsonValue::object(vec![
        ("layers", JsonValue::Array(layers)),
        ("spans", JsonValue::Array(spans)),
    ]);
    std::fs::write(path, format!("{doc}\n"))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tltbench: {e}");
            eprintln!(
                "usage: tltbench --workload <rl_tlt|replay_stream|disagg_prefix> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    if let Err(e) = bench(&args) {
        eprintln!("tltbench: FAILED: {e}");
        std::process::exit(1);
    }
}

fn bench(args: &Args) -> Result<(), String> {
    let dispatch_source = env::prepare();
    println!(
        "{}",
        env::describe(&args.workload, args.seed, args.trace, &dispatch_source)
    );
    let mut w = workload(&args.workload, args.seed)?;
    let (values, attempted, failed, table, zero_missing) = if args.trace {
        let exe = std::env::current_exe().map_err(|e| format!("no executable path: {e}"))?;
        let span_file = exe.with_file_name(format!(
            "tltbench-spans-{}-seed{}.json",
            args.workload, args.seed
        ));
        let (v, a, f) = traced(w.as_mut(), args.seconds, &span_file)?;
        println!("spans: {}", span_file.display());
        (v, a, f, &PER_LAYER[..], true)
    } else {
        let (v, a, f) = untraced(w.as_mut(), args.seconds)?;
        (v, a, f, &END_TO_END[..], false)
    };
    let (text, line) = render(table, &values, zero_missing, attempted, failed)?;
    print!("{text}");
    println!("{line}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use probe::Layer;
    use std::time::Duration;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    /// The `"bound"` the benchmark definition fixes for end-to-end `metric`.
    fn bound(metric: &str) -> f64 {
        let at = BENCHMARK_JSON
            .find(&format!("\"name\": \"{metric}\""))
            .unwrap_or_else(|| panic!("{metric} not in BENCHMARK.json"));
        let rest = &BENCHMARK_JSON[at..];
        let rest = &rest[rest.find("\"bound\": ").expect("bound") + 9..];
        let end = rest.find(['}', ',']).expect("bound ends");
        rest[..end].trim().parse().expect("bound is a number")
    }

    #[test]
    fn benchmark_json_names_every_printed_metric_with_its_unit() {
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(
                BENCHMARK_JSON.contains(&entry),
                "BENCHMARK.json lacks {entry}"
            );
        }
        for workload in ["rl_tlt", "replay_stream", "disagg_prefix"] {
            assert!(BENCHMARK_JSON.contains(&format!("\"name\": \"{workload}\"")));
        }
        let entries = BENCHMARK_JSON.matches("\"name\": ").count();
        assert_eq!(entries, 3 + END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn tok_per_s_sums_each_parts_fastest_time() {
        let run = |walls: &[f64]| Run {
            wall_s: walls.iter().sum(),
            part_walls: walls.to_vec(),
            tokens: 300,
            requests: 1,
            attempted: 1,
            failed: 0,
            accept_len: 1.0,
        };
        let runs = [run(&[1.0, 3.0]), run(&[2.0, 2.0]), run(&[4.0, 5.0])];
        assert_eq!(best_tok_per_s(&runs), 100.0);
    }

    fn small_rl() -> Vec<tlt::TokenExperimentConfig> {
        vec![tlt::TokenExperimentConfig::small(true, true)]
    }

    #[test]
    fn traced_rl_reproduces_the_untraced_report() {
        let mut w = rl::RlTlt::new(small_rl());
        w.setup().unwrap();
        w.run().unwrap();
        let mut values = Values::default();
        let run = w.run_traced(&mut Probe::timed(), &mut values).unwrap();
        assert_eq!(run.failed, 0);
        assert!(values.get("rollout.calls").unwrap() > 0.0);
        assert!(values.get("draft.top3").unwrap() > 0.0);
    }

    #[test]
    fn traced_sims_reproduce_the_untraced_reports() {
        let mut replay = sims::ReplayStream::new(5, 3_000).unwrap();
        let mut disagg = sims::DisaggPrefix::new(5, 200.0);
        for w in [&mut replay as &mut dyn Workload, &mut disagg] {
            w.setup().unwrap();
            let plain = w.run().unwrap();
            let mut values = Values::default();
            let traced = w.run_traced(&mut Probe::timed(), &mut values).unwrap();
            assert_eq!(plain.tokens, traced.tokens);
            assert_eq!(plain.failed, 0);
            assert!(values.get("serve.advance_ns_per_req").unwrap() > 0.0);
        }
    }

    /// A fixed delay injected around one layer call shows up against that
    /// layer in the traced table, and slows the end-to-end metric by more
    /// than its bound — so a wall-clock regression can fail the gate.
    #[test]
    fn an_injected_layer_delay_is_attributed_and_fails_the_gate() {
        let config = small_rl()[0];
        let steps = config.num_steps as u32;
        let timed_run = |probe: &mut Probe| {
            let start = Instant::now();
            let (report, _) = rl::redrive(&config, probe);
            (
                report.generated_tokens as f64,
                start.elapsed().as_secs_f64(),
            )
        };
        let (tokens, base_wall) = (0..3)
            .map(|_| timed_run(&mut Probe::untimed()))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap();
        // Twice the run's own time in total, so the timing noise of tests
        // running in parallel cannot hide it.
        let delay = Duration::from_secs_f64(2.0 * base_wall / f64::from(steps));

        let (_, slow_wall) = timed_run(&mut Probe::untimed().with_delay(Layer::RlUpdate, delay));
        let (base_tok_per_s, slow_tok_per_s) = (tokens / base_wall, tokens / slow_wall);
        let bound = bound("tok_per_s");
        assert!(
            slow_tok_per_s < base_tok_per_s * (1.0 - bound),
            "tok_per_s {slow_tok_per_s:.0} vs {base_tok_per_s:.0} did not move past the {bound} bound"
        );

        let mut plain = Probe::timed();
        timed_run(&mut plain);
        let mut delayed = Probe::timed().with_delay(Layer::RlUpdate, delay);
        timed_run(&mut delayed);
        let added = delay.as_secs_f64() * f64::from(steps);
        for layer in Layer::ALL.into_iter().filter(|l| l.is_leaf()) {
            let grew = delayed.stats(layer).secs() - plain.stats(layer).secs();
            if layer == Layer::RlUpdate {
                assert!(delayed.stats(layer).secs() >= added);
                assert!(
                    grew > added / 2.0,
                    "{} grew {grew:.4} s of {added:.4} s",
                    layer.name()
                );
            } else {
                assert!(grew < added / 2.0, "{} grew {grew:.4} s", layer.name());
            }
        }
    }
}
