//! The run environment recorded with every result: commit, seed, host
//! parallelism, the worker budget the program runs with, and the kernel
//! dispatch table with where it came from.

use std::fs;
use std::path::{Path, PathBuf};

/// Worker threads the program may use (`TLT_NUM_THREADS`). One worker keeps
/// the load to a single core of the host, so co-tenants on the other cores
/// disturb the timings least; every result records the value.
pub const NUM_THREADS: usize = 1;

/// Pins the worker budget and installs the committed dispatch profile for
/// this host, as `experiments perf --profile` does. Returns the dispatch
/// table's source.
pub fn prepare() -> String {
    // Set before any program code reads it; the benchmark is single-threaded
    // at this point.
    std::env::set_var("TLT_NUM_THREADS", NUM_THREADS.to_string());
    let path = tlt_model::autotune::default_profile_path();
    match tlt_model::load_profile(&path) {
        Ok((target, table)) if target == tlt_model::autotune::target_name() => {
            table.install();
            format!("profile:{}", path.display())
        }
        Ok((target, _)) => format!("default (profile {} is for {target})", path.display()),
        Err(_) => format!("default (no profile at {})", path.display()),
    }
}

/// One line describing the environment of a run.
pub fn describe(workload: &str, seed: u64, trace: bool, dispatch_source: &str) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let table: Vec<String> = tlt_model::DispatchTable::current()
        .entries()
        .into_iter()
        .map(|(op, class, variant)| format!("{}/{}={variant}", op.name(), class.name()))
        .collect();
    format!(
        "env: workload={workload} seed={seed} trace={} commit={} source_fnv={:016x} nproc={nproc} \
         TLT_NUM_THREADS={NUM_THREADS} dispatch_source={dispatch_source} dispatch=[{}]",
        u8::from(trace),
        commit().unwrap_or_else(|| "none".to_string()),
        source_digest(),
        table.join(" ")
    )
}

/// The checked-out commit, when the working directory is a git checkout.
fn commit() -> Option<String> {
    let head = fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => fs::read_to_string(Path::new(".git").join(reference))
            .ok()
            .map(|s| s.trim().to_string()),
        None => Some(head.to_string()),
    }
}

/// FNV-1a 64 over the program's sources (every file under `crates/` and
/// `vendor/`, plus the workspace manifest and lock file), so a result names
/// the code it measured even where the checkout carries no git metadata.
fn source_digest() -> u64 {
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    collect(Path::new("crates"), &mut files);
    collect(Path::new("vendor"), &mut files);
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for file in files {
        let bytes = fs::read(&file).unwrap_or_default();
        let name = file.to_string_lossy().into_owned().into_bytes();
        for b in name.iter().chain(&bytes) {
            h = (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                collect(&path, out);
            }
        } else {
            out.push(path);
        }
    }
}
