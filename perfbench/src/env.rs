//! Pinning of the process environment and the stamp printed with every
//! result.

use crate::stats::json_str;
use std::path::Path;
use std::process::Command;

/// Seed reserved for confirming a claim after the change was written: no
/// tuning or development run uses it (see `perfbench/README.md`).
pub const HELD_OUT_SEED: u64 = 990_001;

/// Clear every `DLACEP_*` variable so ambient configuration (thread counts,
/// trace sampling, shard counts, server knobs) cannot leak into a run, then
/// pin the ambient kernel pool to one thread. Must run before any library
/// code reads the environment.
pub fn pin() {
    let vars: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("DLACEP_"))
        .collect();
    for k in vars {
        std::env::remove_var(k);
    }
    std::env::set_var("DLACEP_THREADS", "1");
}

fn command_line(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    Some(String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// FNV-1a over every Rust source and manifest under `crates/`, in path
/// order: identifies the program under test when the checkout carries no
/// git metadata.
fn source_digest(root: &Path) -> Option<String> {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) -> std::io::Result<()> {
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            if path.is_dir() {
                walk(&path, files)?;
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                files.push(path);
            }
        }
        Ok(())
    }
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files).ok()?;
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        for b in f.to_string_lossy().bytes().chain(std::fs::read(&f).ok()?) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    Some(format!("{h:016x}"))
}

fn cpu_flag(name: &str) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        match name {
            "sse2" => std::arch::is_x86_feature_detected!("sse2"),
            "avx2" => std::arch::is_x86_feature_detected!("avx2"),
            _ => false,
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = name;
        false
    }
}

/// One JSON object describing where and how this result was measured.
pub fn stamp(workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
    let git = command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unavailable".into());
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unavailable".into());
    let digest = source_digest(Path::new(".")).unwrap_or_else(|| "unavailable".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"env\": {{\"workload\": {}, \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {trace}, \
         \"git_sha\": {}, \"source_digest\": {}, \"nproc\": {nproc}, \"sse2\": {}, \"avx2\": {}, \
         \"rustc\": {}, \"profile\": {}, \"held_out_seed\": {HELD_OUT_SEED}}}}}",
        json_str(workload),
        json_str(&git),
        json_str(&digest),
        cpu_flag("sse2"),
        cpu_flag("avx2"),
        json_str(&rustc),
        json_str(profile),
    )
}
