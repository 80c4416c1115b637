//! The repository benchmark: end-to-end and per-layer metrics of the
//! Winograd engine (`wino-conv` over `wino-sched`/`wino-simd`) and its
//! serving layer (`wino-serve`), with every output checked against the
//! f64 oracle (`wino-baseline`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fx2d_wide --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line on stdout is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` (the end-to-end table untraced, the per-layer
//! table traced). The full record, with sample counts, checks and
//! provenance, is written under `perfbench/out/`, as are a traced run's
//! spans. See `perfbench/README.md`.
//!
//! With `--workload <w> --setup-only`, the binary instead sets the
//! workload up twice and prints the plan and prepare seconds of the
//! second set-up: a run starts itself so to time set-up in fresh
//! processes.

mod inputs;
mod machine;
mod netbench;
mod oracle;
mod report;
mod servebench;
mod stats;
mod trace;

use std::process::ExitCode;

use wino_probe::Json;

use report::Report;
use trace::Tracer;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["fx2d_wide", "train3d_encoder", "serve_open"];

/// One run's settings, from the command line.
pub struct RunCfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Reduced extents through the same code, for the benchmark's tests.
    pub tiny: bool,
    /// Where records and spans go; `None` writes nothing.
    pub out_dir: Option<std::path::PathBuf>,
    /// This benchmark's binary, run in its `--setup-only` mode to time
    /// set-up in fresh processes; `None` times it in this process (the
    /// benchmark's tests, whose binary is the test harness).
    pub setup_exe: Option<std::path::PathBuf>,
}

/// Time of one set-up's calls, in seconds: planning
/// (`Network::with_policy`, or all of `Server::start`) and kernel
/// memoisation (`prepare_kernels`, FX only).
#[derive(Clone, Copy, Debug)]
pub struct SetupTimes {
    pub plan_s: f64,
    pub prepare_s: f64,
}

impl SetupTimes {
    pub fn total_s(&self) -> f64 {
        self.plan_s + self.prepare_s
    }
}

/// Time the workload's set-up `n` times, each in a fresh process (this
/// binary with `--setup-only`), one after another, each waited for. Set-ups
/// repeated in one long-lived process reuse a share of earlier builds'
/// memory that changes from run to run, and so their times swing; a fresh
/// process starts each set-up from the same state. Without
/// `cfg.setup_exe`, `in_process` is timed instead.
pub fn time_setups(
    cfg: &RunCfg,
    workload: &str,
    n: usize,
    mut in_process: impl FnMut() -> Result<SetupTimes, String>,
) -> Result<Vec<SetupTimes>, String> {
    let Some(exe) = &cfg.setup_exe else {
        return (0..n).map(|_| in_process()).collect();
    };
    (0..n)
        .map(|_| {
            let out = std::process::Command::new(exe)
                .args(["--workload", workload, "--setup-only"])
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| format!("set-up process: {e}"))?;
            let text = String::from_utf8_lossy(&out.stdout);
            let times: Vec<f64> = text
                .split_whitespace()
                .filter_map(|t| t.parse().ok())
                .collect();
            match times[..] {
                [plan_s, prepare_s] if out.status.success() => Ok(SetupTimes { plan_s, prepare_s }),
                _ => Err(format!("set-up process ({}) printed {text:?}", out.status)),
            }
        })
        .collect()
}

/// One set-up of a workload in this process: the `--setup-only` mode.
fn setup_once(workload: &str) -> Option<Result<SetupTimes, String>> {
    Some(match workload {
        "fx2d_wide" => netbench::setup_once(&netbench::NetWorkload::fx2d_wide(false)),
        "train3d_encoder" => netbench::setup_once(&netbench::NetWorkload::train3d_encoder(false)),
        "serve_open" => servebench::start_once(&servebench::ServeWorkload::serve_open(false)),
        _ => return None,
    })
}

/// Run one workload by name.
pub fn run(workload: &str, cfg: &RunCfg) -> Option<Report> {
    Some(match workload {
        "fx2d_wide" => netbench::run(&netbench::NetWorkload::fx2d_wide(cfg.tiny), cfg),
        "train3d_encoder" => netbench::run(&netbench::NetWorkload::train3d_encoder(cfg.tiny), cfg),
        "serve_open" => servebench::run(&servebench::ServeWorkload::serve_open(cfg.tiny), cfg),
        _ => return None,
    })
}

/// Provenance every result carries.
pub fn provenance(rep: &mut Report, threads: usize, pinned: usize) {
    rep.prov("simd", Json::Str(wino_simd::backend_name().into()));
    rep.prov("threads", Json::Num(threads as f64));
    rep.prov("pinned", Json::Num(pinned as f64));
    rep.prov("nproc", Json::Num(machine::nproc() as f64));
    rep.prov("commit", Json::Str(machine::git_commit().into()));
}

/// Write a traced run's spans (JSON lines) to the output directory.
pub fn write_spans(cfg: &RunCfg, workload: &str, tracer: &Tracer) {
    if let Some(dir) = &cfg.out_dir {
        let path = dir.join(format!("{workload}-s{}.spans.jsonl", cfg.seed));
        if let Err(e) =
            std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tracer.to_jsonl()))
        {
            eprintln!("could not write {}: {e}", path.display());
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    machine::allowed_cpus(); // before anything pins a thread
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    if args.iter().any(|a| a == "--setup-only") {
        // The first set-up faults its memory in; the second, timed, reuses
        // it, so page faults (the host's cost, and peak_rss_mib's
        // subject) stay out of `setup_s`.
        machine::keep_freed_memory();
        let workload = get("--workload").unwrap_or("");
        let timed = setup_once(workload)
            .map(|first| first.and_then(|_| setup_once(workload).expect("known workload")));
        return match timed {
            Some(Ok(t)) => {
                println!("{} {}", t.plan_s, t.prepare_s);
                ExitCode::SUCCESS
            }
            Some(Err(e)) => {
                eprintln!("set-up failed: {e}");
                ExitCode::FAILURE
            }
            None => usage(),
        };
    }
    let (Some(workload), Some(seed), Some(seconds)) = (
        get("--workload"),
        get("--seed").and_then(|s| s.parse::<u64>().ok()),
        get("--seconds")
            .and_then(|s| s.parse::<f64>().ok())
            .filter(|s| *s > 0.0 && s.is_finite()),
    ) else {
        return usage();
    };
    let trace = match get("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        _ => return usage(),
    };
    let cfg = RunCfg {
        seed,
        seconds,
        trace,
        tiny: false,
        out_dir: Some(std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")),
        setup_exe: match std::env::current_exe() {
            Ok(exe) => Some(exe),
            Err(e) => {
                eprintln!("cannot find this benchmark's binary: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    let Some(rep) = run(workload, &cfg) else {
        return usage();
    };
    eprint!("{}", rep.summary());
    for (k, v) in &rep.provenance {
        eprintln!("provenance {k}: {}", v.render());
    }
    if let Some(dir) = &cfg.out_dir {
        let path = dir.join(format!("{workload}-s{seed}-t{}.json", u8::from(trace)));
        let body = rep.record(seed, seconds).render() + "\n";
        if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, body)) {
            eprintln!("could not write {}: {e}", path.display());
        }
    }
    println!("{}", rep.final_line());
    if rep.correct() {
        ExitCode::SUCCESS
    } else {
        let missing = rep.missing();
        if !missing.is_empty() {
            eprintln!("metrics not measured: {}", missing.join(", "));
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny-extent pass of each workload, traced and untraced, through
    /// the same code as a full run: every named metric is emitted, with
    /// its unit, and every check passes.
    #[test]
    fn tiny_pass_of_every_workload_emits_every_metric() {
        for &w in WORKLOADS {
            for trace in [false, true] {
                // Open-loop phases need enough batches for a p90.
                let seconds = if w == "serve_open" { 1.5 } else { 0.3 };
                let cfg = RunCfg {
                    seed: 5,
                    seconds,
                    trace,
                    tiny: true,
                    out_dir: None,
                    setup_exe: None,
                };
                let rep = run(w, &cfg).expect("known workload");
                assert!(
                    rep.missing().is_empty(),
                    "{w} trace={trace}: missing {:?}",
                    rep.missing()
                );
                assert!(rep.correct(), "{w} trace={trace}:\n{}", rep.summary());
                let line = wino_probe::parse_json(&rep.final_line()).expect("the line parses");
                let keys: Vec<&str> = line
                    .as_obj()
                    .unwrap()
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
                let metrics = line.get("metrics").unwrap();
                assert_eq!(metrics.as_obj().unwrap().len(), rep.table().len());
                for d in rep.table() {
                    let m = metrics
                        .get(d.name)
                        .unwrap_or_else(|| panic!("{w}: {} absent", d.name));
                    assert!(
                        m.get("value")
                            .and_then(Json::as_f64)
                            .is_some_and(f64::is_finite),
                        "{w}: {}",
                        d.name
                    );
                    assert_eq!(
                        m.get("unit").and_then(Json::as_str),
                        Some(d.unit),
                        "{w}: {}",
                        d.name
                    );
                }
                assert!(rep.attempted >= 1);
            }
        }
        assert!(run(
            "nope",
            &RunCfg {
                seed: 1,
                seconds: 0.1,
                trace: false,
                tiny: true,
                out_dir: None,
                setup_exe: None,
            }
        )
        .is_none());
    }
}
