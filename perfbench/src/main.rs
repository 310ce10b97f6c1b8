//! End-to-end benchmark of fast-dpc.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload syn2d --seed 1 --seconds 10 --trace 0
//! ```
//!
//! A run sets up its workload, takes it through the serve, stream and fit
//! stages, checks every answer, prints one line per metric (value, unit,
//! sample count) and ends with one JSON result line. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` runs the stages once without and once
//! with spans (the ratio is the tracing overhead), then probes every layer
//! and reports the per-layer metrics. The command exits non-zero when any
//! check failed. See README.md for the workloads and the metric-to-layer
//! map.

mod calib;
mod fit;
mod layers;
mod report;
mod serve;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};

use report::{per_layer_names, traced_again, Report, END_TO_END};
use trace::Tracer;
use workload::{Run, Spec, WORKLOADS};

/// Set-up is repeated this many times per run; `setup_s` is the median.
const SETUP_REPS: usize = 3;
/// The untraced run fits every algorithm at least this many times.
const MIN_FIT_ROUNDS: usize = 3;

struct Args {
    workload: Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Spec::by_name(&value).ok_or_else(|| bad("a workload name"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("seconds"))?;
                seconds = Some(s).filter(|s| s.is_finite() && *s > 0.0);
                seconds.ok_or_else(|| bad("positive seconds"))?;
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            eprintln!(
                "{e}\nusage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                names.join("|")
            );
            std::process::exit(2);
        }
    };
    calib::init();
    let out_dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("cannot create {}: {e}", out_dir.display());
        std::process::exit(2);
    }
    let run = Run {
        spec: args.workload,
        seed: args.seed,
        // The traced run takes the stages twice (without and with spans).
        seconds: if args.trace { args.seconds / 2.0 } else { args.seconds },
        threads: workload::threads(),
        min_fit_rounds: if args.trace { 1 } else { MIN_FIT_ROUNDS },
        setup_reps: SETUP_REPS,
        out_dir,
    };
    println!("meta {}", metadata(&run, args.trace));
    let mut report = execute(&run, args.trace);
    let names: Vec<String> = if args.trace {
        per_layer_names()
    } else {
        END_TO_END.iter().map(|s| s.to_string()).collect()
    };
    let line = report.result_line(&names);
    print!("{}", report.table());
    for f in report.failures.iter().take(20) {
        println!("FAILED {f}");
    }
    println!("{line}");
    std::process::exit(if report.failed == 0 { 0 } else { 1 });
}

/// Sets up, runs the stages, and (traced) probes every layer.
fn execute(run: &Run, traced: bool) -> Report {
    let mut report = Report::default();
    let tracer = Tracer::new(traced);
    if let Some(dep) = serve::setup(run, &tracer, &mut report) {
        if traced {
            let mut plain = Report::default();
            stages(run, &dep, &Tracer::new(false), &mut plain);
            let fitted = stages(run, &dep, &tracer, &mut report);
            for name in traced_again() {
                if let (Some(on), Some(off)) = (report.get(name), plain.get(name)) {
                    report.metric(format!("overhead.{name}"), on / off, "ratio", 1);
                }
            }
            report.ops(plain.attempted, plain.failed);
            report.failures.extend(plain.failures);
            if let Some(fitted) = fitted {
                layers::probe(run, &dep, &fitted, &tracer, &mut report);
            }
            let path = run.out_dir.join(format!("trace-{}-{}.jsonl", run.spec.name, run.seed));
            match tracer.write(&path) {
                Ok(()) => println!("spans {} written to {}", tracer.len(), path.display()),
                Err(e) => report.fail(format!("writing spans to {}: {e}", path.display())),
            }
        } else {
            stages(run, &dep, &tracer, &mut report);
        }
        let _ = std::fs::remove_file(&dep.artifact);
    }
    report
}

/// The serve, stream and fit stages, in that order. The fit stage records
/// `peak_rss_mb` once every operation of the workload has run once.
fn stages(
    run: &Run,
    dep: &serve::Deployment,
    tracer: &Tracer,
    report: &mut Report,
) -> Option<fit::Fitted> {
    serve::serve_stage(run, dep, tracer, report);
    serve::stream_stage(run, dep, tracer, report);
    fit::fit_stage(run, &dep.data, tracer, report)
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The conditions a result was measured under, as one JSON object.
fn metadata(run: &Run, traced: bool) -> String {
    let s = &run.spec;
    format!(
        concat!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, ",
            "\"n\": {}, \"d\": {}, \"d_cut\": {}, \"window\": {}, \"expiry_batch\": {}, \"publish_every\": {}, ",
            "\"fit_threads\": {}, \"serve_clients\": {}, \"stream_clients\": \"1 writer + 1 reader\", ",
            "\"nproc\": {}, \"available_parallelism\": {}, \"simd_feature\": true, \"simd_path\": \"{}\", ",
            "\"git_revision\": \"{}\"}}"
        ),
        s.name,
        run.seed,
        run.seconds,
        traced,
        s.n,
        s.dim(),
        s.dcut,
        s.window,
        s.expiry_batch,
        s.publish_every,
        run.threads,
        run.threads,
        nproc().map_or("null".to_string(), |n| n.to_string()),
        workload::available_parallelism(),
        simd_path(),
        git_revision(Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))),
    )
}

/// The batch-kernel path `dpc_geometry` dispatches to with its `simd`
/// feature on (this package turns it on).
fn simd_path() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            "avx2"
        } else {
            "sse2"
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        "scalar"
    }
}

/// CPUs this process may run on (what `nproc` prints).
fn nproc() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status.lines().find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    let mut count = 0;
    for part in list.trim().split(',') {
        count += match part.split_once('-') {
            Some((a, b)) => b.parse::<usize>().ok()? - a.parse::<usize>().ok()? + 1,
            None => 1,
        };
    }
    Some(count)
}

/// The commit checked out at `root`, or `unknown` outside a git checkout.
fn git_revision(root: &Path) -> String {
    let read = |p: PathBuf| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let git = root.join(".git");
    let Some(head) = read(git.join("HEAD")) else { return "unknown".to_string() };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    read(git.join(reference))
        .or_else(|| {
            let packed = read(git.join("packed-refs"))?;
            packed
                .lines()
                .find(|l| l.ends_with(reference))?
                .split_whitespace()
                .next()
                .map(String::from)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(spec: Spec) -> Run {
        Run {
            spec: spec.scaled(3_000),
            seed: 7,
            seconds: 0.6,
            threads: 2,
            min_fit_rounds: 2,
            setup_reps: 2,
            out_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
        }
    }

    /// A tiny-n run of every workload, untraced and traced, passes every
    /// check and reports every metric its mode promises.
    #[test]
    fn smoke_every_workload_and_every_check() {
        std::fs::create_dir_all(tiny(WORKLOADS[0]).out_dir).unwrap();
        for spec in WORKLOADS {
            for traced in [false, true] {
                let mut report = execute(&tiny(spec), traced);
                let names: Vec<String> = if traced {
                    per_layer_names()
                } else {
                    END_TO_END.iter().map(|s| s.to_string()).collect()
                };
                let line = report.result_line(&names);
                assert!(
                    report.failures.is_empty(),
                    "{} traced={traced}: {:?}",
                    spec.name,
                    report.failures
                );
                assert!(line.starts_with("{\"correct\": true,"), "{line}");
                assert!(
                    report.attempted > 100,
                    "{}: only {} operations",
                    spec.name,
                    report.attempted
                );
            }
        }
    }

    #[test]
    fn arguments_parse_and_reject() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload syn2d --seed 5 --seconds 2.5 --trace 1").unwrap();
        assert_eq!((a.workload.name, a.seed, a.seconds, a.trace), ("syn2d", 5, 2.5, true));
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload syn2d --trace 2").is_err());
        assert!(parse("--workload syn2d --seconds -1").is_err());
        assert!(parse("--seed 3").is_err());
    }
}
