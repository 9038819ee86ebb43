//! `run`: the end-to-end metrics of all five workloads, with dispersion.
//!
//! The parent re-executes itself once per (repetition, workload),
//! round-major — every workload once, then every workload again — one child
//! at a time. A child is a single process that spawns only what the program
//! itself spawns, so `peak_rss_mb` is a true per-workload `VmHWM` and every
//! repetition starts with a cold allocator.

use std::process::{Command, Stdio};

use crate::json::{self, Value};
use crate::kernels::CALIB_OPS;
use crate::measure::CALIB_REF_NS;
use crate::results::{Results, WorkloadResult};
use crate::spec::{self, Kind};
use crate::stats::Summary;
use crate::workloads::Workload;

pub struct RunArgs {
    pub seed: u64,
    pub reps: usize,
    pub seconds: f64,
}

/// One child's report: the contract line's metrics plus the detail line.
struct ChildReport {
    correct: bool,
    metrics: Vec<(String, f64)>,
    digest: String,
    events: u64,
    packets: u64,
    calib_ns: f64,
    failures: Vec<String>,
}

/// Re-executes this binary as `measure` for one workload and returns whether
/// it exited with success, and the non-empty lines of its stdout, last first.
fn measure_child(
    workload: Workload,
    seed: u64,
    seconds: f64,
    more: &[&str],
) -> Result<(bool, Vec<String>), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["measure", "--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(more)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn child: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<String> = text
        .lines()
        .rev()
        .filter(|l| !l.trim().is_empty())
        .map(str::to_string)
        .collect();
    if lines.is_empty() {
        return Err(format!(
            "{}: child printed no result (status {})",
            workload.name(),
            out.status
        ));
    }
    Ok((out.status.success(), lines))
}

/// The contract line's `correct` flag and its metrics by name.
fn contract_metrics(line: &str, who: &str) -> Result<(bool, Vec<(String, f64)>), String> {
    let contract = json::parse(line)?;
    let missing = |what: &str| format!("{who}: child result lacks {what}");
    let metrics = contract
        .get("metrics")
        .and_then(Value::as_obj)
        .ok_or_else(|| missing("metrics"))?
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Value::as_f64);
            value
                .map(|v| (name.clone(), v))
                .ok_or_else(|| missing(name))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok((contract.get("correct") == Some(&Value::Bool(true)), metrics))
}

/// The traced pass of one workload in a process of its own, so that
/// `large.peak_rss_mb` is that workload's: whether every verification
/// passed, and the per-layer metrics. The child writes its spans to `spans`.
pub fn trace_child(
    workload: Workload,
    seed: u64,
    seconds: f64,
    spans: Option<&str>,
) -> Result<(bool, Vec<(String, f64)>), String> {
    let mut more = vec!["--trace", "1"];
    if let Some(path) = spans {
        more.extend(["--spans", path]);
    }
    let (success, lines) = measure_child(workload, seed, seconds, &more)?;
    let (correct, metrics) = contract_metrics(&lines[0], workload.name())?;
    Ok((correct && success, metrics))
}

fn run_child(workload: Workload, args: &RunArgs) -> Result<ChildReport, String> {
    let (success, lines) = measure_child(workload, args.seed, args.seconds, &["--trace", "0"])?;
    let missing = |what: &str| format!("{}: child result lacks {what}", workload.name());
    let (correct, metrics) = contract_metrics(&lines[0], workload.name())?;
    let detail = json::parse(lines.get(1).ok_or_else(|| missing("the detail line"))?)?;
    let num = |k: &str| {
        detail
            .get(k)
            .and_then(Value::as_f64)
            .ok_or_else(|| missing(k))
    };
    Ok(ChildReport {
        correct: correct && success,
        metrics,
        digest: detail
            .get("digest")
            .and_then(Value::as_str)
            .ok_or_else(|| missing("digest"))?
            .to_string(),
        events: num("events")? as u64,
        packets: num("packets")? as u64,
        calib_ns: num("calib_ns")?,
        failures: detail
            .get("failures")
            .and_then(Value::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(|f| f.as_str().map(str::to_string))
            .collect(),
    })
}

/// Runs every workload `reps` times and prints and returns the results; the
/// flag is false if any verification failed.
pub fn run(args: &RunArgs) -> Result<(Results, bool), String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut samples: Vec<Vec<Vec<f64>>> =
        vec![vec![Vec::new(); spec::END_TO_END.len()]; Workload::ALL.len()];
    let mut first: Vec<Option<ChildReport>> = Workload::ALL.iter().map(|_| None).collect();
    let mut calib_ns = f64::INFINITY;
    let mut ok = true;
    for rep in 0..args.reps {
        for (w, &workload) in Workload::ALL.iter().enumerate() {
            let child = run_child(workload, args)?;
            eprintln!(
                "rep {}/{} {:<11} wall_s {:.4}",
                rep + 1,
                args.reps,
                workload.name(),
                child
                    .metrics
                    .iter()
                    .find(|m| m.0 == "wall_s")
                    .map_or(f64::NAN, |m| m.1),
            );
            for failure in &child.failures {
                eprintln!("  FAILED: {failure}");
            }
            ok &= child.correct;
            calib_ns = calib_ns.min(child.calib_ns);
            for (i, m) in spec::END_TO_END.iter().enumerate() {
                let value = child.metrics.iter().find(|(n, _)| n == m.name);
                let value = value.ok_or_else(|| format!("child result lacks {}", m.name))?;
                samples[w][i].push(value.1);
            }
            match &first[w] {
                None => first[w] = Some(child),
                Some(f) if f.digest != child.digest => {
                    eprintln!(
                        "  FAILED: {} digest {} differs from the first repetition's {}",
                        workload.name(),
                        child.digest,
                        f.digest
                    );
                    ok = false;
                }
                Some(_) => {}
            }
        }
    }

    // The sharded host must reproduce the solo engine bit for bit.
    let digest_of = |w: Workload| first[w as usize].as_ref().map(|c| c.digest.as_str());
    if digest_of(Workload::HotSharded) != digest_of(Workload::HotSolo) {
        eprintln!(
            "FAILED: hot_sharded digest {:?} != hot_solo digest {:?}",
            digest_of(Workload::HotSharded),
            digest_of(Workload::HotSolo)
        );
        ok = false;
    }

    let workloads: Vec<WorkloadResult> = Workload::ALL
        .iter()
        .zip(&first)
        .zip(&samples)
        .map(|((workload, first), samples)| {
            let first = first.as_ref().expect("reps >= 1 is checked by the caller");
            WorkloadResult {
                name: workload.name().to_string(),
                digest: first.digest.clone(),
                events: first.events,
                packets: first.packets,
                threads: workload.threads(),
                metrics: spec::END_TO_END
                    .iter()
                    .zip(samples)
                    .map(|(m, s)| (m.name.to_string(), Summary::of(s)))
                    .collect(),
            }
        })
        .collect();
    let median = |w: Workload, metric: &str| {
        workloads[w as usize]
            .metric(metric)
            .map_or(f64::NAN, |s| s.median)
    };
    let derived = vec![
        (
            "fig9_p50_gain".to_string(),
            1.0 - median(Workload::FctSfq, "fct_slowdown_p50")
                / median(Workload::FctQuo, "fct_slowdown_p50"),
        ),
        (
            "shard_overhead_ratio".to_string(),
            median(Workload::HotSharded, "wall_s") / median(Workload::HotSolo, "wall_s"),
        ),
    ];
    let results = Results {
        seed: args.seed,
        reps: args.reps,
        seconds: args.seconds,
        nproc,
        calib_ns,
        workloads,
        derived,
    };
    print_results(&results);
    Ok((results, ok))
}

pub fn print_results(r: &Results) {
    // Host times arrive calibrated to `CALIB_REF_NS` per operation, so one
    // pass of the calibration loop takes this long in the same unit.
    let calib_s = CALIB_REF_NS * CALIB_OPS as f64 * 1e-9;
    println!(
        "seed {}  reps {}  seconds/run {}  nproc {}  host.calib_ns {:.4} ns/op (fastest pass; times are calibrated to {CALIB_REF_NS} ns/op, host.calib_s {:.6} s)",
        r.seed, r.reps, r.seconds, r.nproc, r.calib_ns, calib_s
    );
    for w in &r.workloads {
        println!(
            "\n{}  threads {}  events {}  packets {}  sim_digest {}",
            w.name, w.threads, w.events, w.packets, w.digest
        );
        if let Some(spec) = spec::WORKLOADS.iter().find(|s| s.name == w.name) {
            println!("  why: {}", spec.why);
            if !spec.driver {
                println!("  not in BENCHMARK.json: measured here, not gated by the driver");
            }
        }
        println!(
            "  {:<18} {:>6} {:>14} {:>14} {:>14} {:>14} {:>3}",
            "metric", "unit", "median", "q1", "q3", "min", "n"
        );
        for (name, s) in &w.metrics {
            let Some(m) = spec::end_to_end(name) else {
                continue;
            };
            print!(
                "  {:<18} {:>6} {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>3}",
                name, m.unit, s.median, s.q1, s.q3, s.min, s.n
            );
            match (m.kind, *name == "wall_s") {
                (_, true) => println!("  wall_s/host.calib_s {:.1}", s.median / calib_s),
                (Kind::Simulated, _) => println!("  simulated, repeats exactly"),
                _ => println!(),
            }
        }
    }
    println!();
    for (name, v) in &r.derived {
        match name.as_str() {
            "fig9_p50_gain" => {
                let (lo, hi) = spec::FIG9_BAND;
                let verdict = if (lo..=hi).contains(v) {
                    "inside"
                } else {
                    "outside"
                };
                println!(
                    "fig9_p50_gain        {v:.4} ratio  = 1 - p50(fct_sfq)/p50(fct_quo); {verdict} the paper's {lo}-{hi} band"
                );
            }
            "shard_overhead_ratio" => {
                // With no more cores than runnable threads a ratio below 1
                // cannot be a speed-up claim.
                let label = if r.nproc <= 3 { "overhead" } else { "ratio" };
                println!(
                    "shard_overhead_ratio {v:.4} ratio  = hot_sharded.wall_s/hot_solo.wall_s ({label}; nproc {})",
                    r.nproc
                );
            }
            other => println!("{other} {v}"),
        }
    }
}
