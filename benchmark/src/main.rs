//! The repository benchmark: five workloads, end-to-end metrics with
//! bounds, a per-layer ledger measured from outside the program, and an
//! A/A-checked comparator. README.md beside this file is the manual;
//! `BENCHMARK.json` at the repository root is the machine-readable contract.
//!
//! ```text
//! benchmark run     [--seed 1] [--reps 5] [--seconds 15] [--out results.json]
//! benchmark trace   [--seed 1] [--seconds 15] [--out ledger.json] [--spans spans.json]
//! benchmark compare A.json B.json
//! benchmark [measure] --workload NAME --seed N --seconds S --trace 0|1 [--spans spans.json]
//! ```
//!
//! The last form measures one workload in this process and prints one JSON
//! object as its last line; it is what `BENCHMARK.json`'s `command` runs and
//! what `run` and `trace` re-execute, one child process per workload.

mod alloc;
mod compare;
mod json;
mod kernels;
mod measure;
mod results;
mod run;
mod spans;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

use json::{obj, Value};
use spans::Spans;
use workloads::{Size, Workload};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Default seconds one workload is measured for; `BENCHMARK.json` mirrors it
/// as `run_seconds`.
const RUN_SECONDS: f64 = 15.0;

const USAGE: &str = "usage:
  benchmark run     [--seed 1] [--reps 5] [--seconds 15] [--out results.json]
  benchmark trace   [--seed 1] [--seconds 15] [--out ledger.json] [--spans spans.json]
  benchmark compare A.json B.json
  benchmark [measure] --workload NAME --seed N --seconds S --trace 0|1 [--spans spans.json]
workloads: fct_sfq fct_quo hot_solo hot_sharded metro_ckpt";

/// `--flag value` pairs and positional arguments.
struct Args {
    flags: Vec<(String, String)>,
    positional: Vec<String>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut args = Args {
            flags: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            if a.starts_with("--") {
                let value = it.next().ok_or_else(|| format!("{a} needs a value"))?;
                args.flags.push((a.clone(), value.clone()));
            } else {
                args.positional.push(a.clone());
            }
        }
        Ok(args)
    }

    fn get<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.flags.iter().find(|(f, _)| f == flag) {
            None => Ok(default),
            Some((_, v)) => v.parse().map_err(|_| format!("{flag}: cannot read {v:?}")),
        }
    }

    fn text(&self, flag: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    fn known(&self, allowed: &[&str]) -> Result<(), String> {
        match self
            .flags
            .iter()
            .find(|(f, _)| !allowed.contains(&f.as_str()))
        {
            Some((f, _)) => Err(format!("unknown option {f}")),
            None => Ok(()),
        }
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match raw.first().map(String::as_str) {
        Some(c @ ("run" | "trace" | "compare" | "measure")) => (c, &raw[1..]),
        Some(flag) if flag.starts_with("--") => ("measure", &raw[..]),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = Args::parse(rest).and_then(|args| match command {
        "run" => cmd_run(&args),
        "trace" => cmd_trace(&args),
        "compare" => cmd_compare(&args),
        _ => cmd_measure(&args),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("benchmark: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn write_file(path: &str, value: &Value) -> Result<(), String> {
    std::fs::write(path, value.pretty()).map_err(|e| format!("write {path}: {e}"))
}

fn positive_seconds(args: &Args) -> Result<f64, String> {
    let seconds: f64 = args.get("--seconds", RUN_SECONDS)?;
    if seconds.is_finite() && seconds >= 0.0 {
        Ok(seconds)
    } else {
        Err(format!("--seconds: {seconds} is not a duration"))
    }
}

/// One workload in this process; the last line of stdout is the result.
fn cmd_measure(args: &Args) -> Result<bool, String> {
    args.known(&["--workload", "--seed", "--seconds", "--trace", "--spans"])?;
    let name = args.text("--workload").ok_or("--workload is required")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed: u64 = args.get("--seed", 1)?;
    let seconds = positive_seconds(args)?;
    let traced = match args.get("--trace", 0u8)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace: {other} is neither 0 nor 1")),
    };
    // Both passes end in the same line; the untraced one first prints the
    // detail line `run` reads.
    let (correct, attempted, failed, failures, metrics): (_, _, _, _, Vec<_>) = if traced {
        let mut spans = Spans::new();
        let t = trace::trace(workload, Size::Suite, seed, seconds, &mut spans);
        eprintln!(
            "{}: spans cover {:.1}% of the workload span, at least {:.1}% of each world span",
            workload.name(),
            t.coverage.0 * 100.0,
            t.coverage.1 * 100.0
        );
        if let Some(path) = args.text("--spans") {
            write_file(path, &spans.to_chrome_trace())?;
        }
        let metrics = spec::PER_LAYER
            .iter()
            .zip(&t.metrics)
            .map(|(m, &(name, value))| (name, m.unit, value))
            .collect();
        (t.failed == 0, t.attempted, t.failed, t.failures, metrics)
    } else {
        let run = measure::measure(workload, Size::Suite, seed, seconds);
        println!("{}", run.detail().compact());
        let metrics = run
            .metrics()
            .into_iter()
            .zip(&spec::END_TO_END)
            .map(|((name, value), m)| (name, m.unit, value))
            .collect();
        (
            run.correct(),
            run.attempted,
            run.failed,
            run.failures,
            metrics,
        )
    };
    for failure in &failures {
        eprintln!("FAILED: {failure}");
    }
    println!(
        "{}",
        measure::contract_line(correct, attempted, failed, &metrics)
    );
    Ok(correct)
}

fn cmd_run(args: &Args) -> Result<bool, String> {
    args.known(&["--seed", "--reps", "--seconds", "--out"])?;
    let run_args = run::RunArgs {
        seed: args.get("--seed", 1)?,
        reps: args.get("--reps", 5)?,
        seconds: positive_seconds(args)?,
    };
    if run_args.reps == 0 {
        return Err("--reps must be at least 1".to_string());
    }
    let (results, ok) = run::run(&run_args)?;
    if let Some(path) = args.text("--out") {
        write_file(path, &results.to_json())?;
        println!("wrote {path}");
    }
    if !ok {
        eprintln!("benchmark: a verification failed");
    }
    Ok(ok)
}

/// The traced pass of every workload, each in a child process.
fn cmd_trace(args: &Args) -> Result<bool, String> {
    args.known(&["--seed", "--seconds", "--out", "--spans"])?;
    let seed: u64 = args.get("--seed", 1)?;
    let seconds = positive_seconds(args)?;
    let spans_path = args.text("--spans");
    let mut events = Vec::new();
    let mut ledger = Vec::new();
    let mut ok = true;
    for workload in Workload::ALL {
        // Each child writes its spans beside the final file; they are merged
        // below and written once.
        let part = spans_path.map(|p| format!("{p}.{}.part", workload.name()));
        let (correct, metrics) = run::trace_child(workload, seed, seconds, part.as_deref())?;
        ok &= correct;
        println!("\n{}", workload.name());
        for m in &spec::PER_LAYER {
            let value = metrics.iter().find(|(n, _)| n == m.name);
            let value = value
                .ok_or_else(|| format!("child result lacks {}", m.name))?
                .1;
            println!(
                "  {:<32} {value:>18.6} {:<6} ({} is better)",
                m.name,
                m.unit,
                m.better.as_str()
            );
        }
        if let Some(part) = part {
            let text = std::fs::read_to_string(&part).map_err(|e| format!("read {part}: {e}"))?;
            if let Some(Value::Arr(list)) = json::parse(&text)?.get("traceEvents") {
                events.extend(list.iter().cloned());
            }
            std::fs::remove_file(&part).map_err(|e| format!("remove {part}: {e}"))?;
        }
        ledger.push((
            workload.name(),
            obj(metrics.iter().map(|(n, v)| (n.as_str(), Value::from(*v)))),
        ));
    }
    if let Some(path) = args.text("--out") {
        write_file(
            path,
            &obj([("seed", Value::from(seed)), ("workloads", obj(ledger))]),
        )?;
        println!("wrote {path}");
    }
    if let Some(path) = spans_path {
        let trace = obj([
            ("traceEvents", Value::Arr(events)),
            ("displayTimeUnit", "ms".into()),
        ]);
        write_file(path, &trace)?;
        println!("wrote {path}");
    }
    if !ok {
        eprintln!("benchmark: a verification failed");
    }
    Ok(ok)
}

fn cmd_compare(args: &Args) -> Result<bool, String> {
    args.known(&[])?;
    let [a, b] = args.positional.as_slice() else {
        return Err("compare needs exactly two result files".to_string());
    };
    let load = |path: &String| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        results::Results::from_json(&json::parse(&text)?)
    };
    Ok(compare::compare(&load(a)?, &load(b)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::Features;

    /// `BENCHMARK.json`, one level above this package.
    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn names(list: &Value) -> Vec<&str> {
        let items = list.as_arr().expect("a list");
        items
            .iter()
            .map(|item| item.get("name").and_then(Value::as_str).expect("a name"))
            .collect()
    }

    #[test]
    fn every_workload_passes_every_verification_at_smoke_size() {
        for workload in Workload::ALL {
            let run = measure::measure(workload, Size::Smoke, 7, 0.0);
            assert!(run.correct(), "{}: {:?}", workload.name(), run.failures);
            assert_eq!(run.rounds, 2);
            assert_eq!(run.attempted, 2 * workload.worlds(Size::Smoke) as u64);
            for (name, value) in run.metrics() {
                let positive = value.is_finite() && value > 0.0;
                assert!(positive, "{} {name} = {value}", workload.name());
            }
            assert!(run.outcomes.iter().all(|o| o.completed > 0));
        }
    }

    #[test]
    fn the_seed_draws_the_visit_order_and_nothing_simulated() {
        let order = measure::visit_order(6, 1);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, [0, 1, 2, 3, 4, 5]);
        assert_eq!(order, measure::visit_order(6, 1));
        assert!((2..40).any(|seed| measure::visit_order(6, seed) != order));
        let a = measure::measure(Workload::FctQuo, Size::Smoke, 1, 0.0);
        let b = measure::measure(Workload::FctQuo, Size::Smoke, 2, 0.0);
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.slowdown_quantile(0.5), b.slowdown_quantile(0.5));
    }

    #[test]
    fn sharded_and_solo_simulate_the_same_worlds() {
        let solo = measure::measure(Workload::HotSolo, Size::Smoke, 1, 0.0);
        let sharded = measure::measure(Workload::HotSharded, Size::Smoke, 1, 0.0);
        assert_eq!(solo.digest(), sharded.digest());
        let sfq = workloads::generate(Workload::FctSfq, Size::Smoke, 0, Features::OFF);
        let quo = workloads::generate(Workload::FctQuo, Size::Smoke, 0, Features::OFF);
        assert_eq!(
            sfq.flows, quo.flows,
            "the bypass sees the same request stream"
        );
    }

    #[test]
    fn the_traced_pass_reports_every_per_layer_metric() {
        let mut spans = Spans::new();
        let fct = trace::trace(Workload::FctQuo, Size::Smoke, 1, 0.0, &mut spans);
        let metro = trace::trace(Workload::MetroCkpt, Size::Smoke, 1, 0.0, &mut spans);
        for t in [&fct, &metro] {
            assert_eq!(t.failed, 0, "{:?}", t.failures);
            let reported: Vec<_> = t.metrics.iter().map(|m| m.0).collect();
            let declared: Vec<_> = spec::PER_LAYER.iter().map(|m| m.name).collect();
            assert_eq!(reported, declared);
            assert!(t.metrics.iter().all(|m| m.1.is_finite()));
        }
        let value = |t: &trace::Traced, name: &str| {
            t.metrics.iter().find(|m| m.0 == name).expect("declared").1
        };
        // The bypass never enters the sendbox, the edge or the bundle CC.
        for share in ["share.core.sendbox", "share.sim.edge", "share.cc"] {
            assert_eq!(value(&fct, share), 0.0, "{share}");
        }
        assert!(value(&metro, "sim.snapshot.count") > 0.0);
        assert!(value(&metro, "obs.stream.records") > 0.0);
        assert!(value(&metro, "span.replay_s") > 0.0);
        assert!(spans
            .to_chrome_trace()
            .compact()
            .contains("workload:metro_ckpt"));
    }

    #[test]
    fn benchmark_json_mirrors_the_spec() {
        let doc = benchmark_json();
        let keys: Vec<_> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(doc.get("run_seconds").unwrap().as_f64(), Some(RUN_SECONDS));
        // The command builds this package, the only thing under `paths`.
        let texts = |key: &str| -> Vec<&str> {
            let list = doc.get(key).unwrap().as_arr().unwrap();
            list.iter().map(|v| v.as_str().unwrap()).collect()
        };
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).file_name();
        assert_eq!(texts("paths"), [dir.unwrap().to_str().unwrap()]);
        assert!(texts("command").contains(&"benchmark/Cargo.toml"));
        let workloads = doc.get("workloads").unwrap();
        let driven: Vec<_> = spec::WORKLOADS.iter().filter(|w| w.driver).collect();
        assert_eq!(
            names(workloads),
            driven.iter().map(|w| w.name).collect::<Vec<_>>(),
            "workload names"
        );
        assert!(Workload::ALL
            .iter()
            .all(|w| Workload::parse(w.name()) == Some(*w)));
        for (item, w) in workloads.as_arr().unwrap().iter().zip(driven) {
            assert_eq!(item.get("why").unwrap().as_str(), Some(w.why));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
        let end_to_end = doc.get("end_to_end").unwrap();
        assert_eq!(
            names(end_to_end),
            spec::END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        for (item, m) in end_to_end.as_arr().unwrap().iter().zip(&spec::END_TO_END) {
            assert_eq!(
                item.get("unit").unwrap().as_str(),
                Some(m.unit),
                "{}",
                m.name
            );
            assert_eq!(
                item.get("better").unwrap().as_str(),
                Some(m.better.as_str())
            );
            assert_eq!(
                item.get("bound").unwrap().as_f64(),
                Some(m.bound),
                "{}",
                m.name
            );
            assert!(m.bound <= 0.25);
        }
        let per_layer = doc.get("per_layer").unwrap();
        assert_eq!(
            names(per_layer),
            spec::PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        for (item, m) in per_layer.as_arr().unwrap().iter().zip(&spec::PER_LAYER) {
            assert_eq!(
                item.get("unit").unwrap().as_str(),
                Some(m.unit),
                "{}",
                m.name
            );
            assert_eq!(
                item.get("better").unwrap().as_str(),
                Some(m.better.as_str())
            );
        }
        assert!(spec::PER_LAYER.len() <= 128 && spec::END_TO_END.len() <= 16);
        assert!(spec::END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        let all = spec::WORKLOADS
            .iter()
            .map(|w| (w.name, "count"))
            .chain(spec::END_TO_END.iter().map(|m| (m.name, m.unit)))
            .chain(spec::PER_LAYER.iter().map(|m| (m.name, m.unit)));
        for (name, unit) in all {
            assert!(name_ok(name), "name {name:?}");
            assert!(unit_ok(unit), "unit {unit:?} of {name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
    }

    #[test]
    fn the_contract_line_has_exactly_the_four_keys() {
        let line = measure::contract_line(true, 3, 0, &[("wall_s", "s", 1.25)]);
        let v = json::parse(&line).unwrap();
        let keys: Vec<_> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let wall = v.get("metrics").unwrap().get("wall_s").unwrap();
        assert_eq!(wall.get("value").unwrap().as_f64(), Some(1.25));
        assert_eq!(wall.get("unit").unwrap().as_str(), Some("s"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |raw: &[&str]| {
            let raw: Vec<String> = raw.iter().map(|s| s.to_string()).collect();
            Args::parse(&raw)
        };
        let args = parse(&["--seed", "3", "a.json"]).unwrap();
        assert_eq!(args.get("--seed", 1u64), Ok(3));
        assert_eq!(args.get("--reps", 5usize), Ok(5));
        assert_eq!(args.positional, ["a.json"]);
        assert!(args.known(&["--seed"]).is_ok() && args.known(&["--reps"]).is_err());
        assert!(parse(&["--seed"]).is_err(), "a flag needs its value");
        assert!(parse(&["--seed", "x"])
            .unwrap()
            .get("--seed", 1u64)
            .is_err());
        assert!(cmd_measure(&parse(&["--workload", "nope"]).unwrap()).is_err());
        assert!(cmd_compare(&parse(&["only-one.json"]).unwrap()).is_err());
    }
}
