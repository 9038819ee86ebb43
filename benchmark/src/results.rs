//! The result file `run` writes and `compare` reads back.

use crate::json::{obj, Value};
use crate::stats::Summary;

#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    pub name: String,
    /// The suite digest, 16 hex digits (a JSON number cannot hold 64 bits).
    pub digest: String,
    pub events: u64,
    pub packets: u64,
    pub threads: usize,
    /// Per end-to-end metric, the summary over the repetitions.
    pub metrics: Vec<(String, Summary)>,
}

impl WorkloadResult {
    pub fn metric(&self, name: &str) -> Option<&Summary> {
        self.metrics.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Results {
    pub seed: u64,
    pub reps: usize,
    pub seconds: f64,
    /// `std::thread::available_parallelism` of the measuring host.
    pub nproc: usize,
    /// Fastest calibration-loop pass, ns per operation.
    pub calib_ns: f64,
    pub workloads: Vec<WorkloadResult>,
    /// Cross-workload statistics: `fig9_p50_gain`, `shard_overhead_ratio`.
    pub derived: Vec<(String, f64)>,
}

impl Results {
    pub fn workload(&self, name: &str) -> Option<&WorkloadResult> {
        self.workloads.iter().find(|w| w.name == name)
    }

    pub fn to_json(&self) -> Value {
        obj([
            ("benchmark", Value::from("bundler-rs")),
            ("seed", self.seed.into()),
            ("reps", self.reps.into()),
            ("seconds", self.seconds.into()),
            ("nproc", self.nproc.into()),
            ("host.calib_ns", self.calib_ns.into()),
            (
                "workloads",
                Value::Arr(
                    self.workloads
                        .iter()
                        .map(|w| {
                            obj([
                                ("name", Value::from(w.name.as_str())),
                                ("digest", w.digest.as_str().into()),
                                ("events", w.events.into()),
                                ("packets", w.packets.into()),
                                ("threads", w.threads.into()),
                                (
                                    "metrics",
                                    obj(w.metrics.iter().map(|(n, s)| (n.as_str(), s.to_json()))),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "derived",
                obj(self
                    .derived
                    .iter()
                    .map(|(n, v)| (n.as_str(), Value::from(*v)))),
            ),
        ])
    }

    pub fn from_json(v: &Value) -> Result<Results, String> {
        let num = |v: &Value, k: &str| {
            v.get(k)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("result file: missing number {k:?}"))
        };
        let text = |v: &Value, k: &str| {
            v.get(k)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("result file: missing string {k:?}"))
        };
        let workloads = v
            .get("workloads")
            .and_then(Value::as_arr)
            .ok_or("result file: missing \"workloads\"")?
            .iter()
            .map(|w| {
                let metrics = w
                    .get("metrics")
                    .and_then(Value::as_obj)
                    .ok_or("result file: workload without \"metrics\"")?
                    .iter()
                    .map(|(name, s)| {
                        Summary::from_json(s)
                            .map(|s| (name.clone(), s))
                            .ok_or_else(|| format!("result file: bad summary for {name:?}"))
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                Ok(WorkloadResult {
                    name: text(w, "name")?,
                    digest: text(w, "digest")?,
                    events: num(w, "events")? as u64,
                    packets: num(w, "packets")? as u64,
                    threads: num(w, "threads")? as usize,
                    metrics,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let derived = v
            .get("derived")
            .and_then(Value::as_obj)
            .unwrap_or(&[])
            .iter()
            .filter_map(|(n, v)| Some((n.clone(), v.as_f64()?)))
            .collect();
        Ok(Results {
            seed: num(v, "seed")? as u64,
            reps: num(v, "reps")? as usize,
            seconds: num(v, "seconds")?,
            nproc: num(v, "nproc")? as usize,
            calib_ns: num(v, "host.calib_ns")?,
            workloads,
            derived,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_round_trip_through_the_json_module() {
        let r = Results {
            seed: 3,
            reps: 2,
            seconds: 1.5,
            nproc: 2,
            calib_ns: 1.11,
            workloads: vec![WorkloadResult {
                name: "fct_sfq".into(),
                digest: "00ff00ff00ff00ff".into(),
                events: 7_187_275,
                packets: 2_464_025,
                threads: 1,
                metrics: vec![("wall_s".into(), Summary::of(&[1.4, 1.5]))],
            }],
            derived: vec![("fig9_p50_gain".into(), 0.18)],
        };
        let text = r.to_json().pretty();
        let back = Results::from_json(&crate::json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, r);
        assert!(Results::from_json(&crate::json::parse("{}").unwrap()).is_err());
    }
}
