//! `compare A.json B.json`: one row per (workload, metric), A the base.
//!
//! A host-time metric is `worse` when B's median is worse than A's by more
//! than the metric's bound, `unresolved` when either side's own spread
//! (quartile distance over median) is wider than the bound — then the runs
//! cannot tell — `better` when it improved by more than that spread, and
//! `within` otherwise. A simulated statistic repeats exactly, so its bound here
//! is 0: any difference in the worse direction is `worse`, one in the better
//! direction `changed` (information for a fidelity change, something to explain
//! for a simulator-only one). A median that is not a number is `unresolved`.

use crate::results::Results;
use crate::spec::{self, Better, EndToEnd, Kind};
use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Worse,
    Within,
    Unresolved,
    Better,
    Changed,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Worse => "worse",
            Verdict::Within => "within",
            Verdict::Unresolved => "unresolved",
            Verdict::Better => "better",
            Verdict::Changed => "changed",
        }
    }
}

/// Share of A's median by which B's is worse (negative: better).
fn worsening(m: &EndToEnd, a: &Summary, b: &Summary) -> f64 {
    match m.better {
        Better::Lower => (b.median - a.median) / a.median,
        Better::Higher => (a.median - b.median) / a.median,
    }
}

pub fn verdict(m: &EndToEnd, a: &Summary, b: &Summary) -> Verdict {
    let worse_by = worsening(m, a, b);
    let spread = a.spread().max(b.spread());
    if !(worse_by.is_finite() && spread.is_finite()) {
        return Verdict::Unresolved;
    }
    match m.kind {
        Kind::Simulated if a.median == b.median => Verdict::Within,
        Kind::Simulated if worse_by > 0.0 => Verdict::Worse,
        Kind::Simulated => Verdict::Changed,
        // Runs that disagree with themselves by more than the bound cannot
        // show a difference of the bound's size, in either direction.
        Kind::Host if spread > m.bound => Verdict::Unresolved,
        Kind::Host if worse_by > m.bound => Verdict::Worse,
        Kind::Host if worse_by < -spread && worse_by < 0.0 => Verdict::Better,
        Kind::Host => Verdict::Within,
    }
}

/// Prints the comparison; false if any row is `worse`.
pub fn compare(a: &Results, b: &Results) -> bool {
    if (a.seed, a.seconds) != (b.seed, b.seconds) {
        println!(
            "note: settings differ (seed {} vs {}, seconds/run {} vs {}); compare equal settings",
            a.seed, b.seed, a.seconds, b.seconds
        );
    }
    println!(
        "{:<12} {:<18} {:>14} {:>14} {:>9} {:>7} {:>8}  verdict",
        "workload", "metric", "A median", "B median", "B/A", "bound", "spread"
    );
    let mut ok = true;
    for wa in &a.workloads {
        let Some(wb) = b.workload(&wa.name) else {
            println!("{:<12} missing from B", wa.name);
            ok = false;
            continue;
        };
        for m in &spec::END_TO_END {
            let (Some(sa), Some(sb)) = (wa.metric(m.name), wb.metric(m.name)) else {
                println!("{:<12} {:<18} missing", wa.name, m.name);
                ok = false;
                continue;
            };
            let v = verdict(m, sa, sb);
            ok &= v != Verdict::Worse;
            let spread = sa.spread().max(sb.spread());
            let bound = match m.kind {
                Kind::Host => m.bound,
                Kind::Simulated => 0.0,
            };
            println!(
                "{:<12} {:<18} {:>14.6} {:>14.6} {:>9.4} {:>6.1}% {:>7.1}%  {}",
                wa.name,
                m.name,
                sa.median,
                sb.median,
                sb.median / sa.median,
                bound * 100.0,
                spread * 100.0,
                v.as_str()
            );
        }
        if (&wa.digest, wa.events, wa.packets) != (&wb.digest, wb.events, wb.packets) {
            println!(
                "{:<12} simulated results changed: sim_digest {} -> {}, events {} -> {}, packets {} -> {}",
                wa.name, wa.digest, wb.digest, wa.events, wb.events, wa.packets, wb.packets
            );
        }
    }
    for (name, va) in &a.derived {
        if let Some((_, vb)) = b.derived.iter().find(|(n, _)| n == name) {
            println!("{name:<31} {va:>14.6} {vb:>14.6} {:>9.4}", vb / va);
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host() -> &'static EndToEnd {
        spec::end_to_end("wall_s").unwrap()
    }

    fn tight(median: f64) -> Summary {
        Summary {
            median,
            q1: median * 0.99,
            q3: median * 1.01,
            min: median * 0.98,
            max: median * 1.02,
            n: 5,
        }
    }

    #[test]
    fn host_metric_verdicts() {
        let m = host();
        let base = tight(1.0);
        assert_eq!(
            verdict(m, &base, &tight(1.0 + m.bound + 0.02)),
            Verdict::Worse
        );
        assert_eq!(
            verdict(m, &base, &tight(1.0 + m.bound / 2.0)),
            Verdict::Within
        );
        assert_eq!(verdict(m, &base, &tight(0.995)), Verdict::Within);
        assert_eq!(verdict(m, &base, &tight(0.9)), Verdict::Better);
        let noisy = Summary {
            q1: 0.8,
            q3: 0.8 + m.bound + 0.05,
            ..tight(1.0)
        };
        assert_eq!(verdict(m, &base, &noisy), Verdict::Unresolved);
        assert_eq!(verdict(m, &noisy, &base), Verdict::Unresolved);
        let noisy_and_slow = Summary {
            median: 1.5,
            q1: 1.2,
            q3: 1.2 + 1.5 * (m.bound + 0.05),
            ..noisy
        };
        assert_eq!(verdict(m, &base, &noisy_and_slow), Verdict::Unresolved);
    }

    #[test]
    fn higher_is_better_metrics_flip_the_sign() {
        let m = spec::end_to_end("events_per_s").unwrap();
        assert_eq!(m.better, Better::Higher);
        assert_eq!(
            verdict(m, &tight(1e6), &tight(1e6 * (1.0 - m.bound - 0.02))),
            Verdict::Worse
        );
        assert_eq!(verdict(m, &tight(1e6), &tight(1.2e6)), Verdict::Better);
    }

    #[test]
    fn simulated_metrics_are_checked_for_equality() {
        let m = spec::end_to_end("fct_slowdown_p50").unwrap();
        let exact = |v: f64| Summary {
            median: v,
            q1: v,
            q3: v,
            min: v,
            max: v,
            n: 5,
        };
        assert_eq!(verdict(m, &exact(1.0926), &exact(1.0926)), Verdict::Within);
        // Lower is better: the smallest worsening fails, an improvement is
        // reported but does not.
        assert_eq!(verdict(m, &exact(1.0926), &exact(1.0927)), Verdict::Worse);
        assert_eq!(verdict(m, &exact(1.0926), &exact(1.05)), Verdict::Changed);
        let done = spec::end_to_end("done_share").unwrap();
        assert_eq!(verdict(done, &exact(0.75), &exact(0.74)), Verdict::Worse);
        assert_eq!(verdict(done, &exact(0.75), &exact(0.76)), Verdict::Changed);
    }

    #[test]
    fn a_median_that_is_not_a_number_is_unresolved() {
        let nan = Summary {
            median: f64::NAN,
            ..tight(1.0)
        };
        for m in [host(), spec::end_to_end("fct_slowdown_p99").unwrap()] {
            assert_eq!(verdict(m, &tight(1.0), &nan), Verdict::Unresolved);
            assert_eq!(verdict(m, &nan, &tight(1.0)), Verdict::Unresolved);
        }
    }
}
