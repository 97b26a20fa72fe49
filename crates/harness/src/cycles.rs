//! Cycle-ledger snapshots: schema, exposition and gap attribution.
//!
//! The `cycle_ledger` binary measures per-op hardware-counter costs for
//! each backend and, for the WF queue, the per-phase self-time ledger from
//! `wfq_obs::ledger`. This module owns the measurement's downstream
//! artifacts: the normalized `results/BENCH_cycles.json` document
//! ([`render_cycles_json`]), the WF−F&A gap attribution arithmetic
//! ([`attribute_gap`]) and the Prometheus exposition
//! ([`render_cycles_prometheus`]). `wfq-regress` reads the document back,
//! records its trajectory line and gates it per phase through the one
//! snapshot engine in [`crate::regress`] (kind `cycle_ledger`).
//!
//! Two drift guards, both by construction rather than by parallel lists:
//! counter-derived fields (`cycles_per_op`, `instructions_per_op`,
//! `l1d_miss_per_op`, …) are stored in an array indexed by
//! `wfq_obs::CounterKind` and the renderers and the parser loop
//! `wfq_obs::ALL_COUNTERS`, so a new counter kind extends the JSON schema,
//! the parser, and the exposition in one place; phase names come from
//! `wfq_obs::Phase::name`, and the parity test walks `ALL_PHASES`.

use crate::json::escape;
use wfq_obs::{CounterKind, Phase, ALL_COUNTERS, NUM_COUNTERS};

/// Mean per-op cost of one ledger phase, with a Student-t 95% CI half-width
/// over invocations.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseCost {
    /// Phase name (`Phase::name` — `faa`, `find_cell`, …).
    pub phase: String,
    /// Mean phase self-cycles per operation.
    pub cycles_per_op: f64,
    /// 95% CI half-width of `cycles_per_op` over invocations.
    pub ci_half: f64,
    /// Mean phase entries (enter/exit pairs) per operation.
    pub entries_per_op: f64,
}

/// One `(queue, threads)` cycles measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct CyclesPoint {
    /// Concurrency level (producer+consumer total, as in BENCH_pairwise).
    pub threads: usize,
    /// Per-op counter means, indexed by `CounterKind as usize`
    /// (`counters_per_op[Cycles]` is the headline cycles/op).
    pub counters_per_op: [f64; NUM_COUNTERS],
    /// 95% CI half-width of cycles/op over invocations.
    pub ci_half: f64,
    /// True when cycles are multiplex-scaled or TSC-derived rather than a
    /// direct hardware measurement.
    pub estimated: bool,
    /// Percent of this point's op cycles the phase ledger accounts for
    /// (Σ phase self-cycles / total op cycles × 100; 0 for unledgered
    /// backends).
    pub attributed_pct: f64,
    /// Per-phase ledger costs (empty for backends without `phase!` hooks).
    pub phases: Vec<PhaseCost>,
}

impl CyclesPoint {
    /// Headline cycles per op.
    pub fn cycles_per_op(&self) -> f64 {
        self.counters_per_op[CounterKind::Cycles as usize]
    }

    /// One counter's per-op mean.
    pub fn counter_per_op(&self, kind: CounterKind) -> f64 {
        self.counters_per_op[kind as usize]
    }

    /// Sum of per-phase self-cycles (the ledger's accounted total).
    pub fn phase_sum(&self) -> f64 {
        self.phases.iter().map(|p| p.cycles_per_op).sum()
    }
}

/// One backend's cycles series.
#[derive(Debug, Clone, PartialEq)]
pub struct CyclesSeries {
    /// Backend display name (`FAA`, `Mutex<VecDeque>`, `WF-10`, …).
    pub name: String,
    /// One point per measured thread count.
    pub points: Vec<CyclesPoint>,
}

/// How the perf layer sourced its numbers for this snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfMode {
    /// `"hardware"` or `"tsc-only"` (`PerfStatus::mode`).
    pub mode: String,
    /// Whether reads went through user-space `rdpmc`.
    pub rdpmc: bool,
    /// Denial cause in tsc-only mode (empty in hardware mode).
    pub reason: String,
}

/// One phase's contribution to the WF−F&A cycle gap.
#[derive(Debug, Clone, PartialEq)]
pub struct GapPhase {
    /// Phase name.
    pub phase: String,
    /// The phase's per-op self-cycles in the candidate.
    pub cycles_per_op: f64,
    /// The phase's contribution to the gap, per op. For the `faa` phase
    /// this is the *excess* over the baseline's whole op (the baseline IS
    /// a fetch-and-add); for every other phase it is the phase cost itself.
    pub gap_contribution: f64,
    /// `gap_contribution` as a percentage of the total gap.
    pub share_pct: f64,
}

/// The differential table attributing the candidate−baseline cycle delta
/// phase by phase (the tentpole's headline artifact).
#[derive(Debug, Clone, PartialEq)]
pub struct GapAttribution {
    /// Baseline backend name (`FAA`).
    pub baseline: String,
    /// Candidate backend name (`WF-10`).
    pub candidate: String,
    /// Candidate cycles/op − baseline cycles/op.
    pub cycle_delta_per_op: f64,
    /// Percent of the delta the per-phase ledger accounts for (the
    /// acceptance criterion wants ≥ 80 at 1 thread).
    pub attributed_pct: f64,
    /// Per-phase breakdown, in `ALL_PHASES` order.
    pub phases: Vec<GapPhase>,
}

/// A parsed cycles snapshot (`results/BENCH_cycles.json`).
#[derive(Debug, Clone, PartialEq)]
pub struct CyclesSnapshot {
    /// Commit the snapshot measured.
    pub commit: Option<String>,
    /// Benchmark name (`cycle_ledger`).
    pub benchmark: String,
    /// Workload label (`pairwise`).
    pub workload: String,
    /// Counter sourcing for the whole run.
    pub perf: PerfMode,
    /// One series per backend.
    pub series: Vec<CyclesSeries>,
    /// The single-thread gap attribution (absent when the run did not
    /// include both the baseline and the candidate).
    pub delta: Option<GapAttribution>,
}

impl CyclesSnapshot {
    /// Finds a `(queue, threads)` point.
    pub fn point(&self, queue: &str, threads: usize) -> Option<&CyclesPoint> {
        self.series
            .iter()
            .find(|s| s.name == queue)?
            .points
            .iter()
            .find(|p| p.threads == threads)
    }
}

// ----------------------------------------------------------------------
// Gap attribution (pure arithmetic, unit-testable)
// ----------------------------------------------------------------------

/// Attributes the candidate−baseline cycle delta phase by phase.
///
/// The baseline (bare F&A) *is* the candidate's `faa` phase, so the `faa`
/// row contributes only its excess over the baseline's whole op; every
/// other phase is pure overhead relative to the baseline and contributes
/// its full self-cost. `attributed_pct` is the summed contributions over
/// the gap — the ≥80% acceptance bar — and degrades to 0 (never NaN/∞)
/// when the gap is non-positive.
pub fn attribute_gap(
    baseline_name: &str,
    base: &CyclesPoint,
    candidate_name: &str,
    cand: &CyclesPoint,
) -> GapAttribution {
    let gap = cand.cycles_per_op() - base.cycles_per_op();
    let mut phases = Vec::new();
    let mut explained = 0.0;
    for p in &cand.phases {
        let contribution = if p.phase == Phase::Faa.name() {
            (p.cycles_per_op - base.cycles_per_op()).max(0.0)
        } else {
            p.cycles_per_op
        };
        explained += contribution;
        phases.push(GapPhase {
            phase: p.phase.clone(),
            cycles_per_op: p.cycles_per_op,
            gap_contribution: contribution,
            share_pct: if gap > 0.0 {
                100.0 * contribution / gap
            } else {
                0.0
            },
        });
    }
    GapAttribution {
        baseline: baseline_name.to_string(),
        candidate: candidate_name.to_string(),
        cycle_delta_per_op: gap,
        attributed_pct: if gap > 0.0 {
            100.0 * explained / gap
        } else {
            0.0
        },
        phases,
    }
}

// ----------------------------------------------------------------------
// JSON render (parsed by `regress::parse_snapshot`)
// ----------------------------------------------------------------------

fn render_point(out: &mut String, p: &CyclesPoint, indent: &str) {
    out.push_str(&format!("{indent}{{\n{indent}  \"threads\": {},\n", p.threads));
    // Counter fields derive their names from the canonical enumeration:
    // `<kind>_per_op`. A new CounterKind lands here automatically.
    for kind in ALL_COUNTERS {
        out.push_str(&format!(
            "{indent}  \"{}_per_op\": {:.6},\n",
            kind.name(),
            p.counter_per_op(kind)
        ));
    }
    out.push_str(&format!("{indent}  \"ci_half\": {:.6},\n", p.ci_half));
    out.push_str(&format!("{indent}  \"estimated\": {},\n", p.estimated));
    out.push_str(&format!(
        "{indent}  \"attributed_pct\": {:.3},\n",
        p.attributed_pct
    ));
    out.push_str(&format!("{indent}  \"phases\": ["));
    for (i, ph) in p.phases.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n{indent}    {{\"phase\": \"{}\", \"cycles_per_op\": {:.6}, \"ci_half\": {:.6}, \"entries_per_op\": {:.6}}}",
            escape(&ph.phase), ph.cycles_per_op, ph.ci_half, ph.entries_per_op
        ));
    }
    if !p.phases.is_empty() {
        out.push_str(&format!("\n{indent}  "));
    }
    out.push_str(&format!("]\n{indent}}}"));
}

/// Renders a cycles snapshot as the normalized `BENCH_cycles.json`
/// document.
pub fn render_cycles_json(snap: &CyclesSnapshot) -> String {
    let mut out = String::from("{\n");
    if let Some(c) = &snap.commit {
        out.push_str(&format!("  \"commit\": \"{}\",\n", escape(c)));
    }
    out.push_str(&format!(
        "  \"benchmark\": \"{}\",\n  \"workload\": \"{}\",\n",
        escape(&snap.benchmark),
        escape(&snap.workload)
    ));
    out.push_str(&format!(
        "  \"perf\": {{\"mode\": \"{}\", \"rdpmc\": {}, \"reason\": \"{}\"}},\n",
        escape(&snap.perf.mode),
        snap.perf.rdpmc,
        escape(&snap.perf.reason)
    ));
    out.push_str("  \"series\": [\n");
    for (si, s) in snap.series.iter().enumerate() {
        out.push_str(&format!(
            "    {{\n      \"queue\": \"{}\",\n      \"points\": [\n",
            escape(&s.name)
        ));
        for (pi, p) in s.points.iter().enumerate() {
            render_point(&mut out, p, "        ");
            if pi + 1 < s.points.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("      ]\n    }");
        if si + 1 < snap.series.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]");
    if let Some(d) = &snap.delta {
        out.push_str(&format!(
            ",\n  \"delta\": {{\n    \"baseline\": \"{}\",\n    \"candidate\": \"{}\",\n    \"cycle_delta_per_op\": {:.6},\n    \"attributed_pct\": {:.3},\n    \"phases\": [",
            escape(&d.baseline), escape(&d.candidate), d.cycle_delta_per_op, d.attributed_pct
        ));
        for (i, p) in d.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n      {{\"phase\": \"{}\", \"cycles_per_op\": {:.6}, \"gap_contribution\": {:.6}, \"share_pct\": {:.3}}}",
                escape(&p.phase), p.cycles_per_op, p.gap_contribution, p.share_pct
            ));
        }
        if !d.phases.is_empty() {
            out.push_str("\n    ");
        }
        out.push_str("]\n  }");
    }
    out.push_str("\n}\n");
    out
}

// ----------------------------------------------------------------------
// Prometheus exposition
// ----------------------------------------------------------------------

/// Renders a cycles snapshot in the Prometheus text format: per-backend
/// `wfq_cycles_per_op` gauges labeled by `phase` (`total` plus each
/// ledgered phase), the companion per-op counter gauges (instructions,
/// branch misses), `wfq_cache_miss_per_op` labeled by cache `level`, the
/// estimated/measured flag, and the ledger's attribution coverage.
pub fn render_cycles_prometheus(snap: &CyclesSnapshot) -> String {
    let mut out = String::new();
    out.push_str("# HELP wfq_cycles_per_op Mean cycles per operation, by protocol phase (total = whole op)\n# TYPE wfq_cycles_per_op gauge\n");
    for s in &snap.series {
        for p in &s.points {
            out.push_str(&format!(
                "wfq_cycles_per_op{{queue=\"{}\",threads=\"{}\",phase=\"total\"}} {:.3}\n",
                s.name,
                p.threads,
                p.cycles_per_op()
            ));
            for ph in &p.phases {
                out.push_str(&format!(
                    "wfq_cycles_per_op{{queue=\"{}\",threads=\"{}\",phase=\"{}\"}} {:.3}\n",
                    s.name, p.threads, ph.phase, ph.cycles_per_op
                ));
            }
        }
    }
    out.push_str("# HELP wfq_cycles_estimated Whether cycle counts are estimates (multiplex-scaled or TSC-derived) rather than direct measurements\n# TYPE wfq_cycles_estimated gauge\n");
    for s in &snap.series {
        for p in &s.points {
            out.push_str(&format!(
                "wfq_cycles_estimated{{queue=\"{}\",threads=\"{}\"}} {}\n",
                s.name,
                p.threads,
                if p.estimated { 1 } else { 0 }
            ));
        }
    }
    out.push_str("# HELP wfq_cycles_attributed_pct Percent of op cycles the phase ledger accounts for\n# TYPE wfq_cycles_attributed_pct gauge\n");
    for s in &snap.series {
        for p in &s.points {
            if !p.phases.is_empty() {
                out.push_str(&format!(
                    "wfq_cycles_attributed_pct{{queue=\"{}\",threads=\"{}\"}} {:.1}\n",
                    s.name, p.threads, p.attributed_pct
                ));
            }
        }
    }
    // Non-cycle counters: the cache-miss kinds share one level-labeled
    // metric; the rest get their own gauge. The match is exhaustive over
    // CounterKind so a new counter cannot silently skip the exposition.
    for kind in ALL_COUNTERS {
        let (metric, label): (&str, Option<&str>) = match kind {
            CounterKind::Cycles => continue, // rendered above, phase-labeled
            CounterKind::Instructions => ("wfq_instructions_per_op", None),
            CounterKind::L1dMisses => ("wfq_cache_miss_per_op", Some("l1d")),
            CounterKind::LlcMisses => ("wfq_cache_miss_per_op", Some("llc")),
            CounterKind::BranchMisses => ("wfq_branch_miss_per_op", None),
        };
        if label.is_none() || label == Some("l1d") {
            // Emit each metric's header once (the two cache levels share).
            let help = match metric {
                "wfq_instructions_per_op" => "Mean retired instructions per operation",
                "wfq_cache_miss_per_op" => "Mean cache read misses per operation, by cache level",
                _ => "Mean branch mispredictions per operation",
            };
            out.push_str(&format!(
                "# HELP {metric} {help}\n# TYPE {metric} gauge\n"
            ));
        }
        for s in &snap.series {
            for p in &s.points {
                match label {
                    Some(level) => out.push_str(&format!(
                        "{metric}{{queue=\"{}\",threads=\"{}\",level=\"{level}\"}} {:.4}\n",
                        s.name,
                        p.threads,
                        p.counter_per_op(kind)
                    )),
                    None => out.push_str(&format!(
                        "{metric}{{queue=\"{}\",threads=\"{}\"}} {:.4}\n",
                        s.name,
                        p.threads,
                        p.counter_per_op(kind)
                    )),
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::regress::{compare, parse_snapshot, Kind, Polarity, Snapshot};
    use wfq_obs::ALL_PHASES;

    /// The snapshot as the gate reads it: rendered, then parsed.
    fn gated(snap: &CyclesSnapshot) -> Snapshot {
        parse_snapshot(&render_cycles_json(snap)).expect("rendered snapshot must parse")
    }

    fn gate(base: &CyclesSnapshot, cand: &CyclesSnapshot) -> crate::regress::Comparison {
        compare(&gated(base).rows(), &gated(cand).rows(), Polarity::LowerIsBetter, 10.0)
    }

    /// A point with every phase and every counter populated with unique
    /// values — built by walking the canonical enumerations, so adding a
    /// Phase or CounterKind automatically widens every test below.
    fn full_point(threads: usize, scale: f64) -> CyclesPoint {
        let mut counters_per_op = [0.0; NUM_COUNTERS];
        for (i, kind) in ALL_COUNTERS.iter().enumerate() {
            counters_per_op[*kind as usize] = scale * (100.0 + i as f64);
        }
        let phases: Vec<PhaseCost> = ALL_PHASES
            .iter()
            .enumerate()
            .map(|(i, p)| PhaseCost {
                phase: p.name().to_string(),
                cycles_per_op: scale * (10.0 + i as f64),
                ci_half: 0.5,
                entries_per_op: 1.0 + i as f64 * 0.1,
            })
            .collect();
        let total = counters_per_op[CounterKind::Cycles as usize];
        let sum: f64 = phases.iter().map(|p| p.cycles_per_op).sum();
        CyclesPoint {
            threads,
            counters_per_op,
            ci_half: 1.0,
            estimated: true,
            attributed_pct: 100.0 * sum / total,
            phases,
        }
    }

    fn sample_snapshot() -> CyclesSnapshot {
        let faa = CyclesPoint {
            threads: 1,
            counters_per_op: {
                let mut c = [0.0; NUM_COUNTERS];
                c[CounterKind::Cycles as usize] = 30.0;
                c
            },
            ci_half: 0.5,
            estimated: true,
            attributed_pct: 0.0,
            phases: Vec::new(),
        };
        let wf = full_point(1, 1.0);
        CyclesSnapshot {
            commit: Some("abc1234".into()),
            benchmark: "cycle_ledger".into(),
            workload: "pairwise".into(),
            perf: PerfMode {
                mode: "tsc-only".into(),
                rdpmc: false,
                reason: "WFQ_PERF_DENY".into(),
            },
            series: vec![
                CyclesSeries {
                    name: "FAA".into(),
                    points: vec![faa.clone()],
                },
                CyclesSeries {
                    name: "WF-10".into(),
                    points: vec![wf.clone()],
                },
            ],
            delta: Some(attribute_gap("FAA", &faa, "WF-10", &wf)),
        }
    }

    #[test]
    fn json_round_trips_exactly() {
        let snap = sample_snapshot();
        let parsed = gated(&snap);
        assert_eq!(parsed.kind.metric().benchmark, snap.benchmark);
        let Kind::Cycles { perf, series, delta } = parsed.kind else {
            panic!("a cycle_ledger document must parse as cycles");
        };
        assert_eq!(perf, snap.perf);
        assert_eq!(series.len(), snap.series.len());
        let (a, b) = (&series[1].points[0], &snap.series[1].points[0]);
        assert_eq!(a.threads, b.threads);
        assert_eq!(a.phases.len(), b.phases.len());
        for (x, y) in a.counters_per_op.iter().zip(b.counters_per_op.iter()) {
            assert!((x - y).abs() < 1e-6);
        }
        let d = delta.expect("delta survives the round trip");
        assert_eq!(d.baseline, "FAA");
        assert_eq!(d.phases.len(), ALL_PHASES.len());
    }

    #[test]
    fn parser_rejects_snapshots_the_gate_cannot_compare() {
        let good = render_cycles_json(&sample_snapshot());
        assert!(parse_snapshot(&good).is_ok(), "control");

        let perf = "\"perf\": {\"mode\": \"tsc-only\", \"rdpmc\": false, \"reason\": \"\"}";
        assert!(parse_snapshot(&format!(
            "{{\"benchmark\": \"cycle_ledger\", \"workload\": \"y\", {perf}, \"series\": []}}"
        ))
        .unwrap_err()
        .contains("no series"));
        assert!(parse_snapshot(&format!(
            "{{\"benchmark\": \"cycle_ledger\", \"workload\": \"y\", {perf}, \"series\": [{{\"queue\": \"FAA\", \"points\": []}}]}}"
        ))
        .unwrap_err()
        .contains("no points"));
        // A missing perf block means the snapshot cannot say whether its
        // numbers were measured or estimated — reject.
        let no_perf = good.replace("\"perf\"", "\"perf_gone\"");
        assert!(parse_snapshot(&no_perf).unwrap_err().contains("perf"));
        // Unknown phase names are schema drift, not data.
        let bad_phase = good.replace("\"phase\": \"faa\"", "\"phase\": \"warp\"");
        assert!(parse_snapshot(&bad_phase).unwrap_err().contains("unknown phase"));
        // Non-finite numbers are mis-generated snapshots.
        let nan = good.replace("\"ci_half\": 1.000000", "\"ci_half\": 1e999");
        assert!(parse_snapshot(&nan).is_err());
    }

    #[test]
    fn counter_fields_cover_the_canonical_enumeration() {
        // Drift guard: every CounterKind must surface as `<name>_per_op`
        // in the JSON document, and dropping any one of them must fail the
        // parse.
        let doc = render_cycles_json(&sample_snapshot());
        for kind in ALL_COUNTERS {
            let field = format!("\"{}_per_op\"", kind.name());
            assert!(doc.contains(&field), "JSON missing {field}");
            let broken = doc.replace(&field, "\"bogus_per_op\"");
            assert!(
                parse_snapshot(&broken).is_err(),
                "parser accepted a snapshot without {field}"
            );
        }
    }

    #[test]
    fn attribution_splits_the_gap_by_phase() {
        // Baseline: 30 cycles/op. Candidate: 100 cycles/op total, ledger
        // says faa=35, find_cell=20, cell_cas=15, stats=10, slow_path=8
        // (sum 88). Gap = 70; contributions: faa excess 5, others full —
        // 5+20+15+10+8 = 58 → 82.86%.
        let base = CyclesPoint {
            threads: 1,
            counters_per_op: {
                let mut c = [0.0; NUM_COUNTERS];
                c[CounterKind::Cycles as usize] = 30.0;
                c
            },
            ci_half: 0.1,
            estimated: true,
            attributed_pct: 0.0,
            phases: Vec::new(),
        };
        let mk = |phase: Phase, cyc: f64| PhaseCost {
            phase: phase.name().to_string(),
            cycles_per_op: cyc,
            ci_half: 0.1,
            entries_per_op: 1.0,
        };
        let cand = CyclesPoint {
            threads: 1,
            counters_per_op: {
                let mut c = [0.0; NUM_COUNTERS];
                c[CounterKind::Cycles as usize] = 100.0;
                c
            },
            ci_half: 0.2,
            estimated: true,
            attributed_pct: 88.0,
            phases: vec![
                mk(Phase::Faa, 35.0),
                mk(Phase::FindCell, 20.0),
                mk(Phase::CellCas, 15.0),
                mk(Phase::Stats, 10.0),
                mk(Phase::SlowPath, 8.0),
            ],
        };
        let gap = attribute_gap("FAA", &base, "WF-10", &cand);
        assert_eq!(gap.cycle_delta_per_op, 70.0);
        assert!((gap.attributed_pct - 100.0 * 58.0 / 70.0).abs() < 1e-9);
        let faa_row = gap.phases.iter().find(|p| p.phase == "faa").unwrap();
        assert_eq!(faa_row.gap_contribution, 5.0, "faa contributes only its excess");
        let fc = gap.phases.iter().find(|p| p.phase == "find_cell").unwrap();
        assert_eq!(fc.gap_contribution, 20.0);
        assert!((fc.share_pct - 100.0 * 20.0 / 70.0).abs() < 1e-9);
    }

    #[test]
    fn attribution_degrades_on_a_non_positive_gap() {
        let p = full_point(1, 1.0);
        let gap = attribute_gap("A", &p, "B", &p.clone());
        assert_eq!(gap.cycle_delta_per_op, 0.0);
        assert_eq!(gap.attributed_pct, 0.0, "no NaN/∞ on a zero gap");
        for ph in &gap.phases {
            assert_eq!(ph.share_pct, 0.0);
        }
    }

    #[test]
    fn exposition_carries_every_phase_and_counter() {
        // The drift-guarded parity test (satellite): walk the canonical
        // enumerations and require each phase label and each counter
        // metric in the exposition of a fully-populated snapshot.
        let snap = sample_snapshot();
        let out = render_cycles_prometheus(&snap);
        assert!(out.contains("phase=\"total\""));
        for p in ALL_PHASES {
            assert!(
                out.contains(&format!("phase=\"{}\"", p.name())),
                "exposition missing phase {}:\n{out}",
                p.name()
            );
        }
        for kind in ALL_COUNTERS {
            let needle = match kind {
                CounterKind::Cycles => "wfq_cycles_per_op{".to_string(),
                CounterKind::Instructions => "wfq_instructions_per_op{".to_string(),
                CounterKind::L1dMisses => "level=\"l1d\"".to_string(),
                CounterKind::LlcMisses => "level=\"llc\"".to_string(),
                CounterKind::BranchMisses => "wfq_branch_miss_per_op{".to_string(),
            };
            assert!(
                out.contains(&needle),
                "exposition missing counter {} ({needle}):\n{out}",
                kind.name()
            );
        }
        assert!(out.contains("wfq_cycles_estimated{queue=\"WF-10\",threads=\"1\"} 1"));
        assert!(out.contains("wfq_cycles_attributed_pct{queue=\"WF-10\""));
        assert!(
            !out.contains("wfq_cycles_attributed_pct{queue=\"FAA\""),
            "unledgered backends must not claim attribution coverage"
        );
        // Format sanity: every sample line is `name{labels} value`.
        for line in out.lines().filter(|l| !l.starts_with('#')) {
            assert_eq!(line.split(' ').count(), 2, "bad sample line: {line}");
        }
    }

    #[test]
    fn comparison_gates_on_total_and_phases_with_higher_is_worse() {
        let base = sample_snapshot();
        let mut cand = sample_snapshot();
        // Inflate the candidate's find_cell phase well past CI + threshold.
        let wfp = &mut cand.series[1].points[0];
        let fc = wfp
            .phases
            .iter_mut()
            .find(|p| p.phase == "find_cell")
            .unwrap();
        fc.cycles_per_op *= 2.0;
        let cmp = gate(&base, &cand);
        let delta = |cmp: &crate::regress::Comparison, key: &str| {
            cmp.deltas.iter().find(|d| d.key == key).cloned().expect("key matched")
        };
        let fc_delta = delta(&cmp, "WF-10 @1 find_cell");
        assert!(fc_delta.regressed, "{fc_delta:?}");
        // Totals unchanged → no total regression.
        assert!(!delta(&cmp, "WF-10 @1 total").regressed);
        assert!(cmp.render().contains("REGRESSION"));

        // The mirror image — candidate cheaper — improves, never fails.
        let cmp = gate(&cand, &base);
        let fc_delta = delta(&cmp, "WF-10 @1 find_cell");
        assert!(fc_delta.improved && !fc_delta.regressed);
        assert!(cmp.regressions().is_empty());
    }

    #[test]
    fn comparison_reports_unmatched_keys() {
        let base = sample_snapshot();
        let mut cand = sample_snapshot();
        let dropped = cand.series[1].points[0].phases.pop().unwrap().phase;
        cand.series.push(CyclesSeries {
            name: "SCQ".into(),
            points: vec![full_point(1, 2.0)],
        });
        let cmp = gate(&base, &cand);
        assert!(cmp
            .unmatched
            .contains(&format!("WF-10 @1 {dropped} (baseline only)")));
        assert!(cmp.unmatched.contains(&"SCQ @1 total (candidate only)".to_string()));
    }

    #[test]
    fn trajectory_line_is_one_parsable_json_line() {
        let line = gated(&sample_snapshot()).trajectory_line();
        assert!(!line.contains('\n'));
        let v = json::parse(&line).expect("trajectory line must parse");
        assert_eq!(
            v.get("benchmark").and_then(|x| x.as_str().map(String::from)),
            Some("cycle_ledger".to_string())
        );
        assert!(v.get("delta").is_some());
        assert_eq!(
            v.get("perf").and_then(|x| x.as_str().map(String::from)),
            Some("tsc-only".to_string())
        );
    }
}
