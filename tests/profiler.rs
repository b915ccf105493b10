//! Execution profiler suite: the golden `--analyze` table, the pinned
//! JSON profile/trace schema, and the decomposition property — the root
//! node's `incidents_emitted` is exactly `|incL(p)|` — across random
//! logs, patterns, and every strategy. Profiled evaluation must be
//! observationally identical to unprofiled evaluation throughout.

use std::collections::BTreeSet;

use proptest::prelude::*;
use proptest::strategy::Strategy as PropStrategy;

use wlq::{
    attrs, render_trace, validate_trace, Log, LogBuilder, Op, Pattern, Query, Strategy, Wid,
    TRACE_SCHEMA_VERSION,
};

fn figure3() -> Log {
    wlq::paper::figure3_log()
}

const ALL_STRATEGIES: [Strategy; 2] = [Strategy::NaivePaper, Strategy::Planned];

// ---------------------------------------------------------------------
// Golden human-readable profile (`wlq explain --analyze`)
// ---------------------------------------------------------------------

/// The rendered profile's shape is pinned column-by-column; only the
/// wall-time column (token 4 of each node row) is allowed to vary run
/// to run.
#[test]
fn golden_analyze_table_for_figure3() {
    let log = figure3();
    let q = Query::parse("UpdateRefer -> GetReimburse").unwrap();
    let (set, profile) = q.profile(&log).unwrap();
    assert_eq!(set.len(), 1);

    let rendered = profile.to_string();
    let lines: Vec<&str> = rendered.lines().collect();
    assert_eq!(lines[0], "query    : UpdateRefer -> GetReimburse");
    assert_eq!(
        lines[1],
        "plan     : UpdateRefer -> GetReimburse  [original]"
    );
    assert_eq!(lines[2], "strategy : planned, 1 thread(s)");
    // Only wid 2 runs UpdateRefer, so the run visits one instance.
    assert_eq!(lines[3], "instances: 1 of 3");
    assert_eq!(
        lines[4],
        "    actual    scanned        pairs      bytes         time        est    q-err  node"
    );

    // Node rows: [actual, scanned, pairs, bytes, time, est, q-err, label…]
    // with the time token skipped. Deterministic on the fixed Figure 3
    // log: 1 incident through a sequential join over single-posting
    // scans.
    let stable = |line: &str| -> (Vec<String>, String) {
        let tokens: Vec<&str> = line.split_whitespace().collect();
        let cols = [0, 1, 2, 3, 5, 6]
            .iter()
            .map(|&i| tokens[i].to_string())
            .collect();
        (cols, tokens[7..].join(" "))
    };
    let (cols, label) = stable(lines[5]);
    assert_eq!(cols, ["1", "0", "2", "24", "0.3", "1.00"]);
    assert_eq!(label, "sequential");
    let (cols, label) = stable(lines[6]);
    assert_eq!(cols, ["1", "1", "0", "20", "1.0", "1.00"]);
    assert_eq!(label, "scan UpdateRefer");
    let (cols, label) = stable(lines[7]);
    assert_eq!(cols, ["1", "1", "0", "20", "2.0", "2.00"]);
    assert_eq!(label, "scan GetReimburse");

    assert_eq!(lines[8], "workers:");
    assert!(lines[9].starts_with("  worker 0: 1 instance(s), 1 incident(s)"));
    assert!(lines[10].starts_with("total    : 1 incident(s) in"));
}

/// Non-planned strategies still get a cost-model estimate per node (so
/// the Q-error column is populated) but no cost — and no plan rule.
#[test]
fn analyze_works_for_every_strategy() {
    let log = figure3();
    for strategy in ALL_STRATEGIES {
        let q = Query::parse("GetRefer ~> (CheckIn | SeeDoctor)").unwrap();
        let q = q.strategy(strategy);
        let (set, profile) = q.profile(&log).unwrap();
        assert_eq!(set, q.find(&log).unwrap());
        assert_eq!(profile.nodes.len(), 5, "{strategy:?}");
        assert!(profile.nodes.iter().all(|n| n.shape.estimate.is_some()));
        if strategy == Strategy::Planned {
            assert!(profile.rule.is_some());
            assert!(profile.nodes.iter().all(|n| n.shape.cost.is_some()));
        } else {
            assert!(profile.rule.is_none());
            assert!(profile.nodes.iter().all(|n| n.shape.cost.is_none()));
        }
    }
}

// ---------------------------------------------------------------------
// Pinned JSON schema (profile and trace)
// ---------------------------------------------------------------------

/// The single-line JSON profile schema is pinned: top-level key order,
/// per-node key order, per-worker key order, and the version field.
#[test]
fn profile_json_schema_is_pinned() {
    let log = figure3();
    let q = Query::parse("SeeDoctor -> PayTreatment").unwrap();
    let (_, profile) = q.profile(&log).unwrap();
    let json = profile.render_json();
    assert!(!json.contains('\n'));
    assert!(
        json.starts_with("{\"version\":1,\"query\":\"SeeDoctor -> PayTreatment\",\"plan\":"),
        "{json}"
    );
    for ordered_keys in [
        // Top-level header, in order.
        vec![
            "\"version\":",
            "\"query\":",
            "\"plan\":",
            "\"strategy\":",
            "\"rule\":",
            "\"threads\":",
            "\"total_wall_ns\":",
            "\"total_incidents\":",
            "\"nodes\":[",
            "\"workers\":[",
        ],
        // One node object, in order.
        vec![
            "\"label\":",
            "\"pattern\":",
            "\"depth\":",
            "\"estimate\":",
            "\"cost\":",
            "\"wall_ns\":",
            "\"records_scanned\":",
            "\"pairs_compared\":",
            "\"incidents_emitted\":",
            "\"output_bytes\":",
            "\"q_error\":",
        ],
        // One worker object, in order.
        vec![
            "\"worker\":",
            "\"instances\":",
            "\"incidents\":",
            "\"wall_ns\":",
        ],
    ] {
        let mut pos = 0;
        for key in ordered_keys {
            let at = json[pos..]
                .find(key)
                .unwrap_or_else(|| panic!("key {key} missing (or out of order) in {json}"));
            pos += at + key.len();
        }
    }
}

/// The JSON Lines trace round-trips through its own validator and keeps
/// the span-nesting invariant, for sequential and parallel runs alike.
#[test]
fn trace_schema_is_pinned_and_validates() {
    let log = figure3();
    let q = Query::parse("GetRefer -> CheckIn -> SeeDoctor").unwrap();
    for threads in [1, 3] {
        let (_, profile) = q.clone().threads(threads).profile(&log).unwrap();
        let trace = render_trace(&profile);
        let first = trace.lines().next().unwrap();
        assert!(
            first.starts_with("{\"event\":\"trace_begin\",\"version\":1,\"query\":"),
            "{first}"
        );
        let summary = validate_trace(&trace).unwrap();
        assert_eq!(summary.version, TRACE_SCHEMA_VERSION);
        assert_eq!(summary.nodes, profile.nodes.len());
        assert_eq!(summary.workers, profile.workers.len());
        assert_eq!(summary.total_incidents, profile.total_incidents);
        // trace_begin + begin/end per node + workers + trace_end.
        assert_eq!(
            summary.events,
            1 + 2 * profile.nodes.len() + profile.workers.len() + 1
        );
    }
}

// ---------------------------------------------------------------------
// Decomposition property + profiled ≡ unprofiled (proptest)
// ---------------------------------------------------------------------

const ALPHABET: [&str; 4] = ["A", "B", "C", "D"];

fn arb_pattern() -> impl PropStrategy<Value = Pattern> {
    let leaf = prop_oneof![
        4 => (0..ALPHABET.len()).prop_map(|i| Pattern::atom(ALPHABET[i])),
        1 => (0..ALPHABET.len()).prop_map(|i| Pattern::not_atom(ALPHABET[i])),
    ];
    leaf.prop_recursive(4, 16, 2, |inner| {
        (0..4u8, inner.clone(), inner).prop_map(|(op, l, r)| {
            let op = match op {
                0 => Op::Consecutive,
                1 => Op::Sequential,
                2 => Op::Choice,
                _ => Op::Parallel,
            };
            Pattern::binary(op, l, r)
        })
    })
}

fn arb_log() -> impl PropStrategy<Value = Log> {
    prop::collection::vec(prop::collection::vec(0..ALPHABET.len(), 0..10), 1..5).prop_map(
        |instances| {
            let mut b = LogBuilder::new();
            let wids: Vec<_> = instances.iter().map(|_| b.start_instance()).collect();
            let longest = instances.iter().map(Vec::len).max().unwrap_or(0);
            for step in 0..longest {
                for (i, acts) in instances.iter().enumerate() {
                    if let Some(&a) = acts.get(step) {
                        b.append(wids[i], ALPHABET[a], attrs! {}, attrs! {})
                            .unwrap();
                    }
                }
            }
            b.build().unwrap()
        },
    )
}

/// The instances a run visits: every one under the naive oracle; under
/// the planned strategy those that can hold an incident of `p` — the
/// instances running atom `t`, all of them for `¬t`, the union under
/// `|` and the intersection under the other operators.
fn visited(log: &Log, p: &Pattern, strategy: Strategy) -> BTreeSet<Wid> {
    match (strategy, p) {
        (Strategy::NaivePaper, _) => log.wids().collect(),
        (_, Pattern::Atom(atom)) if atom.negated => log.wids().collect(),
        (_, Pattern::Atom(atom)) => log
            .wids()
            .filter(|&w| log.instance(w).any(|r| r.activity() == &atom.activity))
            .collect(),
        (_, Pattern::Binary { op, left, right }) => {
            let (l, r) = (visited(log, left, strategy), visited(log, right, strategy));
            match op {
                Op::Choice => l.union(&r).copied().collect(),
                _ => l.intersection(&r).copied().collect(),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// For every strategy: profiling changes nothing about the answer,
    /// and the root node's `incidents_emitted` equals `|incL(p)|` — the
    /// per-instance root outputs decompose the query answer exactly
    /// (inner nodes may legitimately record zero when short-circuited).
    #[test]
    fn root_emission_decomposes_incl(log in arb_log(), p in arb_pattern()) {
        for strategy in ALL_STRATEGIES {
            let q = Query::new(p.clone()).strategy(strategy);
            let expected = q.find(&log).unwrap();
            for threads in [1, 3] {
                let (set, profile) = q.clone().threads(threads).profile(&log).unwrap();
                prop_assert_eq!(
                    &set, &expected,
                    "profiled evaluation diverged under {:?}x{}", strategy, threads
                );
                prop_assert_eq!(profile.total_incidents, expected.len() as u64);
                prop_assert_eq!(
                    profile.nodes[0].metrics.incidents_emitted,
                    expected.len() as u64,
                    "root emission != |incL(p)| under {:?}x{}", strategy, threads
                );
                // Worker accounting is total: every instance the strategy
                // visits is swept exactly once and all incidents are
                // attributed.
                let swept: u64 = profile.workers.iter().map(|w| w.instances).sum();
                prop_assert_eq!(swept as usize, visited(&log, &p, strategy).len());
                prop_assert_eq!(profile.log_instances as usize, log.num_instances());
                let attributed: u64 = profile.workers.iter().map(|w| w.incidents).sum();
                prop_assert_eq!(attributed, expected.len() as u64);
                // And the trace of any profile validates.
                prop_assert!(validate_trace(&render_trace(&profile)).is_ok());
            }
        }
    }
}
