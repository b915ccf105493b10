//! Cross-crate integration: the paper's worked examples end to end.

use wlq::{io, paper, IncidentTree, IsLsn, LogStats, Pattern, Query, Strategy, Wid};

fn lsns_of(log: &wlq::Log, incident: wlq::IncidentView<'_>) -> Vec<u64> {
    incident
        .positions()
        .iter()
        .map(|&p| log.record(incident.wid(), p).unwrap().lsn().get())
        .collect()
}

/// E1 — Figure 3 and Example 1: the log's structure and record `l4`.
#[test]
fn e1_figure3_structure_and_example1() {
    let log = paper::figure3_log();
    assert_eq!(log.len(), 20);
    assert_eq!(log.num_instances(), 3);

    let l4 = log.get(wlq::Lsn(4)).unwrap();
    assert_eq!(l4.wid(), Wid(1));
    assert_eq!(l4.is_lsn(), IsLsn(3));
    assert_eq!(l4.activity().as_str(), "CheckIn");
    assert_eq!(
        l4.input().get_or_undefined("balance"),
        wlq::Value::Int(1000)
    );
    assert_eq!(
        l4.output().get_or_undefined("referState"),
        wlq::Value::from("active")
    );

    // The rendered table matches the paper's layout.
    let table = io::text::write_text(&log);
    assert!(table.contains("4 | 1 | 3 | CheckIn"));
}

/// E2 — Figure 4 / Examples 3 & 5: the incident tree and its evaluation.
#[test]
fn e2_incident_tree_and_examples_3_5() {
    let log = paper::figure3_log();

    // Example 3a: incL(UpdateRefer → GetReimburse) = {{l14, l20}}.
    let set = Query::parse("UpdateRefer -> GetReimburse")
        .unwrap()
        .find(&log)
        .unwrap();
    assert_eq!(set.len(), 1);
    assert_eq!(lsns_of(&log, set.iter().next().unwrap()), vec![14, 20]);

    // Example 5: the Figure 4 tree, evaluated post-order.
    let p: Pattern = "SeeDoctor -> (UpdateRefer -> GetReimburse)"
        .parse()
        .unwrap();
    let tree = IncidentTree::from_pattern(&p);
    let (set, trace) = tree.evaluate_traced(&log);

    // Leaf: incL(SeeDoctor) = {l9, l11, l13, l17}.
    let see_doctor = &trace.nodes[0];
    let leaf_lsns: Vec<u64> = see_doctor
        .incidents
        .iter()
        .flat_map(|o| lsns_of(&log, o))
        .collect();
    assert_eq!(leaf_lsns, vec![9, 11, 13, 17]);

    // Inner node: {l14, l20}. Root: {l13, l14, l20} (Example 3's printed
    // {l13, l14, l19} is an erratum — l19 is TakeTreatment).
    assert_eq!(
        lsns_of(&log, trace.nodes[3].incidents.iter().next().unwrap()),
        vec![14, 20]
    );
    assert_eq!(set.len(), 1);
    assert_eq!(lsns_of(&log, set.iter().next().unwrap()), vec![13, 14, 20]);
}

/// The same query through every evaluation path gives identical results.
#[test]
fn all_evaluation_paths_agree() {
    let log = paper::figure3_log();
    let battery = [
        "GetRefer ~> CheckIn",
        "SeeDoctor -> (UpdateRefer -> GetReimburse)",
        "(SeeDoctor & PayTreatment) | UpdateRefer",
        "!START ~> GetRefer",
        "START -> END",
    ];
    for src in battery {
        let p: Pattern = src.parse().unwrap();
        let q = Query::new(p.clone());
        let a = q.clone().strategy(Strategy::NaivePaper).find(&log).unwrap();
        let b = q.find(&log).unwrap();
        let c = IncidentTree::from_pattern(&p).evaluate(&log);
        let d = q.clone().threads(3).find(&log).unwrap();
        let e = q
            .clone()
            .threads(3)
            .strategy(Strategy::NaivePaper)
            .find(&log)
            .unwrap();
        let f = IncidentTree::from_postfix(wlq::to_postfix(&p))
            .unwrap()
            .evaluate(&log);
        assert_eq!(a, b, "{src}");
        assert_eq!(b, c, "{src}");
        assert_eq!(c, d, "{src}");
        assert_eq!(d, e, "{src}");
        assert_eq!(e, f, "{src}");
    }
}

/// Serialization round-trips compose with evaluation.
#[test]
fn serialization_round_trips_preserve_query_results() {
    let log = paper::figure3_log();
    let q = Query::parse("UpdateRefer -> GetReimburse").unwrap();
    let expected = q.find(&log).unwrap();

    let text = io::text::write_text(&log);
    let from_text = io::text::read_text(&text).unwrap();
    assert_eq!(q.find(&from_text).unwrap(), expected);

    let csv = io::csv::write_csv(&log);
    let from_csv = io::csv::read_csv(&csv).unwrap();
    assert_eq!(q.find(&from_csv).unwrap(), expected);

    let bin = io::binary::write_binary(&log);
    let from_bin = io::binary::read_binary(bin).unwrap();
    assert_eq!(q.find(&from_bin).unwrap(), expected);
}

/// Lemma 1 output-size bounds hold on the worst-case generator.
#[test]
fn lemma1_output_size_bounds() {
    use wlq::generator::pair_log;
    let log = pair_log("A", 12, "B", 9, false);
    let count = |src: &str| Query::parse(src).unwrap().count(&log).unwrap();
    let (n1, n2) = (count("A"), count("B"));
    assert_eq!((n1, n2), (12, 9));

    // |incL(p1 → p2)| ≤ n1·n2, with equality on the block layout.
    assert_eq!(count("A -> B"), n1 * n2);
    // |incL(p1 ⊙ p2)| ≤ n1·n2 — here exactly one adjacency.
    assert_eq!(count("A ~> B"), 1);
    // |incL(p1 ⊗ p2)| ≤ n1 + n2 ≤ n1·n2 (paper states n1·n2).
    assert_eq!(count("A | B"), n1 + n2);
    // |incL(p1 ⊕ p2)| ≤ n1·n2: disjoint singletons, all pairs qualify.
    assert_eq!(count("A & B"), n1 * n2);
}

/// Theorem 1's worst-case family grows explosively with k.
#[test]
fn theorem1_worst_case_growth() {
    use wlq::generator::worst_case_log;
    let m = 10;
    let log = worst_case_log("t", m);
    let count_at = |k| Query::new(wlq::theorem1_worst_case("t", k)).count(&log);
    let mut previous = 0;
    for k in 0..4 {
        let count = count_at(k).unwrap();
        assert!(
            count > previous,
            "k={k}: expected growth, got {count} after {previous}"
        );
        previous = count;
    }
    // k = 1: pairs of distinct records: C(m, 2).
    assert_eq!(count_at(1), Ok(m * (m - 1) / 2));
}

/// Query grouping projections work across crates.
#[test]
fn query_projections() {
    let log = paper::figure3_log();
    let q = Query::parse("GetRefer").unwrap();
    let by_instance = q.count_by_instance(&log).unwrap();
    assert_eq!(by_instance.len(), 3);
    let by_hospital = q.count_instances_by_attr(&log, "hospital").unwrap();
    assert_eq!(by_hospital[&wlq::Value::from("Public Hospital")], 2);

    let stats = LogStats::compute(&log);
    assert_eq!(stats.activity_count("GetRefer"), 3);
}

/// The prelude provides a workable surface.
#[test]
fn prelude_compiles_and_works() {
    use wlq::prelude::*;
    let log = wlq::paper::figure3_log();
    let q = Query::parse("SeeDoctor").unwrap();
    assert_eq!(q.count(&log).unwrap(), 4);
    let p: Pattern = "A | B".parse().unwrap();
    assert_eq!(p.op(), Some(Op::Choice));
}

/// The counting DP (`fast_count`) agrees with every other evaluation
/// path on chains over the example log and a simulated one.
#[test]
fn fast_count_agrees_with_all_paths() {
    let fig3 = paper::figure3_log();
    let clinic = wlq::simulate(
        &wlq::scenarios::clinic::model(),
        &wlq::SimulationConfig::new(120, 31),
    );
    for log in [&fig3, &clinic] {
        for src in [
            "GetRefer ~> CheckIn",
            "SeeDoctor -> PayTreatment",
            "SeeDoctor -> PayTreatment -> GetReimburse",
            "!SeeDoctor ~> PayTreatment",
            "START -> UpdateRefer -> GetReimburse -> END",
        ] {
            let q = Query::parse(src).unwrap();
            let by_dp = wlq::fast_count(log, q.pattern()).expect("chain");
            let by_eval = q.find(log).unwrap().len();
            let by_query = q.count(log).unwrap();
            assert_eq!(by_dp, by_eval, "{src}");
            assert_eq!(by_dp, by_query, "{src}");
        }
    }
}

/// Variable bindings resolve to the same incidents as plain evaluation
/// on a simulated log, and every binding points into its incident.
#[test]
fn labelled_patterns_bind_into_their_incidents() {
    let log = wlq::simulate(
        &wlq::scenarios::clinic::model(),
        &wlq::SimulationConfig::new(60, 77),
    );
    let lp = wlq::LabelledPattern::parse("u:UpdateRefer -> r:GetReimburse").unwrap();
    let bound = lp.evaluate(&log);
    let plain = Query::new(lp.pattern().clone()).find(&log).unwrap();
    assert_eq!(bound.len(), plain.len());
    for b in &bound {
        assert!(plain.contains(&b.incident));
        for position in b.bindings.values() {
            assert!(b.incident.contains(*position));
        }
        // The bound records carry the right activities.
        let u = *b.bindings.get("u").unwrap();
        let r = *b.bindings.get("r").unwrap();
        assert!(u < r, "update must precede reimbursement");
    }
}

/// Bounded equivalence agrees with the planner: every candidate tree it
/// considers is bounded-equivalent to its input (small patterns).
#[test]
fn optimizer_outputs_are_bounded_equivalent() {
    let planner = wlq::Planner::from_log(&paper::figure3_log());
    for src in [
        "SeeDoctor -> UpdateRefer -> GetReimburse",
        "(GetRefer -> CheckIn) | (GetRefer -> SeeDoctor)",
        "SeeDoctor & UpdateRefer",
    ] {
        let p: Pattern = src.parse().unwrap();
        for candidate in planner.candidates(&p) {
            let q = &candidate.pattern;
            assert!(
                wlq::equivalent_up_to(&p, q, 4).holds(),
                "{src} => {q} ({}) distinguished within bound",
                candidate.rule
            );
        }
    }
}

/// Mining, profiling, and find_first compose on a non-clinic scenario.
#[test]
fn mining_and_projections_on_order_scenario() {
    let log = wlq::simulate(
        &wlq::scenarios::order::model(),
        &wlq::SimulationConfig::new(50, 12),
    );
    // Every mined relation with full support must match all 50 instances.
    for relation in wlq::mine_relations(&log, 50) {
        let matched = Query::new(relation.pattern.clone()).count_by_instance(&log);
        assert_eq!(matched.unwrap().len(), 50, "{}", relation.pattern);
    }
    // Profiled evaluation agrees with plain evaluation under both
    // strategies.
    let q = Query::parse("PlaceOrder -> (Ship & CollectPayment)").unwrap();
    for strategy in [Strategy::NaivePaper, Strategy::Planned] {
        let (incidents, _) = q.clone().strategy(strategy).profile(&log).unwrap();
        assert_eq!(incidents, q.find(&log).unwrap());
    }
    // find_first returns a bounded subset of the full answer.
    let some = q.find_first(&log, 7).unwrap();
    assert_eq!(some.len(), 7);
    let all = q.find(&log).unwrap();
    for o in some.iter() {
        assert!(all.contains(&o.to_incident()));
    }
}

/// Timeline samples on a simulated log always match prefix evaluation.
#[test]
fn timeline_cross_checks_prefix_evaluation_on_helpdesk() {
    let log = wlq::simulate(
        &wlq::scenarios::helpdesk::model(),
        &wlq::SimulationConfig::new(40, 5),
    );
    let q = Query::parse("Escalate -> Fix -> Close").unwrap();
    for point in wlq::timeline(&log, q.pattern(), 97).unwrap() {
        let prefix = log.prefix(point.lsn).unwrap();
        assert_eq!(Ok(point.incidents), q.count(&prefix));
    }
}
