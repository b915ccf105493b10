//! Streaming (incremental) evaluation equals batch evaluation —
//! property-tested over random logs and patterns, plus scenario replays.

use proptest::prelude::{
    prop, prop_assert, prop_assert_eq, prop_oneof, proptest, ProptestConfig, Strategy,
};

use wlq::prelude::*;
use wlq::{attrs, scenarios, LogBuilder, Strategy as EvalStrategy};

const ALPHABET: [&str; 3] = ["A", "B", "C"];

/// `incL(p)` under `strategy`.
fn find(log: &Log, p: &Pattern, strategy: EvalStrategy) -> IncidentSet {
    Query::new(p.clone()).strategy(strategy).find(log).unwrap()
}

/// Values of the integer attribute `x` that `arb_log` attaches.
const X_VALUES: i64 = 4;

fn arb_pattern() -> impl Strategy<Value = Pattern> {
    let leaf = prop_oneof![
        4 => (0..ALPHABET.len()).prop_map(|i| Pattern::atom(ALPHABET[i])),
        1 => (0..ALPHABET.len()).prop_map(|i| Pattern::not_atom(ALPHABET[i])),
        // The predicate leaf path, as in `GetRefer[balance > 5000]`.
        1 => (0..ALPHABET.len(), 0..X_VALUES).prop_map(|(i, v)| {
            format!("{}[x > {v}]", ALPHABET[i]).parse().unwrap()
        }),
    ];
    leaf.prop_recursive(3, 8, 2, |inner| {
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

fn arb_log() -> impl Strategy<Value = Log> {
    let record = (0..ALPHABET.len(), 0..X_VALUES);
    // Each instance's records, and whether it ends (which retires its
    // state in the streaming evaluator).
    let instance = (prop::collection::vec(record, 0..7), prop::bool::ANY);
    prop::collection::vec(instance, 1..4).prop_map(|instances| {
        let mut b = LogBuilder::new();
        let wids: Vec<_> = instances.iter().map(|_| b.start_instance()).collect();
        let longest = instances
            .iter()
            .map(|(acts, _)| acts.len())
            .max()
            .unwrap_or(0);
        for step in 0..=longest {
            for (i, (acts, ends)) in instances.iter().enumerate() {
                if let Some(&(a, x)) = acts.get(step) {
                    b.append(wids[i], ALPHABET[a], attrs! {}, attrs! {"x" => x})
                        .unwrap();
                } else if *ends && step == acts.len() {
                    b.end_instance(wids[i]).unwrap();
                }
            }
        }
        b.build().unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// Replaying a log record-by-record accumulates exactly the batch
    /// incident set, and the per-append deltas partition it.
    #[test]
    fn streaming_equals_batch(log in arb_log(), p in arb_pattern()) {
        let mut stream = StreamingEvaluator::new(p.clone());
        let mut delta_union = IncidentSet::new();
        for record in log.iter() {
            for incident in stream.append(record).unwrap() {
                // Deltas are disjoint: nothing is reported twice.
                prop_assert!(delta_union.insert(incident));
            }
        }
        let batch = find(&log, &p, EvalStrategy::Planned);
        prop_assert_eq!(stream.incidents(), batch.clone());
        prop_assert_eq!(delta_union, batch);
    }

    /// The lemma the delta rule rests on: everything an append reports
    /// lies in the appended record's instance and ends at that record.
    #[test]
    fn deltas_end_at_the_appended_record(log in arb_log(), p in arb_pattern()) {
        let mut stream = StreamingEvaluator::new(p);
        for record in log.iter() {
            for incident in stream.append(record).unwrap() {
                prop_assert_eq!(incident.wid(), record.wid());
                prop_assert_eq!(incident.last(), record.is_lsn());
            }
        }
    }

    /// The stream's batch kernels agree with the naive oracle's
    /// Algorithm 1 operators: accumulated and as the union of deltas.
    #[test]
    fn streaming_strategies_agree(log in arb_log(), p in arb_pattern()) {
        let naive = find(&log, &p, EvalStrategy::NaivePaper);
        let mut stream = StreamingEvaluator::new(p);
        let mut delta_union = IncidentSet::new();
        for record in log.iter() {
            delta_union.extend(stream.append(record).unwrap());
        }
        prop_assert_eq!(stream.incidents(), naive.clone());
        prop_assert_eq!(delta_union, naive);
    }
}

#[test]
fn streaming_matches_batch_on_scenarios() {
    for (model, seed) in [
        (scenarios::clinic::model(), 31),
        (scenarios::order::model(), 32),
        (scenarios::loan::model(), 33),
    ] {
        let log = simulate(&model, &SimulationConfig::new(40, seed));
        let patterns = ["START -> END", "!START ~> !END", "START ~> !END"];
        for src in patterns {
            let p: Pattern = src.parse().unwrap();
            let mut stream = StreamingEvaluator::new(p.clone());
            for record in log.iter() {
                stream.append(record).unwrap();
            }
            let batch = find(&log, &p, EvalStrategy::Planned);
            assert_eq!(stream.incidents(), batch, "{} on {}", src, model.name());
        }
    }
}

#[test]
fn monitors_fire_exactly_once_per_incident() {
    let log = simulate(&scenarios::clinic::model(), &SimulationConfig::new(100, 55));
    let p: Pattern = "UpdateRefer -> GetReimburse".parse().unwrap();
    let mut stream = StreamingEvaluator::new(p.clone());
    let mut fired = 0usize;
    for record in log.iter() {
        fired += stream.append(record).unwrap().len();
    }
    assert_eq!(fired, find(&log, &p, EvalStrategy::Planned).len());
}

#[test]
fn shared_evaluator_supports_concurrent_instances() {
    let log = simulate(&scenarios::order::model(), &SimulationConfig::new(24, 8));
    let p: Pattern = "Ship & CollectPayment".parse().unwrap();
    let shared = wlq::SharedStreamingEvaluator::new(p.clone());
    crossbeam_scope(&log, &shared);
    let batch = find(&log, &p, EvalStrategy::Planned);
    assert_eq!(shared.incidents(), batch);
}

/// Appends each instance's records from its own thread (per-instance order
/// is all the streaming evaluator requires).
fn crossbeam_scope(log: &Log, shared: &wlq::SharedStreamingEvaluator) {
    std::thread::scope(|scope| {
        for wid in log.wids() {
            let records: Vec<_> = log.instance(wid).cloned().collect();
            scope.spawn(move || {
                for r in records {
                    shared.append(&r).unwrap();
                }
            });
        }
    });
}
