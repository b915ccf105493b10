//! The workflow execution engine: enacts a model as many interleaved
//! instances and writes the resulting workflow log.
//!
//! This is the substrate the paper assumes ("the workflow engine …
//! records the key actions in a workflow log"): real deployments were not
//! available, so a seeded multi-instance simulator produces logs with the
//! same structure — interleaved instances, data attributes read and
//! written by tasks, probabilistic control flow, and parallel branches.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use wlq_log::{AttrMap, Log, LogBuilder, Wid};

use crate::model::{NodeDef, NodeId, WorkflowModel};

/// Parameters of a simulation run.
#[derive(Debug, Clone)]
pub struct SimulationConfig {
    /// Number of workflow instances to enact.
    pub instances: usize,
    /// RNG seed; equal seeds give byte-identical logs.
    pub seed: u64,
    /// Probability that the next step starts a new instance (while quota
    /// remains) rather than advancing a running one. Controls how heavily
    /// instances interleave.
    pub arrival_prob: f64,
    /// Safety valve: an instance is force-completed after this many
    /// engine steps (guards against unlucky loop weights).
    pub max_steps_per_instance: usize,
}

impl Default for SimulationConfig {
    fn default() -> Self {
        SimulationConfig {
            instances: 10,
            seed: 42,
            arrival_prob: 0.3,
            max_steps_per_instance: 500,
        }
    }
}

impl SimulationConfig {
    /// A config with `instances` instances and `seed`, other fields
    /// default.
    #[must_use]
    pub fn new(instances: usize, seed: u64) -> Self {
        SimulationConfig {
            instances,
            seed,
            ..SimulationConfig::default()
        }
    }
}

/// Per-instance runtime state.
#[derive(Debug)]
struct InstanceState {
    wid: Wid,
    store: AttrMap,
    /// Active tokens (node positions). Multiple tokens while inside an
    /// AND block.
    tokens: Vec<NodeId>,
    /// For each AND join node: tokens arrived so far.
    join_arrived: HashMap<usize, usize>,
    /// For each AND join node: tokens expected (set at the split).
    join_expected: HashMap<usize, usize>,
    steps: usize,
}

/// Enacts `config.instances` instances of `model`, returning the workflow
/// log.
///
/// Instances arrive and interleave stochastically under the seeded RNG;
/// the produced log always satisfies Definition 2 (it is written through
/// [`LogBuilder`]) and every instance is completed with an `END` record.
///
/// # Panics
///
/// Panics if `config.instances` is 0, or on internal invariant violations
/// (which would indicate a bug in model validation).
///
/// # Examples
///
/// ```
/// use wlq_workflow::{scenarios, simulate, SimulationConfig};
///
/// let model = scenarios::clinic::model();
/// let log = simulate(&model, &SimulationConfig::new(5, 7));
/// assert_eq!(log.num_instances(), 5);
/// assert!(log.wids().all(|w| log.is_completed(w)));
/// ```
#[must_use]
pub fn simulate(model: &WorkflowModel, config: &SimulationConfig) -> Log {
    assert!(config.instances > 0, "need at least one instance");
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut builder = LogBuilder::new();
    let mut running: Vec<InstanceState> = Vec::new();
    let mut started = 0usize;

    while started < config.instances || !running.is_empty() {
        let must_start = running.is_empty();
        let may_start = started < config.instances;
        if may_start && (must_start || rng.gen_bool(config.arrival_prob)) {
            let wid = builder.start_instance();
            running.push(InstanceState {
                wid,
                store: AttrMap::new(),
                tokens: vec![model.entry()],
                join_arrived: HashMap::new(),
                join_expected: HashMap::new(),
                steps: 0,
            });
            started += 1;
            continue;
        }
        // Advance one token of one random running instance.
        let idx = rng.gen_range(0..running.len());
        let finished = step_instance(model, config, &mut running[idx], &mut builder, &mut rng);
        if finished {
            let state = running.swap_remove(idx);
            builder.end_instance(state.wid).expect("instance open");
        }
    }
    builder
        .build()
        .expect("simulation produced at least one record")
}

/// Advances one token; returns `true` when the instance has terminated.
fn step_instance(
    model: &WorkflowModel,
    config: &SimulationConfig,
    state: &mut InstanceState,
    builder: &mut LogBuilder,
    rng: &mut StdRng,
) -> bool {
    state.steps += 1;
    if state.steps > config.max_steps_per_instance {
        // Safety valve: drop all tokens and complete.
        state.tokens.clear();
        return true;
    }
    let token_idx = rng.gen_range(0..state.tokens.len());
    let node_id = state.tokens[token_idx];
    match model.node(node_id) {
        NodeDef::Task {
            activity,
            reads,
            writes,
            next,
        } => {
            let mut input = AttrMap::new();
            for attr in reads {
                if let Some(v) = state.store.get(attr) {
                    input.set(attr.as_str(), v.clone());
                }
            }
            let mut output = AttrMap::new();
            for (attr, effect) in writes {
                let value = effect.eval(attr, &state.store, rng);
                output.set(attr.as_str(), value);
            }
            state.store.apply(&output);
            builder
                .append(state.wid, activity.clone(), input, output)
                .expect("instance open");
            state.tokens[token_idx] = *next;
            false
        }
        NodeDef::Xor { branches } => {
            let total: f64 = branches.iter().map(|&(w, _)| w).sum();
            let mut draw = rng.gen_range(0.0..total);
            let mut chosen = branches.last().expect("validated nonempty").1;
            for &(w, target) in branches {
                if draw < w {
                    chosen = target;
                    break;
                }
                draw -= w;
            }
            state.tokens[token_idx] = chosen;
            false
        }
        NodeDef::AndSplit { branches, join } => {
            state.join_expected.insert(
                join.0,
                branches.len() + state.join_expected.get(&join.0).unwrap_or(&0),
            );
            state.tokens.swap_remove(token_idx);
            state.tokens.extend(branches.iter().copied());
            false
        }
        NodeDef::AndJoin { next } => {
            let arrived = state.join_arrived.entry(node_id.0).or_insert(0);
            *arrived += 1;
            let expected = state.join_expected.get(&node_id.0).copied().unwrap_or(1);
            if *arrived >= expected {
                state.join_arrived.remove(&node_id.0);
                state.join_expected.remove(&node_id.0);
                state.tokens[token_idx] = *next;
            } else {
                state.tokens.swap_remove(token_idx);
            }
            false
        }
        NodeDef::End => {
            state.tokens.swap_remove(token_idx);
            state.tokens.is_empty()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModelBuilder;
    use crate::data::DataEffect;
    use wlq_log::{Log, LogStats};

    fn linear_model() -> WorkflowModel {
        let mut b = ModelBuilder::new("linear");
        let end = b.end();
        let c = b.task("C", end);
        let bn = b.task("B", c);
        let a = b.task_io(
            "A",
            [] as [&str; 0],
            [("x", DataEffect::UniformInt { lo: 1, hi: 100 })],
            bn,
        );
        b.build(a).unwrap()
    }

    fn parallel_model() -> WorkflowModel {
        let mut b = ModelBuilder::new("par");
        let end = b.end();
        let join = b.and_join(end);
        let left = b.task("Ship", join);
        let right = b.task("Invoice", join);
        let split = b.and_split([left, right], join);
        b.build(split).unwrap()
    }

    #[test]
    fn linear_simulation_is_valid_and_complete() {
        let log = simulate(&linear_model(), &SimulationConfig::new(8, 1));
        assert_eq!(log.num_instances(), 8);
        for wid in log.wids() {
            assert!(log.is_completed(wid));
            let acts: Vec<String> = log
                .instance(wid)
                .map(|r| r.activity().as_str().to_string())
                .collect();
            assert_eq!(acts, ["START", "A", "B", "C", "END"]);
        }
    }

    #[test]
    fn same_seed_same_log() {
        let model = linear_model();
        let a = simulate(&model, &SimulationConfig::new(10, 99));
        let b = simulate(&model, &SimulationConfig::new(10, 99));
        assert_eq!(a, b);
        let c = simulate(&model, &SimulationConfig::new(10, 100));
        assert_ne!(a, c);
    }

    #[test]
    fn instances_interleave() {
        // With many instances and high arrival probability, at least one
        // pair of records of different instances must alternate.
        let config = SimulationConfig {
            instances: 10,
            seed: 3,
            arrival_prob: 0.8,
            ..Default::default()
        };
        let log = simulate(&linear_model(), &config);
        let wids: Vec<u64> = log.iter().map(|r| r.wid().get()).collect();
        let changes = wids.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(
            changes > 10,
            "only {changes} wid alternations — no interleaving?"
        );
    }

    #[test]
    fn parallel_branches_both_execute_in_any_order() {
        let model = parallel_model();
        let mut orders = std::collections::HashSet::new();
        for seed in 0..40 {
            let log = simulate(&model, &SimulationConfig::new(1, seed));
            let acts: Vec<String> = log
                .instance(wlq_log::Wid(1))
                .map(|r| r.activity().as_str().to_string())
                .collect();
            assert_eq!(acts.len(), 4); // START, both tasks, END
            assert!(acts.contains(&"Ship".to_string()));
            assert!(acts.contains(&"Invoice".to_string()));
            orders.insert(acts);
        }
        // Both interleavings occur across seeds.
        assert_eq!(orders.len(), 2, "expected both Ship/Invoice orders");
    }

    #[test]
    fn data_effects_flow_into_the_log() {
        let log = simulate(&linear_model(), &SimulationConfig::new(3, 5));
        for wid in log.wids() {
            let a = log
                .instance(wid)
                .find(|r| r.activity().as_str() == "A")
                .unwrap();
            let x = a.output().get_or_undefined("x").as_int().unwrap();
            assert!((1..=100).contains(&x));
        }
    }

    #[test]
    fn loops_are_bounded_by_the_safety_valve() {
        // A loop that continues with probability 1 — only the valve stops it.
        let mut b = ModelBuilder::new("tight-loop");
        let end = b.end();
        let head = b.placeholder();
        let body = b.task("Spin", head);
        b.fill(
            head,
            NodeDef::Xor {
                branches: vec![(1.0, body), (f64::MIN_POSITIVE, end)],
            },
        );
        let model = b.build(head).unwrap();
        let config = SimulationConfig {
            instances: 1,
            seed: 0,
            max_steps_per_instance: 50,
            ..Default::default()
        };
        let log: Log = simulate(&model, &config);
        assert!(log.is_completed(wlq_log::Wid(1)));
        assert!(log.len() <= 60);
    }

    #[test]
    fn stats_reflect_simulation_scale() {
        let log = simulate(&linear_model(), &SimulationConfig::new(20, 8));
        let stats = LogStats::compute(&log);
        assert_eq!(stats.num_instances, 20);
        assert_eq!(stats.completed_instances, 20);
        assert_eq!(stats.activity_count("A"), 20);
    }

    #[test]
    #[should_panic(expected = "at least one instance")]
    fn zero_instances_panics() {
        let _ = simulate(&linear_model(), &SimulationConfig::new(0, 1));
    }

    /// FNV-1a (64-bit) of `bytes`.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
            (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// The generated logs are pinned: the text of 200 seed-7 instances of
    /// the clinic and the helpdesk scenario hashes to the digest recorded
    /// when the simulator's builder kept its records, so no change to the
    /// builder or the simulator changes a generated log (and with it the
    /// benchmark's inputs) unnoticed.
    #[test]
    fn generated_logs_match_their_golden_digests() {
        for (model, len, digest) in [
            (
                crate::scenarios::clinic::model(),
                141_797,
                0x8284_bb41_1b67_030e,
            ),
            (
                crate::scenarios::helpdesk::model(),
                98_104,
                0x1f8c_4b44_5cc8_74b4,
            ),
        ] {
            let log = simulate(&model, &SimulationConfig::new(200, 7));
            let text = wlq_log::io::text::write_text(&log);
            assert_eq!(
                (text.len(), fnv1a(text.as_bytes())),
                (len, digest),
                "{}",
                model.name()
            );
        }
    }
}
