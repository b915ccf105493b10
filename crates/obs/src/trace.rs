//! The JSON Lines execution trace: span-style `node_begin`/`node_end`
//! events in plan order, with a schema validator for CI.
//!
//! A trace is a sequence of single-line flat JSON objects:
//!
//! ```jsonl
//! {"event":"trace_begin","version":1,"query":"A -> B","plan":"A -> B","strategy":"planned","threads":1}
//! {"event":"node_begin","node":0,"depth":0,"label":"sequential","pattern":"A -> B"}
//! {"event":"node_begin","node":1,"depth":1,"label":"scan A","pattern":"A"}
//! {"event":"node_end","node":1,"wall_ns":812,"records_scanned":4,"pairs_compared":0,"incidents_emitted":4,"output_bytes":64,"estimate":4,"cost":4,"q_error":1}
//! {"event":"node_end","node":0,...}
//! {"event":"worker","worker":0,"instances":3,"incidents":6,"wall_ns":4012}
//! {"event":"trace_end","total_wall_ns":53120,"total_incidents":6}
//! ```
//!
//! `node` ids are pre-order indices; `node_begin` events nest exactly as
//! the plan tree does, and every `node_end` closes the innermost open
//! node. [`validate_trace`] enforces all of this plus per-event required
//! fields, so a pinned schema test (and the CI smoke job) can reject any
//! accidental format drift.

use std::collections::BTreeMap;
use std::fmt;

use crate::profile::{json_num, json_str, ExecutionProfile};

/// The trace and profile JSON schema version. Bump on any
/// breaking change to event shapes or [`ExecutionProfile::render_json`].
pub const TRACE_SCHEMA_VERSION: u64 = 1;

/// Renders a profile as a span-style JSON Lines trace.
///
/// Events are synthesized from the profile's pre-order node tree:
/// `trace_begin`, nested `node_begin`/`node_end` pairs, one `worker`
/// event per worker, and `trace_end`. Node wall times are the merged
/// per-node totals, so `node_end` carries the same numbers as the
/// profile's table.
#[must_use]
pub fn render_trace(profile: &ExecutionProfile) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"event\":\"trace_begin\",\"version\":{},\"query\":{},\"plan\":{},\
         \"strategy\":{},\"threads\":{}}}\n",
        TRACE_SCHEMA_VERSION,
        json_str(&profile.query),
        json_str(&profile.plan),
        json_str(&profile.strategy),
        profile.threads,
    ));
    emit_subtree(profile, 0, &mut out);
    for w in &profile.workers {
        out.push_str(&format!(
            "{{\"event\":\"worker\",\"worker\":{},\"instances\":{},\"incidents\":{},\
             \"wall_ns\":{}}}\n",
            w.worker,
            w.instances,
            w.incidents,
            w.wall.as_nanos(),
        ));
    }
    out.push_str(&format!(
        "{{\"event\":\"trace_end\",\"total_wall_ns\":{},\"total_incidents\":{}}}\n",
        profile.total_wall.as_nanos(),
        profile.total_incidents,
    ));
    out
}

/// Emits `node_begin` for node `i`, recurses over its children (the
/// following pre-order nodes one level deeper), then emits `node_end`.
/// Returns the index just past the subtree.
fn emit_subtree(profile: &ExecutionProfile, i: usize, out: &mut String) -> usize {
    let Some(node) = profile.nodes.get(i) else {
        return i;
    };
    out.push_str(&format!(
        "{{\"event\":\"node_begin\",\"node\":{},\"depth\":{},\"label\":{},\"pattern\":{}}}\n",
        i,
        node.shape.depth,
        json_str(&node.shape.label),
        json_str(&node.shape.pattern),
    ));
    let mut j = i + 1;
    while profile
        .nodes
        .get(j)
        .is_some_and(|next| next.shape.depth > node.shape.depth)
    {
        j = emit_subtree(profile, j, out);
    }
    out.push_str(&format!(
        "{{\"event\":\"node_end\",\"node\":{},\"wall_ns\":{},\"records_scanned\":{},\
         \"pairs_compared\":{},\"incidents_emitted\":{},\"output_bytes\":{},\
         \"estimate\":{},\"cost\":{},\"q_error\":{}}}\n",
        i,
        node.metrics.wall.as_nanos(),
        node.metrics.records_scanned,
        node.metrics.pairs_compared,
        node.metrics.incidents_emitted,
        node.metrics.output_bytes,
        json_num(node.shape.estimate),
        json_num(node.shape.cost),
        json_num(node.q_error()),
    ));
    j
}

/// What a valid trace contained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSummary {
    /// The schema version the trace declared.
    pub version: u64,
    /// Number of nodes (`node_begin`/`node_end` pairs).
    pub nodes: usize,
    /// Number of `worker` events.
    pub workers: usize,
    /// Total event lines.
    pub events: usize,
    /// The `trace_end` incident total.
    pub total_incidents: u64,
}

/// A trace validation failure: the offending line (1-based; 0 for
/// whole-trace problems) and what was wrong with it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceError {
    /// 1-based line number, 0 when the trace as a whole is malformed.
    pub line: usize,
    /// Human-readable description of the problem.
    pub detail: String,
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "{}", self.detail)
        } else {
            write!(f, "line {}: {}", self.line, self.detail)
        }
    }
}

impl std::error::Error for TraceError {}

fn err(line: usize, detail: impl Into<String>) -> TraceError {
    TraceError {
        line,
        detail: detail.into(),
    }
}

/// One scalar value of a flat trace event object.
#[derive(Debug, Clone, PartialEq)]
enum Scalar {
    Str(String),
    Num(f64),
    Bool(bool),
    Null,
}

impl Scalar {
    fn as_u64(&self) -> Option<u64> {
        match self {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            Scalar::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }
}

/// Validates a JSON Lines trace against the pinned schema
/// ([`TRACE_SCHEMA_VERSION`]): event order, `node_begin`/`node_end`
/// nesting, pre-order node ids, and per-event required fields.
///
/// # Errors
///
/// Returns the first [`TraceError`] encountered.
pub fn validate_trace(text: &str) -> Result<TraceSummary, TraceError> {
    let mut lines = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty());
    let (first_no, first) = lines.next().ok_or_else(|| err(0, "empty trace"))?;
    let begin = parse_flat_object(first).map_err(|d| err(first_no + 1, d))?;
    expect_event(&begin, "trace_begin", first_no + 1)?;
    let version = require_u64(&begin, "version", first_no + 1)?;
    if version != TRACE_SCHEMA_VERSION {
        return Err(err(
            first_no + 1,
            format!("unsupported schema version {version} (expected {TRACE_SCHEMA_VERSION})"),
        ));
    }
    for key in ["query", "plan", "strategy"] {
        require_str(&begin, key, first_no + 1)?;
    }
    require_u64(&begin, "threads", first_no + 1)?;

    let mut open: Vec<u64> = Vec::new();
    let mut nodes = 0usize;
    let mut workers = 0usize;
    let mut events = 1usize;
    let mut ended: Option<u64> = None;
    for (no, line) in lines {
        let lineno = no + 1;
        if ended.is_some() {
            return Err(err(lineno, "event after trace_end"));
        }
        events += 1;
        let obj = parse_flat_object(line).map_err(|d| err(lineno, d))?;
        let event = require_str(&obj, "event", lineno)?;
        match event.as_str() {
            "node_begin" => {
                let node = require_u64(&obj, "node", lineno)?;
                if node != nodes as u64 {
                    return Err(err(
                        lineno,
                        format!("node ids must be pre-order: expected {nodes}, got {node}"),
                    ));
                }
                let depth = require_u64(&obj, "depth", lineno)?;
                if depth != open.len() as u64 {
                    return Err(err(
                        lineno,
                        format!("depth {depth} does not match nesting level {}", open.len()),
                    ));
                }
                require_str(&obj, "label", lineno)?;
                require_str(&obj, "pattern", lineno)?;
                open.push(node);
                nodes += 1;
            }
            "node_end" => {
                let node = require_u64(&obj, "node", lineno)?;
                match open.pop() {
                    Some(top) if top == node => {}
                    Some(top) => {
                        return Err(err(
                            lineno,
                            format!("node_end {node} closes innermost open node {top}"),
                        ))
                    }
                    None => return Err(err(lineno, "node_end with no open node")),
                }
                for key in [
                    "wall_ns",
                    "records_scanned",
                    "pairs_compared",
                    "incidents_emitted",
                    "output_bytes",
                ] {
                    require_u64(&obj, key, lineno)?;
                }
                for key in ["estimate", "cost", "q_error"] {
                    require_num_or_null(&obj, key, lineno)?;
                }
            }
            "worker" => {
                if !open.is_empty() {
                    return Err(err(lineno, "worker event inside an open node span"));
                }
                for key in ["worker", "instances", "incidents", "wall_ns"] {
                    require_u64(&obj, key, lineno)?;
                }
                workers += 1;
            }
            "trace_end" => {
                if !open.is_empty() {
                    return Err(err(
                        lineno,
                        format!("trace_end with {} node span(s) still open", open.len()),
                    ));
                }
                require_u64(&obj, "total_wall_ns", lineno)?;
                ended = Some(require_u64(&obj, "total_incidents", lineno)?);
            }
            other => return Err(err(lineno, format!("unknown event {other:?}"))),
        }
    }
    let total_incidents = ended.ok_or_else(|| err(0, "missing trace_end"))?;
    if nodes == 0 {
        return Err(err(0, "trace has no nodes"));
    }
    Ok(TraceSummary {
        version,
        nodes,
        workers,
        events,
        total_incidents,
    })
}

fn expect_event(
    obj: &BTreeMap<String, Scalar>,
    want: &str,
    lineno: usize,
) -> Result<(), TraceError> {
    let event = require_str(obj, "event", lineno)?;
    if event == want {
        Ok(())
    } else {
        Err(err(
            lineno,
            format!("expected {want:?}, got event {event:?}"),
        ))
    }
}

fn require_str(
    obj: &BTreeMap<String, Scalar>,
    key: &str,
    lineno: usize,
) -> Result<String, TraceError> {
    match obj.get(key) {
        Some(Scalar::Str(s)) => Ok(s.clone()),
        Some(_) => Err(err(lineno, format!("field {key:?} must be a string"))),
        None => Err(err(lineno, format!("missing field {key:?}"))),
    }
}

fn require_u64(
    obj: &BTreeMap<String, Scalar>,
    key: &str,
    lineno: usize,
) -> Result<u64, TraceError> {
    match obj.get(key) {
        Some(scalar) => scalar.as_u64().ok_or_else(|| {
            err(
                lineno,
                format!("field {key:?} must be a non-negative integer"),
            )
        }),
        None => Err(err(lineno, format!("missing field {key:?}"))),
    }
}

fn require_num_or_null(
    obj: &BTreeMap<String, Scalar>,
    key: &str,
    lineno: usize,
) -> Result<(), TraceError> {
    match obj.get(key) {
        Some(Scalar::Num(_) | Scalar::Null) => Ok(()),
        Some(_) => Err(err(
            lineno,
            format!("field {key:?} must be a number or null"),
        )),
        None => Err(err(lineno, format!("missing field {key:?}"))),
    }
}

/// Parses one flat JSON object (`{"key": scalar, ...}` — no nested
/// containers, which trace events never use).
fn parse_flat_object(line: &str) -> Result<BTreeMap<String, Scalar>, String> {
    let mut p = Parser {
        bytes: line.trim().as_bytes(),
        pos: 0,
    };
    let obj = p.object()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(obj)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, want: u8) -> Result<(), String> {
        if self.peek() == Some(want) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}",
                char::from(want),
                self.pos
            ))
        }
    }

    fn object(&mut self) -> Result<BTreeMap<String, Scalar>, String> {
        self.skip_ws();
        self.eat(b'{')?;
        let mut out = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(out);
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let value = self.scalar()?;
            out.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn scalar(&mut self) -> Result<Scalar, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => Ok(Scalar::Str(self.string()?)),
            Some(b't') => self.literal("true", Scalar::Bool(true)),
            Some(b'f') => self.literal("false", Scalar::Bool(false)),
            Some(b'n') => self.literal("null", Scalar::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("expected a scalar at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, word: &str, value: Scalar) -> Result<Scalar, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Scalar, String> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("invalid number at byte {start}"))?;
        text.parse::<f64>()
            .map(Scalar::Num)
            .map_err(|_| format!("invalid number {text:?} at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("invalid \\u escape {hex:?}"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("invalid escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8: copy the whole char.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid UTF-8 in string".to_string())?;
                    let Some(c) = rest.chars().next() else {
                        return Err("unterminated string".to_string());
                    };
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NodeMetrics, NodeShape, ProfiledNode, WorkerProfile};
    use std::time::Duration;

    fn sample_profile() -> ExecutionProfile {
        let node = |label: &str, pattern: &str, depth: usize, emitted: u64| ProfiledNode {
            shape: NodeShape {
                label: label.to_string(),
                pattern: pattern.to_string(),
                depth,
                estimate: Some(2.0),
                cost: Some(8.0),
            },
            metrics: NodeMetrics {
                wall: Duration::from_nanos(500),
                records_scanned: 3,
                pairs_compared: 6,
                incidents_emitted: emitted,
                output_bytes: 48,
            },
        };
        ExecutionProfile {
            query: "A -> B".to_string(),
            plan: "A -> B".to_string(),
            strategy: "planned".to_string(),
            rule: Some("original".to_string()),
            threads: 1,
            nodes: vec![
                node("sequential", "A -> B", 0, 2),
                node("scan A", "A", 1, 3),
                node("scan B", "B", 1, 3),
            ],
            workers: vec![WorkerProfile {
                worker: 0,
                instances: 1,
                incidents: 2,
                wall: Duration::from_nanos(2000),
            }],
            log_instances: 1,
            total_wall: Duration::from_nanos(9000),
            total_incidents: 2,
        }
    }

    #[test]
    fn rendered_traces_validate() {
        let trace = render_trace(&sample_profile());
        let summary = validate_trace(&trace).unwrap();
        assert_eq!(summary.version, TRACE_SCHEMA_VERSION);
        assert_eq!(summary.nodes, 3);
        assert_eq!(summary.workers, 1);
        assert_eq!(summary.total_incidents, 2);
        // trace_begin + 3 begin/end pairs + worker + trace_end.
        assert_eq!(summary.events, 9);
    }

    #[test]
    fn spans_nest_like_the_tree() {
        let trace = render_trace(&sample_profile());
        let events: Vec<&str> = trace.lines().collect();
        // Root opens first and closes last among node events.
        assert!(events[1].contains("\"node_begin\",\"node\":0"));
        assert!(events[2].contains("\"node_begin\",\"node\":1"));
        assert!(events[3].contains("\"node_end\",\"node\":1"));
        assert!(events[4].contains("\"node_begin\",\"node\":2"));
        assert!(events[5].contains("\"node_end\",\"node\":2"));
        assert!(events[6].contains("\"node_end\",\"node\":0"));
    }

    #[test]
    fn validator_rejects_malformed_traces() {
        let good = render_trace(&sample_profile());
        // Truncation: unbalanced spans / missing trace_end.
        let lines: Vec<&str> = good.lines().collect();
        let truncated = lines[..lines.len() - 1].join("\n");
        assert!(validate_trace(&truncated).is_err());
        // Wrong version.
        let wrong = good.replacen("\"version\":1", "\"version\":99", 1);
        assert!(validate_trace(&wrong)
            .unwrap_err()
            .detail
            .contains("version"));
        // Not JSON at all.
        assert!(validate_trace("hello\n").is_err());
        // Missing a required counter on node_end.
        let gutted = good.replace("\"pairs_compared\"", "\"pears_compared\"");
        assert!(validate_trace(&gutted)
            .unwrap_err()
            .detail
            .contains("pairs_compared"));
        // Empty input.
        assert_eq!(validate_trace("").unwrap_err().detail, "empty trace");
    }

    #[test]
    fn flat_parser_handles_escapes_and_numbers() {
        let obj = parse_flat_object("{\"s\":\"a\\\"b\\u0041\",\"n\":-1.5e2,\"t\":true,\"z\":null}")
            .unwrap();
        assert_eq!(obj["s"], Scalar::Str("a\"bA".to_string()));
        assert_eq!(obj["n"], Scalar::Num(-150.0));
        assert_eq!(obj["t"], Scalar::Bool(true));
        assert_eq!(obj["z"], Scalar::Null);
        assert!(parse_flat_object("{\"a\":1} extra").is_err());
        assert!(parse_flat_object("{\"a\":}").is_err());
    }
}
