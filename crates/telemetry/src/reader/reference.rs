//! The tree-building reader [`super::JsonlReader`] replaced, kept as a
//! test reference: every line is parsed into a [`Value`] tree twice (once
//! to detect a crash-truncated tail, once to decode it), and fields are
//! found with [`Value::get`]. The differential tests below check that the
//! single-pass reader yields the same records, the same errors at the
//! same lines, and stops at the same point on written, rewritten,
//! near-canonical and byte-mutated traces, and which of its two decode
//! paths each line takes.

use std::io::{BufRead, BufReader};

use proptest::prelude::*;

use super::{
    intern, schema_header, vocabulary, JsonlReader, LineCounts, TraceReadError, TRACE_SCHEMA,
    TRACE_SCHEMA_MIN_VERSION, TRACE_SCHEMA_VERSION,
};
use crate::json::{self, Value};
use crate::test_rng::Rng;
use crate::trace::{JsonlTracer, PreemptAction, TraceRecord, Tracer};

/// The previous `JsonlReader`, unchanged but for its name.
#[derive(Debug)]
struct TreeReader<R: BufRead> {
    lines: std::io::Lines<R>,
    /// One-line lookahead, so a malformed *final* line (a crash-truncated
    /// trace) can be tolerated while malformed interior lines still error.
    pending: Option<std::io::Result<String>>,
    line_no: usize,
}

impl<R: BufRead> TreeReader<R> {
    /// Wraps `input`, consuming and validating the schema header line.
    fn new(input: R) -> Result<Self, TraceReadError> {
        let mut lines = input.lines();
        let header = match lines.next() {
            None => return Err(TraceReadError::MissingHeader),
            Some(Err(e)) => return Err(TraceReadError::Io(e.to_string())),
            Some(Ok(line)) => line,
        };
        let v = json::parse(&header).ok_or(TraceReadError::MissingHeader)?;
        let schema = v.get("schema").and_then(Value::as_str).unwrap_or("?");
        let version = v.get("version").and_then(Value::as_u64).unwrap_or(0);
        if schema != TRACE_SCHEMA
            || !(TRACE_SCHEMA_MIN_VERSION..=TRACE_SCHEMA_VERSION).contains(&version)
        {
            return Err(TraceReadError::IncompatibleSchema {
                schema: schema.to_owned(),
                version,
            });
        }
        Ok(TreeReader {
            lines,
            pending: None,
            line_no: 1,
        })
    }

    fn parse_line(&self, line: &str) -> Result<(u64, TraceRecord), TraceReadError> {
        let err = |msg: String| TraceReadError::Parse {
            line: self.line_no,
            msg,
        };
        let v = json::parse(line).ok_or_else(|| err(format!("invalid JSON: {line}")))?;
        let t_us = v
            .get("t_us")
            .and_then(Value::as_u64)
            .ok_or_else(|| err("missing t_us".into()))?;
        let event = v
            .get("event")
            .and_then(Value::as_str)
            .ok_or_else(|| err("missing event".into()))?;
        let u = |key: &str| {
            v.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| err(format!("{event}: missing u64 field {key:?}")))
        };
        let node32 = |key: &str| {
            u(key).and_then(|x| {
                u32::try_from(x).map_err(|_| err(format!("{event}: {key} exceeds u32")))
            })
        };
        let b = |key: &str| {
            v.get(key)
                .and_then(Value::as_bool)
                .ok_or_else(|| err(format!("{event}: missing bool field {key:?}")))
        };
        let s = |key: &str| {
            v.get(key)
                .and_then(Value::as_str)
                .map(intern)
                .ok_or_else(|| err(format!("{event}: missing string field {key:?}")))
        };
        let rec = match event {
            "task_submit" => TraceRecord::TaskSubmit {
                task: u("task")?,
                job: u("job")?,
                priority: u("priority")?.min(u8::MAX as u64) as u8,
            },
            "task_schedule" => TraceRecord::TaskSchedule {
                task: u("task")?,
                node: node32("node")?,
                restore: b("restore")?,
            },
            "task_finish" => TraceRecord::TaskFinish {
                task: u("task")?,
                node: node32("node")?,
            },
            "task_evict" => TraceRecord::TaskEvict {
                task: u("task")?,
                node: node32("node")?,
                reason: s("reason")?,
            },
            "preempt_decision" => TraceRecord::PreemptDecision {
                victim: u("victim")?,
                node: node32("node")?,
                action: match s("action")? {
                    "kill" => PreemptAction::Kill,
                    "checkpoint" => PreemptAction::Checkpoint,
                    other => return Err(err(format!("unknown preempt action {other:?}"))),
                },
                policy: s("policy")?,
                reason: s("reason")?,
            },
            "dump_start" => TraceRecord::DumpStart {
                task: u("task")?,
                node: node32("node")?,
                device: s("device")?,
                bytes: u("bytes")?,
                incremental: b("incremental")?,
            },
            "dump_done" => TraceRecord::DumpDone {
                task: u("task")?,
                node: node32("node")?,
                start_us: u("start_us")?,
            },
            "dump_fallback" => TraceRecord::DumpFallback {
                task: u("task")?,
                node: node32("node")?,
                reason: s("reason")?,
            },
            "dump_fail" => TraceRecord::DumpFail {
                task: u("task")?,
                node: node32("node")?,
                attempt: u("attempt")?.min(u32::MAX as u64) as u32,
                will_retry: b("will_retry")?,
            },
            "restore_fail" => TraceRecord::RestoreFail {
                task: u("task")?,
                node: node32("node")?,
                attempt: u("attempt")?.min(u32::MAX as u64) as u32,
                reason: s("reason")?,
                will_retry: b("will_retry")?,
            },
            "am_escalate" => TraceRecord::AmEscalate {
                task: u("task")?,
                node: node32("node")?,
                waited_us: u("waited_us")?,
            },
            "replication_repair" => TraceRecord::ReplicationRepair {
                node: node32("node")?,
                blocks: u("blocks")?,
                bytes: u("bytes")?,
            },
            "restore_start" => TraceRecord::RestoreStart {
                task: u("task")?,
                node: node32("node")?,
                origin: node32("origin")?,
                device: s("device")?,
                bytes: u("bytes")?,
                remote: b("remote")?,
            },
            "restore_done" => TraceRecord::RestoreDone {
                task: u("task")?,
                node: node32("node")?,
                start_us: u("start_us")?,
            },
            "node_fail" => TraceRecord::NodeFail {
                node: node32("node")?,
            },
            "node_recover" => TraceRecord::NodeRecover {
                node: node32("node")?,
            },
            "node_down" => TraceRecord::NodeDown {
                node: node32("node")?,
            },
            "node_up" => TraceRecord::NodeUp {
                node: node32("node")?,
            },
            "partition_start" => TraceRecord::PartitionStart {
                rack: node32("rack")?,
            },
            "partition_end" => TraceRecord::PartitionEnd {
                rack: node32("rack")?,
            },
            "breaker_open" => TraceRecord::BreakerOpen {
                node: node32("node")?,
                global: b("global")?,
            },
            "breaker_close" => TraceRecord::BreakerClose {
                node: node32("node")?,
                global: b("global")?,
            },
            "gc_pass" => TraceRecord::GcPass {
                node: node32("node")?,
                reclaimed: u("reclaimed")?,
                chains: u("chains")?,
            },
            "image_evict" => TraceRecord::ImageEvict {
                task: u("task")?,
                node: node32("node")?,
                bytes: u("bytes")?,
            },
            "image_spill" => TraceRecord::ImageSpill {
                task: u("task")?,
                node: node32("node")?,
                origin: node32("origin")?,
                bytes: u("bytes")?,
            },
            "no_space" => TraceRecord::NoSpace {
                task: u("task")?,
                node: node32("node")?,
                wanted: u("wanted")?,
            },
            "chunk_done" => TraceRecord::ChunkDone {
                task: u("task")?,
                node: node32("node")?,
                chunk: u("chunk")?,
                total: u("total")?,
            },
            "chunk_corrupt" => TraceRecord::ChunkCorrupt {
                task: u("task")?,
                node: node32("node")?,
                image: u("image")?,
                chunk: u("chunk")?,
            },
            "chunk_refetch" => TraceRecord::ChunkRefetch {
                task: u("task")?,
                node: node32("node")?,
                chunk: u("chunk")?,
                ok: b("ok")?,
            },
            "resume_dump" => TraceRecord::ResumeDump {
                task: u("task")?,
                node: node32("node")?,
                resumed_bytes: u("resumed_bytes")?,
                total_bytes: u("total_bytes")?,
            },
            "chain_truncate" => TraceRecord::ChainTruncate {
                task: u("task")?,
                node: node32("node")?,
                dropped: u("dropped")?,
                kept: u("kept")?,
            },
            "queue_depth" => TraceRecord::QueueDepth {
                pending: u("pending")?,
            },
            other => return Err(err(format!("unknown event {other:?}"))),
        };
        Ok((t_us, rec))
    }
}

impl<R: BufRead> Iterator for TreeReader<R> {
    type Item = Result<(u64, TraceRecord), TraceReadError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let line = match self.pending.take().or_else(|| self.lines.next())? {
                Ok(line) => line,
                Err(e) => return Some(Err(TraceReadError::Io(e.to_string()))),
            };
            self.line_no += 1;
            if line.trim().is_empty() {
                continue;
            }
            // A line that is not even valid JSON *and* has nothing after it
            // is a crash-truncated final record: the writer died mid-line.
            // Tolerate it — warn and end the stream — so an analyzer can
            // still consume everything the crashed run managed to flush.
            // Malformed *interior* lines (more lines follow) still error.
            if json::parse(&line).is_none() {
                self.pending = self.lines.next();
                if self.pending.is_none() {
                    eprintln!(
                        "warning: trace line {} is truncated mid-record \
                         (crash-truncated trace?); stopping here",
                        self.line_no
                    );
                    return None;
                }
            }
            return Some(self.parse_line(&line));
        }
    }
}

// ---- differential tests -------------------------------------------------

/// Vocabulary words, and strings outside it that need escaping.
const WORDS: &[&str] = &[
    "kill",
    "checkpoint",
    "adaptive",
    "progress-at-risk",
    "dump",
    "node-crash",
    "grace-expired",
    "corrupt-image",
    "hdd",
    "nvram",
    "not-in-vocab",
    "quote\"back\\slash",
    "line\nbreak\ttab\u{1}",
    "é ∑ 𝄞/",
];

/// Number of [`TraceRecord`] kinds [`record`] can build.
const KINDS: usize = 32;

/// A record of kind `kind` (`0..KINDS`) with random fields, its strings
/// drawn from `words`.
fn record(rng: &mut Rng, kind: usize, words: &[&'static str]) -> TraceRecord {
    let (task, node, n) = (rng.u64(), rng.u32(), rng.u64());
    let word = rng.pick(words);
    let flag = rng.chance(50);
    match kind {
        0 => TraceRecord::TaskSubmit {
            task,
            job: n,
            priority: rng.next() as u8,
        },
        1 => TraceRecord::TaskSchedule {
            task,
            node,
            restore: flag,
        },
        2 => TraceRecord::TaskFinish { task, node },
        3 => TraceRecord::TaskEvict {
            task,
            node,
            reason: word,
        },
        4 => TraceRecord::PreemptDecision {
            victim: task,
            node,
            action: if flag {
                PreemptAction::Kill
            } else {
                PreemptAction::Checkpoint
            },
            policy: rng.pick(words),
            reason: word,
        },
        5 => TraceRecord::DumpStart {
            task,
            node,
            device: word,
            bytes: n,
            incremental: flag,
        },
        6 => TraceRecord::DumpDone {
            task,
            node,
            start_us: n,
        },
        7 => TraceRecord::DumpFallback {
            task,
            node,
            reason: word,
        },
        8 => TraceRecord::DumpFail {
            task,
            node,
            attempt: rng.u32(),
            will_retry: flag,
        },
        9 => TraceRecord::RestoreFail {
            task,
            node,
            attempt: rng.u32(),
            reason: word,
            will_retry: flag,
        },
        10 => TraceRecord::AmEscalate {
            task,
            node,
            waited_us: n,
        },
        11 => TraceRecord::ReplicationRepair {
            node,
            blocks: task,
            bytes: n,
        },
        12 => TraceRecord::RestoreStart {
            task,
            node,
            origin: rng.u32(),
            device: word,
            bytes: n,
            remote: flag,
        },
        13 => TraceRecord::RestoreDone {
            task,
            node,
            start_us: n,
        },
        14 => TraceRecord::NodeFail { node },
        15 => TraceRecord::NodeRecover { node },
        16 => TraceRecord::NodeDown { node },
        17 => TraceRecord::NodeUp { node },
        18 => TraceRecord::PartitionStart { rack: node },
        19 => TraceRecord::PartitionEnd { rack: node },
        20 => TraceRecord::BreakerOpen { node, global: flag },
        21 => TraceRecord::BreakerClose { node, global: flag },
        22 => TraceRecord::GcPass {
            node,
            reclaimed: task,
            chains: n,
        },
        23 => TraceRecord::ImageEvict {
            task,
            node,
            bytes: n,
        },
        24 => TraceRecord::ImageSpill {
            task,
            node,
            origin: rng.u32(),
            bytes: n,
        },
        25 => TraceRecord::NoSpace {
            task,
            node,
            wanted: n,
        },
        26 => TraceRecord::ChunkDone {
            task,
            node,
            chunk: n,
            total: rng.u64(),
        },
        27 => TraceRecord::ChunkCorrupt {
            task,
            node,
            image: n,
            chunk: rng.u64(),
        },
        28 => TraceRecord::ChunkRefetch {
            task,
            node,
            chunk: n,
            ok: flag,
        },
        29 => TraceRecord::ResumeDump {
            task,
            node,
            resumed_bytes: n,
            total_bytes: rng.u64(),
        },
        30 => TraceRecord::ChainTruncate {
            task,
            node,
            dropped: n,
            kept: rng.u64(),
        },
        _ => TraceRecord::QueueDepth { pending: n },
    }
}

/// A written stream holding every kind at least once, in a random order:
/// what a reader should yield for it, and its record lines (no header, no
/// line ends).
fn written(rng: &mut Rng) -> (Vec<String>, Vec<String>) {
    let mut kinds: Vec<usize> = (0..KINDS).collect();
    kinds.extend((0..rng.below(16)).map(|_| rng.below(KINDS)));
    for i in (1..kinds.len()).rev() {
        kinds.swap(i, rng.below(i + 1));
    }
    let mut w = JsonlTracer::new(Vec::new());
    let mut expected = Vec::new();
    for kind in kinds {
        let (t, rec) = (rng.u64(), record(rng, kind, WORDS));
        w.record(t, &rec);
        expected.push(format!("{t} {rec:?}"));
    }
    w.finish();
    let text = String::from_utf8(w.into_inner()).expect("the emitter writes UTF-8");
    let lines = text.lines().skip(1).map(str::to_owned).collect();
    (expected, lines)
}

/// Optional JSON whitespace (no `\n`: that would split the line).
fn ws(rng: &mut Rng, out: &mut String) {
    if rng.chance(30) {
        for _ in 0..=rng.below(3) {
            out.push(rng.pick(&[' ', '\t', '\r']));
        }
    }
}

/// `s` as a string literal, escaping more than the emitter does.
fn string(rng: &mut Rng, s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '/' if rng.chance(50) => out.push_str("\\/"),
            '\n' if rng.chance(50) => out.push_str("\\n"),
            c if (c as u32) < 0x20 || ((c as u32) < 0x1_0000 && rng.chance(15)) => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// `v` as JSON text with random whitespace and escapes.
fn render(rng: &mut Rng, v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::U64(x) => out.push_str(&x.to_string()),
        Value::F64(x) => out.push_str(&x.to_string()),
        Value::Str(s) => string(rng, s, out),
        Value::Array(xs) => {
            out.push('[');
            for (i, x) in xs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                ws(rng, out);
                render(rng, x, out);
                ws(rng, out);
            }
            out.push(']');
        }
        Value::Object(fields) => {
            let fields: Vec<(String, String)> = fields
                .iter()
                .map(|(k, v)| {
                    let mut text = String::new();
                    render(rng, v, &mut text);
                    (k.clone(), text)
                })
                .collect();
            object(rng, &fields, out);
        }
    }
}

/// An object from keys and already-rendered value texts.
fn object(rng: &mut Rng, fields: &[(String, String)], out: &mut String) {
    out.push('{');
    ws(rng, out);
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
            ws(rng, out);
        }
        string(rng, k, out);
        ws(rng, out);
        out.push(':');
        ws(rng, out);
        out.push_str(v);
        ws(rng, out);
    }
    out.push('}');
}

/// A random value text: scalars of every type and nested containers.
fn extra_value(rng: &mut Rng, depth: usize) -> String {
    let pick = if depth > 2 {
        rng.below(8)
    } else {
        rng.below(10)
    };
    let mut out = String::new();
    match pick {
        8 => {
            let xs: Vec<String> = (0..rng.below(4))
                .map(|_| extra_value(rng, depth + 1))
                .collect();
            out = format!("[{}]", xs.join(","));
        }
        9 => {
            let fields: Vec<(String, String)> = (0..rng.below(4))
                .map(|_| {
                    let key = rng.pick(&["task", "node", "x", "t_us"]).to_string();
                    (key, extra_value(rng, depth + 1))
                })
                .collect();
            object(rng, &fields, &mut out);
        }
        _ => {
            let scalars = [
                "null",
                "true",
                "false",
                "0",
                "7",
                "-1",
                "2.5",
                "1e3",
                "4294967296",
                "18446744073709551615",
                "18446744073709551616",
                "\"kill\"",
                "\"checkpoint\"",
                "\"node_fail\"",
                "\"\"",
            ];
            out.push_str(rng.pick(&scalars));
        }
    }
    out
}

/// Rewrites a written record line: fields reordered, extra, duplicate or
/// retyped members, escaped keys and values, whitespace. The result is
/// still one line of valid JSON.
fn rewrite(rng: &mut Rng, line: &str) -> String {
    let v = json::parse(line).expect("the emitter writes valid JSON");
    let Value::Object(members) = v else {
        unreachable!("the emitter writes objects")
    };
    let mut fields: Vec<(String, String)> = members
        .iter()
        .map(|(k, v)| {
            let mut text = String::new();
            render(rng, v, &mut text);
            (k.clone(), text)
        })
        .collect();
    for _ in 0..rng.below(4) {
        let n = fields.len();
        match rng.below(6) {
            // Reorder.
            0 => fields.swap(rng.below(n), rng.below(n)),
            // An extra member, maybe nested.
            1 => {
                let key = rng.pick(&["extra", "x", "nested", "é"]).to_string();
                let at = rng.below(n + 1);
                fields.insert(at, (key, extra_value(rng, 0)));
            }
            // A duplicate key, before or after the original.
            2 | 3 => {
                let key = fields[rng.below(n)].0.clone();
                let at = rng.below(n + 1);
                fields.insert(at, (key, extra_value(rng, 0)));
            }
            // A member retyped or dropped.
            4 => {
                let i = rng.below(n);
                if rng.chance(30) {
                    fields.remove(i);
                } else {
                    fields[i].1 = extra_value(rng, 0);
                }
            }
            // An event or preemption action the reader does not know.
            _ => {
                for (k, v) in fields.iter_mut() {
                    if (k == "event" || k == "action") && rng.chance(50) {
                        *v = "\"bogus\"".into();
                    }
                }
            }
        }
    }
    let mut out = String::new();
    ws(rng, &mut out);
    if rng.chance(3) {
        // A valid JSON value that is not an object.
        out.push_str(&extra_value(rng, 2));
    } else {
        object(rng, &fields, &mut out);
    }
    ws(rng, &mut out);
    out
}

/// Damages one line's bytes: truncated, one bit flipped, or one byte
/// deleted.
fn mutate(rng: &mut Rng, line: &mut Vec<u8>) {
    if line.is_empty() {
        return;
    }
    let at = rng.below(line.len());
    match rng.below(3) {
        0 => line.truncate(at),
        1 => line[at] ^= 1 << rng.below(8),
        _ => {
            line.remove(at);
        }
    }
}

/// A written line's members as (key, value text), in order.
fn members(line: &str) -> Vec<(String, String)> {
    let Some(Value::Object(members)) = json::parse(line) else {
        unreachable!("the emitter writes objects")
    };
    members
        .into_iter()
        .map(|(k, v)| {
            let text = match v {
                Value::U64(x) => x.to_string(),
                Value::Bool(b) => b.to_string(),
                Value::Str(s) => {
                    let mut text = String::new();
                    json::push_str_escaped(&mut text, &s);
                    text
                }
                other => unreachable!("the emitter writes no {other:?}"),
            };
            (k, text)
        })
        .collect()
}

/// Members laid out as the emitter lays them out.
fn canonical_line(members: &[(String, String)]) -> String {
    let body: Vec<String> = members
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// One change that takes a written line just out of the form the
/// canonical-line decoder takes: a leading zero, a sign, a node id above
/// `u32::MAX`, a `\u`-escaped letter, a trailing space, a missing `}`,
/// two members swapped, or a `\r` before the line end.
fn near_canonical(rng: &mut Rng, line: &str) -> String {
    let mut members = members(line);
    assert_eq!(
        canonical_line(&members),
        line,
        "the emitter writes canonical lines"
    );
    let pick = |rng: &mut Rng, members: &[(String, String)], f: fn(&str, &str) -> bool| {
        let at: Vec<usize> = (0..members.len())
            .filter(|&i| f(&members[i].0, &members[i].1))
            .collect();
        (!at.is_empty()).then(|| at[rng.below(at.len())])
    };
    let number = |_: &str, v: &str| v.bytes().all(|b| b.is_ascii_digit());
    match rng.below(8) {
        0 => {
            let i = pick(rng, &members, number).expect("t_us is a number");
            members[i].1.insert(0, '0');
        }
        1 => {
            let i = pick(rng, &members, number).expect("t_us is a number");
            members[i].1 = "-1".into();
        }
        2 => {
            let id = |k: &str, _: &str| matches!(k, "node" | "rack" | "origin");
            match pick(rng, &members, id) {
                Some(i) => members[i].1 = (u32::MAX as u64 + 1 + rng.next() % 1000).to_string(),
                None => members[0].1 = "18446744073709551616".into(),
            }
        }
        3 => {
            let i = pick(rng, &members, |_, v| v.starts_with('"')).expect("event is a string");
            let Some(Value::Str(s)) = json::parse(&members[i].1) else {
                unreachable!("a string member")
            };
            let chars: Vec<char> = s.chars().collect();
            if let Some(at) = (0..chars.len()).find(|&j| chars[j].is_ascii_alphanumeric()) {
                let escape = |cs: &[char]| {
                    let mut text = String::new();
                    json::push_str_escaped(&mut text, &cs.iter().collect::<String>());
                    text[1..text.len() - 1].to_owned()
                };
                members[i].1 = format!(
                    "\"{}\\u{:04x}{}\"",
                    escape(&chars[..at]),
                    chars[at] as u32,
                    escape(&chars[at + 1..])
                );
            }
        }
        4 => return format!("{line} "),
        5 => return line[..line.len() - 1].to_owned(),
        6 => {
            let i = rng.below(members.len() - 1);
            members.swap(i, i + 1);
        }
        _ => return format!("{line}\r"),
    }
    canonical_line(&members)
}

/// A trace: the header, then `lines` each ended by `\n` or `\r\n`, with
/// blank lines mixed in; the last line may lack its end.
fn assemble(rng: &mut Rng, lines: &[Vec<u8>]) -> Vec<u8> {
    let mut out = schema_header().into_bytes();
    out.push(b'\n');
    for (i, line) in lines.iter().enumerate() {
        if rng.chance(3) {
            let blank: &[&[u8]] = &[b"\n", b"  \r\n", b"\t\n"];
            out.extend_from_slice(rng.pick(blank));
        }
        out.extend_from_slice(line);
        let last = i + 1 == lines.len();
        if !(last && rng.chance(30)) {
            out.extend_from_slice(if rng.chance(20) { b"\r\n" } else { b"\n" });
        }
    }
    out
}

/// Everything a reader yields for `bytes`, as comparable text: the
/// construction error, or each record and error in order.
fn outcomes<I>(reader: Result<I, TraceReadError>, max: usize) -> Vec<String>
where
    I: Iterator<Item = Result<(u64, TraceRecord), TraceReadError>>,
{
    match reader {
        Err(e) => vec![format!("new: {e:?}")],
        Ok(items) => items
            .take(max)
            .map(|item| match item {
                Ok((t, rec)) => format!("{t} {rec:?}"),
                Err(e) => format!("{e:?}"),
            })
            .collect(),
    }
}

/// What the single-pass reader and the tree reader yield for `bytes`.
fn both(bytes: &[u8]) -> (Vec<String>, Vec<String>) {
    // Every item consumes at least one line; the cap only guards a bug.
    let max = bytes.len() + 2;
    (
        outcomes(JsonlReader::new(bytes), max),
        outcomes(TreeReader::new(bytes), max),
    )
}

/// Buffer sizes the reader is checked at: one byte, sizes that split
/// most lines (a line is about 80 bytes), and a page.
const CAPACITIES: [usize; 5] = [1, 7, 64, 85, 4096];

/// What the single-pass reader yields for `input`, and its line counts.
fn read_all(input: impl BufRead, max: usize) -> (Vec<String>, Option<LineCounts>) {
    match JsonlReader::new(input) {
        Err(e) => (vec![format!("new: {e:?}")], None),
        Ok(mut reader) => {
            let items = outcomes(Ok(reader.by_ref()), max);
            (items, Some(reader.line_counts()))
        }
    }
}

/// Checks that reading `bytes` through a buffer of each of
/// [`CAPACITIES`], where lines are split by the buffer's end and decoded
/// by the line path, gives what reading them as one slice gives.
fn check_buffered(bytes: &[u8]) -> Result<(), String> {
    let max = bytes.len() + 2;
    let whole = read_all(bytes, max);
    for capacity in CAPACITIES {
        let buffered = read_all(BufReader::with_capacity(capacity, bytes), max);
        if buffered != whole {
            return Err(format!(
                "capacity {capacity}: {buffered:?}\nas one slice: {whole:?}"
            ));
        }
    }
    Ok(())
}

/// How many lines of `bytes` the single-pass reader sent down each path.
fn line_counts(bytes: &[u8]) -> LineCounts {
    let mut reader = JsonlReader::new(bytes).expect("a valid header");
    reader.by_ref().for_each(drop);
    reader.line_counts()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn single_pass_reader_matches_tree_reader(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let (expected, written) = written(&mut rng);

        // (a) The written stream, every kind: every record read back.
        let clean: Vec<Vec<u8>> = written.iter().map(|l| l.clone().into_bytes()).collect();
        let bytes = assemble(&mut rng, &clean);
        let (single, tree) = both(&bytes);
        prop_assert_eq!(&single, &tree, "seed {seed}: written stream");
        prop_assert_eq!(&single, &expected, "seed {seed}: records read back");
        prop_assert_eq!(check_buffered(&bytes), Ok(()), "seed {seed}: written stream");

        // (b) The same records rewritten.
        let rewritten: Vec<Vec<u8>> = written
            .iter()
            .map(|l| if rng.chance(60) { rewrite(&mut rng, l) } else { l.clone() }.into_bytes())
            .collect();
        let bytes = assemble(&mut rng, &rewritten);
        let (single, tree) = both(&bytes);
        prop_assert_eq!(&single, &tree, "seed {seed}: rewritten stream");
        prop_assert_eq!(check_buffered(&bytes), Ok(()), "seed {seed}: rewritten stream");

        // (c) Near-canonical lines: the edge of the canonical-line fast
        // path.
        let near: Vec<Vec<u8>> = written
            .iter()
            .map(|l| if rng.chance(40) { near_canonical(&mut rng, l) } else { l.clone() }.into_bytes())
            .collect();
        let bytes = assemble(&mut rng, &near);
        let (single, tree) = both(&bytes);
        prop_assert_eq!(&single, &tree, "seed {seed}: near-canonical stream");
        prop_assert_eq!(check_buffered(&bytes), Ok(()), "seed {seed}: near-canonical stream");

        // (d) Damaged bytes, the final line or the header included.
        let mut damaged = rewritten;
        for _ in 0..=rng.below(3) {
            let i = rng.below(damaged.len());
            mutate(&mut rng, &mut damaged[i]);
        }
        if rng.chance(50) {
            let last = damaged.last_mut().expect("non-empty stream");
            let keep = rng.below(last.len());
            last.truncate(keep);
        }
        let mut bytes = assemble(&mut rng, &damaged);
        if rng.chance(5) {
            let mut header = bytes[..schema_header().len()].to_vec();
            mutate(&mut rng, &mut header);
            bytes.splice(..schema_header().len(), header);
        }
        let (single, tree) = both(&bytes);
        prop_assert_eq!(&single, &tree, "seed {seed}: damaged stream");
        prop_assert_eq!(check_buffered(&bytes), Ok(()), "seed {seed}: damaged stream");
    }
}

#[test]
fn generator_covers_every_record_kind() {
    let mut rng = Rng(1);
    let names: std::collections::BTreeSet<&str> = (0..KINDS)
        .map(|k| record(&mut rng, k, WORDS).name())
        .collect();
    assert_eq!(names.len(), KINDS);
}

#[test]
fn every_kind_takes_the_canonical_path() {
    let words: Vec<&'static str> = WORDS
        .iter()
        .copied()
        .filter(|w| vocabulary(w.as_bytes()).is_some())
        .collect();
    let mut rng = Rng(7);
    for kind in 0..KINDS {
        for _ in 0..16 {
            let (t, rec) = (rng.u64(), record(&mut rng, kind, &words));
            let mut w = JsonlTracer::new(Vec::new());
            w.record(t, &rec);
            let bytes = w.into_inner();
            let (single, tree) = both(&bytes);
            assert_eq!(single, [format!("{t} {rec:?}")]);
            assert_eq!(single, tree);
            let counts = line_counts(&bytes);
            assert_eq!((counts.canonical, counts.general), (1, 0), "{rec:?}");
        }
    }
}

#[test]
fn near_canonical_lines_take_the_general_path() {
    let line = "{\"t_us\":5,\"event\":\"preempt_decision\",\"victim\":3,\"node\":2,\
                \"action\":\"kill\",\"policy\":\"adaptive\",\"reason\":\"policy\"}";
    let bytes = format!("{}\n{line}\n", schema_header());
    assert_eq!(line_counts(bytes.as_bytes()).canonical, 1);
    let node = format!(",\"node\":{}", u32::MAX as u64 + 1);
    let near = [
        line.replace("\"node\":2", "\"node\":02"),
        line.replace("\"node\":2", "\"node\":-1"),
        line.replace(",\"node\":2", &node),
        line.replace("\"t_us\":5", "\"t_us\":18446744073709551616"),
        line.replace("\"kill\"", "\"k\\u0069ll\""),
        line.replace("preempt_decision", "preempt\\u005fdecision"),
        line.replace("\"policy\"}", "\"not-in-vocab\"}"),
        line.replace("\"victim\":3", "\"victim\":3.0"),
        format!("{line} "),
        format!(" {line}"),
        line[..line.len() - 1].to_owned(),
        line.replace("\"victim\":3,\"node\":2", "\"node\":2,\"victim\":3"),
        line.replace("{\"t_us\":5,", "{\"t_us\":5,\"t_us\":5,"),
    ];
    for near in near {
        for end in ["\n", "\r\n", ""] {
            let bytes = format!("{}\n{near}{end}", schema_header());
            let (single, tree) = both(bytes.as_bytes());
            assert_eq!(single, tree, "{near:?}");
            let counts = line_counts(bytes.as_bytes());
            assert_eq!((counts.canonical, counts.general), (0, 1), "{near:?}");
        }
    }
    // A CRLF line end is not part of the line, but a CR before it is.
    for (end, canonical) in [("\r\n", 1), ("\r\r\n", 0), ("\r", 0)] {
        let bytes = format!("{}\n{line}{end}", schema_header());
        let (single, tree) = both(bytes.as_bytes());
        assert_eq!(single, tree, "{end:?}");
        assert_eq!(
            line_counts(bytes.as_bytes()).canonical,
            canonical,
            "{end:?}"
        );
    }
}

#[test]
fn non_object_lines_are_missing_t_us() {
    for line in ["[1,2]", "\"t_us\"", "7", "null", "{}", " [ {\"t_us\":1} ] "] {
        let bytes = format!("{}\n{line}\n", schema_header());
        let (single, tree) = both(bytes.as_bytes());
        assert_eq!(single, tree, "{line}");
        assert!(single[0].contains("missing t_us"), "{line}: {single:?}");
    }
}

#[test]
fn buffer_boundaries_do_not_change_what_is_read() {
    let (_, lines) = written(&mut Rng(11));
    let header = schema_header();
    let join = |lines: &[String], end: &str| {
        let mut text = format!("{header}\n");
        for line in lines {
            text.push_str(line);
            text.push_str(end);
        }
        text
    };
    let last = lines.len() - 1;
    let mut cases = vec![("LF", join(&lines, "\n")), ("CRLF", join(&lines, "\r\n"))];
    let mut open = join(&lines, "\n");
    open.pop();
    cases.push(("no final line end", open));
    let mut cut = join(&lines[..last], "\n");
    cut.push_str(&lines[last][..lines[last].len() / 2]);
    cases.push(("truncated last line", cut));
    let mut bad = lines.clone();
    bad[last / 2] = "{\"t_us\":1,oops".into();
    cases.push(("invalid interior line", join(&bad, "\n")));
    let mut trailing = lines.clone();
    trailing[last / 2].push_str(" x");
    trailing[last].push('}');
    cases.push(("canonical lines with trailing bytes", join(&trailing, "\n")));
    cases.push(("blank lines", join(&lines, "\n\n \r\n")));
    for (what, text) in &cases {
        let (single, tree) = both(text.as_bytes());
        assert_eq!(single, tree, "{what}");
        if let Err(e) = check_buffered(text.as_bytes()) {
            panic!("{what}: {e}");
        }
    }
    // A CRLF end takes no line off the canonical path, split or not.
    let counts = |text: &str| read_all(BufReader::with_capacity(7, text.as_bytes()), usize::MAX).1;
    let lf = counts(&cases[0].1).expect("a valid header");
    assert_eq!(counts(&cases[1].1), Some(lf));
    assert!(lf.canonical > 0, "{lf:?}");
}
