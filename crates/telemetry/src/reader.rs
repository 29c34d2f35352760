//! Reading a [`crate::JsonlTracer`] stream back into [`TraceRecord`]s.
//!
//! The JSONL sink opens with a schema header line
//! (`{"schema":"cbp-trace","version":5}`) so consumers can reject traces
//! written by an incompatible emitter before mis-parsing thousands of
//! lines. [`JsonlReader`] checks the header, then yields one
//! `(t_us, TraceRecord)` per line; the round trip
//! `write → read → write` is byte-identical (tested).
//!
//! Each line is decoded in one pass with no allocation per line, by one
//! of two paths. The canonical-line decoder matches exactly the bytes
//! [`crate::JsonlTracer`] writes: the fields of each kind in the order of
//! the layout table both sides expand (`record_layouts!` in
//! `trace.rs`), canonical integers, `true`/`false` and vocabulary words
//! without escapes, and nothing after the closing `}` but the line end.
//! It first reads a line in place, as bytes, from the input's read
//! buffer, and consumes it only if it decodes. Any other line (split by
//! the end of the buffer, not canonical, blank, or the truncated tail)
//! is read into a reused buffer and offered to the canonical decoder
//! again, then to the general path. A canonical line is valid JSON that
//! decodes only one way, so records and errors depend neither on the
//! path a line took nor on the buffer size; [`JsonlReader::line_counts`]
//! counts both paths.
//!
//! The general path validates the line with the strict JSON validator,
//! which accepts exactly what [`json::is_valid`] accepts and splits the
//! top-level object into member spans as it goes. The record's fields
//! are decoded straight from those spans. A field is looked up at the
//! emitter's fixed position first and by a first-match scan otherwise,
//! so reordered, extra and duplicate keys read as a [`json::Value`] tree
//! would. Strings without escapes are borrowed from the line, and the
//! event name is matched in place. A line that is not valid JSON and is
//! the last line of the stream is a crash-truncated tail: the reader
//! warns and ends the stream there, without parsing the line again. The
//! `reference` test module keeps the tree-building reader this one
//! replaced and checks the two against each other on written, rewritten,
//! near-canonical and byte-damaged traces.

use std::borrow::Cow;
use std::collections::HashSet;
use std::io::{BufRead, ErrorKind};
use std::sync::{Mutex, OnceLock, PoisonError};

use crate::json::{self, Member};
use crate::trace::{PreemptAction, TraceRecord};

#[cfg(test)]
mod reference;

/// Schema name carried by the JSONL header line.
pub const TRACE_SCHEMA: &str = "cbp-trace";

/// Current schema version of the JSONL trace format.
///
/// Bump whenever a record variant changes shape or meaning (e.g. the
/// `dump_done.start_us` field moved from submission time to service start
/// when version 1 was introduced; version 2 added the fault-injection
/// vocabulary: `dump_fail`, `restore_fail`, `am_escalate`,
/// `replication_repair`; version 3 added the failure-domain and
/// circuit-breaker vocabulary: `node_down`, `node_up`, `partition_start`,
/// `partition_end`, `breaker_open`, `breaker_close`; version 4 added the
/// image-lifecycle vocabulary: `gc_pass`, `image_evict`, `image_spill`,
/// `no_space`; version 5 added the chunked-transfer integrity vocabulary:
/// `chunk_done`, `chunk_corrupt`, `chunk_refetch`, `resume_dump`,
/// `chain_truncate`).
pub const TRACE_SCHEMA_VERSION: u64 = 5;

/// Oldest schema version [`JsonlReader`] still accepts. Versions 2
/// through 5 only *added* vocabulary — every v1 line parses identically
/// under the v5 reader — so v1..=v4 traces remain readable.
pub const TRACE_SCHEMA_MIN_VERSION: u64 = 1;

/// The exact header line (without trailing newline) the JSONL sink emits.
pub fn schema_header() -> String {
    format!("{{\"schema\":\"{TRACE_SCHEMA}\",\"version\":{TRACE_SCHEMA_VERSION}}}")
}

/// Why reading a trace failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceReadError {
    /// The underlying reader failed.
    Io(String),
    /// The stream is empty or the first line is not a schema header.
    MissingHeader,
    /// The header names a different schema or an unsupported version.
    IncompatibleSchema {
        /// Schema name found in the header ("?" if absent).
        schema: String,
        /// Version found in the header (0 if absent).
        version: u64,
    },
    /// A record line failed to parse.
    Parse {
        /// 1-based line number (the header is line 1).
        line: usize,
        /// What went wrong.
        msg: String,
    },
}

impl std::fmt::Display for TraceReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceReadError::Io(e) => write!(f, "trace read failed: {e}"),
            TraceReadError::MissingHeader => write!(
                f,
                "trace is missing its schema header line (expected {})",
                schema_header()
            ),
            TraceReadError::IncompatibleSchema { schema, version } => write!(
                f,
                "incompatible trace schema {schema:?} v{version} (this reader \
                 understands {TRACE_SCHEMA:?} \
                 v{TRACE_SCHEMA_MIN_VERSION}..=v{TRACE_SCHEMA_VERSION})"
            ),
            TraceReadError::Parse { line, msg } => {
                write!(f, "trace line {line}: {msg}")
            }
        }
    }
}

impl std::error::Error for TraceReadError {}

/// Maps a dynamic string onto the `&'static str` vocabulary the emitters
/// use, so a parsed [`TraceRecord`] is field-for-field identical to the
/// one that was written.
///
/// A string outside the known vocabulary is leaked the first time it is
/// seen and reused after that, so the leak is bounded by the number of
/// distinct strings, not by the length of the trace.
fn intern(s: &str) -> &'static str {
    vocabulary(s.as_bytes()).unwrap_or_else(|| leak_once(s))
}

/// `s` as the emitters' own `&'static str`, if it is one of their words.
fn vocabulary(s: &[u8]) -> Option<&'static str> {
    Some(match s {
        // preemption actions / policies / reasons
        b"kill" => "kill",
        b"checkpoint" => "checkpoint",
        b"adaptive" => "adaptive",
        b"wait" => "wait",
        b"policy" => "policy",
        b"progress-at-risk" => "progress-at-risk",
        b"overhead-exceeds-risk" => "overhead-exceeds-risk",
        // eviction reasons
        b"dump" => "dump",
        b"node-fail" => "node-fail",
        b"node-crash" => "node-crash",
        // eviction reason for AM-escalation kills (YarnSim)
        b"am-escalate" => "am-escalate",
        // fallback reasons
        b"no-capacity" => "no-capacity",
        b"storage-full" => "storage-full",
        b"nvram-full" => "nvram-full",
        b"grace-expired" => "grace-expired",
        b"dump-fail" => "dump-fail",
        b"am-unresponsive" => "am-unresponsive",
        b"breaker-open" => "breaker-open",
        b"no-space" => "no-space",
        // restore failure classes
        b"transient" => "transient",
        b"corrupt-image" => "corrupt-image",
        b"blocks-lost" => "blocks-lost",
        // devices
        b"hdd" => "hdd",
        b"ssd" => "ssd",
        b"nvm" => "nvm",
        b"nvram" => "nvram",
        _ => return None,
    })
}

/// `s` as a `&'static str`, leaked once per distinct string.
fn leak_once(s: &str) -> &'static str {
    static LEAKED: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    let mut leaked = LEAKED
        .get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    if let Some(&s) = leaked.get(s) {
        return s;
    }
    let s: &'static str = Box::leak(s.into());
    leaked.insert(s);
    s
}

/// Reads the next line into `buf` without its `\n` or `\r\n` ending, as
/// `BufRead::lines` yields it. `Ok(false)` at the end of the input.
fn read_line(input: &mut impl BufRead, buf: &mut String) -> std::io::Result<bool> {
    buf.clear();
    if input.read_line(buf)? == 0 {
        return Ok(false);
    }
    if buf.ends_with('\n') {
        buf.pop();
        if buf.ends_with('\r') {
            buf.pop();
        }
    }
    Ok(true)
}

/// A payload field as [`crate::trace::record_layouts`] names it: its JSON
/// key, and the `,"key":` text the emitter writes before its value.
#[derive(Clone, Copy)]
struct Key {
    name: &'static str,
    member: &'static str,
}

/// Where a record's payload fields are read from, one decode rule per
/// method (see [`crate::trace::record_layouts`]). Fields are asked for in
/// the order the emitter writes them.
trait Payload {
    type Error;
    fn u64(&mut self, key: Key) -> Result<u64, Self::Error>;
    fn id32(&mut self, key: Key) -> Result<u32, Self::Error>;
    fn bool(&mut self, key: Key) -> Result<bool, Self::Error>;
    fn str(&mut self, key: Key) -> Result<&'static str, Self::Error>;
    fn action(&mut self, key: Key) -> Result<PreemptAction, Self::Error>;
    /// Whether the record is of the kind named `name`.
    fn event(&mut self, name: &'static str) -> bool;
    /// The error for a record of no known kind.
    fn unknown_event(&self) -> Self::Error;

    fn sat32(&mut self, key: Key) -> Result<u32, Self::Error> {
        self.u64(key).map(|x| x.min(u32::MAX.into()) as u32)
    }

    fn sat8(&mut self, key: Key) -> Result<u8, Self::Error> {
        self.u64(key).map(|x| x.min(u8::MAX.into()) as u8)
    }
}

macro_rules! impl_decode_payload {
    ($($variant:ident $name:literal { $($field:ident: $rule:ident),* $(,)? }),* $(,)?) => {
        /// Decodes the payload of the record, field by field in emitted
        /// order, after finding its kind by name in layout order.
        #[inline(always)]
        fn decode_payload<P: Payload>(p: &mut P) -> Result<TraceRecord, P::Error> {
            $(if p.event($name) {
                return Ok(TraceRecord::$variant {
                    $($field: p.$rule(Key {
                        name: stringify!($field),
                        member: concat!(",\"", stringify!($field), "\":"),
                    })?,)*
                });
            })*
            Err(p.unknown_event())
        }
    };
}
crate::trace::record_layouts!(impl_decode_payload);

/// A line read as exactly the bytes [`crate::JsonlTracer`] writes:
/// `{"t_us":N,"event":"name"`, the kind's fields in emitted order with
/// canonical integers (no sign, no leading zero, the value fits its
/// field), `true`/`false` and vocabulary words without escapes, then `}`
/// at the end of the line. Any other text is a miss, and the line goes
/// to the general path. A line that matches is valid JSON, all ASCII,
/// that decodes only one way, so both paths give it the same record.
///
/// The decoder and its helpers are `#[inline(always)]`, so that it is
/// compiled into [`JsonlReader::next`] as a whole and builds the record
/// in place. Through calls, each returned record was stored field by
/// field and reloaded whole, and decoding took twice as long.
struct Canonical<'a> {
    line: &'a [u8],
    at: usize,
}

/// A line that is not in canonical form.
struct Miss;

impl<'a> Canonical<'a> {
    /// Decodes `line` (without its end), or `None` if it is not in
    /// canonical form.
    fn decode(line: &'a str) -> Option<(u64, TraceRecord)> {
        let mut c = Canonical {
            line: line.as_bytes(),
            at: 0,
        };
        let rec = c.record()?;
        (c.at == line.len()).then_some(rec)
    }

    /// Decodes the canonical line at the start of `buf`, and returns it
    /// with the length of the line and its `\n` or `\r\n` end. `None` if
    /// the line is not canonical or `buf` ends before the line does.
    #[inline(always)]
    fn decode_prefix(buf: &'a [u8]) -> Option<((u64, TraceRecord), usize)> {
        let mut c = Canonical { line: buf, at: 0 };
        let rec = c.record()?;
        let end = match &buf[c.at..] {
            [b'\n', ..] => 1,
            [b'\r', b'\n', ..] => 2,
            _ => return None,
        };
        Some((rec, c.at + end))
    }

    /// The record up to and including its closing `}`.
    #[inline(always)]
    fn record(&mut self) -> Option<(u64, TraceRecord)> {
        self.lit(b"{\"t_us\":")?;
        let t_us = self.uint()?;
        self.lit(b",\"event\":\"")?;
        let rec = decode_payload(self).ok()?;
        self.lit(b"}")?;
        Some((t_us, rec))
    }

    #[inline(always)]
    fn lit(&mut self, lit: &[u8]) -> Option<()> {
        self.line[self.at..]
            .starts_with(lit)
            .then(|| self.at += lit.len())
    }

    /// A canonical unsigned integer that fits `u64`.
    #[inline(always)]
    fn uint(&mut self) -> Option<u64> {
        let rest = &self.line[self.at..];
        let mut x = 0u64;
        let mut digits = 0;
        while let Some(d) = rest.get(digits).map(|c| c.wrapping_sub(b'0')) {
            if d > 9 {
                break;
            }
            // Nineteen digits always fit; only a twentieth can overflow.
            x = if digits < 19 {
                x * 10 + u64::from(d)
            } else {
                x.checked_mul(10)?.checked_add(u64::from(d))?
            };
            digits += 1;
        }
        // JSON has no leading zeros.
        if digits == 0 || (digits > 1 && rest[0] == b'0') {
            return None;
        }
        self.at += digits;
        Some(x)
    }

    /// The text up to the next quote on the line, which it consumes: the
    /// body of a string whose opening quote was consumed. Only vocabulary
    /// words are accepted, so a body with escapes never matches.
    fn str_body(&mut self) -> Option<&'a [u8]> {
        let start = self.at;
        let len = self.line[start..]
            .iter()
            .position(|&c| c == b'"' || c == b'\n')?;
        if self.line[start + len] != b'"' {
            return None;
        }
        self.at = start + len + 1;
        Some(&self.line[start..start + len])
    }

    /// The `,"key":` text before a field's value.
    #[inline(always)]
    fn member(&mut self, key: Key) -> Result<(), Miss> {
        self.lit(key.member.as_bytes()).ok_or(Miss)
    }
}

impl Payload for Canonical<'_> {
    type Error = Miss;

    #[inline(always)]
    fn u64(&mut self, key: Key) -> Result<u64, Miss> {
        self.member(key)?;
        self.uint().ok_or(Miss)
    }

    #[inline(always)]
    fn id32(&mut self, key: Key) -> Result<u32, Miss> {
        self.u64(key)?.try_into().map_err(|_| Miss)
    }

    #[inline(always)]
    fn bool(&mut self, key: Key) -> Result<bool, Miss> {
        self.member(key)?;
        if self.lit(b"true").is_some() {
            Ok(true)
        } else {
            self.lit(b"false").map(|()| false).ok_or(Miss)
        }
    }

    #[inline(always)]
    fn str(&mut self, key: Key) -> Result<&'static str, Miss> {
        self.member(key)?;
        self.lit(b"\"").ok_or(Miss)?;
        // A word outside the vocabulary is left to the general path,
        // which interns it, so this path never leaks.
        self.str_body().and_then(vocabulary).ok_or(Miss)
    }

    fn action(&mut self, key: Key) -> Result<PreemptAction, Miss> {
        match self.str(key)? {
            "kill" => Ok(PreemptAction::Kill),
            "checkpoint" => Ok(PreemptAction::Checkpoint),
            _ => Err(Miss),
        }
    }

    /// The name and its closing quote, which it consumes on a match.
    #[inline(always)]
    fn event(&mut self, name: &'static str) -> bool {
        let rest = &self.line[self.at..];
        let n = name.len();
        let hit = rest.starts_with(name.as_bytes()) && rest.get(n) == Some(&b'"');
        if hit {
            self.at += n + 1;
        }
        hit
    }

    fn unknown_event(&self) -> Miss {
        Miss
    }
}

/// The members of one validated line, looked up by key as
/// [`json::Value::get`] looks them up: the first member whose unescaped
/// key matches.
struct Fields<'a> {
    line: &'a str,
    members: &'a [Member],
    /// Members `..next` carry the keys of earlier lookups, in order. The
    /// keys looked up are distinct, so if `members[next]` carries the key
    /// asked for, it is the first member that does. The emitter's fixed
    /// field order always takes this path.
    next: usize,
    line_no: usize,
    /// The record's event name, for error messages.
    event: Cow<'a, str>,
}

impl<'a> Fields<'a> {
    fn new(line: &'a str, members: &'a [Member], line_no: usize) -> Self {
        Fields {
            line,
            members,
            next: 0,
            line_no,
            event: Cow::Borrowed(""),
        }
    }

    /// The value text of the first member named `key`.
    fn raw(&mut self, key: &str) -> Option<&'a str> {
        let line = self.line;
        if let Some(m) = self.members.get(self.next) {
            if m.raw_key(line) == key {
                self.next += 1;
                return Some(m.raw_value(line));
            }
        }
        self.members
            .iter()
            .find(|m| json::unescape(m.raw_key(line)) == key)
            .map(|m| m.raw_value(line))
    }

    fn err(&self, msg: String) -> TraceReadError {
        TraceReadError::Parse {
            line: self.line_no,
            msg,
        }
    }

    fn text(&mut self, key: &str) -> Result<Cow<'a, str>, TraceReadError> {
        self.raw(key)
            .and_then(json::raw_str)
            .ok_or_else(|| self.err(format!("{}: missing string field {key:?}", self.event)))
    }
}

impl Payload for Fields<'_> {
    type Error = TraceReadError;

    fn u64(&mut self, key: Key) -> Result<u64, TraceReadError> {
        let key = key.name;
        self.raw(key)
            .and_then(json::raw_u64)
            .ok_or_else(|| self.err(format!("{}: missing u64 field {key:?}", self.event)))
    }

    fn id32(&mut self, key: Key) -> Result<u32, TraceReadError> {
        let x = self.u64(key)?;
        u32::try_from(x).map_err(|_| self.err(format!("{}: {} exceeds u32", self.event, key.name)))
    }

    fn bool(&mut self, key: Key) -> Result<bool, TraceReadError> {
        let key = key.name;
        self.raw(key)
            .and_then(json::raw_bool)
            .ok_or_else(|| self.err(format!("{}: missing bool field {key:?}", self.event)))
    }

    fn str(&mut self, key: Key) -> Result<&'static str, TraceReadError> {
        self.text(key.name).map(|s| intern(&s))
    }

    fn action(&mut self, key: Key) -> Result<PreemptAction, TraceReadError> {
        match &*self.text(key.name)? {
            "kill" => Ok(PreemptAction::Kill),
            "checkpoint" => Ok(PreemptAction::Checkpoint),
            other => Err(self.err(format!("unknown preempt action {other:?}"))),
        }
    }

    fn event(&mut self, name: &'static str) -> bool {
        self.event == name
    }

    fn unknown_event(&self) -> TraceReadError {
        self.err(format!("unknown event {:?}", self.event))
    }
}

/// Decodes one validated record line from its top-level `members`.
fn decode(
    line: &str,
    members: &[Member],
    line_no: usize,
) -> Result<(u64, TraceRecord), TraceReadError> {
    let mut f = Fields::new(line, members, line_no);
    let t_us = f
        .raw("t_us")
        .and_then(json::raw_u64)
        .ok_or_else(|| f.err("missing t_us".into()))?;
    let event = f
        .raw("event")
        .and_then(json::raw_str)
        .ok_or_else(|| f.err("missing event".into()))?;
    f.event = event;
    Ok((t_us, decode_payload(&mut f)?))
}

/// How many record lines a [`JsonlReader`] handed to each decoder.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LineCounts {
    /// Lines in exactly the form [`crate::JsonlTracer`] writes, decoded
    /// by the canonical-line fast path.
    pub canonical: u64,
    /// Other non-blank lines, handed to the validator and the general
    /// decoder, whether they then decoded or not.
    pub general: u64,
}

/// Streaming reader over a JSONL trace: validates the schema header at
/// construction, then iterates `(t_us, TraceRecord)` pairs.
///
/// ```
/// use cbp_telemetry::{JsonlReader, JsonlTracer, TraceRecord, Tracer};
/// let mut w = JsonlTracer::new(Vec::new());
/// w.record(5, &TraceRecord::NodeFail { node: 2 });
/// w.finish();
/// let bytes = w.into_inner();
/// let mut r = JsonlReader::new(bytes.as_slice()).unwrap();
/// let (t, rec) = r.next().unwrap().unwrap();
/// assert_eq!(t, 5);
/// assert!(matches!(rec, TraceRecord::NodeFail { node: 2 }));
/// ```
#[derive(Debug)]
pub struct JsonlReader<R: BufRead> {
    input: R,
    /// The current line, reused from line to line.
    line: String,
    /// Member spans of the current line, reused from line to line.
    members: Vec<Member>,
    line_no: usize,
    counts: LineCounts,
}

impl<R: BufRead> JsonlReader<R> {
    /// Wraps `input`, consuming and validating the schema header line.
    pub fn new(mut input: R) -> Result<Self, TraceReadError> {
        let mut line = String::new();
        match read_line(&mut input, &mut line) {
            Ok(true) => {}
            Ok(false) => return Err(TraceReadError::MissingHeader),
            Err(e) => return Err(TraceReadError::Io(e.to_string())),
        }
        let mut members = Vec::new();
        if !json::object_members(&line, &mut members) {
            return Err(TraceReadError::MissingHeader);
        }
        let mut f = Fields::new(&line, &members, 1);
        let schema = f.raw("schema").and_then(json::raw_str);
        let schema = schema.as_deref().unwrap_or("?");
        let version = f.raw("version").and_then(json::raw_u64).unwrap_or(0);
        if schema != TRACE_SCHEMA
            || !(TRACE_SCHEMA_MIN_VERSION..=TRACE_SCHEMA_VERSION).contains(&version)
        {
            return Err(TraceReadError::IncompatibleSchema {
                schema: schema.to_owned(),
                version,
            });
        }
        Ok(JsonlReader {
            input,
            line,
            members,
            line_no: 1,
            counts: LineCounts::default(),
        })
    }

    /// How many record lines so far took the canonical path and how many
    /// the general one. Deterministic for a given trace.
    pub fn line_counts(&self) -> LineCounts {
        self.counts
    }

    /// True if nothing follows the line just read.
    fn at_eof(&mut self) -> bool {
        loop {
            match self.input.fill_buf() {
                Ok(rest) => return rest.is_empty(),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                // Not the end: the next read reports the error.
                Err(_) => return false,
            }
        }
    }
}

impl<R: BufRead> Iterator for JsonlReader<R> {
    type Item = Result<(u64, TraceRecord), TraceReadError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            // A canonical line wholly inside the read buffer is decoded
            // there and consumed; any other line is read out by the line
            // path below, which gives a canonical line the same record.
            match self.input.fill_buf() {
                Ok(buf) => {
                    if let Some((rec, len)) = Canonical::decode_prefix(buf) {
                        self.input.consume(len);
                        self.line_no += 1;
                        self.counts.canonical += 1;
                        return Some(Ok(rec));
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Some(Err(TraceReadError::Io(e.to_string()))),
            }
            match read_line(&mut self.input, &mut self.line) {
                Ok(true) => {}
                Ok(false) => return None,
                Err(e) => return Some(Err(TraceReadError::Io(e.to_string()))),
            }
            self.line_no += 1;
            if self.line.trim().is_empty() {
                continue;
            }
            if let Some(rec) = Canonical::decode(&self.line) {
                self.counts.canonical += 1;
                return Some(Ok(rec));
            }
            self.counts.general += 1;
            if json::object_members(&self.line, &mut self.members) {
                return Some(decode(&self.line, &self.members, self.line_no));
            }
            // A line that is not even valid JSON *and* has nothing after it
            // is a crash-truncated final record: the writer died mid-line.
            // Tolerate it — warn and end the stream — so an analyzer can
            // still consume everything the crashed run managed to flush.
            // Malformed *interior* lines (more lines follow) still error.
            if self.at_eof() {
                eprintln!(
                    "warning: trace line {} is truncated mid-record \
                     (crash-truncated trace?); stopping here",
                    self.line_no
                );
                return None;
            }
            return Some(Err(TraceReadError::Parse {
                line: self.line_no,
                msg: format!("invalid JSON: {}", self.line),
            }));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{JsonlTracer, Tracer};

    fn sample_stream() -> Vec<(u64, TraceRecord)> {
        vec![
            (
                0,
                TraceRecord::TaskSubmit {
                    task: (9 << 32) | 1, // packed YARN-style id above 2^32
                    job: 9,
                    priority: 11,
                },
            ),
            (
                3,
                TraceRecord::TaskSchedule {
                    task: (9 << 32) | 1,
                    node: 2,
                    restore: false,
                },
            ),
            (
                8,
                TraceRecord::PreemptDecision {
                    victim: (9 << 32) | 1,
                    node: 2,
                    action: PreemptAction::Checkpoint,
                    policy: "adaptive",
                    reason: "progress-at-risk",
                },
            ),
            (
                8,
                TraceRecord::DumpStart {
                    task: (9 << 32) | 1,
                    node: 2,
                    device: "hdd",
                    bytes: 1 << 30,
                    incremental: true,
                },
            ),
            (
                8,
                TraceRecord::TaskEvict {
                    task: (9 << 32) | 1,
                    node: 2,
                    reason: "dump",
                },
            ),
            (
                20,
                TraceRecord::DumpDone {
                    task: (9 << 32) | 1,
                    node: 2,
                    start_us: 10,
                },
            ),
            (
                25,
                TraceRecord::RestoreStart {
                    task: (9 << 32) | 1,
                    node: 4,
                    origin: 2,
                    device: "hdd",
                    bytes: 1 << 30,
                    remote: true,
                },
            ),
            (
                40,
                TraceRecord::RestoreDone {
                    task: (9 << 32) | 1,
                    node: 4,
                    start_us: 30,
                },
            ),
            (
                41,
                TraceRecord::DumpFallback {
                    task: 7,
                    node: 1,
                    reason: "grace-expired",
                },
            ),
            (
                41,
                TraceRecord::DumpFail {
                    task: 7,
                    node: 1,
                    attempt: 2,
                    will_retry: false,
                },
            ),
            (
                41,
                TraceRecord::RestoreFail {
                    task: 7,
                    node: 1,
                    attempt: 0,
                    reason: "corrupt-image",
                    will_retry: true,
                },
            ),
            (
                41,
                TraceRecord::AmEscalate {
                    task: 7,
                    node: 1,
                    waited_us: 15_000_000,
                },
            ),
            (
                41,
                TraceRecord::ReplicationRepair {
                    node: 1,
                    blocks: 12,
                    bytes: 3 << 20,
                },
            ),
            (42, TraceRecord::NodeFail { node: 1 }),
            (43, TraceRecord::NodeRecover { node: 1 }),
            (44, TraceRecord::QueueDepth { pending: 12 }),
            (45, TraceRecord::NodeDown { node: 3 }),
            (
                45,
                TraceRecord::TaskEvict {
                    task: 7,
                    node: 3,
                    reason: "node-crash",
                },
            ),
            (46, TraceRecord::PartitionStart { rack: 2 }),
            (
                46,
                TraceRecord::BreakerOpen {
                    node: 3,
                    global: false,
                },
            ),
            (
                46,
                TraceRecord::DumpFallback {
                    task: 7,
                    node: 3,
                    reason: "breaker-open",
                },
            ),
            (
                47,
                TraceRecord::BreakerClose {
                    node: 0,
                    global: true,
                },
            ),
            (48, TraceRecord::PartitionEnd { rack: 2 }),
            (
                48,
                TraceRecord::GcPass {
                    node: 3,
                    reclaimed: 2 << 30,
                    chains: 2,
                },
            ),
            (
                48,
                TraceRecord::ImageEvict {
                    task: 7,
                    node: 3,
                    bytes: 1 << 30,
                },
            ),
            (
                48,
                TraceRecord::ImageSpill {
                    task: 7,
                    node: 3,
                    origin: 1,
                    bytes: 1 << 30,
                },
            ),
            (
                48,
                TraceRecord::NoSpace {
                    task: 7,
                    node: 3,
                    wanted: 1 << 31,
                },
            ),
            (
                48,
                TraceRecord::DumpFallback {
                    task: 7,
                    node: 3,
                    reason: "no-space",
                },
            ),
            (49, TraceRecord::NodeUp { node: 3 }),
            (
                50,
                TraceRecord::TaskFinish {
                    task: (9 << 32) | 1,
                    node: 4,
                },
            ),
        ]
    }

    fn write(stream: &[(u64, TraceRecord)]) -> Vec<u8> {
        let mut t = JsonlTracer::new(Vec::new());
        for (ts, rec) in stream {
            t.record(*ts, rec);
        }
        t.finish();
        t.into_inner()
    }

    #[test]
    fn round_trip_is_byte_identical() {
        let first = write(&sample_stream());
        let read: Vec<(u64, TraceRecord)> = JsonlReader::new(first.as_slice())
            .expect("valid header")
            .map(|r| r.expect("valid line"))
            .collect();
        assert_eq!(read.len(), sample_stream().len());
        let second = write(&read);
        assert_eq!(first, second, "write → read → write must be byte-identical");
    }

    #[test]
    fn header_is_first_line_and_valid_json() {
        let bytes = write(&[]);
        let text = String::from_utf8(bytes).unwrap();
        assert_eq!(text.lines().next(), Some(schema_header().as_str()));
        assert!(crate::json::is_valid(&schema_header()));
    }

    #[test]
    fn rejects_missing_header() {
        let no_header = b"{\"t_us\":0,\"event\":\"node_fail\",\"node\":0}\n";
        match JsonlReader::new(&no_header[..]) {
            Err(TraceReadError::IncompatibleSchema { .. }) | Err(TraceReadError::MissingHeader) => {
            }
            other => panic!("expected header rejection, got {other:?}"),
        }
        assert!(matches!(
            JsonlReader::new(&b""[..]),
            Err(TraceReadError::MissingHeader)
        ));
    }

    #[test]
    fn rejects_wrong_version() {
        let trace = "{\"schema\":\"cbp-trace\",\"version\":999}\n";
        match JsonlReader::new(trace.as_bytes()) {
            Err(TraceReadError::IncompatibleSchema { schema, version }) => {
                assert_eq!(schema, "cbp-trace");
                assert_eq!(version, 999);
            }
            other => panic!("expected version rejection, got {other:?}"),
        }
    }

    #[test]
    fn accepts_v1_traces() {
        let trace = "{\"schema\":\"cbp-trace\",\"version\":1}\n\
                     {\"t_us\":7,\"event\":\"node_fail\",\"node\":3}\n";
        let mut r = JsonlReader::new(trace.as_bytes()).expect("v1 must be accepted");
        let (t, rec) = r.next().unwrap().unwrap();
        assert_eq!(t, 7);
        assert!(matches!(rec, TraceRecord::NodeFail { node: 3 }));
        assert!(r.next().is_none());
    }

    #[test]
    fn accepts_current_version() {
        let trace = format!("{}\n", schema_header());
        assert!(JsonlReader::new(trace.as_bytes()).is_ok());
    }

    #[test]
    fn accepts_v2_traces() {
        let trace = "{\"schema\":\"cbp-trace\",\"version\":2}\n\
                     {\"t_us\":9,\"event\":\"dump_fail\",\"task\":1,\"node\":2,\
                      \"attempt\":0,\"will_retry\":true}\n";
        let mut r = JsonlReader::new(trace.as_bytes()).expect("v2 must be accepted");
        let (t, rec) = r.next().unwrap().unwrap();
        assert_eq!(t, 9);
        assert!(matches!(rec, TraceRecord::DumpFail { attempt: 0, .. }));
        assert!(r.next().is_none());
    }

    #[test]
    fn accepts_v3_traces() {
        let trace = "{\"schema\":\"cbp-trace\",\"version\":3}\n\
                     {\"t_us\":11,\"event\":\"breaker_open\",\"node\":2,\
                      \"global\":false}\n";
        let mut r = JsonlReader::new(trace.as_bytes()).expect("v3 must be accepted");
        let (t, rec) = r.next().unwrap().unwrap();
        assert_eq!(t, 11);
        assert!(matches!(rec, TraceRecord::BreakerOpen { node: 2, .. }));
        assert!(r.next().is_none());
    }

    #[test]
    fn parses_v4_lifecycle_records() {
        let trace = format!(
            "{}\n\
             {{\"t_us\":1,\"event\":\"gc_pass\",\"node\":2,\"reclaimed\":64,\"chains\":1}}\n\
             {{\"t_us\":2,\"event\":\"image_evict\",\"task\":5,\"node\":2,\"bytes\":32}}\n\
             {{\"t_us\":3,\"event\":\"image_spill\",\"task\":5,\"node\":2,\"origin\":7,\"bytes\":32}}\n\
             {{\"t_us\":4,\"event\":\"no_space\",\"task\":5,\"node\":2,\"wanted\":96}}\n\
             {{\"t_us\":5,\"event\":\"dump_fallback\",\"task\":5,\"node\":2,\"reason\":\"no-space\"}}\n",
            schema_header()
        );
        let recs: Vec<(u64, TraceRecord)> = JsonlReader::new(trace.as_bytes())
            .unwrap()
            .map(|r| r.unwrap())
            .collect();
        assert!(matches!(
            recs[0].1,
            TraceRecord::GcPass {
                node: 2,
                reclaimed: 64,
                chains: 1
            }
        ));
        assert!(matches!(recs[1].1, TraceRecord::ImageEvict { task: 5, .. }));
        assert!(matches!(
            recs[2].1,
            TraceRecord::ImageSpill { origin: 7, .. }
        ));
        assert!(matches!(recs[3].1, TraceRecord::NoSpace { wanted: 96, .. }));
        assert!(matches!(
            recs[4].1,
            TraceRecord::DumpFallback {
                reason: "no-space",
                ..
            }
        ));
    }

    #[test]
    fn rejects_future_version_naming_supported_range() {
        let trace = "{\"schema\":\"cbp-trace\",\"version\":6}\n";
        let err = JsonlReader::new(trace.as_bytes()).expect_err("v6 must be rejected");
        assert_eq!(
            err,
            TraceReadError::IncompatibleSchema {
                schema: "cbp-trace".to_string(),
                version: 6,
            }
        );
        let msg = err.to_string();
        assert!(msg.contains("v6"), "must name the found version: {msg}");
        assert!(
            msg.contains("v1") && msg.contains("v5"),
            "must name the supported range: {msg}"
        );
        // Version 0 (or a missing version field) is below the floor.
        let trace = "{\"schema\":\"cbp-trace\",\"version\":0}\n";
        assert!(matches!(
            JsonlReader::new(trace.as_bytes()),
            Err(TraceReadError::IncompatibleSchema { version: 0, .. })
        ));
    }

    #[test]
    fn parses_v5_integrity_records() {
        let trace = format!(
            "{}\n\
             {{\"t_us\":1,\"event\":\"chunk_done\",\"task\":5,\"node\":2,\"chunk\":3,\"total\":8}}\n\
             {{\"t_us\":2,\"event\":\"chunk_corrupt\",\"task\":5,\"node\":2,\"image\":9,\"chunk\":1}}\n\
             {{\"t_us\":3,\"event\":\"chunk_refetch\",\"task\":5,\"node\":2,\"chunk\":1,\"ok\":true}}\n\
             {{\"t_us\":4,\"event\":\"resume_dump\",\"task\":5,\"node\":2,\
               \"resumed_bytes\":192,\"total_bytes\":512}}\n\
             {{\"t_us\":5,\"event\":\"chain_truncate\",\"task\":5,\"node\":2,\
               \"dropped\":2,\"kept\":1}}\n",
            schema_header()
        );
        let recs: Vec<(u64, TraceRecord)> = JsonlReader::new(trace.as_bytes())
            .unwrap()
            .map(|r| r.unwrap())
            .collect();
        assert!(matches!(
            recs[0].1,
            TraceRecord::ChunkDone {
                chunk: 3,
                total: 8,
                ..
            }
        ));
        assert!(matches!(
            recs[1].1,
            TraceRecord::ChunkCorrupt { image: 9, .. }
        ));
        assert!(matches!(
            recs[2].1,
            TraceRecord::ChunkRefetch { ok: true, .. }
        ));
        assert!(matches!(
            recs[3].1,
            TraceRecord::ResumeDump {
                resumed_bytes: 192,
                total_bytes: 512,
                ..
            }
        ));
        assert!(matches!(
            recs[4].1,
            TraceRecord::ChainTruncate {
                dropped: 2,
                kept: 1,
                ..
            }
        ));
    }

    #[test]
    fn tolerates_truncated_final_line() {
        // Simulate a crash mid-write: a full trace whose last record line is
        // chopped mid-JSON (no closing brace, no newline).
        let full = write(&sample_stream());
        let text = String::from_utf8(full).unwrap();
        let keep = sample_stream().len() - 1;
        let mut lines: Vec<&str> = text.lines().collect();
        let last = lines.pop().expect("non-empty trace");
        let truncated_tail = &last[..last.len() / 2];
        let mut bytes = lines.join("\n");
        bytes.push('\n');
        bytes.push_str(truncated_tail); // mid-record, no trailing newline
        let read: Vec<(u64, TraceRecord)> = JsonlReader::new(bytes.as_bytes())
            .expect("header intact")
            .map(|r| r.expect("interior lines intact"))
            .collect();
        assert_eq!(
            read.len(),
            keep,
            "reader must stop cleanly before the truncated final record"
        );
    }

    #[test]
    fn truncated_interior_line_still_errors() {
        let trace = format!(
            "{}\n{{\"t_us\":1,\"event\":\"node_f\n\
             {{\"t_us\":2,\"event\":\"node_fail\",\"node\":0}}\n",
            schema_header()
        );
        let mut r = JsonlReader::new(trace.as_bytes()).unwrap();
        assert!(
            matches!(r.next(), Some(Err(TraceReadError::Parse { line: 2, .. }))),
            "a malformed line with more lines after it is real corruption"
        );
        // Even a blank line after it makes it an interior line.
        let trace = format!("{}\n{{\"t_us\":1,\"ev\n\n", schema_header());
        let mut r = JsonlReader::new(trace.as_bytes()).unwrap();
        assert!(matches!(
            r.next(),
            Some(Err(TraceReadError::Parse { line: 2, .. }))
        ));
    }

    #[test]
    fn reports_parse_errors_with_line_numbers() {
        let trace = format!("{}\n{{\"t_us\":1,\"event\":\"bogus\"}}\n", schema_header());
        let mut r = JsonlReader::new(trace.as_bytes()).unwrap();
        match r.next() {
            Some(Err(TraceReadError::Parse { line, msg })) => {
                assert_eq!(line, 2);
                assert!(msg.contains("bogus"), "msg: {msg}");
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn interning_restores_static_vocabulary() {
        assert_eq!(intern("kill"), "kill");
        assert_eq!(intern("grace-expired"), "grace-expired");
        assert_eq!(intern("something-new"), "something-new");
    }

    #[test]
    fn unknown_strings_are_leaked_once() {
        let line = "{\"t_us\":1,\"event\":\"task_evict\",\"task\":2,\"node\":3,\
                    \"reason\":\"reason-outside-the-vocabulary\"}";
        let trace = format!("{}\n{line}\n{line}\n", schema_header());
        let reasons: Vec<&'static str> = JsonlReader::new(trace.as_bytes())
            .unwrap()
            .map(|r| match r.unwrap().1 {
                TraceRecord::TaskEvict { reason, .. } => reason,
                other => panic!("expected task_evict, got {other:?}"),
            })
            .collect();
        assert_eq!(reasons, ["reason-outside-the-vocabulary"; 2]);
        assert!(
            std::ptr::eq(reasons[0], reasons[1]),
            "the second read must reuse the first leak"
        );
    }
}
