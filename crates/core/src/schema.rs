//! The versioned JSON schema layer shared by every dprof emitter and parser.
//!
//! The one implementation in the workspace of:
//!
//! * the dependency-free JSON parser, [`JsonTape`], which reads a document into one
//!   preorder vector of nodes where its text lies, and the [`Json`] tree documents are
//!   built and emitted as (the workspace builds fully offline, so no `serde_json`),
//! * the pretty-printer, [`JsonWriter`]: a tree is emitted through it, and a caller
//!   that knows its document's shape (the collector's replies) writes through it
//!   without building one,
//! * the schema-id constants every document carries ([`REPORT_V1`], [`DIFF_V1`],
//!   [`WHATIF_V1`], [`ACCURACY_V1`], [`SERVE_V1`], [`LOADGEN_V1`]),
//! * the readers that turn documents back into typed values:
//!   [`shard_from_report_json`] (report → mergeable [`ProfileShard`], what the
//!   collector ingests and `dprof diff` reads) and the
//!   [`shard_to_json`]/[`shard_from_json`] pair used by the serve store's snapshots.
//!
//! Object key order is preserved on emit, so documents are byte-stable across runs
//! with identical inputs — the CI determinism job depends on this.
//!
//! Documents also arrive from outside (collector pushes, `dprof diff` arguments, store
//! snapshots), so the readers bound what they accept where it enters: nesting at
//! [`MAX_NESTING`] levels, a document at [`MAX_NODES`] values, a number at what an `f64`
//! holds, and every count a fold will sum at 2^53 ([`count_at`]).  The readers take a
//! [`JsonRef`], one value of a tape or of a tree, so a pushed report is read straight
//! off its tape.  They read names through a [`NameTable`], so a name already read is
//! shared, not copied: within a document, and across every document a collector's
//! connection pushes.

use crate::merge::{
    self, ProfileShard, ShardFlow, ShardFlowEdge, ShardFlowNode, ShardMeta, ShardMissRow,
    ShardProfileRow, ShardUtilization, ShardUtilizationOrigin, ShardUtilizationRow,
    ShardWorkingSet, ShardWorkingSetRow,
};
use sim_cache::line_table::BuildKeyedMixHasher;
use std::collections::HashSet;
use std::fmt::Write as _;
use std::sync::Arc;

/// Schema id of merged profile reports (`dprof -f json`, `dprof replay -f json`).
pub const REPORT_V1: &str = "dprof-report/v1";
/// Schema id of `dprof diff -f json` documents.
pub const DIFF_V1: &str = "dprof-diff/v1";
/// Schema id of `dprof whatif -f json` documents.
pub const WHATIF_V1: &str = "dprof-whatif/v1";
/// Schema id of `dprof accuracy -f json` documents.
pub const ACCURACY_V1: &str = "dprof-accuracy/v1";
/// Schema id of serve-side documents: query replies and on-disk store snapshots.
pub const SERVE_V1: &str = "dprof-serve/v1";
/// Schema id of `dprof loadgen -f json` documents.
pub const LOADGEN_V1: &str = "dprof-loadgen/v1";

/// A JSON value as documents are built and emitted, and as a caller that outlives the
/// text it parsed keeps one.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (stored as `f64`, emitted without a fraction when integral).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved on emit.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for object values.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Convenience constructor for string values.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Convenience constructor for numbers.
    pub fn num(n: impl Into<f64>) -> Json {
        Json::Num(n.into())
    }

    /// Parses a JSON document into a tree: [`JsonTape::parse`], whose grammar, bounds
    /// and errors it has, with the tape then copied out.
    pub fn parse(input: &str) -> Result<Json, String> {
        JsonTape::parse(input).map(|tape| tape.root().to_json())
    }

    /// Looks up a key in an object value (the first, if the key repeats).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|f| f.0 == key).map(|f| &f.1),
            _ => None,
        }
    }

    /// The value as a finite number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Emits the value as pretty-printed JSON (two-space indent, trailing newline): the
    /// tree walked through a [`JsonWriter`].
    pub fn to_pretty_string(&self) -> String {
        let mut writer = JsonWriter::default();
        writer.json(self);
        writer.finish()
    }
}

/// Writes one pretty-printed JSON document value by value, in the one layout every
/// document of the workspace has: two-space indent, one value or field a line, `[]` and
/// `{}` for an empty container, a trailing newline.  [`Json::to_pretty_string`] is this
/// writer walking a tree; a caller that knows its document's shape writes it field by
/// field instead, with no tree, no key copied and no object per row.
///
/// A value goes in after [`JsonWriter::key`] inside an object, after
/// [`JsonWriter::item`] inside an array, or alone as the whole document:
///
/// ```
/// use dprof_core::schema::JsonWriter;
///
/// let mut w = JsonWriter::default();
/// w.open_obj().key("rows").open_arr();
/// w.item().num(1.0).item().str("a");
/// w.close_arr().key("empty").open_obj().close_obj();
/// w.close_obj();
/// assert_eq!(w.finish(), "{\n  \"rows\": [\n    1,\n    \"a\"\n  ],\n  \"empty\": {}\n}\n");
/// ```
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// Containers open.
    depth: usize,
    /// Nothing written in the innermost open container yet.  One flag is enough: a
    /// container opens as its parent's key or item, which already ended the parent's
    /// freshness.
    fresh: bool,
}

impl JsonWriter {
    /// A writer whose text starts with room for `bytes` bytes.
    pub fn with_capacity(bytes: usize) -> JsonWriter {
        JsonWriter {
            out: String::with_capacity(bytes),
            ..JsonWriter::default()
        }
    }

    /// Opens an object.
    pub fn open_obj(&mut self) -> &mut Self {
        self.open('{')
    }

    /// Closes the innermost object.
    pub fn close_obj(&mut self) -> &mut Self {
        self.close('}')
    }

    /// Opens an array.
    pub fn open_arr(&mut self) -> &mut Self {
        self.open('[')
    }

    /// Closes the innermost array.
    pub fn close_arr(&mut self) -> &mut Self {
        self.close(']')
    }

    /// Starts the next field of the innermost object; its value follows.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.next_line();
        write_escaped(&mut self.out, key);
        self.out.push_str(": ");
        self
    }

    /// Starts the next item of the innermost array; its value follows.
    pub fn item(&mut self) -> &mut Self {
        self.next_line();
        self
    }

    /// A number (`null` when not finite, without a fraction when integral).
    pub fn num(&mut self, n: f64) -> &mut Self {
        write_number(&mut self.out, n);
        self
    }

    /// A string, escaped.
    pub fn str(&mut self, s: &str) -> &mut Self {
        write_escaped(&mut self.out, s);
        self
    }

    /// `true` or `false`.
    pub fn bool(&mut self, b: bool) -> &mut Self {
        self.out.push_str(if b { "true" } else { "false" });
        self
    }

    /// `null`.
    pub fn null(&mut self) -> &mut Self {
        self.out.push_str("null");
        self
    }

    /// A whole tree.
    pub fn json(&mut self, value: &Json) -> &mut Self {
        match value {
            Json::Null => self.null(),
            Json::Bool(b) => self.bool(*b),
            Json::Num(n) => self.num(*n),
            Json::Str(s) => self.str(s),
            Json::Arr(items) => {
                self.open_arr();
                for item in items {
                    self.item().json(item);
                }
                self.close_arr()
            }
            Json::Obj(fields) => {
                self.open_obj();
                for (key, value) in fields {
                    self.key(key).json(value);
                }
                self.close_obj()
            }
        }
    }

    /// The document's text, with its trailing newline.
    pub fn finish(mut self) -> String {
        debug_assert_eq!(self.depth, 0, "a container is still open");
        self.out.push('\n');
        self.out
    }

    fn open(&mut self, bracket: char) -> &mut Self {
        self.out.push(bracket);
        self.depth += 1;
        self.fresh = true;
        self
    }

    fn close(&mut self, bracket: char) -> &mut Self {
        self.depth -= 1;
        if !self.fresh {
            self.out.push('\n');
            indent(&mut self.out, self.depth);
        }
        self.out.push(bracket);
        self.fresh = false;
        self
    }

    fn next_line(&mut self) {
        if !self.fresh {
            self.out.push(',');
        }
        self.fresh = false;
        self.out.push('\n');
        indent(&mut self.out, self.depth);
    }
}

/// A document read where its text lies: one vector of 24-byte nodes, the values in
/// preorder with every object key a string node just before its value.  A container's
/// node says how many nodes its subtree spans, so a reader steps over it at once, and
/// a string without an escape is a slice of the text: a document costs the vector and
/// one allocation per string with an escape, nothing per container, key or number.
/// Read it through [`JsonTape::root`].
#[derive(Debug, PartialEq)]
pub struct JsonTape<'a> {
    nodes: Vec<Node<'a>>,
}

/// One value of a [`JsonTape`], or one key: 24 bytes.
#[derive(Debug, PartialEq)]
enum Node<'a> {
    Null,
    Bool(bool),
    Num(f64),
    /// A string without an escape, as it lies in the text.
    Str(&'a str),
    /// A string with one, as its escapes spell it.
    Unescaped(Box<str>),
    /// An array of `len` values whose subtree, this node included, is `span` nodes.
    Arr {
        len: usize,
        span: usize,
    },
    /// An object of `len` fields, each a key node and its value's subtree; the whole,
    /// this node included, is `span` nodes.
    Obj {
        len: usize,
        span: usize,
    },
}

impl Node<'_> {
    /// The nodes of the value this one begins.
    fn span(&self) -> usize {
        match self {
            Node::Arr { span, .. } | Node::Obj { span, .. } => *span,
            _ => 1,
        }
    }
}

impl<'a> JsonTape<'a> {
    /// Parses a JSON document.  Returns a message with a byte offset on error.
    /// Arrays and objects may nest [`MAX_NESTING`] deep and hold [`MAX_NODES`] values;
    /// a number must be finite; `\uXXXX` takes four hex digits, an escaped surrogate
    /// pair reads as its one scalar and a lone surrogate as U+FFFD.  Duplicate keys are
    /// kept, and a lookup finds the first.
    pub fn parse(input: &'a str) -> Result<JsonTape<'a>, String> {
        parse(input, MAX_NODES)
    }

    /// [`JsonTape::parse`] of a local file's text, without the [`MAX_NODES`] budget:
    /// the file's size is what bounds the tape.  A store snapshot holds a fold of any
    /// number of pushes, and what the store wrote it must read back.
    pub fn parse_local(input: &'a str) -> Result<JsonTape<'a>, String> {
        parse(input, usize::MAX)
    }

    /// The document's value.
    pub fn root(&self) -> JsonRef<'_> {
        JsonRef(Backing::Tape(&self.nodes))
    }
}

// The `parse`s above are concrete on purpose: a generic one would be instantiated
// in the calling crate, and in the benchmark's that changes how its probe is compiled.
fn parse(input: &str, budget: usize) -> Result<JsonTape<'_>, String> {
    let mut parser = Parser {
        text: input,
        pos: 0,
        depth: 0,
        budget,
        nodes: Vec::new(),
    };
    parser.skip_ws();
    parser.value()?;
    parser.skip_ws();
    if parser.pos != input.len() {
        return Err(format!("trailing data at byte {}", parser.pos));
    }
    Ok(JsonTape {
        nodes: parser.nodes,
    })
}

/// One value of a parsed document, a node of a [`JsonTape`] or of a [`Json`] tree,
/// and all the readers ask of it.  A copy is a slice or a reference.
#[derive(Debug, Clone, Copy)]
pub struct JsonRef<'a>(Backing<'a>);

#[derive(Debug, Clone, Copy)]
enum Backing<'a> {
    /// The value's subtree, its own node first.
    Tape(&'a [Node<'a>]),
    Tree(&'a Json),
}

impl<'a> From<&'a Json> for JsonRef<'a> {
    fn from(json: &'a Json) -> Self {
        JsonRef(Backing::Tree(json))
    }
}

impl<'t, 'a: 't> From<&'t JsonTape<'a>> for JsonRef<'t> {
    fn from(tape: &'t JsonTape<'a>) -> Self {
        tape.root()
    }
}

impl<'a> JsonRef<'a> {
    /// What a value a document does not have reads as: `null`, so every lookup in it
    /// misses, its fields read 0 or empty and its tables have no rows.
    const ABSENT: JsonRef<'static> = JsonRef(Backing::Tree(&Json::Null));

    /// Looks up a key in an object value (the first, if the key repeats).
    pub fn get(self, key: &str) -> Option<JsonRef<'a>> {
        match self.0 {
            Backing::Tape([Node::Obj { .. }, fields @ ..]) => {
                // The fields are key, value subtree, key, …: step over each value whole.
                let mut rest = fields;
                while let [name, value, ..] = rest {
                    let span = value.span();
                    let found = match name {
                        Node::Str(name) => *name == key,
                        Node::Unescaped(name) => **name == *key,
                        _ => false,
                    };
                    if found {
                        return Some(JsonRef(Backing::Tape(&rest[1..1 + span])));
                    }
                    rest = &rest[1 + span..];
                }
                None
            }
            Backing::Tree(json) => json.get(key).map(JsonRef::from),
            Backing::Tape(_) => None,
        }
    }

    /// The value as a finite number, if it is one.
    pub fn as_f64(self) -> Option<f64> {
        match self.0 {
            Backing::Tape([Node::Num(n), ..]) | Backing::Tree(Json::Num(n)) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(self) -> Option<&'a str> {
        match self.0 {
            Backing::Tape([Node::Str(s), ..]) => Some(s),
            Backing::Tape([Node::Unescaped(s), ..]) => Some(s),
            Backing::Tree(Json::Str(s)) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(self) -> Option<bool> {
        match self.0 {
            Backing::Tape([Node::Bool(b), ..]) | Backing::Tree(Json::Bool(b)) => Some(*b),
            _ => None,
        }
    }

    /// The elements of an array value, in order.
    pub fn as_array(self) -> Option<Items<'a>> {
        match self.0 {
            Backing::Tape([Node::Arr { len, .. }, rest @ ..]) => {
                Some(Items(Children::Tape { rest, left: *len }))
            }
            Backing::Tree(Json::Arr(items)) => Some(Items(Children::Tree(items.iter()))),
            _ => None,
        }
    }

    /// The fields of an object value, keys and values in order.
    pub fn fields(self) -> Option<Fields<'a>> {
        match self.0 {
            Backing::Tape([Node::Obj { len, .. }, rest @ ..]) => {
                Some(Fields(Children::Tape { rest, left: *len }))
            }
            Backing::Tree(Json::Obj(fields)) => Some(Fields(Children::Tree(fields.iter()))),
            _ => None,
        }
    }

    /// The value as a tree of its own.
    pub fn to_json(self) -> Json {
        match self.0 {
            Backing::Tape([Node::Null, ..]) => Json::Null,
            Backing::Tape([Node::Bool(b), ..]) => Json::Bool(*b),
            Backing::Tape([Node::Num(n), ..]) => Json::Num(*n),
            Backing::Tape([Node::Arr { .. }, ..]) => Json::Arr(
                self.as_array()
                    .unwrap_or_default()
                    .map(Self::to_json)
                    .collect(),
            ),
            Backing::Tape([Node::Obj { .. }, ..]) => Json::Obj(
                self.fields()
                    .unwrap_or_default()
                    .map(|(key, value)| (key.to_string(), value.to_json()))
                    .collect(),
            ),
            Backing::Tape(_) => Json::str(self.as_str().unwrap_or_default()),
            Backing::Tree(json) => json.clone(),
        }
    }
}

/// The value at the front of `rest`, which then starts after it.
fn take_value<'a>(rest: &mut &'a [Node<'a>]) -> JsonRef<'a> {
    let (value, after) = rest.split_at(rest[0].span());
    *rest = after;
    JsonRef(Backing::Tape(value))
}

/// The elements of an array ([`JsonRef::as_array`]).
#[derive(Debug, Clone, Default)]
pub struct Items<'a>(Children<'a, std::slice::Iter<'a, Json>>);

/// The fields of an object ([`JsonRef::fields`]).
#[derive(Debug, Clone, Default)]
pub struct Fields<'a>(Children<'a, std::slice::Iter<'a, (String, Json)>>);

#[derive(Debug, Clone)]
enum Children<'a, T> {
    /// The nodes after the container's, and how many of its values or fields are left.
    Tape {
        rest: &'a [Node<'a>],
        left: usize,
    },
    Tree(T),
}

impl<T: ExactSizeIterator> Children<'_, T> {
    fn len(&self) -> usize {
        match self {
            Children::Tape { left, .. } => *left,
            Children::Tree(tree) => tree.len(),
        }
    }
}

impl<T> Default for Children<'_, T> {
    fn default() -> Self {
        Children::Tape { rest: &[], left: 0 }
    }
}

impl<'a> Iterator for Items<'a> {
    type Item = JsonRef<'a>;

    fn next(&mut self) -> Option<JsonRef<'a>> {
        match &mut self.0 {
            Children::Tape { left: 0, .. } => None,
            Children::Tape { rest, left } => {
                *left -= 1;
                Some(take_value(rest))
            }
            Children::Tree(items) => items.next().map(JsonRef::from),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.0.len(), Some(self.0.len()))
    }
}

impl ExactSizeIterator for Items<'_> {}

impl<'a> Iterator for Fields<'a> {
    type Item = (&'a str, JsonRef<'a>);

    fn next(&mut self) -> Option<(&'a str, JsonRef<'a>)> {
        match &mut self.0 {
            Children::Tape { left: 0, .. } => None,
            Children::Tape { rest, left } => {
                *left -= 1;
                // A key is a string node, so this is never the default.
                let key = take_value(rest).as_str().unwrap_or_default();
                Some((key, take_value(rest)))
            }
            Children::Tree(fields) => fields.next().map(|(k, v)| (k.as_str(), v.into())),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.0.len(), Some(self.0.len()))
    }
}

impl ExactSizeIterator for Fields<'_> {}

/// The deepest nesting of arrays and objects [`JsonTape::parse`] accepts.  The parser
/// recurses once per level (a container's node is finished when the container closes)
/// and documents arrive from the network, so the bound is what keeps a push of `[[[[…`
/// from overflowing a connection thread's stack; the deepest document this workspace
/// writes is a store snapshot, 7 levels.
pub const MAX_NESTING: usize = 128;

/// The most values, scalars and containers alike, [`JsonTape::parse`] accepts; an
/// object's keys are not counted.  A value is one 24-byte node of the tape and, in an
/// object, its key one more, and the tape is a vector that doubles from four nodes, so
/// this is what bounds the memory one pushed frame can claim: a tape of at most
/// 2 × 2^16 nodes, 3 MiB however the document is shaped, beside the strings with an
/// escape, each no longer than its text.  64 × the largest report the workspace
/// writes: 1 023 values, a 4-thread 16-core memcached report at `--top 1000
/// --history-types 40`.  A snapshot, the fold of any number of such reports, is read
/// by [`JsonTape::parse_local`] instead.
pub const MAX_NODES: usize = 1 << 16;

fn indent(out: &mut String, level: usize) {
    for _ in 0..level {
        out.push_str("  ");
    }
}

fn write_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n == n.trunc() && n.abs() < 9.0e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

/// Writes `s` quoted, copying each run of characters that need no escape at once.  The
/// characters that do are ASCII, so a run ends on a character boundary.
fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    let mut plain = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[plain..i]);
        plain = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[plain..]);
    out.push('"');
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
    /// Values the document may still hold (`usize::MAX` is never spent: a value takes
    /// a byte of text).
    budget: usize,
    nodes: Vec<Node<'a>>,
}

impl<'a> Parser<'a> {
    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn eat_literal(&mut self, lit: &str, node: Node<'a>) -> Result<(), String> {
        if self.bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            self.nodes.push(node);
            Ok(())
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    /// Appends the value at `pos` to the tape.
    fn value(&mut self) -> Result<(), String> {
        if self.budget == 0 {
            return Err(format!("more than {MAX_NODES} values at byte {}", self.pos));
        }
        self.budget -= 1;
        match self.peek() {
            Some(b'n') => self.eat_literal("null", Node::Null),
            Some(b't') => self.eat_literal("true", Node::Bool(true)),
            Some(b'f') => self.eat_literal("false", Node::Bool(false)),
            Some(b'"') => self.string(),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn nested(&mut self, container: fn(&mut Self) -> Result<(), String>) -> Result<(), String> {
        if self.depth == MAX_NESTING {
            return Err(format!(
                "nesting deeper than {MAX_NESTING} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    fn string(&mut self) -> Result<(), String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            // Everything up to the next quote or backslash is taken in one piece.  Both
            // are ASCII, and an escape ends on an ASCII byte, so a run starts and ends on
            // a character boundary of the (already valid UTF-8) input.
            let run_start = self.pos;
            while !matches!(self.peek(), None | Some(b'"') | Some(b'\\')) {
                self.pos += 1;
            }
            let run = &self.text[run_start..self.pos];
            let start = self.pos;
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    // An escape-free string is its one run, borrowed.
                    let node = if s.is_empty() {
                        Node::Str(run)
                    } else {
                        s.push_str(run);
                        Node::Unescaped(s.into_boxed_str())
                    };
                    self.nodes.push(node);
                    return Ok(());
                }
                Some(_) => {
                    s.push_str(run);
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'u' => s.push(self.unicode_escape(start)?),
                        _ => return Err(format!("bad escape at byte {start}")),
                    }
                }
            }
        }
    }

    /// The scalar of the `\u` escape that began at byte `start` — with the escaped low
    /// surrogate after it, when it is a high one; a half without its other is U+FFFD.
    fn unicode_escape(&mut self, start: usize) -> Result<char, String> {
        let mut code = self.hex4(start)?;
        let next = self.pos;
        if (0xd800..0xdc00).contains(&code) && self.bytes()[next..].starts_with(b"\\u") {
            self.pos += 2;
            match self.hex4(next)? {
                low @ 0xdc00..=0xdfff => code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00),
                _ => self.pos = next,
            }
        }
        Ok(char::from_u32(code).unwrap_or('\u{fffd}'))
    }

    /// The four hex digits of the `\u` escape that began at byte `start`.
    fn hex4(&mut self, start: usize) -> Result<u32, String> {
        let digits = self.bytes().get(self.pos..self.pos + 4);
        let digits = digits.ok_or_else(|| format!("truncated \\u escape at byte {start}"))?;
        self.pos += 4;
        digits
            .iter()
            .try_fold(0, |code, &d| Some(code * 16 + char::from(d).to_digit(16)?))
            .ok_or_else(|| format!("bad \\u escape at byte {start}"))
    }

    fn number(&mut self) -> Result<(), String> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let digits = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let more = matches!(
            self.peek(),
            Some(b'.') | Some(b'e') | Some(b'E') | Some(b'+') | Some(b'-')
        );
        // A plain integer of at most 15 digits is below 2^53, so accumulating it is
        // exact and equal to what the float parser returns (the sign keeps `-0`).
        if !more && (1..=15).contains(&(self.pos - digits)) {
            let magnitude = self.bytes()[digits..self.pos]
                .iter()
                .fold(0u64, |n, d| n * 10 + u64::from(d - b'0')) as f64;
            let n = if negative { -magnitude } else { magnitude };
            self.nodes.push(Node::Num(n));
            return Ok(());
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9') | Some(b'.') | Some(b'e') | Some(b'E') | Some(b'+') | Some(b'-')
        ) {
            self.pos += 1;
        }
        // `str::parse` rounds a token beyond `f64` to an infinity, and says nothing.
        match self.text[start..self.pos].parse::<f64>() {
            Ok(n) if n.is_finite() => {
                self.nodes.push(Node::Num(n));
                Ok(())
            }
            Ok(_) => Err(format!("number out of range at byte {start}")),
            Err(_) => Err(format!("invalid number at byte {start}")),
        }
    }

    /// Appends the array at `pos`: its node, its values, and then into its node how
    /// many values it held and how many nodes they took.
    fn array(&mut self) -> Result<(), String> {
        self.expect(b'[')?;
        let at = self.nodes.len();
        self.nodes.push(Node::Arr { len: 0, span: 1 });
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        let mut len = 0;
        loop {
            self.skip_ws();
            self.value()?;
            len += 1;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    let span = self.nodes.len() - at;
                    self.nodes[at] = Node::Arr { len, span };
                    return Ok(());
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    /// Appends the object at `pos` as [`Parser::array`] does an array, each value
    /// after its key.
    fn object(&mut self) -> Result<(), String> {
        self.expect(b'{')?;
        let at = self.nodes.len();
        self.nodes.push(Node::Obj { len: 0, span: 1 });
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        let mut len = 0;
        loop {
            self.skip_ws();
            self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            self.value()?;
            len += 1;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    let span = self.nodes.len() - at;
                    self.nodes[at] = Node::Obj { len, span };
                    return Ok(());
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

/// The value at `doc.key`; `null` stands in for one a document does not have.
fn section<'a>(doc: JsonRef<'a>, key: &str) -> JsonRef<'a> {
    doc.get(key).unwrap_or(JsonRef::ABSENT)
}

/// The elements of the array at `section.key` (none when there is no such array).
fn rows<'a>(section: JsonRef<'a>, key: &str) -> Items<'a> {
    section
        .get(key)
        .and_then(JsonRef::as_array)
        .unwrap_or_default()
}

/// The array at `section.key` read through `row`, failing on the first row that does.
/// (Sized up front: collecting `Result`s cannot see the length.)
fn parsed_rows<T>(
    section: JsonRef,
    key: &str,
    mut row: impl FnMut(JsonRef) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let items = rows(section, key);
    let mut parsed = Vec::with_capacity(items.len());
    for item in items {
        parsed.push(row(item)?);
    }
    Ok(parsed)
}

fn f64_at(v: JsonRef, key: &str) -> f64 {
    section(v, key).as_f64().unwrap_or(0.0)
}

/// The count at `section.key`: 0 when absent, an error when it is negative, fractional
/// or above 2^53 ([`merge::MAX_COUNT`], beyond which the `f64` it was read into no
/// longer names one integer).  Sums of counts saturate there, here and in the fold,
/// however many are added, so whatever is written from them reads back.
pub fn count_at(section: JsonRef, name: &str, key: &str) -> Result<u64, String> {
    let v = f64_at(section, key);
    // The cast saturates and drops the fraction, so only a whole number in range
    // survives the round trip (NaN casts to 0 and equals nothing).
    let count = v as u64;
    if count as f64 == v && count <= merge::MAX_COUNT {
        Ok(count)
    } else {
        Err(format!("{name} '{key}': count {v} out of range"))
    }
}

fn usize_at(section: JsonRef, name: &str, key: &str) -> Result<usize, String> {
    let count = count_at(section, name, key)?;
    usize::try_from(count).map_err(|_| format!("{name} '{key}': count {count} out of range"))
}

/// An identifier (ordinal, seed, thread): never summed, so a value beyond `u64`
/// saturates instead of failing the document.
fn id_at(v: JsonRef, key: &str) -> u64 {
    f64_at(v, key) as u64
}

fn bool_at(v: JsonRef, key: &str) -> bool {
    section(v, key).as_bool().unwrap_or(false)
}

/// The names the readers have handed out, so that a name read again is the one
/// already held instead of a new copy.  A collector keeps one per connection, and a
/// reader of one document a fresh one, which still shares the names a document
/// repeats (each type's name is in every view).  Names arrive in documents, so the set
/// is keyed per table, as the fold's maps are.
#[derive(Debug, Default)]
pub struct NameTable {
    names: HashSet<Arc<str>, BuildKeyedMixHasher>,
}

impl NameTable {
    /// The name spelled `text`: the one the table holds, or a new one it keeps.
    pub fn name(&mut self, text: &str) -> Arc<str> {
        if let Some(name) = self.names.get(text) {
            return Arc::clone(name);
        }
        if self.names.len() == self.names.capacity() {
            // Full: let go of the names nothing else holds any more (those of refused
            // documents and dropped shards) before growing, and leave room for as many
            // again as are kept, so that a sweep comes only after that many new names.
            self.names.retain(|name| Arc::strong_count(name) > 1);
            self.names.reserve(self.names.len());
        }
        let name: Arc<str> = text.into();
        self.names.insert(Arc::clone(&name));
        name
    }

    /// How many names the table holds.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the table holds no name.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// The string at `v.key` as a name of `names` (empty when absent).
fn name_at(v: JsonRef, key: &str, names: &mut NameTable) -> Arc<str> {
    names.name(section(v, key).as_str().unwrap_or(""))
}

fn expect_schema(doc: JsonRef) -> Result<(), String> {
    match doc.get("schema").and_then(JsonRef::as_str) {
        Some(REPORT_V1) => Ok(()),
        Some(other) => Err(format!(
            "schema is '{other}', expected '{REPORT_V1}' (is this a dprof report?)"
        )),
        None => Err(format!(
            "missing 'schema' field, expected '{REPORT_V1}' (is this a dprof report?)"
        )),
    }
}

// One parser per row type.  A report and a snapshot spell a row with the same keys
// (the report adds derived ones, which a shard recomputes), so both readers go
// through these.

fn profile_row(row: JsonRef, names: &mut NameTable) -> Result<ShardProfileRow, String> {
    Ok(ShardProfileRow {
        name: names.name(
            row.get("type")
                .and_then(JsonRef::as_str)
                .ok_or("data_profile row without a 'type' field")?,
        ),
        description: name_at(row, "description", names),
        working_set_bytes: f64_at(row, "working_set_bytes"),
        pct_of_l1_misses: f64_at(row, "pct_of_l1_misses"),
        pct_of_miss_cycles: f64_at(row, "pct_of_miss_cycles"),
        bounce: bool_at(row, "bounce"),
        samples: count_at(row, "data_profile", "samples")?,
        l1_miss_samples: count_at(row, "data_profile", "l1_miss_samples")?,
        threads_seen: usize_at(row, "data_profile", "threads_seen")?.max(1),
    })
}

fn miss_row(row: JsonRef, names: &mut NameTable) -> Result<ShardMissRow, String> {
    // A report nests the three fractions under `fractions`; a snapshot keeps them flat.
    let fractions = row.get("fractions").unwrap_or(row);
    Ok(ShardMissRow {
        name: name_at(row, "type", names),
        miss_samples: count_at(row, "miss_classification", "miss_samples")?,
        invalidation: f64_at(fractions, "invalidation"),
        conflict: f64_at(fractions, "conflict"),
        capacity: f64_at(fractions, "capacity"),
    })
}

/// Parses one utilization row, rejecting counts no tally can produce: every fold
/// computes wasted bytes as `8 * (fetched - touched)`, which must not underflow.
fn utilization_row(row: JsonRef, names: &mut NameTable) -> Result<ShardUtilizationRow, String> {
    let parsed = ShardUtilizationRow {
        name: name_at(row, "type", names),
        description: name_at(row, "description", names),
        slots_fetched: count_at(row, "utilization", "slots_fetched")?,
        slots_touched: count_at(row, "utilization", "slots_touched")?,
        refetch_slots: count_at(row, "utilization", "refetch_slots")?,
        wasted_bytes_per_sec: f64_at(row, "wasted_bytes_per_sec"),
        origins: parsed_rows(row, "origins", |o| {
            Ok(ShardUtilizationOrigin {
                origin: name_at(o, "origin", names),
                slots_fetched: count_at(o, "utilization origin", "slots_fetched")?,
                slots_touched: count_at(o, "utilization origin", "slots_touched")?,
            })
        })?,
    };
    if parsed.slots_touched > parsed.slots_fetched {
        return Err(format!(
            "utilization row '{}': slots_touched {} exceeds slots_fetched {}",
            parsed.name, parsed.slots_touched, parsed.slots_fetched
        ));
    }
    if let Some(o) = parsed
        .origins
        .iter()
        .find(|o| o.slots_touched > o.slots_fetched)
    {
        return Err(format!(
            "utilization row '{}' origin {}: slots_touched {} exceeds slots_fetched {}",
            parsed.name, o.origin, o.slots_touched, o.slots_fetched
        ));
    }
    Ok(parsed)
}

fn utilization(section: JsonRef, names: &mut NameTable) -> Result<ShardUtilization, String> {
    Ok(ShardUtilization {
        rows: parsed_rows(section, "rows", |row| utilization_row(row, names))?,
        total_fetches: count_at(section, "utilization", "total_fetches")?,
        total_refetches: count_at(section, "utilization", "total_refetches")?,
        resolved_slots_fetched: count_at(section, "utilization", "resolved_slots_fetched")?,
        resolved_slots_touched: count_at(section, "utilization", "resolved_slots_touched")?,
    })
}

/// The working-set section.  A report has no `thread_count` of its own (its `run`
/// section knows) and calls the conflict-set count `max_conflict_sets`.
fn working_set(
    section: JsonRef,
    thread_count: usize,
    conflict_sets_key: &str,
    names: &mut NameTable,
) -> Result<ShardWorkingSet, String> {
    Ok(ShardWorkingSet {
        rows: parsed_rows(section, "rows", |row| {
            Ok(ShardWorkingSetRow {
                name: name_at(row, "type", names),
                description: name_at(row, "description", names),
                avg_live_bytes: f64_at(row, "avg_live_bytes"),
                avg_live_objects: f64_at(row, "avg_live_objects"),
                peak_live_bytes: count_at(row, "working_set", "peak_live_bytes")?,
                threads_seen: usize_at(row, "working_set", "threads_seen")?.max(1),
            })
        })?,
        cache_capacity: count_at(section, "working_set", "cache_capacity_bytes")?,
        cache_ways: usize_at(section, "working_set", "cache_ways")?,
        total_avg_bytes: f64_at(section, "total_avg_bytes"),
        thread_count,
        threads_exceeding_capacity: usize_at(section, "working_set", "threads_exceeding_capacity")?,
        conflict_sets: usize_at(section, "working_set", conflict_sets_key)?,
    })
}

fn flow(flow: JsonRef, names: &mut NameTable) -> Result<ShardFlow, String> {
    Ok(ShardFlow {
        type_name: name_at(flow, "type", names),
        nodes: parsed_rows(flow, "nodes", |n| {
            Ok(ShardFlowNode {
                function: name_at(n, "function", names),
                samples: count_at(n, "data_flow node", "samples")?,
                weight: count_at(n, "data_flow node", "weight")?,
                avg_latency: f64_at(n, "avg_latency"),
            })
        })?,
        edges: parsed_rows(flow, "edges", |e| {
            Ok(ShardFlowEdge {
                from: name_at(e, "from", names),
                to: name_at(e, "to", names),
                count: count_at(e, "data_flow edge", "count")?,
                cpu_change: bool_at(e, "cpu_change"),
            })
        })?,
    })
}

/// Converts a full [`REPORT_V1`] document into one mergeable [`ProfileShard`].
///
/// This is how `dprof serve` ingests pushed report shards, and how `dprof diff` reads
/// its two reports: the whole report (which may itself summarize several threads)
/// becomes one shard whose weight is the pooled L1-miss sample count, so re-merging
/// many pushed reports weights each by the evidence it carries.  `ordinal` fixes the
/// shard's position in the canonical fold order (the server assigns monotonically
/// increasing ordinals per store key).  Its names are read through a fresh
/// [`NameTable`]; [`shard_from_report_json_with`] reads them through one it is given.
pub fn shard_from_report_json<'a>(
    doc: impl Into<JsonRef<'a>>,
    ordinal: u64,
) -> Result<ProfileShard, String> {
    read_report_shard(doc.into(), ordinal, &mut NameTable::default())
}

/// [`shard_from_report_json`], sharing every name `names` already holds: how a
/// collector's connection reads its pushes.
pub fn shard_from_report_json_with<'a>(
    doc: impl Into<JsonRef<'a>>,
    ordinal: u64,
    names: &mut NameTable,
) -> Result<ProfileShard, String> {
    read_report_shard(doc.into(), ordinal, names)
}

// The two readers are generic only in how they take their document; what they do
// with it is compiled once, here.

fn read_report_shard(
    doc: JsonRef,
    ordinal: u64,
    names: &mut NameTable,
) -> Result<ProfileShard, String> {
    expect_schema(doc)?;
    let run = section(doc, "run");
    let throughput = section(doc, "throughput");

    let data_profile = parsed_rows(section(doc, "data_profile"), "rows", |row| {
        profile_row(row, names)
    })?;
    // A report derives a row's share from its miss count, so a share without one is no
    // report's: read as one, it would weigh the shard 0 and every share with it.
    if let Some(row) =
        (data_profile.iter()).find(|r| r.pct_of_l1_misses > 0.0 && r.l1_miss_samples == 0)
    {
        return Err(format!(
            "data_profile row '{}': pct_of_l1_misses {} without l1_miss_samples",
            row.name, row.pct_of_l1_misses
        ));
    }
    // The report's rows carry shares relative to the *total* miss-sample pool, which
    // may exceed the per-row sum when some misses went unattributed; reconstruct the
    // pool so this shard's weight matches the denominator its percentages assume.
    let sum_l1 = data_profile
        .iter()
        .fold(0, |n, r| merge::add_counts(n, r.l1_miss_samples));
    let sum_pct: f64 = data_profile.iter().map(|r| r.pct_of_l1_misses).sum();
    let weight = if sum_pct > 1e-9 {
        (sum_l1 as f64 * 100.0 / sum_pct).round()
    } else {
        sum_l1 as f64
    };

    let mut data_flows = parsed_rows(section(doc, "data_flow"), "types", |f| flow(f, names))?;
    data_flows.sort_by(|a, b| a.type_name.cmp(&b.type_name));

    Ok(ProfileShard {
        ordinal,
        weight,
        meta: ShardMeta {
            thread: 0,
            seed: id_at(run, "base_seed"),
            requests: count_at(throughput, "throughput", "total_requests")?,
            rps: f64_at(throughput, "aggregate_rps"),
            profiling_fraction: f64_at(throughput, "profiling_fraction"),
            samples: rows(throughput, "per_thread").try_fold(0u64, |n, t| {
                count_at(t, "throughput per_thread", "samples").map(|c| merge::add_counts(n, c))
            })?,
            total_cycles: 0,
        },
        data_profile,
        miss_classification: parsed_rows(section(doc, "miss_classification"), "rows", |row| {
            miss_row(row, names)
        })?,
        utilization: utilization(section(doc, "utilization"), names)?,
        working_set: working_set(
            section(doc, "working_set"),
            usize_at(run, "run", "threads")?.max(1),
            "max_conflict_sets",
            names,
        )?,
        data_flows,
    })
}

/// Serializes a [`ProfileShard`] as the `shard` body of a [`SERVE_V1`] snapshot.
pub fn shard_to_json(shard: &ProfileShard) -> Json {
    Json::obj(vec![
        ("ordinal", Json::num(shard.ordinal as f64)),
        ("weight", Json::num(shard.weight)),
        (
            "meta",
            Json::obj(vec![
                ("thread", Json::num(shard.meta.thread as f64)),
                ("seed", Json::num(shard.meta.seed as f64)),
                ("requests", Json::num(shard.meta.requests as f64)),
                ("rps", Json::num(shard.meta.rps)),
                (
                    "profiling_fraction",
                    Json::num(shard.meta.profiling_fraction),
                ),
                ("samples", Json::num(shard.meta.samples as f64)),
                ("total_cycles", Json::num(shard.meta.total_cycles as f64)),
            ]),
        ),
        (
            "data_profile",
            Json::Arr(
                shard
                    .data_profile
                    .iter()
                    .map(|r| {
                        Json::obj(vec![
                            ("type", Json::str(&*r.name)),
                            ("description", Json::str(&*r.description)),
                            ("working_set_bytes", Json::num(r.working_set_bytes)),
                            ("pct_of_l1_misses", Json::num(r.pct_of_l1_misses)),
                            ("pct_of_miss_cycles", Json::num(r.pct_of_miss_cycles)),
                            ("bounce", Json::Bool(r.bounce)),
                            ("samples", Json::num(r.samples as f64)),
                            ("l1_miss_samples", Json::num(r.l1_miss_samples as f64)),
                            ("threads_seen", Json::num(r.threads_seen as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "miss_classification",
            Json::Arr(
                shard
                    .miss_classification
                    .iter()
                    .map(|r| {
                        Json::obj(vec![
                            ("type", Json::str(&*r.name)),
                            ("miss_samples", Json::num(r.miss_samples as f64)),
                            ("invalidation", Json::num(r.invalidation)),
                            ("conflict", Json::num(r.conflict)),
                            ("capacity", Json::num(r.capacity)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "utilization",
            Json::obj(vec![
                (
                    "rows",
                    Json::Arr(
                        shard
                            .utilization
                            .rows
                            .iter()
                            .map(|r| {
                                Json::obj(vec![
                                    ("type", Json::str(&*r.name)),
                                    ("description", Json::str(&*r.description)),
                                    ("slots_fetched", Json::num(r.slots_fetched as f64)),
                                    ("slots_touched", Json::num(r.slots_touched as f64)),
                                    ("refetch_slots", Json::num(r.refetch_slots as f64)),
                                    ("wasted_bytes_per_sec", Json::num(r.wasted_bytes_per_sec)),
                                    (
                                        "origins",
                                        Json::Arr(
                                            r.origins
                                                .iter()
                                                .map(|o| {
                                                    Json::obj(vec![
                                                        ("origin", Json::str(&*o.origin)),
                                                        (
                                                            "slots_fetched",
                                                            Json::num(o.slots_fetched as f64),
                                                        ),
                                                        (
                                                            "slots_touched",
                                                            Json::num(o.slots_touched as f64),
                                                        ),
                                                    ])
                                                })
                                                .collect(),
                                        ),
                                    ),
                                ])
                            })
                            .collect(),
                    ),
                ),
                (
                    "total_fetches",
                    Json::num(shard.utilization.total_fetches as f64),
                ),
                (
                    "total_refetches",
                    Json::num(shard.utilization.total_refetches as f64),
                ),
                (
                    "resolved_slots_fetched",
                    Json::num(shard.utilization.resolved_slots_fetched as f64),
                ),
                (
                    "resolved_slots_touched",
                    Json::num(shard.utilization.resolved_slots_touched as f64),
                ),
            ]),
        ),
        (
            "working_set",
            Json::obj(vec![
                (
                    "rows",
                    Json::Arr(
                        shard
                            .working_set
                            .rows
                            .iter()
                            .map(|r| {
                                Json::obj(vec![
                                    ("type", Json::str(&*r.name)),
                                    ("description", Json::str(&*r.description)),
                                    ("avg_live_bytes", Json::num(r.avg_live_bytes)),
                                    ("avg_live_objects", Json::num(r.avg_live_objects)),
                                    ("peak_live_bytes", Json::num(r.peak_live_bytes as f64)),
                                    ("threads_seen", Json::num(r.threads_seen as f64)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                (
                    "cache_capacity_bytes",
                    Json::num(shard.working_set.cache_capacity as f64),
                ),
                ("cache_ways", Json::num(shard.working_set.cache_ways as f64)),
                (
                    "total_avg_bytes",
                    Json::num(shard.working_set.total_avg_bytes),
                ),
                (
                    "thread_count",
                    Json::num(shard.working_set.thread_count as f64),
                ),
                (
                    "threads_exceeding_capacity",
                    Json::num(shard.working_set.threads_exceeding_capacity as f64),
                ),
                (
                    "conflict_sets",
                    Json::num(shard.working_set.conflict_sets as f64),
                ),
            ]),
        ),
        (
            "data_flows",
            Json::Arr(
                shard
                    .data_flows
                    .iter()
                    .map(|f| {
                        Json::obj(vec![
                            ("type", Json::str(&*f.type_name)),
                            (
                                "nodes",
                                Json::Arr(
                                    f.nodes
                                        .iter()
                                        .map(|n| {
                                            Json::obj(vec![
                                                ("function", Json::str(&*n.function)),
                                                ("samples", Json::num(n.samples as f64)),
                                                ("weight", Json::num(n.weight as f64)),
                                                ("avg_latency", Json::num(n.avg_latency)),
                                            ])
                                        })
                                        .collect(),
                                ),
                            ),
                            (
                                "edges",
                                Json::Arr(
                                    f.edges
                                        .iter()
                                        .map(|e| {
                                            Json::obj(vec![
                                                ("from", Json::str(&*e.from)),
                                                ("to", Json::str(&*e.to)),
                                                ("count", Json::num(e.count as f64)),
                                                ("cpu_change", Json::Bool(e.cpu_change)),
                                            ])
                                        })
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Deserializes a shard written by [`shard_to_json`], its names read through a fresh
/// [`NameTable`].
pub fn shard_from_json<'a>(doc: impl Into<JsonRef<'a>>) -> Result<ProfileShard, String> {
    read_shard(doc.into(), &mut NameTable::default())
}

/// [`shard_from_json`], sharing every name `names` already holds.
pub fn shard_from_json_with<'a>(
    doc: impl Into<JsonRef<'a>>,
    names: &mut NameTable,
) -> Result<ProfileShard, String> {
    read_shard(doc.into(), names)
}

fn read_shard(doc: JsonRef, names: &mut NameTable) -> Result<ProfileShard, String> {
    let meta = doc.get("meta").ok_or("shard without a 'meta' object")?;
    let ws = doc
        .get("working_set")
        .ok_or("shard without a 'working_set' object")?;
    if doc
        .get("data_profile")
        .and_then(JsonRef::as_array)
        .is_none()
    {
        return Err("shard without a 'data_profile' array".into());
    }
    Ok(ProfileShard {
        ordinal: id_at(doc, "ordinal"),
        weight: f64_at(doc, "weight"),
        meta: ShardMeta {
            thread: id_at(meta, "thread") as usize,
            seed: id_at(meta, "seed"),
            requests: count_at(meta, "meta", "requests")?,
            rps: f64_at(meta, "rps"),
            profiling_fraction: f64_at(meta, "profiling_fraction"),
            samples: count_at(meta, "meta", "samples")?,
            total_cycles: count_at(meta, "meta", "total_cycles")?,
        },
        data_profile: parsed_rows(doc, "data_profile", |row| profile_row(row, names))?,
        miss_classification: parsed_rows(doc, "miss_classification", |row| miss_row(row, names))?,
        utilization: utilization(section(doc, "utilization"), names)?,
        working_set: working_set(
            ws,
            usize_at(ws, "working_set", "thread_count")?.max(1),
            "conflict_sets",
            names,
        )?,
        data_flows: parsed_rows(doc, "data_flows", |f| flow(f, names))?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_nested_document() {
        let doc = Json::obj(vec![
            ("name", Json::str("skbuff")),
            ("bounce", Json::Bool(true)),
            ("pct", Json::num(45.4)),
            ("count", Json::num(1234u32)),
            (
                "tags",
                Json::Arr(vec![Json::str("a \"quoted\" one"), Json::Null]),
            ),
            (
                "nested",
                Json::obj(vec![
                    ("empty_arr", Json::Arr(vec![])),
                    ("empty_obj", Json::Obj(vec![])),
                ]),
            ),
        ]);
        let text = doc.to_pretty_string();
        let back = Json::parse(&text).expect("parses");
        assert_eq!(back, doc);
        assert_eq!(back.get("name").and_then(Json::as_str), Some("skbuff"));
        assert_eq!(back.get("pct").and_then(Json::as_f64), Some(45.4));
        assert_eq!(back.get("count").and_then(Json::as_f64), Some(1234.0));
    }

    #[test]
    fn integers_emit_without_fraction() {
        assert!(Json::num(3u32).to_pretty_string().starts_with('3'));
        assert!(!Json::num(3u32).to_pretty_string().contains('.'));
        assert!(Json::num(2.5).to_pretty_string().starts_with("2.5"));
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("true false").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn escapes_control_characters() {
        let doc = Json::str("é\"line1\nline2\ttab\u{1}\\😀\r\u{1f}");
        let text = doc.to_pretty_string();
        assert_eq!(
            text,
            "\"é\\\"line1\\nline2\\ttab\\u0001\\\\😀\\r\\u001f\"\n"
        );
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    fn sample_shard() -> ProfileShard {
        ProfileShard {
            ordinal: 7,
            weight: 120.0,
            meta: ShardMeta {
                thread: 2,
                seed: 99,
                requests: 1000,
                rps: 123.5,
                profiling_fraction: 0.02,
                samples: 400,
                total_cycles: 50_000,
            },
            data_profile: vec![ShardProfileRow {
                name: "skbuff".into(),
                description: "socket buffer".into(),
                working_set_bytes: 4096.0,
                pct_of_l1_misses: 61.25,
                pct_of_miss_cycles: 58.5,
                bounce: true,
                samples: 300,
                l1_miss_samples: 120,
                threads_seen: 1,
            }],
            miss_classification: vec![ShardMissRow {
                name: "skbuff".into(),
                miss_samples: 120,
                invalidation: 0.7,
                conflict: 0.1,
                capacity: 0.2,
            }],
            utilization: ShardUtilization {
                rows: vec![ShardUtilizationRow {
                    name: "skbuff".into(),
                    description: "socket buffer".into(),
                    slots_fetched: 960,
                    slots_touched: 240,
                    refetch_slots: 120,
                    wasted_bytes_per_sec: 57_600.0,
                    origins: vec![ShardUtilizationOrigin {
                        origin: "cpu2".into(),
                        slots_fetched: 960,
                        slots_touched: 240,
                    }],
                }],
                total_fetches: 120,
                total_refetches: 15,
                resolved_slots_fetched: 960,
                resolved_slots_touched: 240,
            },
            working_set: ShardWorkingSet {
                rows: vec![ShardWorkingSetRow {
                    name: "skbuff".into(),
                    description: "socket buffer".into(),
                    avg_live_bytes: 2048.0,
                    avg_live_objects: 8.0,
                    peak_live_bytes: 4096,
                    threads_seen: 1,
                }],
                cache_capacity: 262_144,
                cache_ways: 8,
                total_avg_bytes: 2048.0,
                thread_count: 1,
                threads_exceeding_capacity: 0,
                conflict_sets: 3,
            },
            data_flows: vec![ShardFlow {
                type_name: "skbuff".into(),
                nodes: vec![ShardFlowNode {
                    function: "netif_rx".into(),
                    samples: 50,
                    weight: 60,
                    avg_latency: 12.5,
                }],
                edges: vec![ShardFlowEdge {
                    from: "netif_rx".into(),
                    to: "udp_deliver".into(),
                    count: 40,
                    cpu_change: true,
                }],
            }],
        }
    }

    #[test]
    fn shard_roundtrips_through_json() {
        let shard = sample_shard();
        let doc = shard_to_json(&shard);
        let text = doc.to_pretty_string();
        let back = shard_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, shard);
    }

    /// Every leaf of `value`, as the path of object keys / array indices to it.
    fn leaf_paths(value: &Json, here: &mut Vec<String>, out: &mut Vec<Vec<String>>) {
        match value {
            Json::Obj(fields) => {
                for (key, child) in fields {
                    here.push(key.clone());
                    leaf_paths(child, here, out);
                    here.pop();
                }
            }
            Json::Arr(items) => {
                for (i, child) in items.iter().enumerate() {
                    here.push(i.to_string());
                    leaf_paths(child, here, out);
                    here.pop();
                }
            }
            _ => out.push(here.clone()),
        }
    }

    fn leaf_mut<'a>(value: &'a mut Json, path: &[String]) -> &'a mut Json {
        path.iter().fold(value, |at, step| match at {
            Json::Obj(fields) => &mut fields.iter_mut().find(|(k, _)| k == step).unwrap().1,
            Json::Arr(items) => &mut items[step.parse::<usize>().unwrap()],
            _ => unreachable!("paths end at leaves"),
        })
    }

    #[test]
    fn every_leaf_of_a_shard_document_reaches_the_shard() {
        let shard = sample_shard();
        let doc = shard_to_json(&shard);
        let mut paths = Vec::new();
        leaf_paths(&doc, &mut Vec::new(), &mut paths);
        assert!(paths.len() > 50, "the sample shard has a row of every type");
        for path in paths {
            let mut perturbed = doc.clone();
            match leaf_mut(&mut perturbed, &path) {
                Json::Num(n) => *n += 1.0,
                Json::Bool(b) => *b = !*b,
                Json::Str(s) => s.push('~'),
                other => panic!("unexpected leaf {other:?} at {path:?}"),
            }
            assert_ne!(
                shard_from_json(&perturbed),
                Ok(shard.clone()),
                "{} is written but not read back",
                path.join(".")
            );
        }
    }

    #[test]
    fn utilization_counts_are_validated_at_the_boundary() {
        let mut shard = sample_shard();
        shard.utilization.rows[0].slots_touched = 961;
        let err = shard_from_json(&shard_to_json(&shard)).unwrap_err();
        assert!(err.contains("slots_touched 961 exceeds slots_fetched 960"));
        let mut shard = sample_shard();
        shard.utilization.rows[0].origins[0].slots_fetched = 239;
        let err = shard_from_json(&shard_to_json(&shard)).unwrap_err();
        assert!(err.contains("'skbuff' origin cpu2"), "{err}");
    }

    #[test]
    fn counts_are_bounded_where_they_enter() {
        // Means, shares and identifiers: never summed as integers, so not bounded
        // (`weight` is the shard's own; a flow node's is a count).
        const NOT_COUNTS: [&str; 17] = [
            "ordinal",
            "weight",
            "thread",
            "seed",
            "rps",
            "profiling_fraction",
            "working_set_bytes",
            "pct_of_l1_misses",
            "pct_of_miss_cycles",
            "invalidation",
            "conflict",
            "capacity",
            "wasted_bytes_per_sec",
            "avg_live_bytes",
            "avg_live_objects",
            "total_avg_bytes",
            "avg_latency",
        ];
        let doc = shard_to_json(&sample_shard());
        let mut paths = Vec::new();
        leaf_paths(&doc, &mut Vec::new(), &mut paths);
        let mut counts = 0;
        for path in paths {
            let mut huge = doc.clone();
            let Json::Num(n) = leaf_mut(&mut huge, &path) else {
                continue;
            };
            *n = 1e30;
            let key = path.last().unwrap();
            let read = shard_from_json(&huge);
            if NOT_COUNTS.contains(&key.as_str()) && path.join(".") != "data_flows.0.nodes.0.weight"
            {
                assert!(read.is_ok(), "{}: {read:?}", path.join("."));
            } else {
                counts += 1;
                let err = read.unwrap_err();
                assert!(
                    err.ends_with(&format!("'{key}': count {} out of range", 1e30)),
                    "{}: {err}",
                    path.join(".")
                );
            }
        }
        assert_eq!(counts, 26, "the sample shard has a count of every kind");

        let text = doc.to_pretty_string();
        let with_requests = |field: &str| {
            let text = text.replace("\"requests\": 1000,", field);
            shard_from_json(&Json::parse(&text).unwrap()).map(|shard| shard.meta.requests)
        };
        assert_eq!(with_requests(""), Ok(0), "an absent count reads 0");
        assert_eq!(
            with_requests("\"requests\": 9007199254740992,"),
            Ok(1 << 53)
        );
        for (refused, printed) in [
            ("9007199254740994", "9007199254740994"),
            ("-1", "-1"),
            ("0.5", "0.5"),
        ] {
            assert_eq!(
                with_requests(&format!("\"requests\": {refused},")),
                Err(format!("meta 'requests': count {printed} out of range"))
            );
        }
        // An infinity never gets this far: the parser refuses the token.
        assert_eq!(
            Json::parse(&text.replace("\"requests\": 1000,", "\"requests\": 1e999,")),
            Err("number out of range at byte 96".into())
        );

        // The report reader goes through the same row parsers.
        let report = Json::parse(
            r#"{"schema": "dprof-report/v1", "data_profile": {"rows": [
                {"type": "skbuff", "l1_miss_samples": 1e30}]}}"#,
        )
        .unwrap();
        assert_eq!(
            shard_from_report_json(&report, 1).unwrap_err(),
            format!(
                "data_profile 'l1_miss_samples': count {} out of range",
                1e30
            )
        );
    }

    #[test]
    fn a_node_is_24_bytes() {
        // What `MAX_NODES` and `json_alloc.rs` bound a document's tape by.
        assert_eq!(std::mem::size_of::<Node>(), 24);
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(Json::parse(&nested(MAX_NESTING)).is_ok());
        assert_eq!(
            Json::parse(&nested(MAX_NESTING + 1)),
            Err("nesting deeper than 128 at byte 128".into())
        );
        let objects = "{\"a\": ".repeat(MAX_NESTING + 1);
        assert_eq!(
            Json::parse(&objects),
            Err(format!(
                "nesting deeper than 128 at byte {}",
                6 * MAX_NESTING
            ))
        );
        // Siblings do not count: depth is how far down, not how many.
        assert!(Json::parse(&format!("[{}]", vec!["[[]]"; 500].join(","))).is_ok());

        // A connection thread has 2 MiB of stack; the bound must hold in far less,
        // however long the run of brackets.
        let parsed = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(|| Json::parse(&"[".repeat(1_000_000)))
            .unwrap()
            .join()
            .expect("the parser thread overflowed its stack");
        assert_eq!(parsed, Err("nesting deeper than 128 at byte 128".into()));
    }

    #[test]
    fn a_report_row_with_a_share_but_no_miss_count_is_refused() {
        let report = |row: &str| {
            let text = format!(
                r#"{{"schema": "dprof-report/v1", "data_profile": {{"rows": [
                    {{"type": "payload", "pct_of_l1_misses": 0, "l1_miss_samples": 0}},
                    {row}]}}}}"#
            );
            shard_from_report_json(&JsonTape::parse(&text).unwrap(), 0)
        };
        assert_eq!(
            report(r#"{"type": "skbuff", "pct_of_l1_misses": 60}"#).unwrap_err(),
            "data_profile row 'skbuff': pct_of_l1_misses 60 without l1_miss_samples"
        );
        assert!(
            report(r#"{"type": "skbuff", "pct_of_l1_misses": 0.5, "l1_miss_samples": 0}"#)
                .unwrap_err()
                .contains("'skbuff'")
        );
        // With its count the same row weighs the shard, and no share is no count.
        let shard = report(r#"{"type": "skbuff", "pct_of_l1_misses": 60, "l1_miss_samples": 3}"#);
        assert_eq!(shard.unwrap().weight, 5.0);
        assert!(report(r#"{"type": "skbuff"}"#).is_ok());
    }

    #[test]
    fn shard_from_report_rejects_wrong_schema() {
        let doc = Json::obj(vec![("schema", Json::str("dprof-diff/v1"))]);
        assert!(shard_from_report_json(&doc, 0)
            .unwrap_err()
            .contains("schema"));
        let none = Json::obj(vec![("hello", Json::num(1u32))]);
        assert!(shard_from_report_json(&none, 0)
            .unwrap_err()
            .contains("missing 'schema'"));
    }

    /// A connection's table lives as long as the connection, and a pusher may send
    /// fresh names in documents that are refused: what only the table holds goes at the
    /// next sweep, what a kept shard holds stays and is handed back.
    #[test]
    fn a_name_table_keeps_only_names_something_else_holds() {
        let mut names = NameTable::default();
        let kept = names.name("skbuff");
        assert!(Arc::ptr_eq(&kept, &names.name("skbuff")));
        for i in 0..10_000 {
            drop(names.name(&format!("refused_{i}")));
        }
        assert!(names.len() < 16, "{} names held", names.len());
        assert!(Arc::ptr_eq(&kept, &names.name("skbuff")));

        // Held names are kept, however many: the table grows instead.
        let held: Vec<Arc<str>> = (0..1_000)
            .map(|i| names.name(&format!("type_{i}")))
            .collect();
        assert!(names.len() > held.len());
        for name in &held {
            assert!(Arc::ptr_eq(name, &names.name(name)));
        }
    }
}
