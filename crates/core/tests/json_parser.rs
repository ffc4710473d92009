//! What `schema::Json::parse` must keep doing however it scans — and `JsonTape::parse`
//! with it, the tape the tree is copied out of: the tree it builds, the value of every
//! number, and the message and byte offset of every error.  Every parse in this file
//! goes through [`parse`], which reads the text both ways and holds the tape's view
//! (`JsonRef`) equal to the tree (and the tape to `JsonTape::parse_local`'s, the same
//! parser without the node budget).
//!
//! 1. **Round trip** — a generated tree, whose strings mix ASCII, everything the
//!    emitter escapes and 2-, 3- and 4-byte scalars, parses back from its own
//!    pretty-printed form; so does every committed golden document, byte for byte,
//!    both through the tree and written value by value off its tape by the
//!    `JsonWriter` the tree is emitted through: there is one layout.
//! 2. **Numbers** — a number token reads as exactly the `f64` `str::parse` gives,
//!    on both sides of the 15-digit plain-integer boundary.
//! 3. **Errors** — a table of malformed inputs with the exact messages, and every
//!    golden document cut short at every character.
//!
//! And what the readers make of a document does not depend on whether they read it off
//! the tape or off a tree: every golden document a reader accepts reads as the same
//! shard from both.

use dprof_core::schema::{shard_from_report_json, Json, JsonRef, JsonTape, JsonWriter, MAX_NODES};
use proptest::prelude::*;

/// Structural equality of a tree and a tape's view, read through the view's accessors;
/// numbers by their bits.
fn same(a: &Json, b: JsonRef) -> bool {
    match a {
        Json::Null => b.to_json() == Json::Null,
        Json::Bool(a) => b.as_bool() == Some(*a),
        Json::Num(a) => b.as_f64().is_some_and(|b| a.to_bits() == b.to_bits()),
        Json::Str(a) => b.as_str() == Some(a.as_str()),
        Json::Arr(a) => b
            .as_array()
            .is_some_and(|b| a.len() == b.len() && a.iter().zip(b).all(|(a, b)| same(a, b))),
        Json::Obj(a) => b.fields().is_some_and(|b| {
            a.len() == b.len()
                && a.iter()
                    .zip(b)
                    .all(|((ka, a), (kb, b))| ka == kb && same(a, b))
        }),
    }
}

/// `Json::parse`, having checked that `JsonTape::parse` says the same: a view equal to
/// the tree that prints alike, or the identical message.  And that
/// `JsonTape::parse_local` says the same as both, but for a document over the budget,
/// which it reads.
fn parse(text: &str) -> Result<Json, String> {
    let owned = Json::parse(text);
    let borrowed = JsonTape::parse(text);
    match (&owned, &borrowed) {
        (Ok(owned), Ok(borrowed)) => {
            assert!(
                same(owned, borrowed.root()),
                "{text:?}: {owned:?} != {borrowed:?}"
            );
            assert_eq!(
                owned.to_pretty_string(),
                borrowed.root().to_json().to_pretty_string()
            );
        }
        (owned, borrowed) => assert_eq!(
            owned.as_ref().err(),
            borrowed.as_ref().err(),
            "input {text:?}"
        ),
    }
    match (borrowed, JsonTape::parse_local(text)) {
        (Err(over), local) if over.starts_with("more than ") => assert!(local.is_ok()),
        (borrowed, local) => assert_eq!(borrowed, local, "input {text:?}"),
    }
    owned
}

/// A splitmix64 stream: the tree generator's only source of choices.
struct Choices(u64);

impl Choices {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a>(&mut self, pool: &[&'a str]) -> &'a str {
        pool[self.below(pool.len())]
    }
}

/// Plain runs, every character the emitter escapes (`"` `\` `\n` `\r` `\t` and the
/// other controls, written `\u00XX`), and scalars of every UTF-8 width.
const FRAGMENTS: [&str; 16] = [
    "skbuff", "a", " ", "/", "\"", "\\", "\n", "\r", "\t", "\u{1}", "\u{8}", "\u{1f}", "\u{7f}",
    "é", "€", "😀",
];

const NUMBERS: [f64; 10] = [
    0.0,
    7.0,
    -3.0,
    45.4,
    -0.125,
    1e-7,
    999_999_999_999_999.0,
    1_000_000_000_000_000.0,
    9_007_199_254_740_992.0,
    1.5e300,
];

fn string(choices: &mut Choices) -> String {
    (0..choices.below(7))
        .map(|_| choices.pick(&FRAGMENTS))
        .collect()
}

fn tree(choices: &mut Choices, depth: usize) -> Json {
    let kinds = if depth == 0 { 4 } else { 6 };
    match choices.below(kinds) {
        0 => Json::Null,
        1 => Json::Bool(choices.below(2) == 0),
        2 => Json::Num(NUMBERS[choices.below(NUMBERS.len())]),
        3 => Json::Str(string(choices)),
        4 => Json::Arr(
            (0..choices.below(12))
                .map(|_| tree(choices, depth - 1))
                .collect(),
        ),
        _ => Json::Obj(
            (0..choices.below(12))
                .map(|_| (string(choices), tree(choices, depth - 1)))
                .collect(),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn generated_trees_round_trip(seed in any::<u64>()) {
        let doc = tree(&mut Choices(seed), 4);
        let text = doc.to_pretty_string();
        prop_assert_eq!(parse(&text), Ok(doc), "{}", text);
    }

    #[test]
    fn digit_strings_read_as_str_parse_does(seed in any::<u64>()) {
        let mut choices = Choices(seed);
        let mut token = String::from(if choices.below(2) == 0 { "-" } else { "" });
        for _ in 0..1 + choices.below(20) {
            token.push(char::from(b'0' + choices.below(10) as u8));
        }
        assert_number(&token);
    }
}

fn assert_number(token: &str) {
    let expected: f64 = token.parse().unwrap();
    match parse(token) {
        Ok(Json::Num(n)) => assert_eq!(n.to_bits(), expected.to_bits(), "{token}"),
        other => panic!("{token}: {other:?}"),
    }
}

#[test]
fn numbers_on_both_sides_of_the_plain_integer_boundary() {
    for token in [
        "0",
        "-0",
        "7",
        "01",
        "-007",
        "999999999999999",
        "-999999999999999",
        "1000000000000000",
        "9007199254740992",
        "9007199254740993",
        "12345678901234567",
        "123456789012345678901234567890",
        "1e5",
        "1E5",
        "1e+5",
        "1.0",
        "1.",
        "-0.0",
        "0.1",
        "1.5e-3",
        "123456789012345e3",
        "123456789012345.5",
        "1.7976931348623157e308",
        "4.9e-324",
        "1e-999",
    ] {
        assert_number(token);
    }
}

#[test]
fn scalars_first_last_and_beside_escapes() {
    for scalar in ["é", "€", "😀"] {
        for escaped in ["\"", "\\", "\n", "\u{1}"] {
            for text in [
                scalar.to_string(),
                format!("{scalar}{escaped}"),
                format!("{escaped}{scalar}"),
                format!("{scalar}{escaped}{scalar}"),
                format!("a{scalar}"),
                format!("{scalar}a"),
                format!("{escaped}{escaped}{scalar}{scalar}{escaped}"),
            ] {
                let doc = Json::obj(vec![(text.as_str(), Json::str(text.as_str()))]);
                assert_eq!(parse(&doc.to_pretty_string()), Ok(doc));
            }
        }
    }
}

#[test]
fn escapes_and_raw_bytes_only_a_foreign_emitter_writes() {
    for (input, expected) in [
        (r#""\/\b\f""#, "/\u{8}\u{c}"),
        (r#""\u00e9\u20AC""#, "é€"),
        // An escaped surrogate pair is its one scalar, whatever the case of its digits
        // (what `json.dumps` writes for anything beyond ASCII)...
        (r#""\ud83d\ude00""#, "😀"),
        (r#""a\uD83D\uDE00b""#, "a😀b"),
        (r#""\udbff\udfff""#, "\u{10ffff}"),
        // ...and a half without its other is the replacement character: a high one at
        // the end, before a plain character, before another escape, before a second
        // high one (which still pairs with what follows it); a low one anywhere.
        (r#""\ud83d""#, "\u{fffd}"),
        (r#""\ud83dx""#, "\u{fffd}x"),
        (r#""\ud83d\n""#, "\u{fffd}\n"),
        (r#""\ud83d\u0041""#, "\u{fffd}A"),
        (r#""\ud83d\ud83d\ude00""#, "\u{fffd}😀"),
        (r#""\ude00\ud83d""#, "\u{fffd}\u{fffd}"),
        // Raw control characters pass through unescaped.
        ("\"a\nb\tc\u{0}\"", "a\nb\tc\u{0}"),
        (r#""""#, ""),
        (r#""\\""#, "\\"),
        (r#""é\\""#, "é\\"),
    ] {
        assert_eq!(parse(input), Ok(Json::str(expected)), "{input}");
    }
}

#[test]
fn malformed_input_is_reported_with_its_message_and_offset() {
    for (input, message) in [
        ("", "unexpected input at byte 0"),
        ("  ", "unexpected input at byte 2"),
        ("+1", "unexpected input at byte 0"),
        ("[1,]", "unexpected input at byte 3"),
        ("{\"a\": }", "unexpected input at byte 6"),
        ("nul", "invalid literal at byte 0"),
        ("[tru]", "invalid literal at byte 1"),
        ("true false", "trailing data at byte 5"),
        ("12345678901234567x", "trailing data at byte 17"),
        ("{} {}", "trailing data at byte 3"),
        ("\"abc", "unterminated string"),
        ("\"é", "unterminated string"),
        ("{\"key", "unterminated string"),
        ("\"abc\\", "unterminated escape"),
        ("\"a\\qb\"", "bad escape at byte 2"),
        ("[\"é\\x\"]", "bad escape at byte 4"),
        ("\"\\u12", "truncated \\u escape at byte 1"),
        ("\"\\u12\"", "truncated \\u escape at byte 1"),
        ("\"\\u12\" ", "bad \\u escape at byte 1"),
        ("\"\\uzzzz\"", "bad \\u escape at byte 1"),
        ("\"\\u00é\"", "bad \\u escape at byte 1"),
        ("\"\\u000é\"", "bad \\u escape at byte 1"),
        // Four hex digits and nothing else: `from_str_radix` would take a sign.
        ("\"\\u+041\"", "bad \\u escape at byte 1"),
        ("[\"é\\u-041\"]", "bad \\u escape at byte 4"),
        ("\"\\u 041\"", "bad \\u escape at byte 1"),
        // The escape after a high surrogate is held to the same rule.
        ("\"\\ud83d\\u+e00\"", "bad \\u escape at byte 7"),
        ("\"\\ud83d\\ude0", "truncated \\u escape at byte 7"),
        ("\"\\ud83d\\q\"", "bad escape at byte 7"),
        ("-", "invalid number at byte 0"),
        ("--1", "invalid number at byte 0"),
        ("1e", "invalid number at byte 0"),
        ("1.2.3", "invalid number at byte 0"),
        ("[1-2]", "invalid number at byte 1"),
        ("[1, 1e5e]", "invalid number at byte 4"),
        ("{\"n\": 123456789012345-}", "invalid number at byte 6"),
        // A token `str::parse` rounds to an infinity is not a number a reader can use.
        ("1e999", "number out of range at byte 0"),
        ("{\"a\": 1e999}", "number out of range at byte 6"),
        ("[0, -1e999]", "number out of range at byte 4"),
        ("[1.8e308]", "number out of range at byte 1"),
        ("[1, 2", "expected ',' or ']' at byte 5"),
        ("[1 2]", "expected ',' or ']' at byte 3"),
        ("{\"a\": 1 \"b\"", "expected ',' or '}' at byte 8"),
        ("{\"a\": 1", "expected ',' or '}' at byte 7"),
        ("{\"a\" 1}", "expected ':' at byte 5"),
        ("{a: 1}", "expected '\"' at byte 1"),
        ("{\"a\":1,}", "expected '\"' at byte 7"),
    ] {
        assert_eq!(parse(input), Err(message.to_string()), "input {input:?}");
    }
}

#[test]
fn a_document_holds_at_most_max_nodes_values() {
    // The outer array and `MAX_NODES - 1` elements fit; one more value does not, and
    // the message names the byte it would have started at.
    let mut text = format!("[{}", "0,".repeat(MAX_NODES - 2));
    assert!(parse(&format!("{text}0]")).is_ok());
    text.push_str("0,");
    assert_eq!(
        parse(&format!("{text}0]")),
        Err(format!(
            "more than {MAX_NODES} values at byte {}",
            text.len()
        ))
    );
    // Containers count like scalars, empty or not, and so does an object's value
    // (its key does not).
    let pairs = "[],{\"k\":0},".repeat(MAX_NODES / 3);
    assert_eq!(
        parse(&format!("[{pairs}0]")),
        Err(format!(
            "more than {MAX_NODES} values at byte {}",
            1 + pairs.len()
        ))
    );
}

fn golden_documents(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            golden_documents(&path, out);
        } else if path.extension().is_some_and(|e| e == "json") {
            out.push(path);
        }
    }
}

/// Every committed golden document: its path and its text.
fn goldens() -> Vec<(String, String)> {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden");
    let mut documents = Vec::new();
    golden_documents(&root, &mut documents);
    assert!(documents.len() >= 10, "found only {documents:?}");
    documents
        .into_iter()
        .map(|path| {
            let text = std::fs::read_to_string(&path).unwrap();
            (path.display().to_string(), text)
        })
        .collect()
}

#[test]
fn every_golden_document_parses_and_re_emits_byte_for_byte() {
    for (path, text) in goldens() {
        let doc = parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
        assert_eq!(doc.to_pretty_string(), text, "{path}");
    }
}

/// Writes a value through the writer as a caller that knows no tree does, off a tape.
fn write(w: &mut JsonWriter, value: JsonRef) {
    if let Some(fields) = value.fields() {
        w.open_obj();
        for (key, value) in fields {
            w.key(key);
            write(w, value);
        }
        w.close_obj();
    } else if let Some(items) = value.as_array() {
        w.open_arr();
        for item in items {
            w.item();
            write(w, item);
        }
        w.close_arr();
    } else if let Some(n) = value.as_f64() {
        w.num(n);
    } else if let Some(s) = value.as_str() {
        w.str(s);
    } else if let Some(b) = value.as_bool() {
        w.bool(b);
    } else {
        w.null();
    }
}

/// The writer is the layout of every document the workspace commits: reports, diffs,
/// what-if and accuracy documents, the collector's replies and its store snapshots,
/// each written value by value off its tape with no tree in between.
#[test]
fn every_golden_document_is_the_writers_layout() {
    let documents = goldens();
    for kind in [
        ".report.json",
        ".diff.json",
        ".whatif.json",
        ".accuracy.json",
        "serve/top.json",
        "serve/regressions.json",
        "serve/alerts.json",
        "serve/store/golden/v1.json",
    ] {
        assert!(
            documents.iter().any(|(path, _)| path.ends_with(kind)),
            "no golden {kind}"
        );
    }
    for (path, text) in documents {
        let tape = JsonTape::parse_local(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
        let mut w = JsonWriter::default();
        write(&mut w, tape.root());
        assert_eq!(w.finish(), text, "{path}");
    }
}

/// A document cut anywhere before its closing bracket is an error, the same one from
/// both parses ([`parse`] checks that); the tape slices the input at the offsets the
/// scan stopped at, so this is also where a slice off a character boundary would
/// panic.
#[test]
fn every_golden_document_cut_short_is_the_same_error_from_both_storages() {
    for (path, text) in goldens() {
        let end = text.trim_end().len();
        for cut in (0..end).filter(|&cut| text.is_char_boundary(cut)) {
            assert!(parse(&text[..cut]).is_err(), "{path} cut at byte {cut}");
        }
        assert!(parse(&text[..end]).is_ok(), "{path}");
    }
}

#[test]
fn readers_return_equal_values_from_either_storage() {
    let (mut reports, mut snapshots) = (0, 0);
    for (path, text) in goldens() {
        let owned = Json::parse(&text).unwrap();
        let borrowed = JsonTape::parse(&text).unwrap();
        let from_report = shard_from_report_json(&owned, 7);
        assert_eq!(from_report, shard_from_report_json(&borrowed, 7), "{path}");
        reports += usize::from(from_report.is_ok());
        // A store snapshot keeps its fold's report under `report`.
        let (owned, borrowed) = (owned.get("report"), borrowed.root().get("report"));
        let from_snapshot = owned.map(|report| shard_from_report_json(report, 7));
        let borrowed = borrowed.map(|report| shard_from_report_json(report, 7));
        assert_eq!(from_snapshot, borrowed, "{path}");
        snapshots += usize::from(from_snapshot.is_some_and(|shard| shard.is_ok()));
    }
    assert_eq!((reports, snapshots), (4, 2), "golden reports and snapshots");
}
