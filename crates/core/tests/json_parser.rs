//! What `schema::Json::parse` must keep doing however it scans: the tree it builds,
//! the value of every number, and the message and byte offset of every error.
//!
//! 1. **Round trip** — a generated tree, whose strings mix ASCII, everything the
//!    emitter escapes and 2-, 3- and 4-byte scalars, parses back from its own
//!    pretty-printed form; so does every committed golden document, byte for byte.
//! 2. **Numbers** — a number token reads as exactly the `f64` `str::parse` gives,
//!    on both sides of the 15-digit plain-integer boundary.
//! 3. **Errors** — a table of malformed inputs with the exact messages.

use dprof_core::schema::Json;
use proptest::prelude::*;

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
        prop_assert_eq!(Json::parse(&text), Ok(doc), "{}", text);
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
    match Json::parse(token) {
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
        "1e999",
        "-1e999",
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
                assert_eq!(Json::parse(&doc.to_pretty_string()), Ok(doc));
            }
        }
    }
}

#[test]
fn escapes_and_raw_bytes_only_a_foreign_emitter_writes() {
    for (input, expected) in [
        (r#""\/\b\f""#, "/\u{8}\u{c}"),
        (r#""\u00e9\u20AC""#, "é€"),
        // Surrogates are not paired up: each half reads as the replacement character.
        (r#""\ud83d\ude00""#, "\u{fffd}\u{fffd}"),
        (r#""\u+041""#, "A"),
        // Raw control characters pass through unescaped.
        ("\"a\nb\tc\u{0}\"", "a\nb\tc\u{0}"),
        (r#""""#, ""),
        (r#""\\""#, "\\"),
        (r#""é\\""#, "é\\"),
    ] {
        assert_eq!(Json::parse(input), Ok(Json::str(expected)), "{input}");
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
        ("\"\\u12", "truncated \\u escape"),
        ("\"\\u12\"", "truncated \\u escape"),
        ("\"\\u12\" ", "bad \\u escape"),
        ("\"\\uzzzz\"", "bad \\u escape"),
        ("\"\\u00é\"", "bad \\u escape"),
        ("\"\\u000é\"", "bad \\u escape"),
        ("-", "invalid number at byte 0"),
        ("--1", "invalid number at byte 0"),
        ("1e", "invalid number at byte 0"),
        ("1.2.3", "invalid number at byte 0"),
        ("[1-2]", "invalid number at byte 1"),
        ("[1, 1e5e]", "invalid number at byte 4"),
        ("{\"n\": 123456789012345-}", "invalid number at byte 6"),
        ("[1, 2", "expected ',' or ']' at byte 5"),
        ("[1 2]", "expected ',' or ']' at byte 3"),
        ("{\"a\": 1 \"b\"", "expected ',' or '}' at byte 8"),
        ("{\"a\": 1", "expected ',' or '}' at byte 7"),
        ("{\"a\" 1}", "expected ':' at byte 5"),
        ("{a: 1}", "expected '\"' at byte 1"),
        ("{\"a\":1,}", "expected '\"' at byte 7"),
    ] {
        assert_eq!(
            Json::parse(input),
            Err(message.to_string()),
            "input {input:?}"
        );
    }
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

#[test]
fn every_golden_document_parses_and_re_emits_byte_for_byte() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden");
    let mut documents = Vec::new();
    golden_documents(&root, &mut documents);
    assert!(documents.len() >= 10, "found only {documents:?}");
    for path in documents {
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(doc.to_pretty_string(), text, "{}", path.display());
    }
}
