//! The one JSON parser and the report reader behind it against hostile input: every
//! golden report and store snapshot, mutated the ways a torn, corrupted or malicious
//! push would be.
//!
//! Every mutated document must parse the same through `Json::parse` and
//! `JsonTape::parse` (an equal tree or the identical message, and `parse_local` the
//! same but for the node budget), must be read as a report, and a snapshot's report
//! under its `report` key, off the tape as off the tree (`Ok` or `Err`, the same either way, never a panic), and must cost the
//! parser a heap bounded by a fixed multiple of its length.  A key that repeats reads
//! as its first.  The mutations are drawn from a splitmix64 stream, and every failure
//! names the document, the case and its seed.
//!
//! This file intentionally contains a single test: the counting allocator
//! (`tests/support/counting_alloc.rs`) is global to the test binary, and a
//! concurrently-running test would pollute the measured window.

use dprof_core::schema::{shard_from_report_json, Json, JsonRef, JsonTape};
use std::panic::{catch_unwind, AssertUnwindSafe};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::measured;

/// Single-byte mutations drawn per document and per kind (flip, delete, duplicate).
const BYTE_CASES: u64 = 150;

/// A splitmix64 stream.
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
}

/// The golden documents the collector reads: the reports a producer pushes and the
/// snapshots its store reloads.
fn documents() -> Vec<(String, String)> {
    let golden = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden");
    let mut paths: Vec<_> = std::fs::read_dir(&golden)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.to_string_lossy().ends_with(".report.json"))
        .collect();
    for entry in std::fs::read_dir(golden.join("serve/store/golden")).unwrap() {
        paths.push(entry.unwrap().path());
    }
    paths.sort();
    assert_eq!(paths.len(), 6, "four reports and two snapshots: {paths:?}");
    paths
        .into_iter()
        .map(|path| {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read_to_string(&path).unwrap())
        })
        .collect()
}

/// What the reader makes of one document: of a report, and of the report a snapshot
/// keeps under `report`.
type Read = (
    Result<dprof_core::merge::ProfileShard, String>,
    Option<Result<dprof_core::merge::ProfileShard, String>>,
);

fn read<'a>(doc: impl Into<JsonRef<'a>>) -> Read {
    let doc = doc.into();
    let snapshot = doc
        .get("report")
        .map(|report| shard_from_report_json(report, 1));
    (shard_from_report_json(doc, 1), snapshot)
}

/// Parses and reads one mutated document, holding it to everything the file promises;
/// `case` names it in every failure.
fn check(case: &str, text: &str) {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let (tape, asked) = measured(|| JsonTape::parse(text));
        // A node is 24 bytes and every value or key but a lone top-level scalar takes
        // two bytes of text or more, the tape's room is at most twice its nodes, and a
        // string with an escape is never longer than its text (twice, while it grows).
        let allowed = 32 * text.len() as u64 + 4096;
        assert!(
            asked.peak_bytes <= allowed,
            "{case}: the parse held {} bytes of {allowed}",
            asked.peak_bytes
        );
        let tree = Json::parse(text);
        match (&tape, &tree) {
            (Ok(tape), Ok(tree)) => {
                assert!(tape.root().to_json() == *tree, "{case}: trees differ");
                assert_eq!(read(tape), read(tree), "{case}: readers differ");
            }
            (tape, tree) => assert_eq!(
                tape.as_ref().err(),
                tree.as_ref().err(),
                "{case}: messages differ"
            ),
        }
        match (tape, JsonTape::parse_local(text)) {
            (Err(over), local) if over.starts_with("more than ") => {
                assert!(local.is_ok(), "{case}: {local:?}")
            }
            (tape, local) => assert!(tape == local, "{case}: parse_local differs"),
        }
    }));
    if let Err(panic) = outcome {
        let message = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panic.downcast_ref::<&str>().copied())
            .unwrap_or("?");
        panic!("{case}: {message}");
    }
}

/// Where the document's sections and their members begin: every line indented two
/// levels or fewer.
fn section_boundaries(text: &str) -> Vec<usize> {
    let mut at = 0;
    let mut boundaries = Vec::new();
    for line in text.split_inclusive('\n') {
        let indent = line.len() - line.trim_start_matches(' ').len();
        if indent <= 4 {
            boundaries.push(at);
        }
        at += line.len();
    }
    boundaries
}

/// The byte ranges of the number tokens in `text` (outside strings).
fn numbers(text: &str) -> Vec<(usize, usize)> {
    let bytes = text.as_bytes();
    let (mut found, mut in_string, mut i) = (Vec::new(), false, 0);
    while i < bytes.len() {
        match bytes[i] {
            b'\\' if in_string => i += 1,
            b'"' => in_string = !in_string,
            b'-' | b'0'..=b'9' if !in_string => {
                let start = i;
                while i < bytes.len()
                    && matches!(bytes[i], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                {
                    i += 1;
                }
                found.push((start, i));
                continue;
            }
            _ => {}
        }
        i += 1;
    }
    found
}

/// The top-level sections: each key's line, from its indentation to the end of its
/// value (the comma after it excluded).
fn sections(text: &str) -> Vec<(usize, usize)> {
    let starts: Vec<usize> = section_boundaries(text)
        .into_iter()
        .filter(|&at| text[at..].starts_with("  \""))
        .collect();
    let close = text.trim_end().len() - 1;
    starts
        .iter()
        .enumerate()
        .map(|(i, &start)| {
            let end = starts.get(i + 1).copied().unwrap_or(close);
            let value = text[start..end].trim_end();
            (
                start,
                start + value.strip_suffix(',').unwrap_or(value).len(),
            )
        })
        .collect()
}

#[test]
fn hostile_mutations_of_every_golden_document_parse_alike_and_read_without_panicking() {
    let mut cases = 0;
    for (index, (name, text)) in documents().into_iter().enumerate() {
        let seed = 0x6a50_6e00 + index as u64;
        let mut choices = Choices(seed);
        let case = |what: String| format!("{name}: {what} (seed {seed:#x})");
        check(&case("unchanged".into()), &text);

        for cut in section_boundaries(&text) {
            check(&case(format!("truncated at byte {cut}")), &text[..cut]);
            cases += 1;
        }

        let bytes = text.as_bytes();
        for n in 0..3 * BYTE_CASES {
            let at = choices.below(bytes.len());
            let mut mutated = bytes.to_vec();
            let what = match n % 3 {
                0 => {
                    let bit = choices.below(8);
                    mutated[at] ^= 1 << bit;
                    format!("case {n}: bit {bit} of byte {at} flipped")
                }
                1 => {
                    mutated.remove(at);
                    format!("case {n}: byte {at} deleted")
                }
                _ => {
                    mutated.insert(at, bytes[at]);
                    format!("case {n}: byte {at} duplicated")
                }
            };
            // A mutation that breaks the UTF-8 never reaches the parser: the frame
            // reader and the file loaders refuse it first.
            if let Ok(mutated) = String::from_utf8(mutated) {
                check(&case(what), &mutated);
                cases += 1;
            }
        }

        let tokens = numbers(&text);
        for n in 0..8 {
            let (start, end) = tokens[choices.below(tokens.len())];
            for (past, digits) in [("2^53", 17), ("f64", 320)] {
                let grown = format!("{}{}{}", &text[..end], "7".repeat(digits), &text[end..]);
                check(
                    &case(format!(
                        "case {n}: number at byte {start} grown past {past}"
                    )),
                    &grown,
                );
                cases += 1;
            }
        }

        for (n, (start, end)) in sections(&text).into_iter().enumerate() {
            let colon = start + text[start..end].find(": ").expect("a key") + 2;
            let nested = format!(
                "{}{}{}{}{}",
                &text[..colon],
                "[".repeat(129),
                &text[colon..end],
                "]".repeat(129),
                &text[end..]
            );
            check(
                &case(format!("section {n} at byte {start} nested 129 deep")),
                &nested,
            );
            // The section again after itself: the document reads as the original,
            // because the first key wins; and a `null` under its key before it is what
            // a lookup finds.
            let section = &text[start..end];
            let key = &section[..colon - start];
            let after = format!("{},\n{section}{}", &text[..end], &text[end..]);
            let before = format!("{}{key}null,\n{}", &text[..start], &text[start..]);
            let original = Json::parse(&text).unwrap();
            let first = Json::parse(&after).unwrap();
            let emptied = JsonTape::parse(&before).unwrap();
            let what = case(format!("section {n} at byte {start} duplicated"));
            check(&what, &after);
            check(&what, &before);
            let key = key.trim().trim_end_matches(':').trim_matches('"');
            assert_eq!(first.get(key), original.get(key), "{what}");
            assert!(
                emptied.root().get(key).map(JsonRef::to_json) == Some(Json::Null),
                "{what}"
            );
            assert_eq!(read(&first), read(&original), "{what}: first wins");
            cases += 3;
        }
    }
    assert!(cases > 2_500, "only {cases} cases");
}
