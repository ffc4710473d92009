//! What a parsed document costs the heap, by count: a tape is one vector of nodes and
//! one allocation per string with an escape, a tree copied out of it pays for every
//! container, key and string besides, and a document built to ask for as much tape as
//! it can is refused inside the node budget.
//!
//! This file intentionally contains a single test: the counting allocator
//! (`tests/support/counting_alloc.rs`) is global to the test binary, and a
//! concurrently-running test would pollute the measured window.

use dprof_core::schema::{shard_from_report_json, Json, JsonRef, JsonTape, MAX_NODES};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::measured;

/// The bytes of one node of a tape (a value, or an object's key).
const NODE_BYTES: u64 = 24;

/// What a tape must have cost.
#[derive(Debug, Default, PartialEq)]
struct Census {
    /// Values and keys: one node each.
    nodes: u64,
    /// Non-empty arrays and objects.
    containers: u64,
    /// Keys and string values; and those of them that had an escape.
    strings: u64,
    escaped: u64,
}

impl Census {
    /// A string the parser had to build is the one kind the tape owns; every other is
    /// a slice of `text`.
    fn string(&mut self, s: &str, text: &str) {
        self.nodes += 1;
        self.strings += 1;
        self.escaped += u64::from(!text.as_bytes().as_ptr_range().contains(&s.as_ptr()));
    }

    fn of(&mut self, value: JsonRef, text: &str) {
        if let Some(s) = value.as_str() {
            return self.string(s, text);
        }
        self.nodes += 1;
        if let Some(items) = value.as_array() {
            self.containers += u64::from(items.len() > 0);
            items.for_each(|item| self.of(item, text));
        } else if let Some(fields) = value.fields() {
            self.containers += u64::from(fields.len() > 0);
            for (key, field) in fields {
                self.string(key, text);
                self.of(field, text);
            }
        }
    }

    /// The reallocations that took the tape from its first four nodes to room for all.
    fn doublings(&self) -> u64 {
        u64::from((self.nodes.max(4).next_power_of_two() / 4).trailing_zeros())
    }
}

#[test]
fn a_tape_is_one_vector_and_a_hostile_one_stays_inside_the_budget() {
    let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden");
    let report = std::fs::read_to_string(format!("{golden}/memcached_quick.report.json")).unwrap();
    // One escaped string, so that both kinds are in the count.
    let report = report.replacen("\"size-1024\"", "\"size\\u002d1024\"", 1);
    assert!(report.contains("\\u002d"));

    let (tape, asked) = measured(|| JsonTape::parse(&report).unwrap());
    let mut census = Census::default();
    census.of(tape.root(), &report);
    let doublings = census.doublings();
    let Census {
        nodes,
        containers,
        strings,
        escaped,
    } = census;
    // The tape is one allocation that doubles from four nodes; an escaped string is one
    // more, which grows once (its buffer starts at eight bytes, for the run before the
    // escape, and doubles for what follows) and shrinks once, to its length.  These
    // repeat exactly.  The tree this replaced allocated each of the 74 containers too:
    // 75 allocations and 11 reallocations.
    assert_eq!((nodes, containers, strings, escaped), (737, 74, 430, 1));
    assert_eq!(asked.allocations, 1 + escaped);
    assert_eq!(asked.allocations, 2);
    assert_eq!(asked.growths, doublings + 2 * escaped);
    assert_eq!(asked.growths, 10);

    let (owned, owned_asked) = measured(|| Json::parse(&report).unwrap());
    // The tree copied out of it: every container in one exact allocation, every key
    // and string (none of this report's is empty; an empty one would not allocate).
    // Before the tape, the tree was parsed directly: 494 allocations, for this report
    // before it carried its cycles, its pool's weight and its working-set threads
    // (ten keys, 496 allocations copied out of the tape).
    assert_eq!(
        owned_asked.allocations,
        asked.allocations + containers + strings
    );
    assert_eq!(owned_asked.allocations, 506);
    assert_eq!(owned_asked.growths, asked.growths);

    // The reader builds the shard's rows and nothing else, so it costs the same off the
    // tape as off the tree.  Its fresh name table allocates each distinct string once,
    // however often the document repeats it (every view names its types again): 52
    // allocations, where a copy of every name took 91.
    let (from_tape, reader) = measured(|| shard_from_report_json(&tape, 1).unwrap());
    let (from_owned, reader_of_owned) = measured(|| shard_from_report_json(&owned, 1).unwrap());
    assert_eq!(from_tape, from_owned);
    assert_eq!(reader.allocations, reader_of_owned.allocations);
    assert_eq!(reader.allocations, 52);
    drop((tape, owned, from_tape, from_owned));

    // A value is one node and, in an object, its key one more, so a document inside
    // the budget is at most 2 × MAX_NODES nodes: a tape that doubles from four reaches
    // exactly that room, beside the half-size generation it grew out of, which a
    // reallocation may hold while it moves.  (The tree this replaced was bounded at
    // eleven 56-byte slots a value, MAX_NODES × 11 × 56 B.)
    let allowed = 3 * MAX_NODES as u64 * NODE_BYTES;
    let nested = format!("{}1{},", "{\"\":".repeat(126), "}".repeat(126));
    for element in ["[1],", "{\"\":1},", "[[]],", nested.as_str()] {
        let shape = &element[..element.len().min(8)];
        let hostile = format!("[{}1]", element.repeat(MAX_NODES / 2));
        let (refused, asked) = measured(|| JsonTape::parse(&hostile).map(drop));
        let peak = asked.peak_bytes;
        let at = refused.unwrap_err();
        assert!(
            at.starts_with(&format!("more than {MAX_NODES} values at byte ")),
            "{at}"
        );
        assert!(peak <= allowed, "{shape} held {peak} bytes of {allowed}");
        let (owned_refused, owned_asked) = measured(|| Json::parse(&hostile).map(drop));
        assert_eq!(owned_refused, Err(at));
        assert!(
            owned_asked.peak_bytes <= allowed,
            "{shape}: {owned_asked:?}"
        );
        // And the budget is what bounds it: the text alone would have asked for more.
        assert!(peak > allowed / 8, "{shape} held only {peak} bytes");
    }
}
