//! What a parsed document costs the heap, by count: a borrowed tree is its containers
//! and nothing per string, an owned one pays for every key and string besides, and a
//! document built to ask for as much tree as it can is refused inside the node budget.
//!
//! This file intentionally contains a single test: the counting allocator
//! (`tests/support/counting_alloc.rs`) is global to the test binary, and a
//! concurrently-running test would pollute the measured window.

use dprof_core::schema::{shard_from_report_json, Json, JsonOf, JsonRef, MAX_NODES};
use std::borrow::Cow;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::measured;

/// What a tree must have cost.
#[derive(Debug, Default, PartialEq)]
struct Census {
    /// Non-empty arrays and objects.
    containers: u64,
    /// The doublings that took the containers of more than eight slots there.
    doublings: u64,
    /// Keys and string values; and those of them that had an escape.
    strings: u64,
    escaped: u64,
}

impl Census {
    fn container(&mut self, len: usize) {
        self.containers += u64::from(len > 0);
        self.doublings += u64::from(len.div_ceil(8).next_power_of_two().trailing_zeros());
    }

    /// A string the parser had to build is the one kind a borrowed tree owns.
    fn string(&mut self, escaped: bool) {
        self.strings += 1;
        self.escaped += u64::from(escaped);
    }

    fn of(&mut self, value: &JsonRef) {
        match value {
            JsonOf::Str(s) => self.string(matches!(s, Cow::Owned(_))),
            JsonOf::Arr(items) => {
                self.container(items.len());
                items.iter().for_each(|item| self.of(item));
            }
            JsonOf::Obj(fields) => {
                self.container(fields.len());
                for (key, field) in fields {
                    self.string(matches!(key, Cow::Owned(_)));
                    self.of(field);
                }
            }
            _ => {}
        }
    }
}

#[test]
fn a_borrowed_tree_is_its_containers_and_a_hostile_one_stays_inside_the_budget() {
    let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden");
    let report = std::fs::read_to_string(format!("{golden}/memcached_quick.report.json")).unwrap();
    // One escaped string, so that both kinds are in the count.
    let report = report.replacen("\"size-1024\"", "\"size\\u002d1024\"", 1);
    assert!(report.contains("\\u002d"));

    let (borrowed, asked) = measured(|| JsonRef::parse(&report).unwrap());
    let mut census = Census::default();
    census.of(&borrowed);
    let Census {
        containers,
        doublings,
        strings,
        escaped,
    } = census;
    // One allocation per non-empty container and one per escaped string (its buffer
    // starts empty and grows once, to eight bytes, for the run before the escape and
    // once more for what follows); a container is moved only when it outgrows its
    // slots.  These repeat exactly.  At the parent commit every key and every string
    // was an allocation too: 494, the owned count below.
    assert_eq!((containers, strings, escaped), (74, 420, 1));
    assert_eq!(asked.allocations, containers + escaped);
    assert_eq!(asked.allocations, 75);
    assert_eq!(asked.growths, doublings + escaped);
    assert_eq!(asked.growths, 11);

    let (owned, owned_asked) = measured(|| Json::parse(&report).unwrap());
    // (None of this report's strings is empty; an empty one would not allocate.)
    assert_eq!(owned_asked.allocations, containers + strings);
    assert_eq!(owned_asked.allocations, 494);
    assert_eq!(owned_asked.growths, asked.growths);

    // The reader copies the names a shard keeps and nothing else, so it costs the same
    // from either tree.
    let (from_borrowed, reader) = measured(|| shard_from_report_json(&borrowed, 1).unwrap());
    let (from_owned, reader_of_owned) = measured(|| shard_from_report_json(&owned, 1).unwrap());
    assert_eq!(from_borrowed, from_owned);
    assert_eq!(reader.allocations, reader_of_owned.allocations);
    assert_eq!(reader.allocations, 91);
    drop((borrowed, owned, from_borrowed, from_owned));

    // The most tree per byte of text is containers of one element, and the most per
    // value is such containers inside one another.  A value is at most a container of
    // eight slots, and its own slot in a parent that doubles (the old and the new
    // generation live together while it moves): eleven slots.
    let slot = std::mem::size_of::<(Cow<str>, JsonRef)>();
    assert_eq!(slot, std::mem::size_of::<(String, Json)>());
    let allowed = (MAX_NODES * 11 * slot) as u64;
    let nested = format!("{}1{},", "{\"\":".repeat(126), "}".repeat(126));
    for element in ["[1],", "{\"\":1},", "[[]],", nested.as_str()] {
        let shape = &element[..element.len().min(8)];
        let hostile = format!("[{}1]", element.repeat(MAX_NODES / 2));
        let (refused, asked) = measured(|| JsonRef::parse(&hostile).map(drop));
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
