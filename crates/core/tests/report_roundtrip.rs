//! One shard document: a shard written whole as a `dprof-report/v1` report
//! (`schema::report_of_shard`, what a collector snapshots and loadgen pushes) reads back
//! as itself, `read(render(s)) == s`, for every fold:
//!
//! 1. folds of the generated shards the merge property tests use, in any order, whole
//!    and in part;
//! 2. folds of every golden report's shard: each alone, each folded three times (what
//!    the golden collector store holds) and all of them together.
//!
//! The third kind, folds whose counts saturated at 2^53 and whose rates at `f64::MAX`,
//! is `merge.rs`'s `folding_maximal_counts_saturates` and
//! `folding_maximal_rates_saturates`.
//!
//! `meta.thread` is a producer index that no merged report carries: a fold has 0 there
//! (it sums no thread index), and a report reads as 0, so it is 0 on both sides.

use dprof_core::merge::{
    fold, ProfileShard, ShardMeta, ShardMissRow, ShardProfileRow, ShardUtilization,
    ShardUtilizationOrigin, ShardUtilizationRow, ShardWorkingSet, ShardWorkingSetRow,
};
use dprof_core::schema::{report_of_shard, shard_from_report_json, JsonTape};
use proptest::prelude::*;

#[path = "support/shards.rs"]
mod shards;
use shards::{permutation, shard_set_strategy};

/// `shard` written whole and read back at its own ordinal.
fn round_trip(shard: &ProfileShard) -> Result<ProfileShard, String> {
    let text = report_of_shard(shard.clone());
    shard_from_report_json(&JsonTape::parse_local(&text)?, shard.ordinal)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn a_fold_of_generated_shards_reads_back_from_its_report(
        shards in shard_set_strategy(),
        key in any::<u64>(),
        cut in 1usize..12,
    ) {
        let order: Vec<&ProfileShard> = permutation(shards.len(), key)
            .into_iter()
            .map(|i| &shards[i])
            .collect();
        for part in [&order[..], &order[..cut.min(order.len())]] {
            let folded = fold(part);
            prop_assert_eq!(folded.meta.thread, 0);
            prop_assert_eq!(round_trip(&folded), Ok(folded));
        }
    }
}

#[test]
fn folds_of_every_golden_report_read_back_from_their_reports() {
    let golden = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden");
    let mut paths: Vec<_> = std::fs::read_dir(&golden)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.to_string_lossy().ends_with(".report.json"))
        .collect();
    paths.sort();
    assert_eq!(paths.len(), 4, "{paths:?}");
    let shards: Vec<ProfileShard> = (1..)
        .zip(&paths)
        .map(|(ordinal, path)| {
            let text = std::fs::read_to_string(path).unwrap();
            shard_from_report_json(&JsonTape::parse(&text).unwrap(), ordinal).unwrap()
        })
        .collect();
    let mut folds = Vec::new();
    for shard in &shards {
        let thrice: Vec<ProfileShard> = (0..3)
            .map(|i| ProfileShard {
                ordinal: shard.ordinal * 10 + i,
                ..shard.clone()
            })
            .collect();
        folds.push(fold(&[shard]));
        folds.push(fold(&thrice.iter().collect::<Vec<_>>()));
    }
    folds.push(fold(&shards.iter().collect::<Vec<_>>()));
    for folded in folds {
        assert!(!folded.data_profile.is_empty());
        assert_eq!(round_trip(&folded), Ok(folded));
    }
}
