//! A case study is its `dprof` session: run through the CLI's driver with the session
//! recorded, written as `dprof record` writes it and replayed, it gives the study's own
//! merged data profile and data flows, and so the study's own tables.

use dprof_bench::{profile_apache, profile_memcached, ApacheStudy, MemcachedStudy, Scale};
use dprof_cli::driver::{parse_workload_spec, run_single, ApacheLoad, RunOptions, TxPolicyChoice};
use dprof_cli::merge::{merge, MergedReport};
use dprof_trace::SessionParams;
use workloads::ApacheConfig;

use dprof_trace as trace;
use sim_machine as machine;
#[path = "../../../tests/support/dtrace.rs"]
mod dtrace;

/// Records `session` with the CLI's driver (memcached with the hash transmit-queue
/// policy, Apache at `apache_load`), replays the trace and returns the replay's merged
/// report, after checking that it is the live run's.
fn record_and_replay(session: &SessionParams, apache_load: ApacheLoad) -> MergedReport {
    let options = RunOptions {
        workload: parse_workload_spec(&session.workload).expect("a built-in workload"),
        threads: session.threads,
        cores: session.cores,
        warmup_rounds: session.warmup_rounds,
        sample_rounds: session.sample_rounds,
        sampling: session.sampling,
        history_types: session.history_types,
        history_sets: session.history_sets,
        tx_policy: TxPolicyChoice::Hash,
        apache_load,
        base_seed: session.base_seed,
        record_session: true,
    };
    assert_eq!(&options.session_params(), session);
    let mut live = vec![run_single(&options, 0)];
    let file = dprof_cli::session_trace(options.session_params(), &mut live).expect("recorded");
    let reader = dtrace::on_disk(&file);
    let replays = trace::replay_all_streaming(&reader).expect("the trace replays");
    let (replayed, trailing): (Vec<_>, Vec<_>) = replays.into_iter().unzip();
    assert_eq!(trailing, [0], "the replay consumed the whole recording");
    let (live, replayed) = (merge(&live), merge(&replayed));
    assert_eq!(replayed.data_profile, live.data_profile);
    assert_eq!(replayed.data_flows, live.data_flows);
    replayed
}

#[test]
fn the_memcached_study_is_its_recording() {
    let study = profile_memcached(&Scale::quick());
    let replayed = record_and_replay(&study.session, ApacheLoad::DropOff);
    assert!(study.skbuff_flow().is_some(), "skbuff data flow collected");
    assert_eq!(replayed.data_profile, study.report.data_profile);
    assert_eq!(replayed.data_flows, study.report.data_flows);

    let (table, figure) = (study.render_table_6_1(), study.render_figure_6_1());
    let replayed = MemcachedStudy {
        report: replayed,
        ..study
    };
    assert_eq!(replayed.render_table_6_1(), table);
    assert_eq!(replayed.render_figure_6_1(), figure);
}

#[test]
fn the_apache_drop_off_study_is_its_recording() {
    let study = profile_apache(&Scale::quick(), ApacheConfig::drop_off());
    let replayed = record_and_replay(&study.session, ApacheLoad::DropOff);
    assert!(!study.report.data_profile.is_empty());
    assert_eq!(replayed.data_profile, study.report.data_profile);
    assert_eq!(replayed.data_flows, study.report.data_flows);

    let table = study.render_data_profile("Table 6.5", "drop off");
    let replayed = ApacheStudy {
        report: replayed,
        ..study
    };
    assert_eq!(replayed.render_data_profile("Table 6.5", "drop off"), table);
}
