//! Integration tests spanning the whole stack: machine + kernel + workloads + DProf +
//! baselines.  These check the *qualitative* claims of the paper's evaluation (who tops
//! the profile, what bounces, which direction the fixes move throughput) at a reduced
//! scale.

use dprof::core::report::{render_views, View};
use dprof::prelude::*;

fn quick_dprof() -> DprofConfig {
    DprofConfig {
        sample_rounds: 60,
        history_types: 3,
        history: HistoryConfig {
            history_sets: 3,
            ..Default::default()
        },
        ..Default::default()
    }
}

#[test]
fn memcached_dprof_finds_bouncing_packet_types() {
    let config = MemcachedConfig {
        cores: 4,
        tx_policy: TxQueuePolicy::HashTxQueue,
        ..Default::default()
    };
    let (mut machine, mut kernel, mut workload) = Memcached::setup(config);
    for _ in 0..15 {
        workload.step(&mut machine, &mut kernel);
    }
    let mut profile =
        Dprof::new(quick_dprof()).run(&mut machine, &mut kernel, |m, k| workload.step(m, k));

    // Table 6.1 shape: payload and skbuff near the top, both bouncing; the SLAB
    // bookkeeping types appear and bounce too.
    assert!(!profile.data_profile.is_empty());
    let payload = profile
        .profile_row("size-1024")
        .expect("size-1024 in profile");
    assert!(
        payload.bounce,
        "packet payload must bounce with the hash TX policy"
    );
    assert!(payload.pct_of_l1_misses > 5.0);
    assert!(profile.rank_of("size-1024").unwrap() < 4);
    let skbuff = profile.profile_row("skbuff").expect("skbuff in profile");
    assert!(skbuff.bounce);
    // The profile's report renders without panicking and mentions the key types.
    let text = render_views(&profile.report(), &View::ALL, 8);
    assert!(text.contains("size-1024"));
    assert!(text.contains("Data profile"));
    // ... and does not depend on the data-flow map's iteration order: each re-collected
    // map hashes with fresh keys.
    assert!(profile.data_flows.len() >= 2);
    for _ in 0..16 {
        profile.data_flows = profile.data_flows.drain().collect();
        assert_eq!(render_views(&profile.report(), &View::ALL, 8), text);
    }
}

#[test]
fn memcached_data_flow_shows_transmit_path_core_crossing() {
    let config = MemcachedConfig {
        cores: 4,
        tx_policy: TxQueuePolicy::HashTxQueue,
        ..Default::default()
    };
    let (mut machine, mut kernel, mut workload) = Memcached::setup(config);
    for _ in 0..15 {
        workload.step(&mut machine, &mut kernel);
    }
    let mut cfg = quick_dprof();
    cfg.history.history_sets = 5;
    let profile = Dprof::new(cfg).run(&mut machine, &mut kernel, |m, k| workload.step(m, k));

    // Figure 6-1 shape: some profiled packet-related type shows a core transition on
    // its data-flow graph, and the transition involves the transmit machinery.
    let mut found_crossing = false;
    let mut crossing_functions = Vec::new();
    for graph in profile.data_flows.values() {
        for e in graph.cpu_crossing_edges() {
            found_crossing = true;
            crossing_functions.push(e.from.clone());
            crossing_functions.push(e.to.clone());
        }
    }
    assert!(
        found_crossing,
        "expected at least one core-crossing edge in the data flows"
    );
    let tx_related = [
        "pfifo_fast_enqueue",
        "pfifo_fast_dequeue",
        "dev_hard_start_xmit",
        "ixgbe_xmit_frame",
        "ixgbe_clean_tx_irq",
        "dev_kfree_skb_irq",
        "__kfree_skb",
        "kfree",
    ];
    assert!(
        crossing_functions
            .iter()
            .any(|f| tx_related.contains(&&**f)),
        "core crossings should involve the transmit path, got {crossing_functions:?}"
    );
}

#[test]
fn memcached_local_queue_fix_improves_throughput() {
    let run = |policy| {
        let config = MemcachedConfig {
            cores: 4,
            tx_policy: policy,
            ..Default::default()
        };
        let (mut m, mut k, mut w) = Memcached::setup(config);
        measure_throughput(&mut m, &mut k, &mut w, 20, 80).throughput_rps
    };
    let hash = run(TxQueuePolicy::HashTxQueue);
    let local = run(TxQueuePolicy::LocalQueue);
    assert!(
        local > hash * 1.10,
        "local queue selection should win by a wide margin ({local:.0} vs {hash:.0} req/s)"
    );
}

#[test]
fn apache_working_set_explodes_at_drop_off_and_admission_control_helps() {
    let profile_run = |config: ApacheConfig| {
        let mut config = config;
        config.cores = 4;
        let (mut machine, mut kernel, mut workload) = Apache::setup(config);
        for _ in 0..40 {
            workload.step(&mut machine, &mut kernel);
        }
        let profile =
            Dprof::new(quick_dprof()).run(&mut machine, &mut kernel, |m, k| workload.step(m, k));
        let ws = profile
            .profile_row("tcp-sock")
            .map(|r| r.working_set_bytes)
            .unwrap_or(0.0);
        (ws, workload.avg_backlog(&kernel))
    };
    let (peak_ws, peak_backlog) = profile_run(ApacheConfig::peak());
    let (drop_ws, drop_backlog) = profile_run(ApacheConfig::drop_off());
    assert!(
        drop_backlog > peak_backlog,
        "overload must grow the accept backlog"
    );
    assert!(
        drop_ws > peak_ws * 2.0,
        "tcp-sock working set should grow sharply at drop off ({drop_ws:.0} vs {peak_ws:.0} bytes)"
    );

    let tput = |config: ApacheConfig| {
        let mut config = config;
        config.cores = 4;
        let (mut m, mut k, mut w) = Apache::setup(config);
        measure_throughput(&mut m, &mut k, &mut w, 40, 100).throughput_rps
    };
    let bad = tput(ApacheConfig::drop_off());
    let good = tput(ApacheConfig::admission_control());
    assert!(
        good > bad,
        "admission control should improve overloaded throughput ({good:.0} vs {bad:.0})"
    );
}

#[test]
fn baselines_see_symptoms_but_dprof_names_the_data() {
    let config = MemcachedConfig {
        cores: 4,
        tx_policy: TxQueuePolicy::HashTxQueue,
        ..Default::default()
    };
    let (mut machine, mut kernel, mut workload) = Memcached::setup(config);
    for _ in 0..60 {
        workload.step(&mut machine, &mut kernel);
    }
    // OProfile: many functions above 1% (the thesis counts 29), no data types at all.
    let oprofile = OprofileReport::collect(&machine);
    assert!(
        oprofile.functions_above(1.0) >= 8,
        "expected many warm functions"
    );
    // lock-stat: the Qdisc lock is visible with its acquiring functions.
    let lockstat = LockstatReport::collect(&machine, &kernel);
    let qdisc = lockstat.row("Qdisc lock").expect("Qdisc lock contended");
    assert!(qdisc.functions.iter().any(|f| f == "dev_queue_xmit"));
    // epoll / wait-queue locks also show up, as in Table 6.2.
    assert!(lockstat.row("epoll lock").is_some());
    assert!(lockstat.row("wait queue").is_some());
}

#[test]
fn dprof_overhead_grows_with_sampling_rate() {
    let run = |interval: u64| {
        let config = MemcachedConfig {
            cores: 4,
            ..Default::default()
        };
        let (mut m, mut k, mut w) = Memcached::setup(config);
        if interval > 0 {
            m.configure_ibs(dprof::machine::IbsConfig::with_interval(interval));
        }
        measure_throughput(&mut m, &mut k, &mut w, 15, 60)
    };
    let off = run(0);
    let light = run(500);
    let heavy = run(20);
    assert!(light.throughput_rps <= off.throughput_rps);
    assert!(
        heavy.throughput_rps < light.throughput_rps,
        "heavier sampling must cost more throughput"
    );
    assert!(heavy.profiling_fraction > light.profiling_fraction);
}

#[test]
fn miss_classification_flags_sharing_under_hash_policy() {
    let config = MemcachedConfig {
        cores: 4,
        tx_policy: TxQueuePolicy::HashTxQueue,
        ..Default::default()
    };
    let (mut machine, mut kernel, mut workload) = Memcached::setup(config);
    for _ in 0..15 {
        workload.step(&mut machine, &mut kernel);
    }
    let profile =
        Dprof::new(quick_dprof()).run(&mut machine, &mut kernel, |m, k| workload.step(m, k));
    // The payload's misses should include a substantial invalidation/sharing component.
    let class = profile
        .miss_classification
        .iter()
        .find(|c| &*c.name == "size-1024")
        .expect("size-1024 classified");
    assert!(
        class.invalidation > 0.1,
        "payload misses should show a sharing component, got {class:?}"
    );
}
